"""Memory guards: the backward pass, the path reports and the simulate
check hold only what their callers read.

``tracemalloc`` traces numpy's buffers on every thread, so a peak counts
the design that the backward pass builds ahead on its worker thread too.
Each bound is set against the y stores, which every caller reads.
"""

import tracemalloc

import numpy as np
import pytest

from bsdelab.cli import Scenario, _ArtifactWriter, _ScenarioRun, _simulate
from bsdelab.conditions import comparison_path_report, viability_path_report
from bsdelab.generators import ScaledJumpGen, ZeroGen
from bsdelab.geometry import Ball
from bsdelab.solver import TerminalCondition, solve_backward_many
from bsdelab.stochastic import FiniteMarkMeasure, TimeGrid, simulate_paths

MARKS = FiniteMarkMeasure([[1.0]], [1.0])


@pytest.fixture(scope="module")
def paths():
    return simulate_paths(TimeGrid.uniform(1.0, 50), MARKS, 1, 20_000, seed=7)


def problems():
    counts = TerminalCondition(fn=lambda w, k: k[:, 0].astype(float), state_dim=1)
    zero = TerminalCondition(fn=lambda w, k: np.zeros(w.shape[0]), state_dim=1)
    return [(ScaledJumpGen(2.0), counts), (ZeroGen(1, 1, MARKS), zero)]


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated beyond what was
    held when it started, in bytes."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return result, peak


def test_default_pass_holds_its_y_stores_and_step_temporaries_only(paths):
    # 20k x 50 with m = d = J = 1: each y store is 8.2 MB, and each whole z
    # or u store another 8 MB; the step's design, its basis, the fits and
    # the design built ahead take about 6 MB
    sols, peak = traced_peak(lambda: solve_backward_many(problems(), paths))
    one_y = sols[0].y.nbytes
    assert all(sol.z is None and sol.u is None for sol in sols)
    assert peak < 3 * one_y
    # the guard sees the integrand stores when a pass keeps them
    kept, kept_peak = traced_peak(lambda: solve_backward_many(problems(), paths, integrands=True))
    assert kept_peak > 3 * one_y + sum(sol.z.nbytes + sol.u.nbytes for sol in kept) / 2


def test_comparison_report_holds_one_node_at_a_time(paths):
    sol1, sol2 = solve_backward_many(problems(), paths)
    report, peak = traced_peak(lambda: comparison_path_report(sol1, sol2))
    assert report.min_gap_per_time.shape == (51,)
    assert peak < sol1.y.nbytes / 4


def test_viability_report_holds_one_node_at_a_time(paths):
    sol, _ = solve_backward_many(problems(), paths)
    report, peak = traced_peak(lambda: viability_path_report(sol, Ball([0.0], 1e3)))
    assert report.mean_distance.shape == (51,)
    assert peak < sol.y.nbytes / 4


def test_simulate_check_holds_one_node_at_a_time(tmp_path):
    scenario = Scenario.from_dict({
        "schema": "bsdelab/scenario-v1",
        "name": "simulate",
        "grid": {"horizon": 1.0, "steps": 50},
        "brownian_dim": 1,
        "marks": {"points": [[1.0]], "weights": [1.0]},
        "solver": {"paths": 20_000},
        "seed": 7,
        "checks": [{"kind": "simulate"}],
    })
    run = _ScenarioRun(scenario, ("simulate",))
    brownian = run.paths().brownian
    _, peak = traced_peak(lambda: _simulate(run, {}, _ArtifactWriter(tmp_path, "csv")))
    assert (tmp_path / "path_stats.csv").exists()
    assert peak < brownian.nbytes / 4
