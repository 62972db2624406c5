"""Memory guards: the path bundle, the backward pass, the path reports,
the scenario run and the simulate check hold only what their callers read.

``tracemalloc`` traces numpy's buffers on every thread, so a peak counts
the design that the backward pass builds ahead on its worker thread too.
Each bound is set against one y store, (N + 1) x n x m doubles, which a
library caller may keep and a scenario run keeps none of, or against the
dense bundle, every node of W and of the counts.  A drawn bundle stores
every k-th node only and the pass rebuilds the others into k node
stores, so a guard on the pass counts the draw too.
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
# 20k x 50 with m = d = J = 1: one y store, and the dense bundle, float W
# and int32 counts at every node
ONE_Y = 51 * 20_000 * 8
DENSE_BUNDLE = 51 * 20_000 * (8 + 4)


def draw():
    return simulate_paths(TimeGrid.uniform(1.0, 50), MARKS, 1, 20_000, seed=7)


@pytest.fixture(scope="module")
def paths():
    return draw()


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
    # each y store is 8.2 MB, and each whole z or u store another 8 MB; the
    # step's design, its basis, the fits and the design built ahead take
    # about 6 MB.  The drawn bundle stores 8 nodes (1.9 MB) and the pass
    # rebuilds nodes into 8 node stores (1.9 MB): the y stores and the rest
    # stay below the y stores and a dense bundle (12.2 MB), which the
    # bundle that stored every node exceeded with the step temporaries
    sols, peak = traced_peak(lambda: solve_backward_many(problems(), draw()))
    one_y = sols[0].y.nbytes
    assert one_y == ONE_Y
    assert all(sol.z is None and sol.u is None for sol in sols)
    assert peak < 2 * one_y + DENSE_BUNDLE
    # the guard sees the integrand stores when a pass keeps them
    kept, kept_peak = traced_peak(
        lambda: solve_backward_many(problems(), paths, keep=("y", "z", "u"))
    )
    assert kept_peak > 3 * one_y + sum(sol.z.nbytes + sol.u.nbytes for sol in kept) / 2


def test_streamed_pass_holds_two_nodes_per_problem_and_its_step_temporaries():
    # without stores, each problem's y is a two-node ring (2 x 0.16 MB) and
    # its z and u one step each; the step temporaries take 4-6 MB, by how the
    # design built ahead overlaps the fits.  With the draw: its 8 stored
    # nodes (1.9 MB) and the pass's 8 node stores (1.9 MB), in all about 10 MB,
    # below the dense bundle alone (12.2 MB); a bundle that stored every
    # node peaked at 18.4 MB with the pass
    sols, peak = traced_peak(lambda: solve_backward_many(problems(), draw(), keep=()))
    assert all(sol.y is None and sol.z is None and sol.u is None for sol in sols)
    assert peak < DENSE_BUNDLE


def test_drawn_bundle_stores_every_kth_node_and_holds_no_dense_store():
    # k = 8: nodes 0, 8, ..., 48 and 50; the draw's two threads each hold
    # a node and a step's draws of their half of the paths
    paths, peak = traced_peak(draw)
    stored = paths.brownian.nbytes + paths.count_nodes.nbytes
    assert paths.stored_nodes == [*range(0, 50, 8), 50]
    assert stored == 8 * 20_000 * (8 + 4)
    assert peak < stored + DENSE_BUNDLE / 8


def test_scenario_run_streams_its_checks_and_holds_no_y_store(tmp_path):
    scenario = Scenario.from_dict({
        "schema": "bsdelab/scenario-v1",
        "name": "streamed",
        "grid": {"horizon": 1.0, "steps": 50},
        "brownian_dim": 1,
        "marks": {"points": [[1.0]], "weights": [1.0]},
        "generator": {"kind": "scaled-jump", "scale": 2.0},
        "terminal": {"kind": "counts", "component": 0},
        "generator2": {"kind": "zero", "state_dim": 1},
        "terminal2": {"kind": "constant", "value": [0.0]},
        "solver": {"paths": 20_000},
        "seed": 7,
        "checks": [{"kind": "solve"}, {"kind": "comparison-empirical", "expect": "violated"}],
    })
    run = _ScenarioRun(scenario, ("solve", "comparison-empirical"))
    writer = _ArtifactWriter(tmp_path, "csv")
    rows, peak = traced_peak(lambda: [run.run_check(spec, writer) for spec in scenario.checks])
    assert [row["check"] for row in rows] == ["solve", "comparison-empirical"]
    sol1, sol2 = run.solutions()
    assert sol1.y is None and sol2.y is None
    assert (tmp_path / "y_stats.csv").exists() and (tmp_path / "gap_stats.csv").exists()
    # the draw's stored nodes, the pass's node stores, its step
    # temporaries and two node blocks per problem; the node reductions' own
    # temporaries, a node block or two, run beside the step and stay within
    # the spread of the pass's peak
    assert peak < DENSE_BUNDLE


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
    run.paths()
    # the node iterator holds two nodes and one step's draws (about 1 MB)
    _, peak = traced_peak(lambda: _simulate(run, {}, _ArtifactWriter(tmp_path, "csv")))
    assert (tmp_path / "path_stats.csv").exists()
    assert peak < ONE_Y / 4
