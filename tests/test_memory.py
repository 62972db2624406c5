"""Memory guards: the path bundle, the backward pass, its node reducers,
the scenario run and the simulate check hold only what their callers read.

``tracemalloc`` traces numpy's buffers on every thread, so a peak counts
the design that the backward pass builds ahead on its worker thread too.
Each bound is set against one y store, (N + 1) x n x m doubles, which the
pass never holds, or against the dense bundle, every node of W and of the
counts.  A drawn bundle stores every k-th node only and the pass rebuilds
the others into k node stores, so a guard on the pass counts the draw too.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import Collector

from bsdelab.cli import Scenario, _ArtifactWriter, _ScenarioRun, _simulate
from bsdelab.conditions import ComparisonPathReport, ViabilityPathReport
from bsdelab.generators import ScaledJumpGen, ZeroGen
from bsdelab.geometry import Ball
from bsdelab.solver import DeviationCurves, TerminalCondition, solve_backward_many
from bsdelab.stochastic import FiniteMarkMeasure, TimeGrid, simulate_paths

MARKS = FiniteMarkMeasure([[1.0]], [1.0])
# 20k x 50 with m = d = J = 1: one y store, and the dense bundle, float W
# and int32 counts at every node
ONE_Y = 51 * 20_000 * 8
DENSE_BUNDLE = 51 * 20_000 * (8 + 4)


def draw():
    return simulate_paths(TimeGrid.uniform(1.0, 50), MARKS, 1, 20_000, seed=7)


def problems():
    counts = TerminalCondition(fn=lambda w, k: k[:, 0].astype(float), state_dim=1)
    zero = TerminalCondition(fn=lambda w, k: np.zeros(w.shape[0]), state_dim=1)
    return [(ScaledJumpGen(2.0), counts), (ZeroGen(1, 1, MARKS), zero)]


def curves_problems():
    """A driver and its zero-driver base, both with the count payoff."""
    counts = TerminalCondition(fn=lambda w, k: k[:, 0].astype(float), state_dim=1)
    return [(ScaledJumpGen(2.0), counts), (ZeroGen(1, 1, MARKS), counts)]


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


def test_streamed_pass_holds_two_nodes_per_problem_and_its_step_temporaries():
    # each problem's y is a two-node ring (2 x 0.16 MB), and its z and u
    # two-step rings; the step temporaries take 4-6 MB, by how the design
    # built ahead overlaps the fits.  With the draw: its 8 stored nodes
    # (1.9 MB) and the pass's 8 node stores (1.9 MB), in all about 10 MB,
    # below the dense bundle alone (12.2 MB); a bundle that stored every
    # node peaked at 18.4 MB with the pass
    _, peak = traced_peak(lambda: solve_backward_many(problems(), draw()))
    assert peak < DENSE_BUNDLE


def test_pass_feeding_the_deviation_curves_holds_no_store():
    # the curves read integrands, so both problems fit z and u, whose
    # two-step rings and wider targets (3 columns) add under 1 MB: the pass
    # peaked at 10.6 MB, as the streamed pass above does.  The curves keep
    # one scalar per node and per step; whole z and u stores would add
    # 16 MB per problem
    def solve():
        paths = draw()
        curves = DeviationCurves(paths.grid, paths.marks)
        solve_backward_many(curves_problems(), paths, on_node=curves)
        return curves

    curves, peak = traced_peak(solve)
    assert curves.total.shape == (51,) and curves.total[0] > 0.0
    assert peak < DENSE_BUNDLE


def collect(paths):
    """The whole y, z and u stores of :func:`curves_problems` on ``paths``."""
    stores = Collector()
    solve_backward_many(curves_problems(), paths, on_node=stores)
    return stores


@pytest.fixture(scope="module")
def stores():
    paths = draw()
    return paths, collect(paths)


def fed_node_by_node(reduce, stores):
    """``reduce`` fed the collected stores in pass order, with no pass."""
    n_steps = stores.y[0].shape[0] - 1
    for i in range(n_steps, -1, -1):
        steps = (None, None)
        if i < n_steps:
            steps = (tuple(z[i] for z in stores.z), tuple(u[i] for u in stores.u))
        reduce(i, tuple(y[i] for y in stores.y), *steps)
    return reduce


def test_guard_counts_the_stores_a_reducer_keeps():
    # the pass that feeds the curves above, with a reducer that copies every node and
    # step: each problem's y store (8.2 MB) and z and u stores (8 MB each)
    # stay held, so the peak is above them
    kept, peak = traced_peak(lambda: collect(draw()))
    assert kept.y[0].nbytes == ONE_Y
    assert peak > sum(store.nbytes for name in ("y", "z", "u") for store in getattr(kept, name))


def test_comparison_report_holds_one_node_at_a_time(stores):
    paths, kept = stores
    report, peak = traced_peak(lambda: fed_node_by_node(ComparisonPathReport(paths.grid.nodes), kept))
    assert report.min_gap_per_time.shape == (51,) and report.gap_at_zero.shape == (1,)
    assert peak < ONE_Y / 4


def test_viability_report_holds_one_node_at_a_time(stores):
    paths, kept = stores
    report = ViabilityPathReport(Ball([0.0], 1e3), paths.grid.nodes)
    report, peak = traced_peak(lambda: fed_node_by_node(report, kept))
    assert report.mean_distance.shape == (51,)
    assert peak < ONE_Y / 4


def test_deviation_curves_hold_one_step_at_a_time(stores):
    paths, kept = stores
    curves, peak = traced_peak(lambda: fed_node_by_node(DeviationCurves(paths.grid, paths.marks), kept))
    assert curves.total.shape == (51,) and curves.total[0] > 0.0
    assert peak < ONE_Y / 4


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
    assert (tmp_path / "y_stats.csv").exists() and (tmp_path / "gap_stats.csv").exists()
    # the draw's stored nodes, the pass's node stores, its step
    # temporaries and two node blocks per problem; the node reductions' own
    # temporaries, a node block or two, run beside the step and stay within
    # the spread of the pass's peak
    assert peak < DENSE_BUNDLE


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
