"""End-to-end tests for the scenario runner and command line front end.

Covers config validation (error messages carry the offending field
path), artifact determinism (same config and seed reproduce every table
byte for byte), the manifest contract (every emitted file is listed with
its digest), table formats, exit codes, and the reproduction presets.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsdelab.cli
from bsdelab.__main__ import BLAS_VARS
from bsdelab.cli import (
    PRESET_NAMES,
    RunManifest,
    Scenario,
    ScenarioError,
    _cell,
    _MeanNorms,
    _NodeStats,
    _PRESETS,
    main,
    reproduce,
    run_scenario,
)
from bsdelab.conditions import ComparisonPathReport, ViabilityPathReport
from bsdelab.solver import RegressionBasis, replay_nodes, solve_backward, solve_backward_many
from bsdelab.stochastic import simulate_paths


def solve_config(**overrides) -> dict:
    """A small single-driver scenario that solves in well under a second."""
    cfg = {
        "schema": "bsdelab/scenario-v1",
        "name": "smoke",
        "grid": {"horizon": 1.0, "steps": 5},
        "brownian_dim": 1,
        "marks": {"points": [[1.0]], "weights": [1.0]},
        "generator": {"kind": "scaled-jump", "scale": 0.5},
        "terminal": {"kind": "counts", "component": 0},
        "solver": {"paths": 800, "basis_degree": 1, "mode": "explicit"},
        "seed": 3,
        "checks": [{"kind": "solve"}],
    }
    cfg.update(overrides)
    return cfg


def kept_solution(cfg):
    """The primary problem of ``cfg`` solved again on the run's bundle, its
    y store kept: a run keeps none."""
    s = Scenario.from_dict(cfg)
    paths = simulate_paths(s.grid, s.marks, s.brownian_dim, s.solver.paths, s.seed)
    return solve_backward(
        s.generator, s.terminal, paths, basis=RegressionBasis(s.solver.basis_degree),
        mode=s.solver.mode,
    )


def read_artifacts(out_dir) -> dict:
    """Map artifact name to raw bytes for everything except the manifest."""
    return {
        p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"
    }


# ---------------------------------------------------------------------------
# config validation


def test_validation_reports_offending_field_path():
    cases = [
        ({"schema": "bsdelab/scenario-v2"}, "schema"),
        ({"grid": {"horizon": -1.0, "steps": 5}}, "grid.horizon"),
        ({"grid": {"horizon": 1.0, "steps": 0}}, "grid.steps"),
        ({"grid": {"horizon": 1.0}}, "grid.steps"),
        ({"brownian_dim": 0}, "brownian_dim"),
        ({"generator": {"kind": "zero", "state_dim": 0}}, "generator.state_dim"),
        ({"generator": {"kind": "zero", "state_dim": -1}}, "generator.state_dim"),
        ({"seed": -1}, "seed"),
        ({"solver": {"paths": 0}}, "solver.paths"),
        ({"solver": {"paths": 10, "mode": "magic"}}, "solver.mode"),
        ({"generator": {"kind": "warp"}}, "generator.kind"),
        ({"terminal": {"kind": "warp"}}, "terminal.kind"),
        ({"target": {"kind": "warp"}}, "target.kind"),
        ({"checks": [{"kind": "solve"}, {"kind": "warp"}]}, "checks[1].kind"),
        ({"marks": {"points": [[1.0]], "weights": []}}, "marks.weights"),
        ({"checks": [{"kind": "viability", "c_max": -1.0}]}, "checks[0].c_max"),
        ({"checks": [{"kind": "viability", "threshold": -0.5}]}, "checks[0].threshold"),
        ({"checks": [{"kind": "viability-empirical", "level": -0.05}]}, "checks[0].level"),
        ({"checks": [{"kind": "structural", "c_max": -2.0}]}, "checks[0].c_max"),
    ]
    for overrides, expected_path in cases:
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(solve_config(**overrides))
        assert err.value.field_path == expected_path, overrides
        assert str(err.value).startswith(expected_path + ": ")


def test_terminal_requires_matching_generator_dimension():
    # circle-angle produces points in the plane, so a scalar driver cannot host it
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(solve_config(terminal={"kind": "circle-angle"}))
    assert err.value.field_path == "terminal"

    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(solve_config(terminal={"kind": "counts", "component": 3}))
    assert err.value.field_path == "terminal.component"

    cfg = solve_config(terminal={"kind": "constant", "value": [1.0, 2.0]})
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(cfg)
    assert err.value.field_path == "terminal.value"

    # a Brownian component must name one of the brownian_dim coordinates
    for component in (5, -1):
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(solve_config(terminal={"kind": "brownian", "component": component}))
        assert err.value.field_path == "terminal.component", component


def test_terminal_without_generator_is_rejected():
    cfg = solve_config()
    del cfg["generator"]
    cfg["checks"] = [{"kind": "simulate"}]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(cfg)
    assert err.value.field_path == "terminal"


def test_valid_config_builds_all_components():
    scenario = Scenario.from_dict(solve_config())
    assert scenario.name == "smoke"
    assert scenario.grid.n_steps == 5
    assert scenario.generator.state_dim == 1
    assert scenario.terminal is not None
    assert [c.kind for c in scenario.checks] == ["solve"]


# ---------------------------------------------------------------------------
# determinism and the manifest contract


def test_rerun_reproduces_every_artifact_byte_for_byte(tmp_path):
    cfg = solve_config()
    first = run_scenario(cfg, tmp_path / "a")
    second = run_scenario(cfg, tmp_path / "b")

    assert first.config_hash == second.config_hash
    assert first.files == second.files
    assert first.verdicts == second.verdicts

    bytes_a = read_artifacts(tmp_path / "a")
    bytes_b = read_artifacts(tmp_path / "b")
    assert bytes_a.keys() == bytes_b.keys()
    for name in bytes_a:
        assert bytes_a[name] == bytes_b[name], name


def test_manifest_lists_every_artifact_with_correct_digest(tmp_path):
    out = tmp_path / "run"
    manifest = run_scenario(solve_config(), out)

    doc = json.loads((out / "manifest.json").read_text())
    assert doc["schema"] == "bsdelab/manifest-v1"
    assert doc["config_hash"] == manifest.config_hash
    assert doc["seed"] == 3

    listed = {rec["path"]: rec["sha256"] for rec in doc["files"]}
    on_disk = read_artifacts(out)
    assert set(listed) == set(on_disk)
    for name, digest in listed.items():
        assert hashlib.sha256(on_disk[name]).hexdigest() == digest

    # one verdict row per executed check, and the verdicts table mirrors them
    assert [row["check"] for row in doc["verdicts"]] == ["solve"]
    assert manifest.all_passed is True
    header = (out / "verdicts.csv").read_text().splitlines()[0]
    assert header == "check,outcome,passed,value,detail"


def test_manifest_carries_per_step_regression_diagnostics_outside_the_tables(tmp_path):
    first = run_scenario(solve_config(), tmp_path / "a")
    second = run_scenario(solve_config(), tmp_path / "b")
    doc = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert [entry["step"] for entry in doc["regression"]] == list(range(5))
    for entry in doc["regression"]:
        assert set(entry) == {"step", "n_columns", "rank", "condition"}
        assert 0 < entry["rank"] <= entry["n_columns"] and entry["condition"] >= 1.0
    assert second.regression == first.regression == doc["regression"]
    assert read_artifacts(tmp_path / "a") == read_artifacts(tmp_path / "b")
    # a run that solves nothing has no diagnostics
    assert run_scenario(solve_config(), tmp_path / "c", checks=("simulate",)).regression == []


def test_manifest_times_the_draw_the_backward_pass_and_each_check_outside_the_tables(tmp_path):
    cfg = solve_config(checks=[{"kind": "simulate"}, {"kind": "solve"}])
    first = run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    doc = json.loads((tmp_path / "a" / "manifest.json").read_text())
    seconds = doc["seconds"]
    assert set(seconds) == {"draw", "backward", "backward_split", "checks"}
    assert [entry["check"] for entry in seconds["checks"]] == ["simulate", "solve"]
    assert seconds["draw"] > 0.0 and seconds["backward"] > 0.0
    # the pass's split: the worker's design and regression seconds, and the
    # main thread's wait for them, which lies within the pass; it waits at
    # least for the first step, which nothing overlaps; and the main
    # thread's seconds in fits, drivers and node reductions, and the seconds
    # rebuilding the bundle's segments, on either thread
    split = seconds["backward_split"]
    assert set(split) == {"design", "regression", "wait", "fit", "driver", "nodes", "redraw"}
    assert all(value >= 0.0 for value in split.values())
    assert split["design"] > 0.0 and split["regression"] > 0.0
    assert 0.0 < split["wait"] <= seconds["backward"]
    assert split["fit"] + split["driver"] + split["nodes"] <= seconds["backward"]
    assert all(entry["seconds"] > 0.0 for entry in seconds["checks"])
    assert first.seconds == seconds
    assert read_artifacts(tmp_path / "a") == read_artifacts(tmp_path / "b")
    # a run that draws nothing times its checks only
    no_draw = run_scenario(
        solve_config(generator2={"kind": "zero", "state_dim": 1},
                     checks=[{"kind": "comparison", "samples": 50, "expect": "certified"}]),
        tmp_path / "c",
    )
    assert set(no_draw.seconds) == {"checks"}


def test_solve_table_node_statistics_equal_reductions_over_the_whole_store(tmp_path):
    # two components, so each node's band, mean and std are per column
    cfg = solve_config(
        generator={"kind": "zero", "state_dim": 2},
        terminal={"kind": "circle-angle", "component": 0},
        grid={"horizon": 1.0, "steps": 7},
    )
    run_scenario(cfg, tmp_path / "out")
    sol = kept_solution(cfg)
    assert sol.state_dim == 2
    lo, hi = np.quantile(sol.y, [0.05, 0.95], axis=1)
    want = {"mean": sol.y.mean(axis=1), "std": sol.y.std(axis=1), "lo": lo, "hi": hi}
    with open(tmp_path / "out" / "y_stats.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    table = np.array(rows, dtype=float)
    for k in range(2):
        for name, values in want.items():
            column = table[:, header.index(f"y{k}_{name}")]
            assert column.tobytes() == np.ascontiguousarray(values[:, k]).tobytes(), (k, name)


def test_seed_override_changes_hash_and_outputs(tmp_path):
    base = run_scenario(solve_config(), tmp_path / "base")
    reseeded = run_scenario(solve_config(), tmp_path / "reseeded", seed=9)

    assert reseeded.seed == 9
    assert reseeded.config_hash != base.config_hash
    base_stats = (tmp_path / "base" / "y_stats.csv").read_bytes()
    reseeded_stats = (tmp_path / "reseeded" / "y_stats.csv").read_bytes()
    assert base_stats != reseeded_stats


def test_paths_and_steps_overrides_reach_the_simulation(tmp_path):
    cfg = solve_config(checks=[{"kind": "simulate"}])
    run_scenario(cfg, tmp_path, paths=900, steps=4)

    lines = (tmp_path / "path_stats.csv").read_text().splitlines()
    assert len(lines) == 1 + 5  # header plus one row per grid node
    doc = json.loads((tmp_path / "config.json").read_text())
    assert doc["solver"]["paths"] == 900
    assert doc["grid"]["steps"] == 4


def test_config_hash_matches_canonical_config_file(tmp_path):
    manifest = run_scenario(solve_config(), tmp_path)
    raw = (tmp_path / "config.json").read_bytes()
    assert hashlib.sha256(raw.rstrip(b"\n")).hexdigest() == manifest.config_hash
    # canonical form: sorted keys, no whitespace
    assert b": " not in raw and b", " not in raw


# ---------------------------------------------------------------------------
# table formats


def test_json_tables_carry_schema_and_rows(tmp_path):
    run_scenario(solve_config(), tmp_path, fmt="json")
    doc = json.loads((tmp_path / "y_stats.json").read_text())
    assert doc["schema"] == "bsdelab/table-v1"
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 6
    assert all(len(row) == len(doc["columns"]) for row in doc["rows"])
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert verdicts["columns"] == ["check", "outcome", "passed", "value", "detail"]


def test_csv_float_cells_round_trip_exactly(tmp_path):
    run_scenario(solve_config(), tmp_path)
    lines = (tmp_path / "y_stats.csv").read_text().splitlines()
    for line in lines[1:]:
        for cell in line.split(","):
            assert repr(float(cell)) == cell


def test_cell_formatting():
    assert _cell(True) == "true"
    assert _cell(False) == "false"
    assert _cell(np.bool_(True)) == "true"
    assert _cell(0.1) == "0.1"
    assert _cell(np.float64(2.5)) == "2.5"
    assert _cell(7) == "7"
    assert _cell(np.int64(7)) == "7"
    assert _cell("text") == "text"


@pytest.mark.parametrize(
    "make",
    [
        _NodeStats,
        lambda scenario: _MeanNorms(),
        lambda scenario: ViabilityPathReport(scenario.target, scenario.grid.nodes),
        lambda scenario: ComparisonPathReport(scenario.grid.nodes),
    ],
    ids=["node-stats", "mean-norms", "viability", "comparison"],
)
def test_each_node_reducer_reads_the_same_bytes_from_the_pass_and_a_kept_solution(make):
    # the unit circle inside the unit disc, dominating a constant below it
    scenario = Scenario.from_dict(solve_config(
        target={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        generator={"kind": "projection-drift"},
        terminal={"kind": "circle-angle", "component": 0},
        generator2={"kind": "zero", "state_dim": 2},
        terminal2={"kind": "constant", "value": [-1.5, -1.5]},
        grid={"horizon": 1.0, "steps": 8},
        solver={"paths": 2_000, "basis_degree": 2},
    ))
    paths = simulate_paths(scenario.grid, scenario.marks, 1, 2_000, scenario.seed)
    problems = [(scenario.generator, scenario.terminal), (scenario.generator2, scenario.terminal2)]
    streamed, replayed = make(scenario), make(scenario)
    solve_backward_many(problems, paths, keep=(), on_node=streamed)
    replay_nodes(solve_backward_many(problems, paths), replayed)
    reduced = vars(streamed)
    assert any(isinstance(v, (list, np.ndarray)) and len(v) for v in reduced.values())
    for name, value in reduced.items():
        if isinstance(value, (list, np.ndarray)):
            assert np.asarray(value).tobytes() == np.asarray(vars(replayed)[name]).tobytes(), name


def test_solve_table_carries_the_mean_distance_to_the_target(tmp_path):
    cfg = solve_config(
        target={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        generator={"kind": "projection-drift"},
        terminal={"kind": "circle-angle", "component": 0},
    )
    run_scenario(cfg, tmp_path)
    sol, ball = kept_solution(cfg), Scenario.from_dict(cfg).target
    lines = (tmp_path / "y_stats.csv").read_text().splitlines()
    column = lines[0].split(",").index("dk_mean")
    written = [float(line.split(",")[column]) for line in lines[1:]]
    # each node's mean of the one-row distances
    expected = [np.mean([ball.dist_batch(row[None])[0] for row in sol.y[i]]) for i in range(len(sol.times))]
    assert np.array(written).tobytes() == np.array(expected).tobytes()
    assert max(written) > 0.0


def test_solution_plot_is_emitted_as_svg(tmp_path):
    run_scenario(solve_config(), tmp_path)
    svg = (tmp_path / "y_mean.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


# ---------------------------------------------------------------------------
# check selection


def test_requested_check_is_synthesized_when_config_lists_others(tmp_path):
    manifest = run_scenario(solve_config(), tmp_path, checks=("simulate",))
    assert [row["check"] for row in manifest.verdicts] == ["simulate"]


def test_unsupported_check_request_is_rejected(tmp_path):
    with pytest.raises(ScenarioError) as err:
        run_scenario(solve_config(), tmp_path, checks=("comparison",))
    assert err.value.field_path == "checks"


@pytest.mark.parametrize("checks", [("bogus",), ("solve", "bogus")], ids=["alone", "with-a-known-kind"])
def test_unknown_check_request_is_rejected_before_any_file(tmp_path, checks):
    with pytest.raises(ScenarioError, match="unknown check kind 'bogus'") as err:
        run_scenario(solve_config(), tmp_path / "out", checks=checks)
    assert err.value.field_path == "checks"
    assert not (tmp_path / "out").exists()


def test_a_string_of_checks_is_rejected_before_any_file(tmp_path):
    # a string would be read letter by letter, as kinds 's', 'i', 'm', ...
    with pytest.raises(ScenarioError, match="not the string 'simulate'") as err:
        run_scenario(solve_config(), tmp_path / "out", checks="simulate")
    assert err.value.field_path == "checks"
    assert not (tmp_path / "out").exists()


def test_an_unknown_table_format_is_rejected_before_any_file(tmp_path):
    # "xml" wrote CSV tables without a word
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        run_scenario(solve_config(), tmp_path / "scenario", fmt="xml")
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        reproduce("thm25-demo", tmp_path / "preset", fmt="xml")
    assert not any(tmp_path.iterdir())


def test_empty_check_list_is_rejected(tmp_path):
    with pytest.raises(ScenarioError) as err:
        run_scenario(solve_config(checks=[]), tmp_path)
    assert err.value.field_path == "checks"


# ---------------------------------------------------------------------------
# one path bundle and one primary solve per run


def pair_config() -> dict:
    """remark34b in miniature: a doubled jump driver against the zero driver."""
    return solve_config(
        generator={"kind": "scaled-jump", "scale": 2.0},
        generator2={"kind": "zero", "state_dim": 1},
        terminal2={"kind": "constant", "value": [0.0]},
        checks=[
            {"kind": "simulate"},
            {"kind": "solve"},
            {"kind": "comparison-empirical", "expect": "violated"},
        ],
    )


def excursion_config() -> dict:
    """thm25-demo in miniature, with a solve check next to the distance check."""
    return solve_config(
        target={"kind": "point-set", "points": [[-1.0], [1.0]]},
        generator={"kind": "zero", "state_dim": 1},
        terminal={"kind": "brownian-sign", "component": 0},
        checks=[
            {"kind": "solve"},
            {"kind": "viability-empirical", "level": 0.9, "expect": "exceeds"},
        ],
    )


@pytest.mark.parametrize(
    "build, problems", [(pair_config, 2), (excursion_config, 1)], ids=["pair", "excursion"]
)
def test_checks_share_one_bundle_and_one_primary_solve(tmp_path, monkeypatch, build, problems):
    calls = {"simulate_paths": 0, "solve_backward_many": 0}
    solved = []

    def counted(name):
        original = getattr(bsdelab.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "solve_backward_many":
                solved.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(bsdelab.cli, name, wrapper)

    counted("simulate_paths")
    counted("solve_backward_many")
    run_scenario(build(), tmp_path)
    # one backward pass serves every problem the run solves
    assert calls == {"simulate_paths": 1, "solve_backward_many": 1}
    assert solved == [problems]


@pytest.mark.parametrize("build", [pair_config, excursion_config], ids=["pair", "excursion"])
def test_shared_run_writes_the_tables_of_each_check_run_alone(tmp_path, build):
    cfg = build()
    together = run_scenario(cfg, tmp_path / "together")
    digests = {rec["path"]: rec["sha256"] for rec in together.files}
    rows = {row["check"]: row for row in together.verdicts}
    for spec in cfg["checks"]:
        kind = spec["kind"]
        alone = run_scenario(cfg, tmp_path / kind, checks=(kind,))
        assert alone.verdicts == [rows[kind]]
        for rec in alone.files:
            if rec["path"] != "verdicts.csv":
                assert rec["sha256"] == digests[rec["path"]], (kind, rec["path"])


def test_shared_bundle_and_solution_are_read_only(tmp_path, monkeypatch):
    made = {"simulate_paths": [], "solve_backward_many": []}

    def kept(name):
        original = getattr(bsdelab.cli, name)

        def wrapper(*args, **kwargs):
            made[name].append(original(*args, **kwargs))
            return made[name][-1]

        monkeypatch.setattr(bsdelab.cli, name, wrapper)

    kept("simulate_paths")
    kept("solve_backward_many")
    run_scenario(pair_config(), tmp_path)
    # the simulate, solve and comparison-empirical checks read one bundle
    # and one pass, whose first solution is the solve check's
    (paths,), (solutions,) = made["simulate_paths"], made["solve_backward_many"]
    sol, (sol1, sol2) = solutions[0], solutions
    assert sol1 is sol
    assert sol.paths is paths and sol2.paths is paths
    # every check reduces the nodes as the pass solves them, so the shared
    # pass keeps no store
    for s in (sol1, sol2):
        assert s.y is None and s.z is None and s.u is None
    for array in (paths.brownian, paths.count_nodes, sol.y0, sol.y0_se, sol2.y0, sol2.y0_se):
        # the stores themselves, not views of them, are locked
        assert array.base is None and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# ---------------------------------------------------------------------------
# certification reruns


def test_rerun_of_a_viability_check_gives_identical_bytes(tmp_path):
    cfg = solve_config(
        target={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        generator={"kind": "projection-drift"},
        checks=[{"kind": "viability", "samples": 250}],
    )
    del cfg["terminal"]

    first = run_scenario(cfg, tmp_path / "first")
    second = run_scenario(cfg, tmp_path / "second")

    assert first.verdicts == second.verdicts
    assert first.files == second.files
    assert "viability_verdict.json" in read_artifacts(tmp_path / "first")
    assert read_artifacts(tmp_path / "first") == read_artifacts(tmp_path / "second")


# ---------------------------------------------------------------------------
# command line exit codes


def test_cli_solve_exits_zero_on_success(tmp_path, capsys):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(solve_config()))
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 0
    captured = capsys.readouterr()
    assert "[PASS] solve" in captured.out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_exits_one_when_an_expectation_fails(tmp_path, capsys):
    # zero vs zero certifies comparison, so expecting falsification must fail
    cfg = solve_config(
        generator={"kind": "zero", "state_dim": 1},
        generator2={"kind": "zero", "state_dim": 1},
        checks=[{"kind": "comparison", "samples": 150, "expect": "falsified"}],
    )
    del cfg["terminal"]
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    code = main(["check-comparison", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "[FAIL] comparison" in capsys.readouterr().out


def test_cli_exits_two_on_missing_config(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error at <config>")


def test_cli_exits_two_on_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["solve", "--config", str(bad)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_exits_two_on_validation_error(tmp_path, capsys):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(solve_config(seed=-1)))
    code = main(["solve", "--config", str(config_path)])
    assert code == 2
    assert "config error at seed" in capsys.readouterr().err


@pytest.mark.parametrize("state_dim", [0, -1])
def test_cli_exits_two_on_a_state_dim_below_one(tmp_path, capsys, state_dim):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(solve_config(generator={"kind": "zero", "state_dim": state_dim})))
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error at generator.state_dim: must be at least 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "check-structural"])
def test_cli_takes_seeds_below_two_to_the_64_and_refuses_the_rest_at_seed(tmp_path, capsys, command):
    config_path = tmp_path / "scenario.json"
    checks = ["simulate", {"kind": "structural", "samples": 400}]
    config_path.write_text(json.dumps(solve_config(checks=checks)))
    args = [command, "--config", str(config_path), "--out"]
    assert main([*args, str(tmp_path / "top"), "--seed", str(2**64 - 1)]) == 0
    assert main([*args, str(tmp_path / "over"), "--seed", str(2**64)]) == 2
    err = capsys.readouterr().err
    assert "config error at seed: must be nonnegative and below 2**64" in err
    assert not (tmp_path / "over").exists()


def test_cli_exits_two_on_target_of_another_dimension(tmp_path, capsys, monkeypatch):
    # a 2-D ball would broadcast against 1-D states and read as "within"
    def no_work(*args, **kwargs):
        raise AssertionError("a target of the wrong dimension reached the simulator")

    monkeypatch.setattr(bsdelab.cli, "simulate_paths", no_work)
    cfg = solve_config(
        generator={"kind": "zero", "state_dim": 1},
        terminal={"kind": "constant", "value": [0.5]},
        target={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        checks=[{"kind": "viability-empirical"}],
    )
    with pytest.raises(ScenarioError) as err:
        run_scenario(cfg, tmp_path / "direct")
    assert err.value.field_path == "target"
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    code = main(["check-viability", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error at target: target dimension 2 differs from the generator's state dimension 1"
    )
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "direct").exists()


def test_cli_exits_two_on_non_finite_terminal_payoff(tmp_path, capsys):
    # every number in the config is finite; the payoff 1e308 * W_T overflows
    # on the paths where |W_T| > 1.8, 58 of them at seed 3
    cfg = solve_config(terminal={"kind": "brownian", "component": 0, "scale": 1e308})
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    with np.errstate(over="ignore"):
        code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "non-finite values on 58 of 800 paths" in capsys.readouterr().err


def test_cli_exits_two_on_a_jump_mean_beyond_its_poisson_table(tmp_path, capsys):
    # one step of rate 1000: 400 terms of the Poisson table hold almost none of it
    cfg = solve_config(grid={"horizon": 1.0, "steps": 1}, marks={"points": [[1.0]], "weights": [1000.0]})
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "jump draw at step 0, atom 0: Poisson mean 1000.0 needs more than 400 terms" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize(
    "field,overrides",
    [
        ("generator.scale", lambda bad: {"generator": {"kind": "scaled-jump", "scale": bad}}),
        (
            "terminal.value",
            lambda bad: {
                "generator": {"kind": "zero", "state_dim": 1},
                "terminal": {"kind": "constant", "value": [bad]},
            },
        ),
    ],
    ids=["number", "array"],
)
def test_cli_exits_two_on_non_finite_config_numbers(tmp_path, capsys, monkeypatch, field, overrides, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("a config with a non-finite number reached the simulator")

    monkeypatch.setattr(bsdelab.cli, "simulate_paths", no_work)
    config_path = tmp_path / "scenario.json"
    # json writes NaN, Infinity and -Infinity, and reads them back
    config_path.write_text(json.dumps(solve_config(**overrides(bad))))
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {field}: expected ")
    assert "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "check, field, message",
    [
        ({"kind": "viability", "c_max": float("nan")}, "c_max", "expected a finite number"),
        ({"kind": "viability", "threshold": float("inf")}, "threshold", "expected a finite number"),
        ({"kind": "viability-empirical", "level": "high"}, "level", "expected a number"),
        ({"kind": "comparison-empirical", "tolerance": float("nan")}, "tolerance", "expected a finite"),
        ({"kind": "viability", "samples": "many"}, "samples", "expected an integer"),
        ({"kind": "viability", "samples": 0}, "samples", "must be at least 1"),
        ({"kind": "viability", "samples": 250.0}, "samples", "expected an integer"),
        ({"kind": "comparison", "expect": "certifed"}, "expect", "expected 'certified' or 'falsified'"),
        ({"kind": "structural", "expect": "certifed"}, "expect", "expected 'certified' or 'falsified'"),
        ({"kind": "matrix", "expect": "certifed"}, "expect", "expected 'certified' or 'falsified'"),
        ({"kind": "viability-empirical", "levl": 0.9}, "levl", "not a parameter of the 'viability-empirical'"),
        ({"kind": "viability", "expect": "certified"}, "expect", "not a parameter of the 'viability'"),
        ({"kind": "comparison", "c_max": 1e-9}, "c_max", "not a parameter of the scalar 'comparison'"),
    ],
    ids=[
        "nan-c_max", "inf-threshold", "text-level", "nan-tolerance",
        "text-samples", "zero-samples", "float-samples", "comparison-expect",
        "structural-expect", "matrix-expect", "unknown-key", "viability-expect",
        "scalar-comparison-c_max",
    ],
)
def test_cli_exits_two_on_bad_check_parameters(
    tmp_path, capsys, monkeypatch, check, field, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("a config with a bad check parameter reached the work")

    monkeypatch.setattr(bsdelab.cli, "simulate_paths", no_work)
    monkeypatch.setattr(bsdelab.cli, "check_viability_condition", no_work)
    cfg = solve_config(
        target={"kind": "ball", "center": [0.0], "radius": 1.0},
        checks=[{"kind": "solve"}, check],
    )
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    code = main(["check-viability", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error at checks[1].{field}: {message}")
    assert not (tmp_path / "out").exists()


def test_comparison_c_max_is_refused_only_when_given_on_the_scalar_route():
    scalar = solve_config(generator2={"kind": "zero", "state_dim": 1}, checks=["comparison"])
    assert Scenario.from_dict(scalar).checks[0].params["c_max"] == 500.0
    multidim = solve_config(
        generator={"kind": "zero", "state_dim": 2}, generator2={"kind": "zero", "state_dim": 2},
        terminal=None, checks=[{"kind": "comparison", "c_max": 50.0}],
    )
    assert Scenario.from_dict(multidim).checks[0].params["c_max"] == 50.0
    scalar["checks"] = [{"kind": "solve"}, {"kind": "comparison", "c_max": 500.0}]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(scalar)
    assert err.value.field_path == "checks[1].c_max"


@pytest.mark.parametrize(
    "command, field, overrides",
    [
        ("solve", "terminal", {"checks": ["simulate", "structural", "solve"]}),
        (
            "check-matrix",
            "target",
            {
                "generator": {"kind": "zero", "state_dim": 2},
                "generator2": {"kind": "zero", "state_dim": 2},
                "target": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                "checks": ["simulate", "structural", "matrix"],
            },
        ),
        (
            "check-comparison",
            "generator2",
            {
                "generator2": {"kind": "zero", "state_dim": 2},
                "terminal2": {"kind": "constant", "value": [0.0, 0.0]},
                "checks": ["comparison"],
            },
        ),
        (
            "check-viability",
            "target",
            {
                "target": {"kind": "point-set", "points": [[-1.0], [1.0]]},
                "checks": ["simulate", "structural", "viability"],
            },
        ),
        (
            "check-matrix",
            "brownian_dim",
            {
                "brownian_dim": 2,
                "generator": {"kind": "zero", "state_dim": 3},
                "generator2": {"kind": "zero", "state_dim": 3},
                "target": {"kind": "psd-cone", "side": 2},
                "checks": ["simulate", "structural", "matrix"],
            },
        ),
    ],
    ids=[
        "no-terminal", "matrix-on-a-ball", "generator2-of-another-dimension",
        "viability-on-a-point-set", "matrix-with-two-brownian-channels",
    ],
)
def test_cli_exits_two_on_a_field_a_check_needs_before_any_work(
    tmp_path, capsys, monkeypatch, command, field, overrides
):
    def no_work(*args, **kwargs):
        raise AssertionError("a check whose scenario field is missing reached the work")

    for name in (
        "simulate_paths", "check_structural", "check_comparison_matrix", "check_viability_condition",
    ):
        monkeypatch.setattr(bsdelab.cli, name, no_work)
    cfg = solve_config(**overrides)
    del cfg["terminal"]
    with pytest.raises(ScenarioError) as err:
        run_scenario(cfg, tmp_path / "direct")
    assert err.value.field_path == field
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error at {field}: the ")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "direct").exists()


def test_cli_exits_two_on_projection_drift_toward_a_point_set(tmp_path, capsys):
    cfg = solve_config(
        target={"kind": "point-set", "points": [[-1.0], [1.0]]},
        generator={"kind": "projection-drift"},
        checks=["solve"],
    )
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error at generator: projection drift needs a convex body, got FinitePointSet"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", ["main", "main-reproduce", "run_scenario-path", "run_scenario-dict"])
def test_each_entry_point_builds_the_scenario_once(tmp_path, monkeypatch, entry):
    built = []
    from_dict = Scenario.from_dict.__func__

    def counted(cls, cfg):
        built.append(cfg)
        return from_dict(cls, cfg)

    monkeypatch.setattr(Scenario, "from_dict", classmethod(counted))
    cfg = solve_config(checks=["simulate"])
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    if entry == "main":
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "4"]) == 0
    elif entry == "main-reproduce":
        assert main(["reproduce", "thm25-demo", "--out", str(out), "--paths", "2000", "--steps", "5"]) == 0
    elif entry == "run_scenario-path":
        run_scenario(config_path, out, seed=4)
    else:
        run_scenario(cfg, out, seed=4)
    assert len(built) == 1
    assert (out / "manifest.json").exists()


def test_output_directory_defaults_to_the_config_then_runs_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_scenario(solve_config(checks=["simulate"])).out_dir == Path("runs/smoke")
    cfg = solve_config(checks=["simulate"], output_dir="elsewhere")
    assert run_scenario(cfg).out_dir == Path("elsewhere")
    assert run_scenario(cfg, tmp_path / "given").out_dir == tmp_path / "given"
    assert (tmp_path / "runs" / "smoke" / "manifest.json").exists()
    assert "out_dir" not in json.loads((tmp_path / "elsewhere" / "manifest.json").read_text())


UNIT_BALL = {"kind": "ball", "center": [0.0], "radius": 1.0}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"seeed": 3}, "seeed"),
        ({"grid": {"horizon": 1.0, "steps": 5, "step": 5}}, "grid.step"),
        ({"marks": {"points": [[1.0]], "weights": [1.0], "atoms": [[1.0]]}}, "marks.atoms"),
        ({"solver": {"paths": 800, "basis_degre": 7}}, "solver.basis_degre"),
        ({"target": {**UNIT_BALL, "centre": [0.0]}}, "target.centre"),
        ({"target": {"kind": "box", "lower": [0.0], "upper": [1.0], "uper": [1.0]}}, "target.uper"),
        (
            {"target": {"kind": "orthant-product", "n_plus": 1, "n_free": 0, "n_fixed": 0}},
            "target.n_fixed",
        ),
        ({"target": {"kind": "psd-cone", "side": 1, "size": 1}}, "target.size"),
        ({"target": {"kind": "point-set", "points": [[0.0]], "point": [0.0]}}, "target.point"),
        (
            {"target": {"kind": "halfspaces", "normals": [[1.0]], "offsets": [1.0], "offset": 1.0}},
            "target.offset",
        ),
        ({"generator": {"kind": "zero", "state_dim": 1, "dim": 1}}, "generator.dim"),
        ({"generator": {"kind": "scaled-jump", "scale": 0.5, "scal": 0.5}}, "generator.scal"),
        (
            {"target": UNIT_BALL, "generator": {"kind": "projection-drift", "body": "ball"}},
            "generator.body",
        ),
        ({"generator": {"kind": "affine", "a": [[0.0]], "A": [[0.0]]}}, "generator.A"),
        ({"terminal": {"kind": "constant", "value": [0.0], "values": [0.0]}}, "terminal.values"),
        ({"terminal": {"kind": "brownian", "scale": 2.0, "shift": 1.0}}, "terminal.shift"),
        ({"terminal": {"kind": "brownian-sign", "sign": 1}}, "terminal.sign"),
        ({"terminal": {"kind": "counts", "atom": 0}}, "terminal.atom"),
        (
            {
                "generator": {"kind": "zero", "state_dim": 2},
                "terminal": {"kind": "circle-angle", "angle": 0},
            },
            "terminal.angle",
        ),
    ],
    ids=[
        "top-level", "grid", "marks", "solver", "ball", "box", "orthant-product", "psd-cone",
        "point-set", "halfspaces", "zero", "scaled-jump", "projection-drift", "affine",
        "constant", "brownian", "brownian-sign", "counts", "circle-angle",
    ],
)
def test_cli_exits_two_on_an_unknown_key_in_any_config_object(
    tmp_path, capsys, monkeypatch, overrides, field
):
    def no_work(*args, **kwargs):
        raise AssertionError("a config with an unknown key reached the simulator")

    monkeypatch.setattr(bsdelab.cli, "simulate_paths", no_work)
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(solve_config(**overrides)))
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error at {field}: not a parameter of ")
    assert not (tmp_path / "out").exists()


def test_json_documents_write_a_missing_value_as_null(tmp_path):
    # the doubled jump driver against the zero driver falsifies the scalar
    # comparison, a verdict with no constant
    cfg = pair_config()
    cfg["checks"] = [{"kind": "comparison", "samples": 300, "expect": "falsified"}]
    assert run_scenario(cfg, tmp_path / "json", fmt="json").verdicts[0]["outcome"] == "falsified"
    run_scenario(cfg, tmp_path / "csv")

    def refuse(constant):
        raise AssertionError(f"strict JSON has no {constant}")

    docs = {
        name: json.loads((tmp_path / "json" / name).read_text(), parse_constant=refuse)
        for name in ("verdicts.json", "manifest.json", "comparison_verdict.json")
    }
    assert docs["verdicts.json"]["rows"][0][3] is None
    assert docs["manifest.json"]["verdicts"][0]["value"] is None
    # the CSV table still writes the missing value as nan
    assert (tmp_path / "csv" / "verdicts.csv").read_text().splitlines()[1].split(",")[3] == "nan"


def test_cli_format_flag_switches_table_format(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(solve_config(checks=[{"kind": "simulate"}])))
    out = tmp_path / "out"
    code = main([
        "simulate", "--config", str(config_path), "--out", str(out), "--format", "json",
    ])
    assert code == 0
    assert (out / "path_stats.json").exists()
    assert not (out / "path_stats.csv").exists()


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("bsdelab ")


# ---------------------------------------------------------------------------
# reproduction presets


def test_preset_configs_all_validate():
    assert PRESET_NAMES == ("example28", "remark34a", "remark34b", "thm25-demo")
    for name in PRESET_NAMES:
        build, _extra = _PRESETS[name]
        scenario = Scenario.from_dict(build())
        assert scenario.name == name
        assert scenario.checks, name


def test_reproduce_rejects_unknown_preset(tmp_path):
    with pytest.raises(ScenarioError) as err:
        reproduce("warp-drive", tmp_path)
    assert err.value.field_path == "preset"


def test_reproduce_preset_runs_with_reduced_workload(tmp_path, capsys):
    code = main([
        "reproduce", "thm25-demo",
        "--out", str(tmp_path / "out"), "--paths", "2000", "--steps", "10",
    ])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    rows = {row["check"]: row for row in doc["verdicts"]}
    assert rows["viability-empirical"]["outcome"] == "exceeds"
    assert rows["viability-empirical"]["value"] >= 0.9
    assert isinstance(RunManifest(**{
        k: doc[k] for k in (
            "name", "config_hash", "seed", "version",
            "wall_clock_seconds", "verdicts", "files", "created",
        )
    }).all_passed, bool)


SRC = str(Path(bsdelab.cli.__file__).resolve().parents[1])


def checkout_env(blas_threads=None) -> dict:
    """This process's environment with the checkout's ``src`` first on the
    path, and the three BLAS variables set to ``blas_threads`` or, when it
    is None, unset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if blas_threads is not None:
        env.update({var: str(blas_threads) for var in BLAS_VARS})
    return env


def test_loading_the_command_line_leaves_scipy_optimize_unloaded():
    # only a polytope target needs scipy.optimize; it imports it on first use
    probe = "import sys, bsdelab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=checkout_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# the BLAS variables after importing the entry module, and the thread count
# of every OpenBLAS the process has loaded (numpy and scipy each bundle one)
# after running the entry point
BLAS_THREADS_PROBE = """
import ctypes, json, os, sys
from bsdelab.__main__ import BLAS_VARS, main
imported = {var: os.environ.get(var) for var in BLAS_VARS}
assert "numpy" not in sys.modules
try:
    main(["--version"])
except SystemExit:
    pass
counts = set()
with open("/proc/self/maps") as maps:
    libraries = {line.split()[-1] for line in maps if "openblas" in line}
for library in libraries:
    lib = ctypes.CDLL(library)
    for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
        get = getattr(lib, name, None)
        if get is not None:
            get.restype = ctypes.c_int
            counts.add(get())
print(json.dumps({"imported": imported, "threads": sorted(counts)}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_the_command_runs_blas_on_one_thread_unless_told_otherwise():
    def probe(env):
        out = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_PROBE], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    unset = probe(checkout_env())
    if not unset["threads"]:
        pytest.skip("numpy is not linked against OpenBLAS")
    # importing the package and the entry module sets no variable; main does
    assert unset == {"imported": {var: None for var in BLAS_VARS}, "threads": [1]}
    assert probe(checkout_env(2)) == {"imported": {var: "2" for var in BLAS_VARS}, "threads": [2]}


def test_reproduction_script_runs_from_a_plain_checkout(tmp_path):
    # the script puts the checkout's src/ first, so no PYTHONPATH is needed
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_reproductions.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = [sys.executable, str(script), "--only", "thm25-demo", "--paths", "2000", "--out", str(tmp_path)]
    out = subprocess.run(args, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert any(line.startswith("thm25-demo") and " tables " in line for line in out.stdout.splitlines())


def test_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a degree-4 basis over three features (35 columns) and 20k paths: large
    # enough that BLAS splits its work at two threads
    cfg = solve_config(
        brownian_dim=2,
        generator={"kind": "zero", "state_dim": 1},
        terminal={"kind": "brownian-sign", "component": 1},
        solver={"paths": 20_000, "basis_degree": 4, "mode": "explicit"},
        grid={"horizon": 1.0, "steps": 4},
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    tables = {}
    for threads in (1, 2):
        out_dir = tmp_path / f"threads-{threads}"
        args = [sys.executable, "-m", "bsdelab", "solve", "--config", str(config), "--out", str(out_dir)]
        out = subprocess.run(args, env=checkout_env(threads), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        tables[threads] = read_artifacts(out_dir)
    assert "y_stats.csv" in tables[1]
    assert tables[1] == tables[2]


REDUCED_TABLE_DIGESTS = {
    "example28": "30819e8575a8e2ccbe21f832d5c63975bcabdde2e449abd4e4167ed72399588a",
    "remark34a": "cefb3eade17cb9a165e301669774c677253b1fc2b61a0467575529a437f22ffc",
    "remark34b": "c98a70730af058df104c9098cca9c84b007fd749c32665034a74270d6d9e13b2",
    "thm25-demo": "0b97355723c7f382a853e0dc31a42bb71b17a1b4175f2f9fd32496ce28236aee",
}


def test_reduced_size_presets_write_their_pinned_tables(tmp_path):
    # Every sum over the paths in the regression step runs over fixed
    # chunks in a fixed order, so the digests hold at any BLAS thread count;
    # they are checked at one and at two.
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_reproductions.py"
    for threads in (1, 2):
        args = [sys.executable, str(script), "--paths", "2000", "--steps", "10", "--out", str(tmp_path / str(threads))]
        out = subprocess.run(args, env=checkout_env(threads), cwd=tmp_path, capture_output=True, text=True)
        # exit code 1: remark34b's y0 acceptance fails at 2000 paths, and that
        # row is part of its digest
        assert out.returncode in (0, 1), out.stderr
        digests = {
            line.split()[0]: line.rsplit(" tables ", 1)[1]
            for line in out.stdout.splitlines()
            if " tables " in line
        }
        assert digests == REDUCED_TABLE_DIGESTS, f"{threads} BLAS thread(s)"
