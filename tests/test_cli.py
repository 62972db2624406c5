"""End-to-end tests for the scenario runner and command line front end.

Covers config validation (error messages carry the offending field
path), artifact determinism (same config and seed reproduce every table
byte for byte), the manifest contract (every emitted file is listed with
its digest), table formats, exit codes, and the reproduction presets.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsdelab.cli
from bsdelab.cli import (
    PRESET_NAMES,
    RunManifest,
    Scenario,
    ScenarioError,
    _cell,
    _PRESETS,
    main,
    reproduce,
    run_scenario,
)


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
        ({"seed": -1}, "seed"),
        ({"solver": {"paths": 0}}, "solver.paths"),
        ({"solver": {"paths": 10, "mode": "magic"}}, "solver.mode"),
        ({"generator": {"kind": "warp"}}, "generator.kind"),
        ({"terminal": {"kind": "warp"}}, "terminal.kind"),
        ({"target": {"kind": "warp"}}, "target.kind"),
        ({"checks": [{"kind": "solve"}, {"kind": "warp"}]}, "checks[1].kind"),
        ({"marks": {"points": [[1.0]], "weights": []}}, "marks.weights"),
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


def test_solve_table_carries_the_mean_distance_to_the_target(tmp_path):
    cfg = solve_config(
        target={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        generator={"kind": "projection-drift"},
        terminal={"kind": "circle-angle", "component": 0},
    )
    solved = {}

    def keep(scenario, results):
        solved.update((spec.kind, payload) for spec, _row, payload in results)
        return []

    run_scenario(cfg, tmp_path, extra_acceptance=keep)
    sol, ball = solved["solve"], Scenario.from_dict(cfg).target
    lines = (tmp_path / "y_stats.csv").read_text().splitlines()
    column = lines[0].split(",").index("dk_mean")
    written = [float(line.split(",")[column]) for line in lines[1:]]
    # each node's mean of the one-row distances
    expected = [np.mean([ball.dist(row) for row in sol.y[:, i]]) for i in range(len(sol.times))]
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


def test_shared_bundle_and_solution_are_read_only(tmp_path):
    payloads = {}

    def keep(scenario, results):
        payloads.update((spec.kind, payload) for spec, _row, payload in results)
        return []

    run_scenario(pair_config(), tmp_path, extra_acceptance=keep)
    paths, sol = payloads["simulate"], payloads["solve"]
    _report, sol1, sol2 = payloads["comparison-empirical"]
    assert sol1 is sol
    assert sol.paths is paths and sol2.paths is paths
    for array in (paths.brownian, paths.jump_counts, paths.count_nodes, sol.y, sol.z, sol.u):
        assert not array.flags.writeable
        # the arrays are views of time-major storage, which is locked too
        assert array.base is not None and not array.base.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sol.y[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sol.y.base[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        paths.brownian.base[...] = 0.0


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


def test_loading_the_command_line_leaves_scipy_optimize_unloaded():
    # only a polytope target needs scipy.optimize; it imports it on first use
    src = str(Path(bsdelab.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, bsdelab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reproduction_script_runs_from_a_plain_checkout(tmp_path):
    # the script puts the checkout's src/ first, so no PYTHONPATH is needed
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_reproductions.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = [sys.executable, str(script), "--only", "thm25-demo", "--paths", "2000", "--out", str(tmp_path)]
    out = subprocess.run(args, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert any(line.startswith("thm25-demo") and " tables " in line for line in out.stdout.splitlines())
