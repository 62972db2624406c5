"""End-to-end tests for the scenario runner and command line front end.

Covers config validation (error messages carry the offending field
path), artifact determinism (same config and seed reproduce every table
byte for byte), the manifest contract (every emitted file is listed with
its digest), table formats, exit codes, and the reproduction presets.
"""

import hashlib
import json

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
    "build, solves", [(pair_config, 2), (excursion_config, 1)], ids=["pair", "excursion"]
)
def test_checks_share_one_bundle_and_one_primary_solve(tmp_path, monkeypatch, build, solves):
    calls = {"simulate_paths": 0, "solve_backward": 0}

    def counted(name):
        original = getattr(bsdelab.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(bsdelab.cli, name, wrapper)

    counted("simulate_paths")
    counted("solve_backward")
    run_scenario(build(), tmp_path)
    assert calls == {"simulate_paths": 1, "solve_backward": solves}


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
    with pytest.raises(ValueError, match="read-only"):
        sol.y[0, 0, 0] = 1.0


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
