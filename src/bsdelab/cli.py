"""Batch front door: scenario configs, orchestration, reproduction presets.

A scenario is a single JSON document (schema ``bsdelab/scenario-v1``)
naming the grid, noise, drivers, terminal data, target set, solver
settings, and the list of checks to run.  ``run_scenario`` validates
the document, executes the checks, writes CSV/JSON tables and SVG
plots, and returns a :class:`RunManifest` listing every emitted file
with its SHA-256 digest.  Identical config + seed reproduces the
tables byte for byte; the manifest itself carries wall-clock metadata
and therefore varies.

The ``bsdelab`` console entry point wraps this with subcommands
(simulate / solve / check-* / reproduce) and the exit-code contract:
0 all checks passed, 1 any check failed, 2 execution or config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (
    check_comparison_m1,
    check_comparison_matrix,
    check_comparison_multidim,
    check_structural,
    check_viability_condition,
    comparison_path_report,
    viability_path_report,
)
from .generators import AffineGen, Generator, ProjectionDriftGen, ScaledJumpGen, ZeroGen
from .geometry import (
    Ball,
    Box,
    FinitePointSet,
    HalfspaceIntersection,
    OrthantProduct,
    PsdCone,
)
from .solver import BsdeSolution, RegressionBasis, SolverError, TerminalCondition, solve_backward
from .stochastic import DrivingPaths, FiniteMarkMeasure, TimeGrid, simulate_paths
from .svgplot import render_line_plot

__all__ = [
    "ScenarioError",
    "Scenario",
    "CheckSpec",
    "SolverSettings",
    "RunManifest",
    "load_scenario",
    "run_scenario",
    "reproduce",
    "PRESET_NAMES",
    "main",
]

SCENARIO_SCHEMA = "bsdelab/scenario-v1"
MANIFEST_SCHEMA = "bsdelab/manifest-v1"

_CHECK_KINDS = (
    "simulate",
    "solve",
    "viability",
    "viability-empirical",
    "comparison",
    "comparison-empirical",
    "structural",
    "matrix",
)


class ScenarioError(ValueError):
    """Config validation failure, carrying the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


# ---------------------------------------------------------------------------
# config validation helpers

_MISSING = object()


def _as_dict(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(path, f"expected an object, got {type(node).__name__}")
    return node


def _get(node: dict, path: str, key: str, default=_MISSING):
    if key in node:
        return node[key]
    if default is _MISSING:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return default


def _number(node, path, key, default=_MISSING) -> float:
    v = _get(node, path, key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}" if path else key, "expected a number")
    v = float(v)
    # Python's json reads NaN and Infinity
    if not np.isfinite(v):
        raise ScenarioError(f"{path}.{key}" if path else key, f"expected a finite number, got {v}")
    return v


def _integer(node, path, key, default=_MISSING) -> int:
    v = _get(node, path, key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}" if path else key, "expected an integer")
    return v


def _string(node, path, key, default=_MISSING) -> str:
    v = _get(node, path, key, default)
    if not isinstance(v, str):
        raise ScenarioError(f"{path}.{key}" if path else key, "expected a string")
    return v


def _array(node, path, key, default=_MISSING) -> np.ndarray:
    v = _get(node, path, key, default)
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{path}.{key}" if path else key, "expected a numeric array") from None
    if arr.dtype.kind not in "fi" or arr.size == 0:
        raise ScenarioError(f"{path}.{key}" if path else key, "expected a nonempty numeric array")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{path}.{key}" if path else key, "expected finite numbers, got NaN or infinity")
    return arr


# ---------------------------------------------------------------------------
# component builders


def _build_marks(spec, path) -> FiniteMarkMeasure:
    spec = _as_dict(spec, path)
    points = _array(spec, path, "points")
    weights = _array(spec, path, "weights")
    try:
        return FiniteMarkMeasure(points, weights)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _build_target(spec, path):
    spec = _as_dict(spec, path)
    kind = _string(spec, path, "kind")
    try:
        if kind == "ball":
            return Ball(_array(spec, path, "center"), _number(spec, path, "radius"))
        if kind == "box":
            return Box(_array(spec, path, "lower"), _array(spec, path, "upper"))
        if kind == "orthant-product":
            return OrthantProduct(
                _integer(spec, path, "n_plus"), _integer(spec, path, "n_free")
            )
        if kind == "psd-cone":
            return PsdCone(_integer(spec, path, "side"))
        if kind == "point-set":
            return FinitePointSet(_array(spec, path, "points"))
        if kind == "halfspaces":
            return HalfspaceIntersection(
                _array(spec, path, "normals"), _array(spec, path, "offsets")
            )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.kind", f"unknown target kind {kind!r}")


def _build_generator(spec, path, *, brownian_dim, marks, target) -> Generator:
    spec = _as_dict(spec, path)
    kind = _string(spec, path, "kind")
    try:
        if kind == "zero":
            return ZeroGen(_integer(spec, path, "state_dim"), brownian_dim, marks)
        if kind == "scaled-jump":
            return ScaledJumpGen(_number(spec, path, "scale"), marks)
        if kind == "projection-drift":
            if target is None:
                raise ScenarioError(path, "projection-drift requires a target set")
            return ProjectionDriftGen(target, brownian_dim, marks)
        if kind == "affine":
            a = _array(spec, path, "a")
            m = a.shape[0] if a.ndim == 2 else 0
            if a.ndim != 2 or a.shape != (m, m):
                raise ScenarioError(f"{path}.a", "expected a square matrix")
            b = _array(spec, path, "b", np.zeros((m, m, brownian_dim)))
            c = _array(spec, path, "c", np.zeros((marks.n_atoms, m, m)))
            drift = _array(spec, path, "drift", np.zeros(m))
            return AffineGen(a, b, c, drift, brownian_dim, marks)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.kind", f"unknown generator kind {kind!r}")


def _build_terminal(spec, path, *, state_dim, marks) -> TerminalCondition:
    spec = _as_dict(spec, path)
    kind = _string(spec, path, "kind")
    if kind == "constant":
        value = _array(spec, path, "value")
        if value.shape != (state_dim,):
            raise ScenarioError(f"{path}.value", f"expected {state_dim} components")
        return TerminalCondition(
            lambda w, n, v=value: np.tile(v, (w.shape[0], 1)), state_dim, "constant terminal value"
        )
    if kind == "brownian":
        comp = _integer(spec, path, "component", 0)
        scale = _number(spec, path, "scale", 1.0)
        offset = _number(spec, path, "offset", 0.0)
        if state_dim != 1:
            raise ScenarioError(path, "brownian terminal data is one-dimensional")
        return TerminalCondition(
            lambda w, n, c=comp, a=scale, b=offset: a * w[:, c] + b,
            1,
            f"scaled Brownian coordinate {comp} at the horizon",
        )
    if kind == "brownian-sign":
        comp = _integer(spec, path, "component", 0)
        if state_dim != 1:
            raise ScenarioError(path, "brownian-sign terminal data is one-dimensional")
        return TerminalCondition(
            lambda w, n, c=comp: np.where(w[:, c] >= 0.0, 1.0, -1.0),
            1,
            f"sign of Brownian coordinate {comp} at the horizon",
        )
    if kind == "counts":
        comp = _integer(spec, path, "component", 0)
        if not 0 <= comp < marks.n_atoms:
            raise ScenarioError(f"{path}.component", f"atom index out of range 0..{marks.n_atoms - 1}")
        scale = _number(spec, path, "scale", 1.0)
        offset = _number(spec, path, "offset", 0.0)
        if state_dim != 1:
            raise ScenarioError(path, "counts terminal data is one-dimensional")
        return TerminalCondition(
            lambda w, n, c=comp, a=scale, b=offset: a * n[:, c].astype(float) + b,
            1,
            f"scaled jump count of atom {comp} at the horizon",
        )
    if kind == "circle-angle":
        comp = _integer(spec, path, "component", 0)
        if state_dim != 2:
            raise ScenarioError(path, "circle-angle terminal data is two-dimensional")
        return TerminalCondition(
            lambda w, n, c=comp: np.stack([np.cos(w[:, c]), np.sin(w[:, c])], axis=1),
            2,
            f"unit-circle point at angle W^{comp}_T",
        )
    raise ScenarioError(f"{path}.kind", f"unknown terminal kind {kind!r}")


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    params: dict


@dataclass(frozen=True)
class SolverSettings:
    paths: int = 10_000
    basis_degree: int = 2
    mode: str = "explicit"


@dataclass
class Scenario:
    """Validated scenario: built components plus the raw config document."""

    raw: dict
    name: str
    grid: TimeGrid
    brownian_dim: int
    marks: FiniteMarkMeasure
    generator: Generator | None
    generator2: Generator | None
    terminal: TerminalCondition | None
    terminal2: TerminalCondition | None
    target: object | None
    solver: SolverSettings
    checks: list[CheckSpec]
    seed: int
    output_dir: str | None

    @classmethod
    def from_dict(cls, cfg) -> "Scenario":
        cfg = _as_dict(cfg, "<config>")
        schema = _string(cfg, "", "schema")
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError("schema", f"expected {SCENARIO_SCHEMA!r}, got {schema!r}")
        name = _string(cfg, "", "name", "scenario")
        grid_spec = _as_dict(_get(cfg, "", "grid"), "grid")
        horizon = _number(grid_spec, "grid", "horizon")
        steps = _integer(grid_spec, "grid", "steps")
        if horizon <= 0.0:
            raise ScenarioError("grid.horizon", "must be positive")
        if steps < 1:
            raise ScenarioError("grid.steps", "must be at least 1")
        grid = TimeGrid.uniform(horizon, steps)
        brownian_dim = _integer(cfg, "", "brownian_dim", 1)
        if brownian_dim < 1:
            raise ScenarioError("brownian_dim", "must be at least 1")
        marks = _build_marks(_get(cfg, "", "marks"), "marks")
        target = None
        if cfg.get("target") is not None:
            target = _build_target(cfg["target"], "target")

        generator = generator2 = None
        if cfg.get("generator") is not None:
            generator = _build_generator(
                cfg["generator"], "generator",
                brownian_dim=brownian_dim, marks=marks, target=target,
            )
        if cfg.get("generator2") is not None:
            generator2 = _build_generator(
                cfg["generator2"], "generator2",
                brownian_dim=brownian_dim, marks=marks, target=target,
            )
        terminal = terminal2 = None
        if cfg.get("terminal") is not None:
            if generator is None:
                raise ScenarioError("terminal", "a terminal condition requires a generator")
            terminal = _build_terminal(
                cfg["terminal"], "terminal", state_dim=generator.state_dim, marks=marks
            )
        if cfg.get("terminal2") is not None:
            if generator2 is None:
                raise ScenarioError("terminal2", "terminal2 requires generator2")
            terminal2 = _build_terminal(
                cfg["terminal2"], "terminal2", state_dim=generator2.state_dim, marks=marks
            )

        solver_spec = _as_dict(cfg.get("solver", {}), "solver")
        solver = SolverSettings(
            paths=_integer(solver_spec, "solver", "paths", 10_000),
            basis_degree=_integer(solver_spec, "solver", "basis_degree", 2),
            mode=_string(solver_spec, "solver", "mode", "explicit"),
        )
        if solver.paths < 1:
            raise ScenarioError("solver.paths", "must be at least 1")
        if solver.basis_degree < 0:
            raise ScenarioError("solver.basis_degree", "must be nonnegative")
        if solver.mode not in ("explicit", "implicit"):
            raise ScenarioError("solver.mode", "expected 'explicit' or 'implicit'")

        checks_node = cfg.get("checks", [])
        if not isinstance(checks_node, list):
            raise ScenarioError("checks", "expected a list")
        checks = []
        for i, entry in enumerate(checks_node):
            if isinstance(entry, str):
                entry = {"kind": entry}
            entry = _as_dict(entry, f"checks[{i}]")
            kind = _string(entry, f"checks[{i}]", "kind")
            if kind not in _CHECK_KINDS:
                raise ScenarioError(f"checks[{i}].kind", f"unknown check kind {kind!r}")
            params = {k: v for k, v in entry.items() if k != "kind"}
            checks.append(CheckSpec(kind, params))

        seed = _integer(cfg, "", "seed", 0)
        if seed < 0:
            raise ScenarioError("seed", "must be nonnegative")
        output_dir = cfg.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ScenarioError("output_dir", "expected a string")
        return cls(
            raw=cfg, name=name, grid=grid, brownian_dim=brownian_dim, marks=marks,
            generator=generator, generator2=generator2, terminal=terminal,
            terminal2=terminal2, target=target, solver=solver, checks=checks,
            seed=seed, output_dir=output_dir,
        )


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("<config>", f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<config>", f"invalid JSON: {exc}") from None
    return Scenario.from_dict(doc)


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# artifact writing


class _ArtifactWriter:
    """Writes run outputs under one directory and records name + digest."""

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.records: list[dict] = []
        self._used: set[str] = set()
        out_dir.mkdir(parents=True, exist_ok=True)

    def unique(self, name: str) -> str:
        stem, dot, ext = name.partition(".")
        candidate, k = name, 1
        while candidate in self._used:
            k += 1
            candidate = f"{stem}-{k}{dot}{ext}"
        self._used.add(candidate)
        return candidate

    def _put(self, name: str, data: bytes) -> str:
        (self.out_dir / name).write_bytes(data)
        self.records.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        return name

    def write_text(self, name: str, text: str) -> str:
        return self._put(self.unique(name), text.encode("utf-8"))

    def write_table(self, stem: str, columns: list[tuple[str, list]]) -> str:
        names = [c[0] for c in columns]
        cols = [c[1] for c in columns]
        rows = list(zip(*cols)) if cols else []
        if self.fmt == "json":
            doc = {"schema": "bsdelab/table-v1", "columns": names,
                   "rows": [list(r) for r in rows]}
            return self.write_text(f"{stem}.json", json.dumps(doc, indent=1) + "\n")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        return self.write_text(f"{stem}.csv", buf.getvalue())


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# ---------------------------------------------------------------------------
# check runners


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False


class _ScenarioRun:
    """The work one ``run_scenario`` call shares between its checks.

    The scenario's path bundle and its primary solve (``generator`` with
    ``terminal``) are computed on first use and at most once, with
    read-only arrays, so every check sees the same draws and the same
    solution and none can change them for the next.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._paths = None
        self._solution = None

    def paths(self) -> DrivingPaths:
        if self._paths is None:
            s = self.scenario
            paths = simulate_paths(s.grid, s.marks, s.brownian_dim, s.solver.paths, s.seed)
            _read_only(paths.brownian, paths.jump_counts, paths.count_nodes)
            self._paths = paths
        return self._paths

    def solve(self, generator: Generator, terminal: TerminalCondition) -> BsdeSolution:
        s = self.scenario
        return solve_backward(
            generator, terminal, self.paths(),
            basis=RegressionBasis(s.solver.basis_degree), mode=s.solver.mode,
        )

    def solution(self) -> BsdeSolution:
        if self._solution is None:
            sol = self.solve(self.scenario.generator, self.scenario.terminal)
            _read_only(sol.y, sol.z, sol.u, sol.y0, sol.y0_se)
            self._solution = sol
        return self._solution


def _require(scenario: Scenario, check: str, **what):
    for label, value in what.items():
        if value is None:
            raise ScenarioError(label, f"the {check!r} check requires this field")


def _simulate(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    paths = run.paths()
    columns = [("t", list(scenario.grid.nodes))]
    for j in range(paths.brownian_dim):
        columns.append((f"w{j}_mean", list(paths.brownian[:, :, j].mean(axis=0))))
        columns.append((f"w{j}_std", list(paths.brownian[:, :, j].std(axis=0))))
    for j in range(scenario.marks.n_atoms):
        columns.append((f"n{j}_mean", list(paths.count_nodes[:, :, j].mean(axis=0))))
    files = [writer.write_table("path_stats", columns)]
    row = {
        "check": "simulate", "outcome": "completed", "passed": True,
        "value": float(scenario.solver.paths),
        "detail": f"{scenario.solver.paths} paths on {scenario.grid.n_steps} steps",
    }
    return row, files, paths


def _solve(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(scenario, "solve", generator=scenario.generator, terminal=scenario.terminal)
    sol = run.solution()
    m = sol.state_dim
    columns = [("t", list(sol.times))]
    lo, hi = np.quantile(sol.y, [0.05, 0.95], axis=0)
    mean = sol.y.mean(axis=0)
    std = sol.y.std(axis=0)
    for k in range(m):
        columns.append((f"y{k}_mean", list(mean[:, k])))
        columns.append((f"y{k}_std", list(std[:, k])))
        columns.append((f"y{k}_lo", list(lo[:, k])))
        columns.append((f"y{k}_hi", list(hi[:, k])))
    if scenario.target is not None:
        dk = np.array([
            scenario.target.dist_batch(sol.y[:, i, :]).mean() for i in range(sol.y.shape[1])
        ])
        columns.append(("dk_mean", list(dk)))
    files = [writer.write_table("y_stats", columns)]
    svg = render_line_plot(
        sol.times,
        [(f"mean Y[{k}]", mean[:, k]) for k in range(m)],
        bands=[(lo[:, k], hi[:, k]) for k in range(m)],
        title=f"{scenario.name}: solution mean with 5-95% band",
        x_label="t", y_label="Y",
    )
    files.append(writer.write_text("y_mean.svg", svg))
    y0 = ", ".join(f"{v:.6f}" for v in sol.y0)
    row = {
        "check": "solve", "outcome": "completed", "passed": True,
        "value": float(sol.y0[0]),
        "detail": f"Y_0 = [{y0}], standard error {float(np.max(sol.y0_se)):.2e}",
    }
    return row, files, sol


def _viability(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(scenario, "viability", generator=scenario.generator, target=scenario.target)
    verdict = check_viability_condition(
        scenario.generator, scenario.target,
        n_samples=int(params.get("samples", 4000)),
        seed=scenario.seed,
        c_max=float(params.get("c_max", 100.0)),
    )
    threshold = params.get("threshold")
    passed = verdict.certified and (threshold is None or verdict.constant <= float(threshold))
    detail = verdict.detail or f"constant {verdict.constant:.6f}"
    if threshold is not None and verdict.certified:
        detail += f" (threshold {float(threshold)})"
    files = [writer.write_text("viability_verdict.json",
                               json.dumps(verdict.to_dict(), indent=1) + "\n")]
    row = {
        "check": "viability", "outcome": verdict.outcome, "passed": bool(passed),
        "value": float(verdict.constant) if verdict.constant is not None else float("nan"),
        "detail": detail,
    }
    return row, files, verdict


def _viability_empirical(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(
        scenario, "viability-empirical",
        generator=scenario.generator, terminal=scenario.terminal, target=scenario.target,
    )
    level = float(params.get("level", 0.05))
    expect = params.get("expect", "within")
    if expect not in ("within", "exceeds"):
        raise ScenarioError("checks", "viability-empirical expect must be 'within' or 'exceeds'")
    sol = run.solution()
    report = viability_path_report(sol, scenario.target, tolerance=level)
    columns = [("t", list(report.times)), ("dk_mean", list(report.mean_distance))]
    files = [writer.write_table("distance_stats", columns)]
    svg = render_line_plot(
        report.times, [("mean distance to target", report.mean_distance)],
        title=f"{scenario.name}: mean distance to the target set",
        x_label="t", y_label="E d_K(Y_t)",
    )
    files.append(writer.write_text("distance.svg", svg))
    worst = float(report.max_mean_distance)
    if expect == "within":
        passed = worst <= level
        outcome = "within" if passed else "exceeded"
    else:
        passed = worst >= level
        outcome = "exceeds" if passed else "below"
    row = {
        "check": "viability-empirical", "outcome": outcome, "passed": bool(passed),
        "value": worst,
        "detail": f"max_t mean distance {worst:.6f} ({expect} {level})",
    }
    return row, files, (report, sol)


def _comparison(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(scenario, "comparison", generator=scenario.generator, generator2=scenario.generator2)
    samples = int(params.get("samples", 3000))
    if scenario.generator.state_dim == 1:
        verdict = check_comparison_m1(
            scenario.generator, scenario.generator2, n_samples=samples, seed=scenario.seed
        )
        route = "scalar"
    else:
        verdict = check_comparison_multidim(
            scenario.generator, scenario.generator2, n_samples=samples,
            seed=scenario.seed, c_max=float(params.get("c_max", 500.0)),
        )
        route = "componentwise"
    expect = params.get("expect", "certified")
    if expect not in ("certified", "falsified"):
        raise ScenarioError("checks", "comparison expect must be 'certified' or 'falsified'")
    files = [writer.write_text("comparison_verdict.json",
                               json.dumps(verdict.to_dict(), indent=1) + "\n")]
    row = {
        "check": "comparison", "outcome": verdict.outcome,
        "passed": bool(verdict.outcome == expect),
        "value": float(verdict.constant) if verdict.constant is not None else float("nan"),
        "detail": f"{route} route: {verdict.detail or verdict.outcome}",
    }
    return row, files, verdict


def _comparison_empirical(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(
        scenario, "comparison-empirical",
        generator=scenario.generator, generator2=scenario.generator2,
        terminal=scenario.terminal, terminal2=scenario.terminal2,
    )
    tolerance = float(params.get("tolerance", 0.02))
    expect = params.get("expect", "ordered")
    if expect not in ("ordered", "violated"):
        raise ScenarioError("checks", "comparison-empirical expect must be 'ordered' or 'violated'")
    sol1 = run.solution()
    sol2 = run.solve(scenario.generator2, scenario.terminal2)
    report = comparison_path_report(sol1, sol2)
    columns = [
        ("t", list(report.times)),
        ("gap_min", list(report.min_gap_per_time)),
        ("violation_fraction", list(report.violation_fraction)),
    ]
    files = [writer.write_table("gap_stats", columns)]
    svg = render_line_plot(
        report.times,
        [("min gap Y1-Y2", report.min_gap_per_time),
         ("violation fraction", report.violation_fraction)],
        title=f"{scenario.name}: pathwise ordering of the two solutions",
        x_label="t", y_label="",
    )
    files.append(writer.write_text("gap.svg", svg))
    ordered = report.min_gap >= -tolerance
    passed = ordered if expect == "ordered" else not ordered
    row = {
        "check": "comparison-empirical",
        "outcome": "ordered" if ordered else "violated",
        "passed": bool(passed),
        "value": float(report.min_gap),
        "detail": (
            f"min gap {report.min_gap:.6f} (tolerance {tolerance}), "
            f"peak violation fraction {float(report.violation_fraction.max()):.4f}"
        ),
    }
    return row, files, (report, sol1, sol2)


def _structural(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(scenario, "structural", generator=scenario.generator)
    report = check_structural(
        scenario.generator,
        n_samples=int(params.get("samples", 2500)),
        seed=scenario.seed,
        c_max=float(params.get("c_max", 500.0)),
    )
    expect = params.get("expect", "certified")
    detail = (
        f"diagonal z: {report.diagonal_z}; monotone: {report.monotone.outcome}; "
        f"quadratic: {report.quadratic.outcome}; implied: {report.quadratic_implied}"
    )
    files = [writer.write_text("structural_report.json",
                               json.dumps(report.to_dict(), indent=1) + "\n")]
    row = {
        "check": "structural", "outcome": report.outcome,
        "passed": bool(report.outcome == expect),
        "value": float(report.passed),
        "detail": detail,
    }
    return row, files, report


def _matrix(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    _require(
        scenario, "matrix",
        generator=scenario.generator, generator2=scenario.generator2, target=scenario.target,
    )
    if not isinstance(scenario.target, PsdCone):
        raise ScenarioError("target", "the 'matrix' check requires a psd-cone target")
    verdict = check_comparison_matrix(
        scenario.generator, scenario.generator2, scenario.target.side,
        n_samples=int(params.get("samples", 3000)),
        seed=scenario.seed,
        c_max=float(params.get("c_max", 500.0)),
    )
    expect = params.get("expect", "certified")
    files = [writer.write_text("matrix_verdict.json",
                               json.dumps(verdict.to_dict(), indent=1) + "\n")]
    row = {
        "check": "matrix", "outcome": verdict.outcome,
        "passed": bool(verdict.outcome == expect),
        "value": float(verdict.constant) if verdict.constant is not None else float("nan"),
        "detail": verdict.detail or f"constant {verdict.constant}",
    }
    return row, files, verdict


_RUNNERS = {
    "simulate": _simulate,
    "solve": _solve,
    "viability": _viability,
    "viability-empirical": _viability_empirical,
    "comparison": _comparison,
    "comparison-empirical": _comparison_empirical,
    "structural": _structural,
    "matrix": _matrix,
}


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class RunManifest:
    """Record of one scenario run.

    ``files`` lists every emitted artifact except the manifest itself,
    each with a SHA-256 digest, so a rerun can be verified byte for
    byte.  ``verdicts`` has one entry per executed check.
    """

    name: str
    config_hash: str
    seed: int
    version: str
    wall_clock_seconds: float
    verdicts: list = field(default_factory=list)
    files: list = field(default_factory=list)
    created: str = ""

    @property
    def all_passed(self) -> bool:
        return all(row["passed"] for row in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "name": self.name,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": self.version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "verdicts": self.verdicts,
            "files": self.files,
            "created": self.created,
        }


def _apply_overrides(doc: dict, seed=None, paths=None, steps=None) -> dict:
    doc = json.loads(json.dumps(doc))
    if seed is not None:
        doc["seed"] = seed
    if paths is not None:
        doc.setdefault("solver", {})["paths"] = paths
    if steps is not None:
        doc.setdefault("grid", {})["steps"] = steps
    return doc


def run_scenario(
    config,
    out_dir=None,
    *,
    fmt: str = "csv",
    checks=None,
    seed=None,
    paths=None,
    steps=None,
    extra_acceptance=None,
) -> RunManifest:
    """Validate a config (path or dict), run its checks, write artifacts.

    ``checks`` optionally restricts execution to the named kinds; when
    the config lists none of them, default specs are synthesized for
    whichever of those kinds the config supports.  The checks share one
    path bundle and one solve of ``generator`` with ``terminal``, made
    on first use, so a check's tables do not depend on which other
    checks run.  ``extra_acceptance`` may inspect the in-memory results
    and append extra verdict rows.
    """
    if isinstance(config, (str, Path)):
        doc = load_scenario(config).raw
    else:
        doc = _as_dict(config, "<config>")
    doc = _apply_overrides(doc, seed=seed, paths=paths, steps=steps)
    scenario = Scenario.from_dict(doc)

    selected = scenario.checks
    if checks is not None:
        selected = [c for c in scenario.checks if c.kind in checks]
        if not selected:
            selected = [CheckSpec(kind, {}) for kind in checks if _supports(scenario, kind)]
        if not selected:
            raise ScenarioError(
                "checks", f"config supports none of the requested checks {sorted(checks)}"
            )
    if not selected:
        raise ScenarioError("checks", "no checks requested")

    out = Path(out_dir) if out_dir is not None else Path(scenario.output_dir or f"runs/{scenario.name}")
    writer = _ArtifactWriter(out, fmt)
    canonical = _canonical_json(doc)
    writer.write_text("config.json", canonical + "\n")
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    started = time.perf_counter()
    run = _ScenarioRun(scenario)
    rows, payloads = [], []
    for spec in selected:
        row, _files, payload = _RUNNERS[spec.kind](run, spec.params, writer)
        rows.append(row)
        payloads.append((spec, row, payload))
    if extra_acceptance is not None:
        rows.extend(extra_acceptance(scenario, payloads))

    writer.write_table(
        "verdicts",
        [
            ("check", [r["check"] for r in rows]),
            ("outcome", [r["outcome"] for r in rows]),
            ("passed", [r["passed"] for r in rows]),
            ("value", [r["value"] for r in rows]),
            ("detail", [r["detail"] for r in rows]),
        ],
    )
    manifest = RunManifest(
        name=scenario.name,
        config_hash=config_hash,
        seed=scenario.seed,
        version=__version__,
        wall_clock_seconds=round(time.perf_counter() - started, 3),
        verdicts=rows,
        files=sorted(writer.records, key=lambda r: r["path"]),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    (out / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=1) + "\n", encoding="utf-8"
    )
    return manifest


def _supports(scenario: Scenario, kind: str) -> bool:
    need = {
        "simulate": (),
        "solve": ("generator", "terminal"),
        "viability": ("generator", "target"),
        "viability-empirical": ("generator", "terminal", "target"),
        "comparison": ("generator", "generator2"),
        "comparison-empirical": ("generator", "generator2", "terminal", "terminal2"),
        "structural": ("generator",),
        "matrix": ("generator", "generator2", "target"),
    }[kind]
    return all(getattr(scenario, attr) is not None for attr in need)


# ---------------------------------------------------------------------------
# reproduction presets


def _example28_config() -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": "example28",
        "grid": {"horizon": 1.0, "steps": 50},
        "brownian_dim": 1,
        "marks": {"points": [[1.0]], "weights": [1.0]},
        "target": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "generator": {"kind": "projection-drift"},
        "terminal": {"kind": "circle-angle", "component": 0},
        "solver": {"paths": 100_000, "basis_degree": 4, "mode": "explicit"},
        "seed": 7,
        "checks": [
            {"kind": "viability", "samples": 4000, "threshold": 4.01},
            {"kind": "viability-empirical", "level": 0.05},
        ],
    }


def _example28_extra(scenario, payloads):
    rows = []
    for spec, _row, payload in payloads:
        if spec.kind == "viability-empirical":
            report, sol = payload
            norms = np.linalg.norm(sol.y, axis=2).mean(axis=0)
            worst = float(norms.max())
            rows.append({
                "check": "acceptance:ball-norm",
                "outcome": "within" if worst <= 1.05 else "exceeded",
                "passed": bool(worst <= 1.05),
                "value": worst,
                "detail": f"max_t mean |Y_t| = {worst:.6f} (bound 1.05)",
            })
    return rows


def _remark34a_config() -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": "remark34a",
        "grid": {"horizon": 1.0, "steps": 50},
        "brownian_dim": 1,
        "marks": {"points": [[1.0]], "weights": [1.0]},
        "generator": {"kind": "scaled-jump", "scale": 0.5},
        "terminal": {"kind": "counts", "component": 0},
        "solver": {"paths": 200_000, "basis_degree": 2, "mode": "explicit"},
        "seed": 2024,
        "checks": [{"kind": "solve"}],
    }


def _y0_acceptance(target_y0: float, tolerance: float):
    def extra(scenario, payloads):
        rows = []
        for spec, _row, payload in payloads:
            if spec.kind == "solve":
                err = float(abs(payload.y0[0] - target_y0))
                rows.append({
                    "check": "acceptance:y0",
                    "outcome": "within" if err <= tolerance else "exceeded",
                    "passed": bool(err <= tolerance),
                    "value": float(payload.y0[0]),
                    "detail": (
                        f"|Y_0 - ({target_y0})| = {err:.6f} (tolerance {tolerance})"
                    ),
                })
        return rows

    return extra


def _remark34b_config() -> dict:
    cfg = _remark34a_config()
    cfg["name"] = "remark34b"
    cfg["generator"] = {"kind": "scaled-jump", "scale": 2.0}
    cfg["generator2"] = {"kind": "zero", "state_dim": 1}
    cfg["terminal2"] = {"kind": "constant", "value": [0.0]}
    cfg["checks"] = [
        {"kind": "solve"},
        {"kind": "comparison-empirical", "expect": "violated"},
    ]
    return cfg


def _remark34b_extra(scenario, payloads):
    rows = _y0_acceptance(-1.0, 0.02)(scenario, payloads)
    expected = float(np.exp(-0.5))
    for spec, _row, payload in payloads:
        if spec.kind == "comparison-empirical":
            report = payload[0]
            idx = int(np.argmin(np.abs(report.times - 0.5)))
            frac = float(report.violation_fraction[idx])
            err = abs(frac - expected)
            rows.append({
                "check": "acceptance:violation-fraction",
                "outcome": "within" if err <= 0.03 else "exceeded",
                "passed": bool(err <= 0.03),
                "value": frac,
                "detail": (
                    f"violation fraction {frac:.4f} at t={report.times[idx]:.2f}, "
                    f"expected {expected:.4f} +/- 0.03"
                ),
            })
    return rows


def _thm25_config() -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": "thm25-demo",
        "grid": {"horizon": 1.0, "steps": 20},
        "brownian_dim": 1,
        "marks": {"points": [[1.0]], "weights": [1.0]},
        "target": {"kind": "point-set", "points": [[-1.0], [1.0]]},
        "generator": {"kind": "zero", "state_dim": 1},
        "terminal": {"kind": "brownian-sign", "component": 0},
        "solver": {"paths": 20_000, "basis_degree": 2, "mode": "explicit"},
        "seed": 11,
        "checks": [{"kind": "viability-empirical", "level": 0.9, "expect": "exceeds"}],
    }


_PRESETS = {
    "example28": (_example28_config, _example28_extra),
    "remark34a": (_remark34a_config, _y0_acceptance(0.5, 0.02)),
    "remark34b": (_remark34b_config, _remark34b_extra),
    "thm25-demo": (_thm25_config, None),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def reproduce(name: str, out_dir=None, *, fmt="csv", seed=None, paths=None, steps=None) -> RunManifest:
    """Run a named reproduction preset with its pinned configuration."""
    if name not in _PRESETS:
        raise ScenarioError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    build, extra = _PRESETS[name]
    return run_scenario(
        build(), out_dir, fmt=fmt, seed=seed, paths=paths, steps=steps,
        extra_acceptance=extra,
    )


# ---------------------------------------------------------------------------
# command line


def _add_common(sub, with_config=True):
    if with_config:
        sub.add_argument("--config", required=True, help="scenario JSON file")
    sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub.add_argument("--paths", type=int, default=None, help="override the path count")
    sub.add_argument("--steps", type=int, default=None, help="override the grid step count")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                     help="table format (default csv)")


_COMMAND_CHECKS = {
    "simulate": ("simulate",),
    "solve": ("solve",),
    "check-viability": ("viability", "viability-empirical"),
    "check-comparison": ("comparison", "comparison-empirical"),
    "check-structural": ("structural",),
    "check-matrix": ("matrix",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsdelab",
        description="Backward SDEs with jumps: solve scenarios and check viability/comparison conditions.",
    )
    parser.add_argument("--version", action="version", version=f"bsdelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMAND_CHECKS:
        p = sub.add_parser(command, help=f"run the {command.replace('-', ' ')} step(s) of a scenario")
        _add_common(p)
    p = sub.add_parser("reproduce", help="run a pinned reproduction preset")
    p.add_argument("name", choices=PRESET_NAMES)
    _add_common(p, with_config=False)
    return parser


def _print_manifest(manifest: RunManifest, out_dir):
    print(f"scenario: {manifest.name}  (seed {manifest.seed}, config {manifest.config_hash[:12]})")
    for row in manifest.verdicts:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"  [{status}] {row['check']}: {row['outcome']} - {row['detail']}")
    print(f"wrote {len(manifest.files)} files to {out_dir} in {manifest.wall_clock_seconds:.1f}s")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            out = args.out or f"runs/{args.name}"
            manifest = reproduce(
                args.name, out, fmt=args.fmt, seed=args.seed,
                paths=args.paths, steps=args.steps,
            )
        else:
            checks = _COMMAND_CHECKS[args.command]
            doc = load_scenario(args.config)
            out = args.out or doc.output_dir or f"runs/{doc.name}"
            manifest = run_scenario(
                doc.raw, out, fmt=args.fmt, checks=checks, seed=args.seed,
                paths=args.paths, steps=args.steps,
            )
    except ScenarioError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    _print_manifest(manifest, out)
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
