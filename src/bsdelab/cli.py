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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

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
from .solver import (
    BsdeSolution,
    RegressionBasis,
    SolverError,
    TerminalCondition,
    solve_backward_many,
)
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


@contextmanager
def _reported_at(path):
    """Report a component constructor's ``ValueError`` at ``path``."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _build_marks(spec, path) -> FiniteMarkMeasure:
    spec = _as_dict(spec, path)
    points = _array(spec, path, "points")
    weights = _array(spec, path, "weights")
    with _reported_at(path):
        return FiniteMarkMeasure(points, weights)


def _build_target(spec, path):
    spec = _as_dict(spec, path)
    kind = _string(spec, path, "kind")
    with _reported_at(path):
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
    raise ScenarioError(f"{path}.kind", f"unknown target kind {kind!r}")


def _build_generator(spec, path, *, brownian_dim, marks, target) -> Generator:
    spec = _as_dict(spec, path)
    kind = _string(spec, path, "kind")
    with _reported_at(path):
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
    raise ScenarioError(f"{path}.kind", f"unknown generator kind {kind!r}")


# the state dimension of each terminal kind that reads one coordinate of the
# driving paths; a ``constant`` terminal takes the generator's
_TERMINAL_DIMS = {"brownian": 1, "brownian-sign": 1, "counts": 1, "circle-angle": 2}


def _build_terminal(spec, path, *, state_dim, brownian_dim, marks) -> TerminalCondition:
    spec = _as_dict(spec, path)
    kind = _string(spec, path, "kind")
    if kind == "constant":
        value = _array(spec, path, "value")
        if value.shape != (state_dim,):
            raise ScenarioError(f"{path}.value", f"expected {state_dim} components")
        return TerminalCondition(
            lambda w, n, v=value: np.tile(v, (w.shape[0], 1)), state_dim, "constant terminal value"
        )
    if kind not in _TERMINAL_DIMS:
        raise ScenarioError(f"{path}.kind", f"unknown terminal kind {kind!r}")
    dim = _TERMINAL_DIMS[kind]
    if state_dim != dim:
        raise ScenarioError(
            path,
            f"{kind} terminal data is {dim}-dimensional, the generator's state "
            f"{state_dim}-dimensional",
        )
    comp = _integer(spec, path, "component", 0)
    bound, what = (marks.n_atoms, "atom") if kind == "counts" else (brownian_dim, "Brownian")
    if not 0 <= comp < bound:
        raise ScenarioError(f"{path}.component", f"{what} index out of range 0..{bound - 1}")
    if kind == "brownian-sign":
        return TerminalCondition(
            lambda w, n, c=comp: np.where(w[:, c] >= 0.0, 1.0, -1.0),
            1,
            f"sign of Brownian coordinate {comp} at the horizon",
        )
    if kind == "circle-angle":
        return TerminalCondition(
            lambda w, n, c=comp: np.stack([np.cos(w[:, c]), np.sin(w[:, c])], axis=1),
            2,
            f"unit-circle point at angle W^{comp}_T",
        )
    scale = _number(spec, path, "scale", 1.0)
    offset = _number(spec, path, "offset", 0.0)
    if kind == "counts":
        return TerminalCondition(
            lambda w, n, c=comp, a=scale, b=offset: a * n[:, c].astype(float) + b,
            1,
            f"scaled jump count of atom {comp} at the horizon",
        )
    return TerminalCondition(
        lambda w, n, c=comp, a=scale, b=offset: a * w[:, c] + b,
        1,
        f"scaled Brownian coordinate {comp} at the horizon",
    )


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class CheckSpec:
    """One check of a scenario: its kind and every parameter, defaults filled in."""

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

        # generator and terminal, then the second problem's pair
        drivers = {}
        for gen_key, term_key in (("generator", "terminal"), ("generator2", "terminal2")):
            gen = term = None
            if cfg.get(gen_key) is not None:
                gen = _build_generator(
                    cfg[gen_key], gen_key, brownian_dim=brownian_dim, marks=marks, target=target
                )
            if cfg.get(term_key) is not None:
                if gen is None:
                    raise ScenarioError(term_key, f"{term_key} requires {gen_key}")
                term = _build_terminal(
                    cfg[term_key], term_key,
                    state_dim=gen.state_dim, brownian_dim=brownian_dim, marks=marks,
                )
            drivers[gen_key], drivers[term_key] = gen, term
        generator = drivers["generator"]
        if target is not None and generator is not None and target.dim != generator.state_dim:
            raise ScenarioError(
                "target",
                f"target dimension {target.dim} differs from the generator's "
                f"state dimension {generator.state_dim}",
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
        checks = [_check_spec(entry, f"checks[{i}]") for i, entry in enumerate(checks_node)]
        # the scalar comparison route certifies with no constant to cap
        if generator is not None and generator.state_dim == 1:
            for i, entry in enumerate(checks_node):
                if checks[i].kind == "comparison" and isinstance(entry, dict) and "c_max" in entry:
                    raise ScenarioError(
                        f"checks[{i}].c_max",
                        "not a parameter of the scalar 'comparison' route (state_dim 1)",
                    )

        seed = _integer(cfg, "", "seed", 0)
        if seed < 0:
            raise ScenarioError("seed", "must be nonnegative")
        output_dir = cfg.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ScenarioError("output_dir", "expected a string")
        return cls(
            raw=cfg, name=name, grid=grid, brownian_dim=brownian_dim, marks=marks,
            target=target, solver=solver, checks=checks, seed=seed, output_dir=output_dir,
            **drivers,
        )


def _check_spec(entry, path) -> CheckSpec:
    """Validate one ``checks`` entry against its kind and fill in the defaults."""
    if isinstance(entry, str):
        entry = {"kind": entry}
    entry = _as_dict(entry, path)
    kind = _string(entry, path, "kind")
    if kind not in _CHECKS:
        raise ScenarioError(f"{path}.kind", f"unknown check kind {kind!r}")
    check = _CHECKS[kind]
    accepted = {"kind", *check.params, *(("expect",) if check.expects else ())}
    for key in entry:
        if key not in accepted:
            raise ScenarioError(f"{path}.{key}", f"not a parameter of the {kind!r} check")
    params = {}
    for key, default in check.params.items():
        if key not in entry:
            params[key] = default
        elif isinstance(default, int):  # ``samples``, the one integer parameter
            params[key] = _integer(entry, path, key)
            if params[key] < 1:
                raise ScenarioError(f"{path}.{key}", "must be at least 1")
        else:
            params[key] = _number(entry, path, key)
    if check.expects:
        params["expect"] = _string(entry, path, "expect", check.expects[0])
        if params["expect"] not in check.expects:
            allowed = " or ".join(map(repr, check.expects))
            raise ScenarioError(f"{path}.expect", f"expected {allowed}")
    return CheckSpec(kind, params)


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

    def write_text(self, name: str, text: str) -> None:
        name, data = self.unique(name), text.encode("utf-8")
        (self.out_dir / name).write_bytes(data)
        self.records.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})

    def write_json(self, name: str, doc) -> None:
        self.write_text(name, json.dumps(doc, indent=1) + "\n")

    def write_table(self, stem: str, columns: list[tuple[str, list]]) -> None:
        names = [c[0] for c in columns]
        rows = list(zip(*[c[1] for c in columns]))
        if self.fmt == "json":
            doc = {"schema": "bsdelab/table-v1", "columns": names,
                   "rows": [list(r) for r in rows]}
            self.write_json(f"{stem}.json", doc)
            return
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_cell(v) for v in row] for row in rows)
        self.write_text(f"{stem}.csv", buf.getvalue())


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
    # the bundle and solution arrays are views of time-major storage, so
    # lock that storage too, not only the view
    for array in arrays:
        array.flags.writeable = False
        if isinstance(array.base, np.ndarray):
            array.base.flags.writeable = False


class _ScenarioRun:
    """The work one ``run_scenario`` call shares between its checks.

    The scenario's path bundle is simulated on first use and at most once.
    Its problems are ``generator`` with ``terminal`` and, when a
    ``comparison-empirical`` check is selected, ``generator2`` with
    ``terminal2``; the first check that needs a solution solves all of
    them in one backward pass.  Every array is read-only, so each check
    sees the same draws and the same solutions and none can change them
    for the next.
    """

    def __init__(self, scenario: Scenario, kinds):
        self.scenario = scenario
        self._problems = [(scenario.generator, scenario.terminal)]
        second = (scenario.generator2, scenario.terminal2)
        if "comparison-empirical" in kinds and None not in second:
            self._problems.append(second)
        self._paths = None
        self._solutions = None

    def paths(self) -> DrivingPaths:
        if self._paths is None:
            s = self.scenario
            paths = simulate_paths(s.grid, s.marks, s.brownian_dim, s.solver.paths, s.seed)
            _read_only(paths.brownian, paths.jump_counts, paths.count_nodes)
            self._paths = paths
        return self._paths

    def solutions(self) -> list[BsdeSolution]:
        if self._solutions is None:
            s = self.scenario
            solutions = solve_backward_many(
                self._problems, self.paths(),
                basis=RegressionBasis(s.solver.basis_degree), mode=s.solver.mode,
            )
            for sol in solutions:
                _read_only(sol.y, sol.z, sol.u, sol.y0, sol.y0_se)
            self._solutions = solutions
        return self._solutions


def _row(check: str, outcome: str, passed, value, detail: str) -> dict:
    """One verdict row; a check with no value (no constant) reads NaN."""
    return {
        "check": check, "outcome": outcome, "passed": bool(passed),
        "value": float("nan") if value is None else float(value), "detail": detail,
    }


def _simulate(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    paths = run.paths()
    columns = [("t", list(scenario.grid.nodes))]
    for j in range(paths.brownian_dim):
        columns.append((f"w{j}_mean", list(paths.brownian[:, :, j].mean(axis=0))))
        columns.append((f"w{j}_std", list(paths.brownian[:, :, j].std(axis=0))))
    for j in range(scenario.marks.n_atoms):
        columns.append((f"n{j}_mean", list(paths.count_nodes[:, :, j].mean(axis=0))))
    writer.write_table("path_stats", columns)
    n = scenario.solver.paths
    detail = f"{n} paths on {scenario.grid.n_steps} steps"
    return _row("simulate", "completed", True, n, detail), paths


def _solve(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    sol = run.solutions()[0]
    m = sol.state_dim
    columns = [("t", list(sol.times))]
    # over the time-major storage, so the copy np.quantile makes keeps each
    # time's values contiguous for its partition
    lo, hi = np.quantile(sol.y.transpose(1, 0, 2), [0.05, 0.95], axis=1)
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
    writer.write_table("y_stats", columns)
    svg = render_line_plot(
        sol.times,
        [(f"mean Y[{k}]", mean[:, k]) for k in range(m)],
        bands=[(lo[:, k], hi[:, k]) for k in range(m)],
        title=f"{scenario.name}: solution mean with 5-95% band",
        x_label="t", y_label="Y",
    )
    writer.write_text("y_mean.svg", svg)
    y0 = ", ".join(f"{v:.6f}" for v in sol.y0)
    detail = f"Y_0 = [{y0}], standard error {float(np.max(sol.y0_se)):.2e}"
    return _row("solve", "completed", True, sol.y0[0], detail), sol


def _viability(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    verdict = check_viability_condition(
        scenario.generator, scenario.target,
        n_samples=params["samples"],
        seed=scenario.seed,
        c_max=params["c_max"],
    )
    threshold = params["threshold"]
    passed = verdict.certified and (threshold is None or verdict.constant <= threshold)
    detail = verdict.detail or f"constant {verdict.constant:.6f}"
    if threshold is not None and verdict.certified:
        detail += f" (threshold {threshold})"
    writer.write_json("viability_verdict.json", verdict.to_dict())
    return _row("viability", verdict.outcome, passed, verdict.constant, detail), verdict


def _viability_empirical(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    level, expect = params["level"], params["expect"]
    sol = run.solutions()[0]
    report = viability_path_report(sol, scenario.target, tolerance=level)
    columns = [("t", list(report.times)), ("dk_mean", list(report.mean_distance))]
    writer.write_table("distance_stats", columns)
    svg = render_line_plot(
        report.times, [("mean distance to target", report.mean_distance)],
        title=f"{scenario.name}: mean distance to the target set",
        x_label="t", y_label="E d_K(Y_t)",
    )
    writer.write_text("distance.svg", svg)
    worst = float(report.max_mean_distance)
    passed = worst <= level if expect == "within" else worst >= level
    outcome = expect if passed else {"within": "exceeded", "exceeds": "below"}[expect]
    detail = f"max_t mean distance {worst:.6f} ({expect} {level})"
    return _row("viability-empirical", outcome, passed, worst, detail), (report, sol)


def _comparison(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    if scenario.generator.state_dim == 1:
        verdict = check_comparison_m1(
            scenario.generator, scenario.generator2, n_samples=params["samples"], seed=scenario.seed
        )
        route = "scalar"
    else:
        verdict = check_comparison_multidim(
            scenario.generator, scenario.generator2, n_samples=params["samples"],
            seed=scenario.seed, c_max=params["c_max"],
        )
        route = "componentwise"
    writer.write_json("comparison_verdict.json", verdict.to_dict())
    detail = f"{route} route: {verdict.detail or verdict.outcome}"
    passed = verdict.outcome == params["expect"]
    return _row("comparison", verdict.outcome, passed, verdict.constant, detail), verdict


def _comparison_empirical(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    tolerance = params["tolerance"]
    sol1, sol2 = run.solutions()
    report = comparison_path_report(sol1, sol2)
    columns = [
        ("t", list(report.times)),
        ("gap_min", list(report.min_gap_per_time)),
        ("violation_fraction", list(report.violation_fraction)),
    ]
    writer.write_table("gap_stats", columns)
    svg = render_line_plot(
        report.times,
        [("min gap Y1-Y2", report.min_gap_per_time),
         ("violation fraction", report.violation_fraction)],
        title=f"{scenario.name}: pathwise ordering of the two solutions",
        x_label="t", y_label="",
    )
    writer.write_text("gap.svg", svg)
    outcome = "ordered" if report.min_gap >= -tolerance else "violated"
    detail = (
        f"min gap {report.min_gap:.6f} (tolerance {tolerance}), "
        f"peak violation fraction {float(report.violation_fraction.max()):.4f}"
    )
    row = _row("comparison-empirical", outcome, outcome == params["expect"], report.min_gap, detail)
    return row, (report, sol1, sol2)


def _structural(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    report = check_structural(
        scenario.generator,
        n_samples=params["samples"],
        seed=scenario.seed,
        c_max=params["c_max"],
    )
    detail = (
        f"diagonal z: {report.diagonal_z}; monotone: {report.monotone.outcome}; "
        f"quadratic: {report.quadratic.outcome}; implied: {report.quadratic_implied}"
    )
    writer.write_json("structural_report.json", report.to_dict())
    passed = report.outcome == params["expect"]
    return _row("structural", report.outcome, passed, report.passed, detail), report


def _matrix(run: _ScenarioRun, params: dict, writer: _ArtifactWriter):
    scenario = run.scenario
    verdict = check_comparison_matrix(
        scenario.generator, scenario.generator2, scenario.target.side,
        n_samples=params["samples"],
        seed=scenario.seed,
        c_max=params["c_max"],
    )
    writer.write_json("matrix_verdict.json", verdict.to_dict())
    detail = verdict.detail or f"constant {verdict.constant}"
    passed = verdict.outcome == params["expect"]
    return _row("matrix", verdict.outcome, passed, verdict.constant, detail), verdict


class _Check(NamedTuple):
    """One check kind: its runner, the scenario fields it needs, its
    parameters with their defaults, and its ``expect`` values, the first
    being the default (a kind with none takes no ``expect``)."""

    run: Callable
    needs: tuple
    params: dict
    expects: tuple


_VERDICT_EXPECTS = ("certified", "falsified")
_CHECKS = {
    "simulate": _Check(_simulate, (), {}, ()),
    "solve": _Check(_solve, ("generator", "terminal"), {}, ()),
    "viability": _Check(
        _viability, ("generator", "target"),
        {"samples": 4000, "c_max": 100.0, "threshold": None}, (),
    ),
    "viability-empirical": _Check(
        _viability_empirical, ("generator", "terminal", "target"),
        {"level": 0.05}, ("within", "exceeds"),
    ),
    "comparison": _Check(
        _comparison, ("generator", "generator2"),
        {"samples": 3000, "c_max": 500.0}, _VERDICT_EXPECTS,
    ),
    "comparison-empirical": _Check(
        _comparison_empirical, ("generator", "generator2", "terminal", "terminal2"),
        {"tolerance": 0.02}, ("ordered", "violated"),
    ),
    "structural": _Check(
        _structural, ("generator",), {"samples": 2500, "c_max": 500.0}, _VERDICT_EXPECTS,
    ),
    # the target must also be a psd-cone, which ``run_scenario`` checks
    "matrix": _Check(
        _matrix, ("generator", "generator2", "target"),
        {"samples": 3000, "c_max": 500.0}, _VERDICT_EXPECTS,
    ),
}


def _missing_field(scenario: Scenario, kind: str):
    """The first scenario field a ``kind`` check needs that is not set, or None."""
    return next((name for name in _CHECKS[kind].needs if getattr(scenario, name) is None), None)


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
        return {"schema": MANIFEST_SCHEMA, **asdict(self)}


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
    whichever of those kinds the config supports.  Every scenario field
    a selected check needs is checked before any work or file write.
    The checks share one path bundle and one backward pass over every
    problem they solve, made on first use, so a check's tables do not
    depend on which other checks run.  ``extra_acceptance`` may inspect
    the in-memory results and append extra verdict rows.
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
            selected = [
                _check_spec(kind, "checks") for kind in checks
                if _missing_field(scenario, kind) is None
            ]
        if not selected:
            raise ScenarioError(
                "checks", f"config supports none of the requested checks {sorted(checks)}"
            )
    if not selected:
        raise ScenarioError("checks", "no checks requested")
    for spec in selected:
        missing = _missing_field(scenario, spec.kind)
        if missing is not None:
            raise ScenarioError(missing, f"the {spec.kind!r} check requires this field")
        if spec.kind == "matrix" and not isinstance(scenario.target, PsdCone):
            raise ScenarioError("target", "the 'matrix' check requires a psd-cone target")

    out = Path(out_dir) if out_dir is not None else Path(scenario.output_dir or f"runs/{scenario.name}")
    writer = _ArtifactWriter(out, fmt)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    writer.write_text("config.json", canonical + "\n")
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    started = time.perf_counter()
    run = _ScenarioRun(scenario, {spec.kind for spec in selected})
    rows, payloads = [], []
    for spec in selected:
        row, payload = _CHECKS[spec.kind].run(run, spec.params, writer)
        rows.append(row)
        payloads.append((spec, row, payload))
    if extra_acceptance is not None:
        rows.extend(extra_acceptance(scenario, payloads))

    columns = ("check", "outcome", "passed", "value", "detail")
    writer.write_table("verdicts", [(key, [r[key] for r in rows]) for key in columns])
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


# ---------------------------------------------------------------------------
# reproduction presets


def _bound_row(check: str, err: float, bound: float, value, detail: str) -> dict:
    """An acceptance row, ``within`` when ``err`` is at most ``bound``."""
    return _row(check, "within" if err <= bound else "exceeded", err <= bound, value, detail)


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
    for spec, _verdict, payload in payloads:
        if spec.kind == "viability-empirical":
            report, sol = payload
            worst = float(np.linalg.norm(sol.y, axis=2).mean(axis=0).max())
            detail = f"max_t mean |Y_t| = {worst:.6f} (bound 1.05)"
            rows.append(_bound_row("acceptance:ball-norm", worst, 1.05, worst, detail))
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
        for spec, _verdict, payload in payloads:
            if spec.kind == "solve":
                err = float(abs(payload.y0[0] - target_y0))
                detail = f"|Y_0 - ({target_y0})| = {err:.6f} (tolerance {tolerance})"
                rows.append(_bound_row("acceptance:y0", err, tolerance, payload.y0[0], detail))
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
    for spec, _verdict, payload in payloads:
        if spec.kind == "comparison-empirical":
            report = payload[0]
            idx = int(np.argmin(np.abs(report.times - 0.5)))
            frac = float(report.violation_fraction[idx])
            detail = (
                f"violation fraction {frac:.4f} at t={report.times[idx]:.2f}, "
                f"expected {expected:.4f} +/- 0.03"
            )
            err = abs(frac - expected)
            rows.append(_bound_row("acceptance:violation-fraction", err, 0.03, frac, detail))
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
