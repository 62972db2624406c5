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
from functools import partial
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
    ConvexBody,
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
# config validation: a reader per value, a field table per object


def _as_dict(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(path, f"expected an object, got {type(node).__name__}")
    return node


def _read(node, path: str, fields: dict, owner: str) -> dict:
    """The fields of the config object at ``path``, read by their table.

    ``fields`` maps each key the object takes to its reader, called as
    ``reader(value, field_path)``, or to ``(reader, default)`` for an
    optional key.  Any other key is refused as not a parameter of ``owner``.
    """
    node = _as_dict(node, path)
    for key in node:
        if key not in fields:
            raise ScenarioError(f"{path}.{key}" if path else key, f"not a parameter of {owner}")
    return {key: _field(node, path, key, spec) for key, spec in fields.items()}


def _field(node: dict, path: str, key: str, spec):
    at = f"{path}.{key}" if path else key
    reader, *default = spec if isinstance(spec, tuple) else (spec,)
    if key in node:
        return reader(node[key], at)
    if not default:
        raise ScenarioError(at, "missing required field")
    return default[0]


def _read_kind(node, path: str, kinds: dict, noun: str) -> tuple[str, dict]:
    """The ``kind`` of the config object at ``path`` and its other fields,
    read by the field table that ends the kind's entry in ``kinds``."""
    kind = _field(_as_dict(node, path), path, "kind", _string)
    if kind not in kinds:
        raise ScenarioError(f"{path}.kind", f"unknown {noun} kind {kind!r}")
    fields = _read(node, path, {"kind": _string, **kinds[kind][-1]}, f"the {kind!r} {noun}")
    del fields["kind"]
    return kind, fields


def _number(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(path, "expected a number")
    v = float(v)
    # Python's json reads NaN and Infinity
    if not np.isfinite(v):
        raise ScenarioError(path, f"expected a finite number, got {v}")
    return v


def _integer(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(path, "expected an integer")
    return v


def _string(v, path) -> str:
    if not isinstance(v, str):
        raise ScenarioError(path, "expected a string")
    return v


def _array(v, path) -> np.ndarray:
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(path, "expected a numeric array") from None
    if arr.dtype.kind not in "fi" or arr.size == 0:
        raise ScenarioError(path, "expected a nonempty numeric array")
    if not np.isfinite(arr).all():
        raise ScenarioError(path, "expected finite numbers, got NaN or infinity")
    return arr


def _at_least(low: int):
    """A reader of integers of at least ``low``."""

    def read(v, path) -> int:
        if _integer(v, path) < low:
            raise ScenarioError(path, f"must be at least {low}" if low else "must be nonnegative")
        return v

    return read


def _choice(*values):
    """An optional string field taking one of ``values``, the first by default."""

    def read(v, path) -> str:
        if _string(v, path) not in values:
            raise ScenarioError(path, "expected " + " or ".join(map(repr, values)))
        return v

    return read, values[0]


def _or_none(reader):
    """``reader``, with null read as an absent object."""
    return lambda v, path: None if v is None else reader(v, path)


# ---------------------------------------------------------------------------
# component builders


@contextmanager
def _reported_at(path):
    """Report a component constructor's ``ValueError`` at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


# each target kind: its constructor, and its fields, which are the
# constructor's parameters
_TARGETS = {
    "ball": (Ball, {"center": _array, "radius": _number}),
    "box": (Box, {"lower": _array, "upper": _array}),
    "orthant-product": (OrthantProduct, {"n_plus": _integer, "n_free": _integer}),
    "psd-cone": (PsdCone, {"side": _integer}),
    "point-set": (FinitePointSet, {"points": _array}),
    "halfspaces": (HalfspaceIntersection, {"normals": _array, "offsets": _array}),
}


def _target(spec, path):
    kind, fields = _read_kind(spec, path, _TARGETS, "target")
    with _reported_at(path):
        return _TARGETS[kind][0](**fields)


def _grid(spec, path) -> TimeGrid:
    grid = _read(spec, path, {"horizon": _number, "steps": _at_least(1)}, "the grid")
    if grid["horizon"] <= 0.0:
        raise ScenarioError(f"{path}.horizon", "must be positive")
    return TimeGrid.uniform(grid["horizon"], grid["steps"])


def _marks(spec, path) -> FiniteMarkMeasure:
    marks = _read(spec, path, {"points": _array, "weights": _array}, "the marks")
    with _reported_at(path):
        return FiniteMarkMeasure(marks["points"], marks["weights"])


def _square_matrix(v, path) -> np.ndarray:
    a = _array(v, path)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ScenarioError(path, "expected a square matrix")
    return a


def _projection_drift(brownian_dim, marks, target):
    if target is None:
        raise ValueError("projection-drift requires a target set")
    return ProjectionDriftGen(target, brownian_dim, marks)


def _affine(brownian_dim, marks, target, a, b, c, drift):
    m = a.shape[0]
    return AffineGen(
        a,
        np.zeros((m, m, brownian_dim)) if b is None else b,
        np.zeros((marks.n_atoms, m, m)) if c is None else c,
        np.zeros(m) if drift is None else drift,
        brownian_dim, marks,
    )


# each generator kind: its constructor, called with the Brownian dimension,
# the marks, the target set and the kind's fields, and its fields
_GENERATORS = {
    "zero": (lambda d, marks, _, state_dim: ZeroGen(state_dim, d, marks), {"state_dim": _integer}),
    "scaled-jump": (lambda d, marks, _, scale: ScaledJumpGen(scale, marks), {"scale": _number}),
    "projection-drift": (_projection_drift, {}),
    "affine": (
        _affine,
        {"a": _square_matrix, "b": (_array, None), "c": (_array, None), "drift": (_array, None)},
    ),
}


def _generator(spec, path, top: dict) -> Generator:
    kind, fields = _read_kind(spec, path, _GENERATORS, "generator")
    with _reported_at(path):
        return _GENERATORS[kind][0](top["brownian_dim"], top["marks"], top["target"], **fields)


# each terminal kind: the dimension of its data (None: the generator's state
# dimension), what its ``component`` indexes (None: it takes none), its payoff
# of (W_T, N_T) given its fields, its description, and its fields
_COMPONENT = {"component": (_integer, 0)}
_SCALED = {**_COMPONENT, "scale": (_number, 1.0), "offset": (_number, 0.0)}
_TERMINALS = {
    "constant": (
        None, None, lambda w, n, value: np.tile(value, (w.shape[0], 1)),
        "constant terminal value", {"value": _array},
    ),
    "brownian": (
        1, "Brownian", lambda w, n, component, scale, offset: scale * w[:, component] + offset,
        "scaled Brownian coordinate {component} at the horizon", _SCALED,
    ),
    "brownian-sign": (
        1, "Brownian", lambda w, n, component: np.where(w[:, component] >= 0.0, 1.0, -1.0),
        "sign of Brownian coordinate {component} at the horizon", _COMPONENT,
    ),
    "counts": (
        1, "atom", lambda w, n, component, scale, offset: scale * n[:, component] + offset,
        "scaled jump count of atom {component} at the horizon", _SCALED,
    ),
    "circle-angle": (
        2, "Brownian",
        lambda w, n, component: np.stack([np.cos(w[:, component]), np.sin(w[:, component])], axis=1),
        "unit-circle point at angle W^{component}_T", _COMPONENT,
    ),
}


def _terminal(spec, path, state_dim: int, top: dict) -> TerminalCondition:
    kind, fields = _read_kind(spec, path, _TERMINALS, "terminal")
    dim, index, payoff, about, _ = _TERMINALS[kind]
    if dim is None and fields["value"].shape != (state_dim,):
        raise ScenarioError(f"{path}.value", f"expected {state_dim} components")
    if dim is not None and dim != state_dim:
        raise ScenarioError(path, f"{kind} terminal data is {dim}-dimensional, "
                                  f"the generator's state {state_dim}-dimensional")
    if index is not None:
        bound = top["marks"].n_atoms if index == "atom" else top["brownian_dim"]
        if not 0 <= fields["component"] < bound:
            raise ScenarioError(f"{path}.component", f"{index} index out of range 0..{bound - 1}")
    return TerminalCondition(partial(payoff, **fields), state_dim, about.format(**fields))


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class CheckSpec:
    """One check of a scenario: its kind and every parameter, defaults filled in."""

    kind: str
    params: dict


@dataclass(frozen=True)
class SolverSettings:
    paths: int
    basis_degree: int
    mode: str


_SOLVER = {
    "paths": (_at_least(1), 10_000),
    "basis_degree": (_at_least(0), 2),
    "mode": _choice("explicit", "implicit"),
}


def _solver(spec, path) -> SolverSettings:
    return SolverSettings(**_read(spec, path, _SOLVER, "the solver"))


def _check_spec(entry, path) -> CheckSpec:
    """Read one ``checks`` entry, a kind name or an object, defaults filled in."""
    if isinstance(entry, str):
        entry = {"kind": entry}
    return CheckSpec(*_read_kind(entry, path, _CHECKS, "check"))


def _checks(node, path) -> tuple[CheckSpec, ...]:
    if not isinstance(node, list):
        raise ScenarioError(path, "expected a list")
    return tuple(_check_spec(entry, f"{path}[{i}]") for i, entry in enumerate(node))


# the generators and terminals are read as objects here and built in
# ``Scenario.from_dict``, which knows what each is built on
_SCENARIO = {
    "schema": _string,
    "name": (_string, "scenario"),
    "grid": _grid,
    "brownian_dim": (_at_least(1), 1),
    "marks": _marks,
    "target": (_or_none(_target), None),
    "generator": (_or_none(_as_dict), None),
    "terminal": (_or_none(_as_dict), None),
    "generator2": (_or_none(_as_dict), None),
    "terminal2": (_or_none(_as_dict), None),
    "solver": (_solver, _solver({}, "solver")),
    "checks": (_checks, ()),
    "seed": (_at_least(0), 0),
    "output_dir": (_or_none(_string), None),
}


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
    checks: tuple[CheckSpec, ...]
    seed: int
    output_dir: str | None

    @classmethod
    def from_dict(cls, cfg) -> "Scenario":
        top = _read(_as_dict(cfg, "<config>"), "", _SCENARIO, "the scenario")
        if top["schema"] != SCENARIO_SCHEMA:
            raise ScenarioError("schema", f"expected {SCENARIO_SCHEMA!r}, got {top['schema']!r}")
        # generator and terminal, then the second problem's pair
        for gen_key, term_key in (("generator", "terminal"), ("generator2", "terminal2")):
            if top[gen_key] is not None:
                top[gen_key] = _generator(top[gen_key], gen_key, top)
            if top[term_key] is not None:
                if top[gen_key] is None:
                    raise ScenarioError(term_key, f"{term_key} requires {gen_key}")
                top[term_key] = _terminal(top[term_key], term_key, top[gen_key].state_dim, top)
        target, generator, generator2 = top["target"], top["generator"], top["generator2"]
        if target is not None and generator is not None and target.dim != generator.state_dim:
            raise ScenarioError("target", f"target dimension {target.dim} differs from the "
                                          f"generator's state dimension {generator.state_dim}")
        if None not in (generator, generator2) and generator2.state_dim != generator.state_dim:
            raise ScenarioError(
                "generator2", f"the state dimension {generator2.state_dim} differs from the "
                f"generator's state dimension {generator.state_dim}",
            )

        # the scalar comparison route certifies with no constant to cap
        if generator is not None and generator.state_dim == 1:
            for i, (spec, entry) in enumerate(zip(top["checks"], cfg.get("checks", []))):
                if spec.kind == "comparison" and isinstance(entry, dict) and "c_max" in entry:
                    raise ScenarioError(f"checks[{i}].c_max", "not a parameter of the scalar "
                                        "'comparison' route (state_dim 1)")
        del top["schema"]
        return cls(raw=cfg, **top)


def _read_config(path):
    """The JSON document of a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("<config>", f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<config>", f"invalid JSON: {exc}") from None


def load_scenario(path) -> Scenario:
    return Scenario.from_dict(_read_config(path))


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

    def regression(self) -> list[dict]:
        """The backward pass's design diagnostics, one per time step, or []
        when no check solved."""
        return [] if self._solutions is None else [asdict(r) for r in self._solutions[0].regression]


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
        # one call on the time-major store, then the mean over paths at each node
        dk = scenario.target.dist_batch(sol.y.transpose(1, 0, 2).reshape(-1, m))
        columns.append(("dk_mean", list(dk.reshape(sol.y.shape[1], -1).mean(axis=1))))
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
        n_samples=params["samples"], seed=scenario.seed, c_max=params["c_max"],
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
    report = viability_path_report(sol, scenario.target)
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
        scenario.generator, n_samples=params["samples"], seed=scenario.seed, c_max=params["c_max"]
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
        n_samples=params["samples"], seed=scenario.seed, c_max=params["c_max"],
    )
    writer.write_json("matrix_verdict.json", verdict.to_dict())
    detail = verdict.detail or f"constant {verdict.constant}"
    passed = verdict.outcome == params["expect"]
    return _row("matrix", verdict.outcome, passed, verdict.constant, detail), verdict


class _Check(NamedTuple):
    """One check kind: its runner, the scenario fields it needs, the type
    its target must have, the Brownian dimension it is set up for (None:
    any), and the field table of its parameters, ``expect`` among them if
    it takes one."""

    run: Callable
    needs: tuple
    target: type
    brownian_dim: int | None
    fields: dict


_SAMPLES = _at_least(1)
_VERDICT = _choice("certified", "falsified")
_CHECKS = {
    "simulate": _Check(_simulate, (), object, None, {}),
    "solve": _Check(_solve, ("generator", "terminal"), object, None, {}),
    "viability": _Check(
        _viability, ("generator", "target"), ConvexBody, None,
        {"samples": (_SAMPLES, 4000), "c_max": (_number, 100.0), "threshold": (_number, None)},
    ),
    "viability-empirical": _Check(
        _viability_empirical, ("generator", "terminal", "target"), object, None,
        {"level": (_number, 0.05), "expect": _choice("within", "exceeds")},
    ),
    "comparison": _Check(
        _comparison, ("generator", "generator2"), object, None,
        {"samples": (_SAMPLES, 3000), "c_max": (_number, 500.0), "expect": _VERDICT},
    ),
    "comparison-empirical": _Check(
        _comparison_empirical, ("generator", "generator2", "terminal", "terminal2"), object, None,
        {"tolerance": (_number, 0.02), "expect": _choice("ordered", "violated")},
    ),
    "structural": _Check(
        _structural, ("generator",), object, None,
        {"samples": (_SAMPLES, 2500), "c_max": (_number, 500.0), "expect": _VERDICT},
    ),
    "matrix": _Check(
        _matrix, ("generator", "generator2", "target"), PsdCone, 1,
        {"samples": (_SAMPLES, 3000), "c_max": (_number, 500.0), "expect": _VERDICT},
    ),
}


def _unmet(scenario: Scenario, kind: str):
    """The first requirement of a ``kind`` check that the scenario does not
    meet, as (field path, message), or None."""
    check = _CHECKS[kind]
    missing = next((name for name in check.needs if getattr(scenario, name) is None), None)
    if missing is not None:
        return missing, f"the {kind!r} check requires this field"
    if not isinstance(scenario.target, check.target):
        return "target", (f"the {kind!r} check requires a {check.target.__name__} target, "
                          f"not a {type(scenario.target).__name__}")
    if check.brownian_dim not in (None, scenario.brownian_dim):
        return "brownian_dim", f"the {kind!r} check is set up for brownian_dim {check.brownian_dim}"
    return None


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class RunManifest:
    """Record of one scenario run.

    ``files`` lists every emitted artifact except the manifest itself,
    each with a SHA-256 digest, so a rerun can be verified byte for
    byte.  ``verdicts`` has one entry per executed check, and
    ``regression`` one per time step of the backward pass (its design's
    step, columns, rank and condition number; empty when nothing solved),
    which no table carries.
    """

    name: str
    config_hash: str
    seed: int
    version: str
    wall_clock_seconds: float
    verdicts: list = field(default_factory=list)
    regression: list = field(default_factory=list)
    files: list = field(default_factory=list)
    created: str = ""
    # the directory the run wrote to; not part of manifest.json
    out_dir: Path | None = field(default=None, repr=False, compare=False)

    @property
    def all_passed(self) -> bool:
        return all(row["passed"] for row in self.verdicts)

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["out_dir"]
        return {"schema": MANIFEST_SCHEMA, **doc}


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

    The artifacts go to ``out_dir``, or else the config's ``output_dir``,
    or else ``runs/<name>``.  ``checks`` optionally restricts execution to
    the named kinds; when the config lists none of them, default specs are
    synthesized for whichever of those kinds the config supports.  Every
    requirement of a selected check is checked before any work or file write.
    The checks share one path bundle and one backward pass over every
    problem they solve, made on first use, so a check's tables do not
    depend on which other checks run.  ``extra_acceptance`` may inspect
    the in-memory results and append extra verdict rows.
    """
    doc = _read_config(config) if isinstance(config, (str, Path)) else _as_dict(config, "<config>")
    doc = json.loads(json.dumps(doc))  # a copy for the overrides
    if seed is not None:
        doc["seed"] = seed
    if paths is not None:
        doc.setdefault("solver", {})["paths"] = paths
    if steps is not None:
        doc.setdefault("grid", {})["steps"] = steps
    scenario = Scenario.from_dict(doc)

    selected = scenario.checks
    if checks is not None:
        selected = [c for c in scenario.checks if c.kind in checks]
        if not selected:
            selected = [
                _check_spec(kind, "checks") for kind in checks if _unmet(scenario, kind) is None
            ]
        if not selected:
            raise ScenarioError(
                "checks", f"config supports none of the requested checks {sorted(checks)}"
            )
    if not selected:
        raise ScenarioError("checks", "no checks requested")
    for spec in selected:
        unmet = _unmet(scenario, spec.kind)
        if unmet is not None:
            raise ScenarioError(*unmet)

    out = Path(out_dir or scenario.output_dir or f"runs/{scenario.name}")
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
        regression=run.regression(),
        files=sorted(writer.records, key=lambda r: r["path"]),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        out_dir=out,
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


def _ball_norm(payload) -> dict:
    _report, sol = payload
    worst = float(np.linalg.norm(sol.y, axis=2).mean(axis=0).max())
    detail = f"max_t mean |Y_t| = {worst:.6f} (bound 1.05)"
    return _bound_row("acceptance:ball-norm", worst, 1.05, worst, detail)


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


def _y0_within(target_y0: float, tolerance: float):
    """The row of a ``solve`` check's ``Y_0``, ``within`` when |Y_0 - target_y0| <= tolerance."""

    def row(sol) -> dict:
        err = float(abs(sol.y0[0] - target_y0))
        detail = f"|Y_0 - ({target_y0})| = {err:.6f} (tolerance {tolerance})"
        return _bound_row("acceptance:y0", err, tolerance, sol.y0[0], detail)

    return row


def _remark34b_config() -> dict:
    return {
        **_remark34a_config(),
        "name": "remark34b",
        "generator": {"kind": "scaled-jump", "scale": 2.0},
        "generator2": {"kind": "zero", "state_dim": 1},
        "terminal2": {"kind": "constant", "value": [0.0]},
        "checks": [{"kind": "solve"}, {"kind": "comparison-empirical", "expect": "violated"}],
    }


def _violation_fraction(payload) -> dict:
    report, expected = payload[0], float(np.exp(-0.5))
    idx = int(np.argmin(np.abs(report.times - 0.5)))
    frac = float(report.violation_fraction[idx])
    detail = (
        f"violation fraction {frac:.4f} at t={report.times[idx]:.2f}, "
        f"expected {expected:.4f} +/- 0.03"
    )
    return _bound_row("acceptance:violation-fraction", abs(frac - expected), 0.03, frac, detail)


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


# each preset: its config, and the function of a check's payload that gives
# its acceptance row, by check kind
_PRESETS = {
    "example28": (_example28_config, {"viability-empirical": _ball_norm}),
    "remark34a": (_remark34a_config, {"solve": _y0_within(0.5, 0.02)}),
    "remark34b": (
        _remark34b_config,
        {"solve": _y0_within(-1.0, 0.02), "comparison-empirical": _violation_fraction},
    ),
    "thm25-demo": (_thm25_config, {}),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def reproduce(name: str, out_dir=None, *, fmt="csv", seed=None, paths=None, steps=None) -> RunManifest:
    """Run a named reproduction preset with its pinned configuration."""
    if name not in _PRESETS:
        raise ScenarioError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    build, rows = _PRESETS[name]
    return run_scenario(
        build(), out_dir, fmt=fmt, seed=seed, paths=paths, steps=steps,
        # one acceptance row for each check of a kind the preset names, in check order
        extra_acceptance=lambda _scenario, payloads: [
            rows[spec.kind](payload) for spec, _row, payload in payloads if spec.kind in rows
        ],
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


def _print_manifest(manifest: RunManifest):
    print(f"scenario: {manifest.name}  (seed {manifest.seed}, config {manifest.config_hash[:12]})")
    for row in manifest.verdicts:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"  [{status}] {row['check']}: {row['outcome']} - {row['detail']}")
    print(f"wrote {len(manifest.files)} files to {manifest.out_dir} "
          f"in {manifest.wall_clock_seconds:.1f}s")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = dict(fmt=args.fmt, seed=args.seed, paths=args.paths, steps=args.steps)
        if args.command == "reproduce":
            manifest = reproduce(args.name, args.out, **options)
        else:
            manifest = run_scenario(
                args.config, args.out, checks=_COMMAND_CHECKS[args.command], **options
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
    _print_manifest(manifest)
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
