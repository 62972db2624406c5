"""Layer tracer for the benchmark: wraps bsdelab's public entry points.

The tracer patches functions and methods from outside the package, so the
program itself carries no tracing code.  Every wrapped call adds to an
aggregate (calls, inclusive seconds, self seconds, optional work count);
self time is the call's duration minus the time of the wrapped calls it
made.  Calls at operation and layer-entry boundaries (``reproduce``,
``simulate_paths``, ``solve_backward``, the checkers and the empirical
reports) also keep a span record with its parent span, for the trace file.
Leaf calls such as ``Ball.project`` are only aggregated: a ``ball_drift``
round makes about half a million of them.
"""

from __future__ import annotations

import contextlib
import time

import bsdelab.cli
import bsdelab.conditions
import bsdelab.generators
import bsdelab.geometry
import bsdelab.solver
import bsdelab.stochastic

_MODULES = (
    bsdelab.cli,
    bsdelab.conditions,
    bsdelab.generators,
    bsdelab.geometry,
    bsdelab.solver,
    bsdelab.stochastic,
)

BODIES = ("Ball", "Box", "OrthantProduct", "HalfspaceIntersection", "PsdCone", "FinitePointSet")
BODY_METHODS = ("project", "dist2", "hess_dist2", "dist_batch")


def _rows(args, result):
    # Generator.__call__(self, t, y, z, u)
    return len(args[2])


def _cells(args, result):
    return result.shape[0] * result.shape[1]


def _draws(args, result):
    return result.n_paths * result.grid.n_steps * (result.brownian_dim + result.marks.n_atoms)


class LayerTracer:
    """Aggregates per-entry statistics while ``active`` is true."""

    def __init__(self):
        # key -> [calls, inclusive s, self s, work count]
        self.stats: dict[str, list] = {}
        self.spans: list[dict] = []
        self.installed = False
        self.active = False
        self._frames: list[list] = []  # [child seconds] per open wrapped call
        self._span_ids: list[int] = []
        self._undo: list = []
        self._origin = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn, *, span: bool = False, work=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        frames, span_ids, spans = self._frames, self._span_ids, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if span:
                parent = span_ids[-1] if span_ids else None
                span_ids.append(len(spans))
                record = {"id": len(spans), "parent": parent, "name": key}
                spans.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if span:
                    span_ids.pop()
                    record["start_s"] = start - self._origin
                    record["end_s"] = start + elapsed - self._origin
            if work is not None:
                stats[3] += work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, key: str, fn, **opts):
        """Replace every module-level reference to ``fn`` in the package."""
        wrapped = self._wrap(key, fn, **opts)
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)
                    self._undo.append((module, name, value, True))

    def _patch_method(self, key: str, cls, name: str, **opts):
        original = getattr(cls, name)
        self._undo.append((cls, name, original, name in cls.__dict__))
        setattr(cls, name, self._wrap(key, original, **opts))

    def install(self) -> None:
        conditions, geometry = bsdelab.conditions, bsdelab.geometry
        self._patch_function("cli.reproduce", bsdelab.cli.reproduce, span=True)
        self._patch_function(
            "stochastic.simulate_paths", bsdelab.stochastic.simulate_paths, span=True, work=_draws
        )
        self._patch_function("solver.solve_backward", bsdelab.solver.solve_backward, span=True)
        self._patch_method(
            "solver.design_matrix", bsdelab.solver.RegressionBasis, "design_matrix", work=_cells
        )
        self._patch_method("generators.call", bsdelab.generators.Generator, "__call__", work=_rows)
        self._patch_function("generators.evaluate", bsdelab.generators.evaluate)
        for body in BODIES:
            cls = getattr(geometry, body)
            for method in BODY_METHODS:
                if hasattr(cls, method):
                    self._patch_method(f"geometry.{body}.{method}", cls, method)
        self._patch_function("geometry.jump_defect", geometry.jump_defect)
        for name in (
            "check_viability_condition",
            "check_comparison_m1",
            "check_comparison_multidim",
            "check_comparison_matrix",
            "check_structural",
            "check_viability_empirical",
            "empirical_comparison",
        ):
            self._patch_function(f"conditions.{name}", getattr(conditions, name), span=True)
        for name in ("viability", "pair", "matrix"):
            self._patch_method("conditions.sampler", conditions.ConditionSampler, name)
        for name in ("viability_lhs_rhs", "comparison_lhs_rhs", "matrix_lhs_rhs"):
            self._patch_function("conditions.lhs_rhs", getattr(conditions, name))
        self.installed = True

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._undo):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()
        self.installed = False

    # -- benchmark-side spans ---------------------------------------------

    @contextlib.contextmanager
    def operation(self, name: str):
        """Span for one benchmark operation; its wrapped calls nest under it."""
        if not self.installed:
            yield
            return
        parent = self._span_ids[-1] if self._span_ids else None
        record = {"id": len(self.spans), "parent": parent, "name": f"op:{name}"}
        self.spans.append(record)
        self._span_ids.append(record["id"])
        start = time.perf_counter()
        try:
            yield
        finally:
            self._span_ids.pop()
            record["start_s"] = start - self._origin
            record["end_s"] = time.perf_counter() - self._origin

    # -- reading ------------------------------------------------------------

    def get(self, key: str) -> tuple[int, float, float, int]:
        calls, total, own, work = self.stats.get(key, (0, 0.0, 0.0, 0))
        return calls, total, own, work

    def total(self, prefix: str, field: int) -> float:
        return sum(v[field] for k, v in self.stats.items() if k.startswith(prefix))
