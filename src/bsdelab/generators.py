"""Drivers f(t, y, z, u) for backward equations with jumps.

Evaluation is batch-first: y has shape (n, m), z has shape (n, m, d) and
u has shape (n, n_atoms, m), one row of u per atom of the jump intensity;
t is one time for every row or an (n,) array of per-row times.
Every driver declares a Lipschitz bound in the norm
|dy| + |dz|_F + (sum_j n_j |du_j|^2)^{1/2}, which ``verify_lipschitz``
stress-tests empirically and the implicit solver relies on.  The probes
``verify_lipschitz`` and ``dependency_probe`` evaluate a driver in
batched calls; ``evaluate`` is a one-point convenience for callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody, _rowdot
from .stochastic import FiniteMarkMeasure

__all__ = [
    "Generator",
    "ZeroGen",
    "ProjectionDriftGen",
    "ScaledJumpGen",
    "AffineGen",
    "evaluate",
    "LipschitzReport",
    "verify_lipschitz",
    "DependencyReport",
    "dependency_probe",
]


class Generator:
    """Base driver; subclasses implement ``_eval`` on validated batches.

    ``_eval`` receives t as a float or as an (n,) array of per-row times.
    ``reads_z`` and ``reads_u`` say whether the driver's value can depend
    on z and on u; the backward pass fits no integrand that no driver
    reads.  A driver that cannot tell keeps the default, True.
    """

    state_dim: int
    brownian_dim: int
    marks: FiniteMarkMeasure
    lipschitz: float
    reads_z = True
    reads_u = True

    def __call__(self, t, y: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        u = np.asarray(u, dtype=float)
        n = y.shape[0]
        m, d, j = self.state_dim, self.brownian_dim, self.marks.n_atoms
        if y.shape != (n, m):
            raise ValueError(f"driver input y must have shape (n, {m}), got {y.shape}")
        if z.shape != (n, m, d):
            raise ValueError(f"driver input z must have shape (n, {m}, {d}), got {z.shape}")
        if u.shape != (n, j, m):
            raise ValueError(f"driver input u must have shape (n, {j}, {m}), got {u.shape}")
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            t = float(t)
        elif t.shape != (n,):
            raise ValueError(f"driver time t must be a number or have shape ({n},), got {t.shape}")
        out = self._eval(t, y, z, u)
        if out.shape != (n, m):
            raise ValueError("driver returned wrong shape")
        return out

    def _eval(self, t, y, z, u):
        raise NotImplementedError


def evaluate(gen: Generator, t: float, y, z, u) -> np.ndarray:
    """Single-point convenience wrapper around the batched call."""
    y = np.asarray(y, dtype=float).reshape(1, gen.state_dim)
    z = np.asarray(z, dtype=float).reshape(1, gen.state_dim, gen.brownian_dim)
    u = np.asarray(u, dtype=float).reshape(1, gen.marks.n_atoms, gen.state_dim)
    return gen(t, y, z, u)[0]


class ProjectionDriftGen(Generator):
    """f(y) = y - project(y): pushes a point by its offset from the body.

    Vanishes on the body, so constrained terminal data keeps the
    zero-driver solution; 2-Lipschitz because projections are
    nonexpansive.  Reads neither z nor u.
    """

    reads_z = False
    reads_u = False

    def __init__(self, body: ConvexBody, brownian_dim: int, marks: FiniteMarkMeasure):
        if not isinstance(body, ConvexBody):
            raise ValueError(f"projection drift needs a convex body, got {type(body).__name__}")
        if brownian_dim < 1:
            raise ValueError(f"projection drift: brownian_dim must be at least 1, got {brownian_dim}")
        self.body = body
        self.state_dim = body.dim
        self.brownian_dim = brownian_dim
        self.marks = marks
        self.lipschitz = 2.0

    def _eval(self, t, y, z, u):
        return y - self.body.project_batch(y)


class AffineGen(Generator):
    """f(t, y, z, u) = A y + B : z + sum_j C_j u_j + drift(t).

    A is (m, m); B is (m, m, d) contracting the whole z matrix;
    C is (n_atoms, m, m) with one matrix per atom; drift is a constant
    vector or a callable of time returning an (m,) vector.  The declared
    Lipschitz bound comes from the spectral norms of the three linear maps.
    The driver reads z exactly when B has a nonzero entry, and u exactly
    when C has one.
    """

    def __init__(self, a, b, c, drift, brownian_dim: int, marks: FiniteMarkMeasure):
        self.marks = marks
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1] or self.a.shape[0] < 1:
            raise ValueError(f"state coefficient must be m x m with m >= 1, got shape {self.a.shape}")
        if brownian_dim < 1:
            raise ValueError(f"affine driver: brownian_dim must be at least 1, got {brownian_dim}")
        m = self.state_dim = self.a.shape[0]
        self.brownian_dim = brownian_dim
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (m, m, brownian_dim):
            raise ValueError(f"z coefficient must have shape ({m}, {m}, {brownian_dim})")
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (marks.n_atoms, m, m):
            raise ValueError(f"jump coefficient must have shape ({marks.n_atoms}, {m}, {m})")
        if callable(drift):
            self._drift, self._shift = drift, None
        else:
            self._drift, self._shift = None, np.asarray(drift, dtype=float).reshape(m)
        for name, coef in (("a", self.a), ("b", self.b), ("c", self.c), ("drift", self._shift)):
            if coef is not None and not np.isfinite(coef).all():
                raise ValueError(f"affine driver: coefficient {name} must be finite")
        # the blocks with a nonzero entry: their input's place in (y, z, u) and contraction
        blocks = (("kl,nl->nk", self.a), ("kij,nij->nk", self.b), ("jkl,njl->nk", self.c))
        self._live = [(k, spec, coef) for k, (spec, coef) in enumerate(blocks) if coef.any()]
        self._drift_live = self._drift is not None or self._shift.any()
        self.reads_z = bool(self.b.any())
        self.reads_u = bool(self.c.any())
        l_y = np.linalg.norm(self.a, 2)
        l_z = np.linalg.norm(self.b.reshape(m, m * brownian_dim), 2)
        scaled = np.concatenate(
            [self.c[j] / np.sqrt(marks.weights[j]) for j in range(marks.n_atoms)], axis=1
        )
        l_u = np.linalg.norm(scaled, 2)
        self.lipschitz = float(max(l_y, l_z, l_u))

    def _eval(self, t, y, z, u):
        # einsum, not y @ a.T: BLAS would take another kernel for one row
        # than for many, and a row's value would depend on its batch.
        # einsum sums from +0.0, so no output is -0.0, and the +0.0 that an
        # all-zero block adds would change no bit: such blocks are skipped.
        inputs = (y, z, u)
        terms = (np.einsum(spec, coef, inputs[k]) for k, spec, coef in self._live)
        out = next(terms, None)
        if out is None:
            out = np.zeros(y.shape)
        for term in terms:
            out += term
        if self._drift_live:
            out += self._drift_at(t)
        return out

    def _drift_at(self, t):
        if self._drift is None:
            return self._shift
        if np.ndim(t) == 0:
            return self._drift_value(t)
        # one call of the drift per distinct time
        times, inverse = np.unique(t, return_inverse=True)
        values = np.array([self._drift_value(float(s)) for s in times]).reshape(-1, self.state_dim)
        return values[inverse]

    def _drift_value(self, t: float) -> np.ndarray:
        value = np.asarray(self._drift(t), dtype=float)
        if value.shape != (self.state_dim,):
            raise ValueError(f"drift at t = {t} must have shape ({self.state_dim},), got {value.shape}")
        return value


class ZeroGen(AffineGen):
    """f = 0: the affine driver with every coefficient zero."""

    def __init__(self, state_dim: int, brownian_dim: int, marks: FiniteMarkMeasure):
        m, d, j = state_dim, brownian_dim, marks.n_atoms
        # named here: np.zeros refuses a negative dimension without naming it
        if m < 1 or d < 1:
            raise ValueError(f"zero driver: state_dim and brownian_dim must be at least 1, got {m} and {d}")
        super().__init__(np.zeros((m, m)), np.zeros((m, m, d)), np.zeros((j, m, m)), np.zeros(m), d, marks)


class ScaledJumpGen(AffineGen):
    """Scalar driver f = -scale * u(first atom), the linear jump example:
    C = -scale on the first atom, every other coefficient zero."""

    def __init__(self, scale: float, marks: FiniteMarkMeasure | None = None):
        marks = marks if marks is not None else FiniteMarkMeasure([[1.0]], [1.0])
        c = np.zeros((marks.n_atoms, 1, 1))
        c[0] = -scale
        super().__init__(np.zeros((1, 1)), np.zeros((1, 1, 1)), c, np.zeros(1), 1, marks)


@dataclass(frozen=True)
class LipschitzReport:
    estimate: float
    declared: float
    passed: bool
    n_pairs: int


def verify_lipschitz(gen: Generator, n_pairs: int = 2000, seed: int = 0) -> LipschitzReport:
    """Empirical Lipschitz ratio against the declared bound.

    Pairs include block-isolated perturbations (only y, only z, only u)
    so per-block constants are exercised, not just mixed directions.
    """
    rng = np.random.default_rng(seed)
    m, d, j = gen.state_dim, gen.brownian_dim, gen.marks.n_atoms
    t, y1, z1, u1, dy, dz, du = (np.empty((n_pairs, *shape)) for shape in ((),) + ((m,), (m, d), (j, m)) * 2)
    for k in range(n_pairs):
        t[k] = rng.uniform(0.0, 1.0)
        y1[k] = rng.uniform(-5.0, 5.0, size=m)
        z1[k] = rng.uniform(-3.0, 3.0, size=(m, d))
        u1[k] = rng.uniform(-3.0, 3.0, size=(j, m))
        dy[k] = rng.normal(size=m) * rng.uniform(0.01, 2.0)
        dz[k] = rng.normal(size=(m, d)) * rng.uniform(0.01, 2.0)
        du[k] = rng.normal(size=(j, m)) * rng.uniform(0.01, 2.0)
    # pair k moves only y, only z, only u, or all three, by k mod 4
    moves = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=bool)[np.arange(n_pairs) % 4]
    for delta, move in zip((dy, dz, du), moves.T):
        delta[~move] = 0.0
    y2, z2, u2 = y1 + dy, z1 + dz, u1 + du
    # the u gap is u2 - u1, not du, in the norm of ``jump_norm2``, row by row
    dz, gap = dz.reshape(n_pairs, m * d), u2 - u1
    denom = (
        np.sqrt(_rowdot(dy, dy))
        + np.sqrt(_rowdot(dz, dz))
        + np.sqrt(np.sum(gen.marks.weights * np.sum(gap * gap, axis=2), axis=1))
    )
    kept = denom >= 1e-12
    t = t[kept]
    diff = gen(t, y2[kept], z2[kept], u2[kept]) - gen(t, y1[kept], z1[kept], u1[kept])
    worst = np.fmax.reduce(np.sqrt(_rowdot(diff, diff)) / denom[kept], initial=0.0)
    passed = worst <= gen.lipschitz * (1.0 + 1e-9) + 1e-12
    return LipschitzReport(estimate=worst, declared=gen.lipschitz, passed=passed, n_pairs=n_pairs)


@dataclass(frozen=True)
class DependencyReport:
    """Which input slots each output component reacts to.

    ``y_slots[k]``: indices of y; ``z_slots[k]``: (row, col) pairs of z;
    ``u_slots[k]``: (atom, component) pairs of u; ``time`` flags any
    dependence on t.
    """

    y_slots: tuple[frozenset, ...]
    z_slots: tuple[frozenset, ...]
    u_slots: tuple[frozenset, ...]
    time: bool

    def z_rows(self, k: int) -> frozenset:
        return frozenset(row for row, _ in self.z_slots[k])

    def u_components(self, k: int) -> frozenset:
        return frozenset(comp for _, comp in self.u_slots[k])


# the probe's base points, and the change of an output that counts as a move
_PROBE_POINTS = 6
_PROBE_TOL = 1e-10


def dependency_probe(gen: Generator, seed: int = 0) -> DependencyReport:
    """Perturb one scalar slot at a time and record which outputs move.

    Each base point takes one row, then one row per slot of y, z and u
    with that slot bumped, then one row at a later time; every row of
    every point goes through the driver in one call."""
    rng = np.random.default_rng(seed)
    m, d, j = gen.state_dim, gen.brownian_dim, gen.marks.n_atoms
    size = m + m * d + j * m
    bumps = np.arange(size)
    t, x = np.empty((_PROBE_POINTS, size + 2)), np.empty((_PROBE_POINTS, size + 2, size))
    for p in range(_PROBE_POINTS):
        t[p] = rng.uniform(0.0, 1.0)
        x[p] = np.concatenate([
            rng.uniform(-5.0, 5.0, size=m),
            rng.uniform(-3.0, 3.0, size=(m, d)).ravel(),
            rng.uniform(-3.0, 3.0, size=(j, m)).ravel(),
        ])
        x[p, 1 + bumps, bumps] += rng.uniform(0.3, 1.1)
        t[p, -1] += 0.37
    x = x.reshape(-1, size)
    out = gen(t.ravel(), x[:, :m], x[:, m : m + m * d].reshape(-1, m, d), x[:, m + m * d :].reshape(-1, j, m))
    out = out.reshape(_PROBE_POINTS, size + 2, m)
    # moved[s, k]: output k moved under bump s (the last: the time) at some point
    moved = (np.abs(out[:, 1:] - out[:, :1]) > _PROBE_TOL).any(axis=0)

    def slots(labels, start):
        return tuple(
            frozenset(label for s, label in enumerate(labels, start) if moved[s, k]) for k in range(m)
        )

    return DependencyReport(
        y_slots=slots(range(m), 0),
        z_slots=slots([(r, c) for r in range(m) for c in range(d)], m),
        u_slots=slots([(a, comp) for a in range(j) for comp in range(m)], m + m * d),
        time=bool(moved[-1].any()),
    )
