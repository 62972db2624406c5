"""Drivers f(t, y, z, u) for backward equations with jumps.

Evaluation is batch-first: y has shape (n, m), z has shape (n, m, d) and
u has shape (n, n_atoms, m), one row of u per atom of the jump intensity;
t is one time for every row or an (n,) array of per-row times.
Every driver declares a Lipschitz bound in the norm
|dy| + |dz|_F + (sum_j n_j |du_j|^2)^{1/2}, which ``verify_lipschitz``
stress-tests empirically and the implicit solver relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody
from .stochastic import FiniteMarkMeasure, jump_norm2

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
    """

    state_dim: int
    brownian_dim: int
    marks: FiniteMarkMeasure
    lipschitz: float

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


@dataclass(frozen=True)
class ZeroGen(Generator):
    state_dim: int
    brownian_dim: int
    marks: FiniteMarkMeasure
    lipschitz: float = 0.0

    def _eval(self, t, y, z, u):
        return np.zeros_like(y)


class ProjectionDriftGen(Generator):
    """f(y) = y - project(y): pushes a point by its offset from the body.

    Vanishes on the body, so constrained terminal data keeps the
    zero-driver solution; 2-Lipschitz because projections are
    nonexpansive.
    """

    def __init__(self, body: ConvexBody, brownian_dim: int, marks: FiniteMarkMeasure):
        if not isinstance(body, ConvexBody):
            raise ValueError(f"projection drift needs a convex body, got {type(body).__name__}")
        self.body = body
        self.state_dim = body.dim
        self.brownian_dim = brownian_dim
        self.marks = marks
        self.lipschitz = 2.0

    def _eval(self, t, y, z, u):
        return y - self.body.project_batch(y)


class ScaledJumpGen(Generator):
    """Scalar driver f = -scale * u(first atom), the linear jump example."""

    def __init__(self, scale: float, marks: FiniteMarkMeasure | None = None):
        self.scale = float(scale)
        self.marks = marks if marks is not None else FiniteMarkMeasure([[1.0]], [1.0])
        self.state_dim = 1
        self.brownian_dim = 1
        # u enters through the intensity norm sqrt(n_1) |u_1|
        self.lipschitz = abs(self.scale) * max(1.0, 1.0 / np.sqrt(self.marks.weights[0]))

    def _eval(self, t, y, z, u):
        return -self.scale * u[:, 0, :]


class AffineGen(Generator):
    """f(t, y, z, u) = A y + B : z + sum_j C_j u_j + drift(t).

    A is (m, m); B is (m, m, d) contracting the whole z matrix;
    C is (n_atoms, m, m) with one matrix per atom; drift is a constant
    vector or a callable of time.  The declared Lipschitz bound comes
    from the spectral norms of the three linear maps.
    """

    def __init__(self, a, b, c, drift, brownian_dim: int, marks: FiniteMarkMeasure):
        self.marks = marks
        self.brownian_dim = brownian_dim
        self.a = np.asarray(a, dtype=float)
        m = self.a.shape[0]
        if self.a.shape != (m, m):
            raise ValueError("state coefficient must be square")
        self.state_dim = m
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
        l_y = np.linalg.norm(self.a, 2)
        l_z = np.linalg.norm(self.b.reshape(m, m * brownian_dim), 2)
        scaled = np.concatenate(
            [self.c[j] / np.sqrt(marks.weights[j]) for j in range(marks.n_atoms)], axis=1
        )
        l_u = np.linalg.norm(scaled, 2)
        self.lipschitz = float(max(l_y, l_z, l_u))

    def _eval(self, t, y, z, u):
        # einsum, not y @ a.T: BLAS would take another kernel for one row
        # than for many, and a row's value would depend on its batch
        out = np.einsum("kl,nl->nk", self.a, y)
        out += np.einsum("kij,nij->nk", self.b, z)
        out += np.einsum("jkl,njl->nk", self.c, u)
        return out + self._drift_at(t)

    def _drift_at(self, t):
        if self._drift is None:
            return self._shift
        if np.ndim(t) == 0:
            return self._drift(t)
        # one call of the drift per distinct time
        times, inverse = np.unique(t, return_inverse=True)
        values = np.stack([np.asarray(self._drift(float(s)), dtype=float) for s in times])
        return values[inverse]


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
    worst = 0.0
    for k in range(n_pairs):
        t = rng.uniform(0.0, 1.0)
        y1 = rng.uniform(-5.0, 5.0, size=m)
        z1 = rng.uniform(-3.0, 3.0, size=(m, d))
        u1 = rng.uniform(-3.0, 3.0, size=(j, m))
        dy = rng.normal(size=m) * rng.uniform(0.01, 2.0)
        dz = rng.normal(size=(m, d)) * rng.uniform(0.01, 2.0)
        du = rng.normal(size=(j, m)) * rng.uniform(0.01, 2.0)
        block = k % 4
        if block == 0:
            dz, du = 0.0 * dz, 0.0 * du
        elif block == 1:
            dy, du = 0.0 * dy, 0.0 * du
        elif block == 2:
            dy, dz = 0.0 * dy, 0.0 * dz
        y2, z2, u2 = y1 + dy, z1 + dz, u1 + du
        denom = (
            np.linalg.norm(dy)
            + np.linalg.norm(dz)
            + np.sqrt(jump_norm2(u2 - u1, gen.marks))
        )
        if denom < 1e-12:
            continue
        f1 = evaluate(gen, t, y1, z1, u1)
        f2 = evaluate(gen, t, y2, z2, u2)
        worst = max(worst, np.linalg.norm(f2 - f1) / denom)
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
    """Perturb one scalar slot at a time and record which outputs move."""
    rng = np.random.default_rng(seed)
    m, d, j = gen.state_dim, gen.brownian_dim, gen.marks.n_atoms
    y_slots = [set() for _ in range(m)]
    z_slots = [set() for _ in range(m)]
    u_slots = [set() for _ in range(m)]
    time_dep = False
    for _ in range(_PROBE_POINTS):
        t = rng.uniform(0.0, 1.0)
        y = rng.uniform(-5.0, 5.0, size=m)
        z = rng.uniform(-3.0, 3.0, size=(m, d))
        u = rng.uniform(-3.0, 3.0, size=(j, m))
        base = evaluate(gen, t, y, z, u)
        step = rng.uniform(0.3, 1.1)
        for i in range(m):
            bumped = y.copy()
            bumped[i] += step
            diff = np.abs(evaluate(gen, t, bumped, z, u) - base)
            for k in np.flatnonzero(diff > _PROBE_TOL):
                y_slots[k].add(i)
        for r in range(m):
            for c in range(d):
                bumped = z.copy()
                bumped[r, c] += step
                diff = np.abs(evaluate(gen, t, y, bumped, u) - base)
                for k in np.flatnonzero(diff > _PROBE_TOL):
                    z_slots[k].add((r, c))
        for atom in range(j):
            for comp in range(m):
                bumped = u.copy()
                bumped[atom, comp] += step
                diff = np.abs(evaluate(gen, t, y, z, bumped) - base)
                for k in np.flatnonzero(diff > _PROBE_TOL):
                    u_slots[k].add((atom, comp))
        if np.any(np.abs(evaluate(gen, t + 0.37, y, z, u) - base) > _PROBE_TOL):
            time_dep = True
    return DependencyReport(
        y_slots=tuple(frozenset(s) for s in y_slots),
        z_slots=tuple(frozenset(s) for s in z_slots),
        u_slots=tuple(frozenset(s) for s in u_slots),
        time=time_dep,
    )
