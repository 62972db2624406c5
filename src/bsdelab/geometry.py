"""Convex-set calculus for constrained backward equations.

Each body exposes, for a batch of rows x, the projection, the squared
distance d2(x) = |x - project(x)|^2 (whose gradient is 2(x - project(x)))
and, where it exists, the Hessian of d2.  A body takes rows only: one
point is the one-row batch ``x[None]``.  The Hessian of d2 is undefined on
a measure-zero locus (set boundary, facet coordinates, zero eigenvalues,
tight constraints with zero multipliers); those rows are reported in a
mask, with a zero matrix, instead of a silently wrong matrix.

Symmetric-matrix bodies act on flattened coordinates: a side x side
matrix is embedded as a vector of length side(side+1)/2 with sqrt(2)
scaling on off-diagonal entries, so Euclidean inner products of vectors
equal trace inner products of matrices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

__all__ = [
    "ConvexBody",
    "Ball",
    "Box",
    "OrthantProduct",
    "HalfspaceIntersection",
    "PsdCone",
    "FinitePointSet",
    "sym_to_vec",
    "vec_to_sym",
    "jump_defect",
    "jump_defect_batch",
    "QuadSpec",
    "MollifiedResult",
    "mollified_dist2",
]

_BOUNDARY_RTOL = 1e-9


def _rows(xs, dim: int) -> np.ndarray:
    """A C-ordered float copy-or-view of ``xs``, checked to be rows of length ``dim``.

    C order matters for bit-identity: BLAS dot products over strided rows
    accumulate in another order than over contiguous ones.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise ValueError(f"expected rows of shape (n, {dim}), got {xs.shape}")
    return xs


def _vector(v, name: str) -> np.ndarray:
    """``v`` as a float vector, refused unless it is one and nonempty."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty vector, got shape {v.shape}")
    return v


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (n, k) arrays.

    A stacked matmul on C-ordered rows reduces each row with the same BLAS
    dot product as ``a[i] @ b[i]``, so one row gives the same bits alone
    as in any batch; ``einsum`` and ``sum(a * b)`` round differently.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class ConvexBody:
    """Closed convex set with projection-based distance calculus.

    A body is its batch primitives on rows of shape (n, dim): it defines
    ``project_batch`` and ``hess_dist2_batch``, and ``dist2_batch`` where
    it has a closed form.
    """

    dim: int

    def project_batch(self, xs: np.ndarray) -> np.ndarray:
        """Projections of the rows of ``xs`` (shape (n, dim)), as a new array."""
        raise NotImplementedError

    def dist2_batch(self, xs: np.ndarray) -> np.ndarray:
        """Squared distances for rows of ``xs``."""
        xs = _rows(xs, self.dim)
        diff = xs - self.project_batch(xs)
        return np.sum(diff * diff, axis=-1)

    def dist_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.dist2_batch(xs), 0.0))

    def hess_dist2_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hessians of d2 at the rows of ``xs``: shape (n, dim, dim), and a
        (n,) mask of the rows where the Hessian is defined.

        Undefined rows carry a zero matrix.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _vector(self.center, "ball centre")
        if not (np.isfinite(center).all() and np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("ball centre and radius must be finite, and the radius positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project_batch(self, xs):
        xs = _rows(xs, self.dim)
        v = xs - self.center
        # the same bits as the scalar norm; norm(axis=-1) rounds differently
        norm = np.sqrt(_rowdot(v, v))
        # rows inside are returned as given; the max only keeps the unused
        # outside formula free of a division by zero at the centre
        scale = self.radius / np.maximum(norm, self.radius)
        return np.where((norm <= self.radius)[:, None], xs, self.center + v * scale[:, None])


    def hess_dist2_batch(self, xs):
        xs = _rows(xs, self.dim)
        v = xs - self.center
        rho = np.sqrt(_rowdot(v, v))
        tol = _BOUNDARY_RTOL * np.maximum(max(1.0, self.radius), rho)
        defined = np.abs(rho - self.radius) > tol
        # zero inside; outside, 2(1 - r/rho) I + 2 r/rho^3 v v^T
        mats = np.zeros((xs.shape[0], self.dim, self.dim))
        out = defined & (rho > self.radius)
        r, vo = rho[out][:, None, None], v[out]
        mats[out] = 2.0 * (1.0 - self.radius / r) * np.eye(self.dim)
        mats[out] += 2.0 * self.radius / r**3 * (vo[:, :, None] * vo[:, None, :])
        return mats, defined

    def dist2_batch(self, xs):
        norms = np.linalg.norm(_rows(xs, self.dim) - self.center, axis=-1)
        return np.maximum(norms - self.radius, 0.0) ** 2


@dataclass(frozen=True)
class Box(ConvexBody):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower, upper = _vector(self.lower, "box lower bound"), _vector(self.upper, "box upper bound")
        if lower.shape != upper.shape:
            raise ValueError("box bounds must have matching shapes")
        # false on a NaN bound; infinite bounds make a valid, unbounded box
        if not np.all(lower <= upper):
            raise ValueError("box bounds must not be NaN, and lower must not exceed upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project_batch(self, xs):
        return np.clip(_rows(xs, self.dim), self.lower, self.upper)


    def hess_dist2_batch(self, xs):
        xs = _rows(xs, self.dim)
        tol = _BOUNDARY_RTOL * np.maximum(1.0, np.abs(xs))
        # a pinned coordinate's d2 contribution is a smooth parabola
        pinned = self.lower == self.upper
        facet = ~pinned & (
            (np.abs(xs - self.lower) <= tol) | (np.abs(xs - self.upper) <= tol)
        )
        defined = ~facet.any(axis=1)
        diag = np.where(pinned | (xs < self.lower) | (xs > self.upper), 2.0, 0.0)
        diag[~defined] = 0.0
        return diag[:, :, None] * np.eye(self.dim), defined


@dataclass(frozen=True)
class OrthantProduct(ConvexBody):
    """R^{n_plus}_+ x R^{n_free}: first block sign-constrained, rest free."""

    n_plus: int
    n_free: int

    def __post_init__(self):
        # numpy integers pass; a float raises TypeError here, not at first use
        n_plus, n_free = operator.index(self.n_plus), operator.index(self.n_free)
        if n_plus < 0 or n_free < 0 or n_plus + n_free == 0:
            raise ValueError("orthant product needs a nonempty dimension split")
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "n_free", n_free)

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_free

    def project_batch(self, xs):
        out = _rows(xs, self.dim).copy()
        out[:, : self.n_plus] = np.maximum(out[:, : self.n_plus], 0.0)
        return out


    def hess_dist2_batch(self, xs):
        xs = _rows(xs, self.dim)
        head = xs[:, : self.n_plus]
        tol = _BOUNDARY_RTOL * np.maximum(1.0, np.abs(head))
        defined = ~np.any(np.abs(head) <= tol, axis=1)
        diag = np.zeros(xs.shape)
        diag[:, : self.n_plus] = np.where(head < 0.0, 2.0, 0.0)
        diag[~defined] = 0.0
        return diag[:, :, None] * np.eye(self.dim), defined

    def dist2_batch(self, xs):
        neg = np.minimum(_rows(xs, self.dim)[:, : self.n_plus], 0.0)
        return np.sum(neg * neg, axis=-1)


class HalfspaceIntersection(ConvexBody):
    """Intersection of halfspaces a_i . x <= b_i, projected exactly.

    Each row is projected by one nonnegative least-squares solve of the
    least-distance problem (Lawson and Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23), which also gives the multipliers lambda >= 0
    with x - p = A^T lambda.  The Hessian of d2 is 2 A_a^+ A_a over the
    normals with positive multipliers; it is undefined where a tight
    constraint has a zero multiplier.  Construction fails if the system
    is infeasible.
    """

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.asarray(offsets, dtype=float).ravel()
        if normals.ndim != 2 or not (np.isfinite(normals).all() and np.isfinite(offsets).all()):
            raise ValueError("halfspaces: normals must be a finite (k, dim) array and offsets finite numbers")
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("halfspaces: normals and offsets must match")
        if normals.shape[0] == 0:
            raise ValueError("halfspaces: at least one constraint required")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("halfspaces: zero normal vector")
        self.normals = normals
        self.offsets = offsets
        self._norms = norms
        self._require_interior_point()

    def _require_interior_point(self):
        """Refuse an empty intersection: the Chebyshev-centre LP must be feasible."""
        # scipy.optimize loads here and in _solve, not with the package
        from scipy.optimize import linprog

        # caps keep the LP bounded when the intersection is unbounded
        m = self.dim
        res = linprog(
            c=np.r_[np.zeros(m), -1.0],
            A_ub=np.c_[self.normals, self._norms],
            b_ub=self.offsets,
            bounds=[(-1e6, 1e6)] * m + [(0.0, 1e3)],
            method="highs",
        )
        if not res.success:
            raise ValueError("halfspaces: empty intersection")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def _solve(self, xs):
        """Projections of the rows of ``xs`` and their multipliers, one per halfspace.

        The step z = p - x solves min |z| s.t. -A z >= A x - b.  With
        E = [-A^T; (A x - b)^T] and f the last unit vector, u = nnls(E, f)
        leaves the residual r = E u - f, and z = -r[:dim] / r[dim].  An
        interior row gives u = 0, hence p = x exactly.  Since
        r[dim] = -1 / (1 + |z|^2) comes out of cancellation, far rows would
        lose digits; so the solve runs on (A x - b) / s, with s the largest
        distance from x to a violated halfspace (at least 1), and z and
        lambda are scaled back.
        """
        from scipy.optimize import nnls

        n = self.dim
        e = np.empty((n + 1, self.normals.shape[0]))
        e[:n] = -self.normals.T
        f = np.zeros(n + 1)
        f[n] = 1.0
        proj = np.empty_like(xs)
        lam = np.empty((xs.shape[0], self.normals.shape[0]))
        for i, x in enumerate(xs):
            excess = self.normals @ x - self.offsets
            scale = max(1.0, float(np.max(excess / self._norms)))
            e[n] = excess / scale
            u, _ = nnls(e, f)
            r = e @ u - f
            proj[i] = x - scale * (r[:n] / r[n])
            lam[i] = scale * u / -r[n]
        return proj, lam

    def project_batch(self, xs):
        return self._solve(_rows(xs, self.dim))[0]


    def hess_dist2_batch(self, xs):
        xs = _rows(xs, self.dim)
        proj, lam = self._solve(xs)
        tol = _BOUNDARY_RTOL * np.maximum(1.0, np.abs(xs).max(axis=1))[:, None]
        # stacked products give each row the same bits alone as in a batch
        slack = (self.offsets - (proj[:, None, :] @ self.normals.T)[:, 0]) / self._norms
        tight = slack <= tol
        # lambda_i |a_i| is the length of the step along normal i
        active = lam * self._norms > tol
        defined = ~np.any(tight & ~active, axis=1)
        mats = np.zeros((xs.shape[0], self.dim, self.dim))
        for i in np.flatnonzero(defined & active.any(axis=1)):
            a = self.normals[active[i]]
            mats[i] = 2.0 * np.linalg.pinv(a) @ a
        return mats, defined


@lru_cache(maxsize=None)
def _sym_map(side: int):
    """Index maps between a side x side matrix and its flattened vector.

    Returns the upper-triangle (row, col) of each vector entry with its
    sqrt(2) scaling, and for each matrix cell the vector entry it reads with
    the inverse scaling.  The vector order is row-major over the upper
    triangle.
    """
    rows, cols = np.triu_indices(side)
    off = rows != cols
    scale = np.where(off, math.sqrt(2.0), 1.0)
    cell = np.empty((side, side), dtype=np.intp)
    cell[rows, cols] = cell[cols, rows] = np.arange(rows.size)
    inv = np.where(np.eye(side, dtype=bool), 1.0, 1.0 / math.sqrt(2.0))
    maps = (rows, cols, scale, cell, inv)
    for arr in maps:
        arr.setflags(write=False)
    return maps


def sym_to_vec(mat: np.ndarray) -> np.ndarray:
    """Flatten symmetric matrices isometrically (off-diagonals scaled by sqrt 2).

    Accepts one matrix or a stack of shape (..., side, side).  The result is
    C-ordered, so a driver evaluates each of its rows alike in any batch.
    """
    mat = np.asarray(mat, dtype=float)
    rows, cols, scale, _, _ = _sym_map(mat.shape[-1])
    return np.ascontiguousarray(mat[..., rows, cols] * scale)


def vec_to_sym(vec: np.ndarray, side: int) -> np.ndarray:
    """Inverse of ``sym_to_vec``; accepts one vector or a stack (..., dim)."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != side * (side + 1) // 2:
        raise ValueError("flattened length does not match matrix side")
    _, _, _, cell, inv = _sym_map(side)
    return vec[..., cell] * inv


def _finite_matrix(mat: np.ndarray) -> np.ndarray:
    if not np.isfinite(mat).all():
        raise ValueError("matrix with non-finite (NaN or inf) entries")
    return mat


@dataclass(frozen=True)
class PsdCone(ConvexBody):
    """Positive semidefinite cone on flattened symmetric matrices."""

    side: int

    def __post_init__(self):
        # numpy integers pass; a float raises TypeError here, not at first use
        side = operator.index(self.side)
        if side < 1:
            raise ValueError("matrix side must be at least 1")
        object.__setattr__(self, "side", side)

    @property
    def dim(self) -> int:
        return self.side * (self.side + 1) // 2

    def _matrix(self, x):
        return _finite_matrix(vec_to_sym(x, self.side))

    def project_batch(self, xs):
        # keep the positive part of each spectrum, Q max(w, 0) Q^T
        w, q = np.linalg.eigh(self._matrix(_rows(xs, self.dim)))
        pos = (q * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(q, -1, -2)
        return sym_to_vec(pos)


    def hess_dist2_batch(self, xs):
        w, q = np.linalg.eigh(self._matrix(_rows(xs, self.dim)))
        abs_w = np.abs(w)
        scale = np.maximum(1.0, abs_w.max(axis=-1))[:, None, None]
        defined = abs_w.min(axis=-1) > _BOUNDARY_RTOL * scale[:, 0, 0]
        # derivative of the cone projection in each eigenbasis
        lam_pos = np.maximum(w, 0.0)
        denom = w[:, :, None] - w[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            omega = (lam_pos[:, :, None] - lam_pos[:, None, :]) / denom
        same = np.abs(denom) <= 1e-12 * scale
        pos = np.broadcast_to(w[:, :, None] > 0.0, omega.shape)
        omega = np.where(same, pos.astype(float), omega)
        qt = np.swapaxes(q, -1, -2)
        n = self.dim
        hess = np.empty((w.shape[0], n, n))
        for col, basis in enumerate(np.eye(n)):
            e_mat = vec_to_sym(basis, self.side)
            inner = qt @ e_mat @ q
            dproj = q @ (omega * inner) @ qt
            hess[:, :, col] = sym_to_vec(2.0 * (e_mat - dproj))
        hess = (hess + np.swapaxes(hess, -1, -2)) / 2.0
        hess[~defined] = 0.0
        return hess, defined

    def dist2_batch(self, xs):
        w = np.linalg.eigvalsh(self._matrix(_rows(xs, self.dim)))
        neg = np.minimum(w, 0.0)
        return np.sum(neg * neg, axis=-1)


@dataclass(frozen=True)
class FinitePointSet:
    """Finite target set for the nonconvex demonstration; distance only."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("point set must be nonempty")
        if not np.isfinite(pts).all():
            raise ValueError("point set: points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def dist2_batch(self, xs):
        xs = _rows(xs, self.dim)
        return np.sum((xs[:, None, :] - self.points[None, :, :]) ** 2, axis=2).min(axis=1)

    def dist_batch(self, xs):
        return np.sqrt(self.dist2_batch(xs))


def jump_defect_batch(body: ConvexBody, ys: np.ndarray, us: np.ndarray, marks) -> np.ndarray:
    """Intensity-weighted convexity defects of d2 along the jumps, per row.

    Row i of ``ys`` (n, dim) with jumps ``us[i]`` (n_atoms, dim) gets
    sum_j n_j [ d2(y + u_j) - d2(y) - <grad d2(y), u_j> ], nonnegative for
    convex bodies since d2 is convex.
    """
    ys = _rows(ys, body.dim)
    us = np.asarray(us, dtype=float)
    if us.shape != (ys.shape[0], marks.n_atoms, body.dim):
        raise ValueError("jump integrand must supply one row per atom")
    return _jump_defect(body, ys, body.project_batch(ys), body.dist2_batch(ys), us, marks)


def _jump_defect(body, ys, proj, base, us, marks) -> np.ndarray:
    """``jump_defect_batch`` given the projections and d2 of the rows."""
    grad = 2.0 * (ys - proj)
    total = np.zeros(ys.shape[0])
    for j in range(marks.n_atoms):
        total += marks.weights[j] * (
            body.dist2_batch(ys + us[:, j]) - base - _rowdot(grad, us[:, j])
        )
    return total


def jump_defect(body: ConvexBody, y: np.ndarray, u: np.ndarray, marks) -> float:
    """The jump defect at one point: the one-row case of ``jump_defect_batch``."""
    y = np.asarray(y, dtype=float)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != marks.n_atoms:
        raise ValueError("jump integrand must supply one row per atom")
    return float(jump_defect_batch(body, y[None], u[None], marks)[0])


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature budget for the mollified distance.

    Tensorized Gauss-Legendre up to dimension 3, Monte Carlo above.
    """

    nodes_per_axis: int = 7
    mc_samples: int = 4096
    seed: int = 0

    def __post_init__(self):
        # numpy integers pass; a float raises TypeError here, not at first use
        for name in ("nodes_per_axis", "mc_samples", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.nodes_per_axis < 2:
            raise ValueError("need at least two nodes per axis")
        if self.mc_samples < 1:
            raise ValueError("need at least one Monte Carlo sample")
        # the Monte Carlo nodes key on an unsigned 64-bit seed
        if not 0 <= self.seed < 2**64:
            raise ValueError("quadrature seed must be nonnegative and below 2**64")


@dataclass(frozen=True)
class MollifiedResult:
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    low_confidence: bool
    nodes_used: int


def _bump(v2: np.ndarray) -> np.ndarray:
    """Radial bump exp(-1/(1-|v|^2)) on the open unit ball, zero outside."""
    out = np.zeros_like(v2)
    inside = v2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - v2[inside]))
    return out


def _quad_nodes(dim: int, quad: QuadSpec):
    """Nodes in the unit ball and associated quadrature weights."""
    if dim <= 3:
        x, w = roots_legendre(quad.nodes_per_axis)
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        weights = np.ones(nodes.shape[0])
        for g in np.meshgrid(*([w] * dim), indexing="ij"):
            weights = weights * g.ravel()
        return nodes, weights
    rng = np.random.Generator(np.random.Philox(key=np.uint64(quad.seed)))
    nodes = np.empty((quad.mc_samples, dim))
    filled = 0
    while filled < quad.mc_samples:
        cand = rng.uniform(-1.0, 1.0, size=(quad.mc_samples, dim))
        keep = cand[np.sum(cand * cand, axis=1) < 1.0]
        take = min(keep.shape[0], quad.mc_samples - filled)
        nodes[filled : filled + take] = keep[:take]
        filled += take
    return nodes, np.ones(quad.mc_samples)


def mollified_dist2(
    body: ConvexBody, x: np.ndarray, delta: float, quad: QuadSpec | None = None
) -> MollifiedResult:
    """Convolve d2 with the rescaled bump kernel of width ``delta``.

    The quadrature is self-normalizing: every output is a convex
    combination of exact pointwise evaluations, so the classical
    mollifier bounds hold up to rounding, not up to quadrature error.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"mollification width must be finite and positive, got {delta}")
    x = np.asarray(x, dtype=float)
    if x.shape != (body.dim,) or not np.isfinite(x).all():
        raise ValueError(f"mollified distance: the point must be a finite vector of length {body.dim}")
    quad = quad or QuadSpec()
    dim = x.shape[0]
    nodes, base_w = _quad_nodes(dim, quad)
    kernel = _bump(np.sum(nodes * nodes, axis=1)) * base_w
    live = kernel > 0.0
    nodes_used = int(live.sum())
    mass = kernel[live].sum()
    low_confidence = nodes_used < 8 or mass <= 0.0
    if mass <= 0.0:
        zeros = np.zeros((dim, dim))
        return MollifiedResult(0.0, np.zeros(dim), zeros, True, nodes_used)
    pts = x - delta * nodes[live]
    kv = kernel[live]

    value = float(kv @ body.dist2_batch(pts) / mass)
    gradient = kv @ (2.0 * (pts - body.project_batch(pts))) / mass
    mats, defined = body.hess_dist2_batch(pts)
    hess_mass = kv[defined].sum()
    if hess_mass > 0.0:
        # undefined rows carry zero matrices, so only their weight is left out
        hessian = np.tensordot(kv, mats, axes=1) / hess_mass
    else:
        hessian = np.zeros((dim, dim))
        low_confidence = True
    if nodes_used - defined.sum() > 0.1 * nodes_used:
        low_confidence = True
    return MollifiedResult(value, gradient, hessian, low_confidence, nodes_used)
