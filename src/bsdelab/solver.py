"""Backward induction for jump equations via regression Monte Carlo.

The scheme walks a simulated path bundle backwards: conditional
expectations against the Markov state (W, N) are least-squares fits on a
polynomial basis, the martingale integrands follow from increment
covariances, and the drift is folded in either explicitly or through a
fixed point.  On drivers whose true integrands lie in the basis span the
scheme is exact up to Monte Carlo noise in the fitted coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .generators import Generator, ZeroGen
from .stochastic import DrivingPaths, FiniteMarkMeasure, compensated_increment

__all__ = [
    "TerminalCondition",
    "RegressionBasis",
    "RegressionDiagnostics",
    "BsdeSolution",
    "SolverError",
    "solve_backward",
    "closed_form_linear",
    "DeviationCurves",
    "apriori_diagnostics",
]

# structural degeneracy (exact collinearity of the discrete state support)
# is dropped silently; anything between the two thresholds is an error
_COLLINEAR_RTOL = 1e-14
_MAX_CONDITION = 1e12


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal payoff xi = fn(W_T, jump counts at T) -> (n_paths, m)."""

    fn: callable
    state_dim: int
    description: str = ""

    def __call__(self, brownian_T: np.ndarray, counts_T: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(brownian_T, counts_T), dtype=float)
        n = brownian_T.shape[0]
        if out.shape == (n,) and self.state_dim == 1:
            out = out[:, None]
        if out.shape != (n, self.state_dim):
            raise ValueError(
                f"terminal condition returned shape {out.shape}, expected ({n}, {self.state_dim})"
            )
        bad = int(np.count_nonzero(~np.isfinite(out).all(axis=1)))
        if bad:
            raise ValueError(f"terminal condition returned non-finite values on {bad} of {n} paths")
        return out


def _monomial_powers(n_features: int, degree: int):
    powers = [np.zeros(n_features, dtype=int)]
    frontier = [np.zeros(n_features, dtype=int)]
    for _ in range(degree):
        nxt = []
        for p in frontier:
            start = np.max(np.nonzero(p)[0]) if p.any() else 0
            for i in range(start, n_features):
                q = p.copy()
                q[i] += 1
                nxt.append(q)
        powers.extend(nxt)
        frontier = nxt
    return np.array(powers)


@dataclass(frozen=True)
class RegressionBasis:
    """Total-degree polynomial basis over the live state features.

    Features with zero sample variance (the deterministic time-zero
    state, atoms that have not fired yet) carry no information and are
    dropped before monomial expansion; the remaining features are
    standardized, which spans the same polynomial space but keeps the
    design well conditioned.
    """

    degree: int = 2

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("basis degree must be nonnegative")

    def design_matrix(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        std = features.std(axis=0)
        live = std > 0.0
        n = features.shape[0]
        if not live.any():
            return np.ones((n, 1))
        centered = (features[:, live] - features[:, live].mean(axis=0)) / std[live]
        powers = _monomial_powers(int(live.sum()), self.degree)
        design = np.ones((n, powers.shape[0]))
        for col, p in enumerate(powers):
            for feat_idx in np.nonzero(p)[0]:
                design[:, col] *= centered[:, feat_idx] ** p[feat_idx]
        return design


@dataclass(frozen=True)
class RegressionDiagnostics:
    step: int
    n_columns: int
    rank: int
    condition: float


class _StepRegression:
    """Economy SVD of one step's design, reused across all targets."""

    def __init__(self, design: np.ndarray, step: int):
        u, s, _ = np.linalg.svd(design, full_matrices=False)
        keep = s > s[0] * _COLLINEAR_RTOL
        # u[:, keep] is a Fortran-ordered copy even when every column is kept;
        # fitting on the C-ordered u would save that copy, but BLAS then takes
        # another kernel, whose last bits differ on some designs (20000 x 6)
        self.basis = u[:, keep]
        condition = float(s[0] / s[keep][-1])
        if condition > _MAX_CONDITION:
            raise SolverError(
                f"regression design at step {step} is ill conditioned "
                f"(condition number {condition:.3e} > {_MAX_CONDITION:.0e}); "
                "reduce the basis degree or add paths"
            )
        self.diagnostics = RegressionDiagnostics(
            step=step, n_columns=design.shape[1], rank=int(keep.sum()), condition=condition
        )

    def fit(self, targets: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ targets)


@dataclass
class BsdeSolution:
    """Backward pass output on the simulation grid.

    y has shape (n_paths, N + 1, m); z has shape (n_paths, N, m, d);
    u has shape (n_paths, N, n_atoms, m).  ``y0`` averages the time-zero
    values, with a first-order Monte Carlo standard error.
    """

    times: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    y0: np.ndarray
    y0_se: np.ndarray
    mode: str
    regression: list = field(repr=False, default_factory=list)
    paths: DrivingPaths = field(repr=False, default=None)
    basis: RegressionBasis = field(repr=False, default=None)

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    @property
    def state_dim(self) -> int:
        return self.y.shape[2]


def _check_jump_power(paths: DrivingPaths):
    h_min = paths.grid.steps.min()
    weakest = h_min * paths.marks.weights.min() * paths.n_paths
    if weakest < 100.0:
        warnings.warn(
            "jump integrand regressions are underpowered: the least active atom "
            f"expects about {weakest:.1f} firings per step; increase paths or coarsen the grid",
            stacklevel=3,
        )


def _finite_driver(gen: Generator, t: float, y, z, u, step: int) -> np.ndarray:
    out = gen(t, y, z, u)
    if not np.isfinite(out).all():
        bad = int(np.count_nonzero(~np.isfinite(out).all(axis=1)))
        raise SolverError(f"driver returned non-finite values at step {step} on {bad} paths")
    return out


def solve_backward(
    gen: Generator,
    terminal: TerminalCondition,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
    mode: str = "explicit",
    fixed_point_tol: float = 1e-12,
    fixed_point_max_iter: int = 100,
) -> BsdeSolution:
    """Run the backward induction over a simulated bundle.

    ``mode`` selects how the drift enters each step: "explicit" plugs the
    regressed conditional mean into the driver, "implicit" solves the
    one-step fixed point (requires h * Lipschitz < 1).
    """
    if basis is None:
        basis = RegressionBasis()
    if mode not in ("explicit", "implicit"):
        raise ValueError("mode must be 'explicit' or 'implicit'")
    grid, marks = paths.grid, paths.marks
    n, m = paths.n_paths, gen.state_dim
    d, J = gen.brownian_dim, marks.n_atoms
    if paths.brownian_dim != d:
        raise ValueError("path bundle and driver disagree on the Brownian dimension")
    if mode == "implicit":
        contraction = grid.steps.max() * gen.lipschitz
        if contraction >= 1.0:
            raise SolverError(
                f"implicit step is not a contraction: h * L = {contraction:.3f} >= 1"
            )
    _check_jump_power(paths)

    steps = grid.steps
    N = grid.n_steps
    y = np.empty((n, N + 1, m))
    z = np.empty((n, N, m, d))
    u = np.empty((n, N, J, m))
    y[:, N, :] = terminal(paths.brownian[:, N, :], paths.count_nodes[:, N, :])
    regression = []

    for i in range(N - 1, -1, -1):
        h = steps[i]
        reg = _StepRegression(basis.design_matrix(paths.state(i)), step=i)
        regression.append(reg.diagnostics)
        y_next = y[:, i + 1, :]
        dw = paths.brownian_increments(i)
        comp = compensated_increment(paths.jump_counts[:, i, :], h, marks)

        z_target = (y_next[:, :, None] * dw[:, None, :]).reshape(n, m * d) / h
        u_target = (y_next[:, None, :] * comp[:, :, None]).reshape(n, J * m)
        u_target /= h * np.repeat(marks.weights, m)
        stacked = np.concatenate([y_next, z_target, u_target], axis=1)
        fitted = reg.fit(stacked)
        cond_mean = fitted[:, :m]
        z[:, i, :, :] = fitted[:, m : m + m * d].reshape(n, m, d)
        u[:, i, :, :] = fitted[:, m + m * d :].reshape(n, J, m)

        t_i = grid.nodes[i]
        if mode == "explicit":
            y[:, i, :] = cond_mean + h * _finite_driver(gen, t_i, cond_mean, z[:, i], u[:, i], i)
        else:
            current = cond_mean.copy()
            converged = False
            for _ in range(fixed_point_max_iter):
                nxt = cond_mean + h * _finite_driver(gen, t_i, current, z[:, i], u[:, i], i)
                delta = np.max(np.abs(nxt - current))
                current = nxt
                if delta <= fixed_point_tol:
                    converged = True
                    break
            if not converged:
                raise SolverError(f"implicit fixed point stalled at step {i}")
            y[:, i, :] = current

    y0 = y[:, 0, :].mean(axis=0)
    y0_se = y[:, 1, :].std(axis=0) / np.sqrt(n)
    return BsdeSolution(
        times=grid.nodes.copy(),
        y=y,
        z=z,
        u=u,
        y0=y0,
        y0_se=y0_se,
        mode=mode,
        regression=list(reversed(regression)),
        paths=paths,
        basis=basis,
    )


def closed_form_linear(
    a_matrix: np.ndarray,
    terminal: TerminalCondition,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
) -> BsdeSolution:
    """Solution for the linear driver f(y) = A y.

    Runs a zero-driver pass and rescales it by the matrix exponential
    exp(A (T - t)); the martingale integrands scale the same way.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    m = a_matrix.shape[0]
    if a_matrix.shape != (m, m):
        raise ValueError("linear coefficient must be square")
    zero = ZeroGen(state_dim=m, brownian_dim=paths.brownian_dim, marks=paths.marks)
    sol = solve_backward(zero, terminal, paths, basis=basis)
    horizon = sol.times[-1]
    for i, t in enumerate(sol.times):
        scale = expm(a_matrix * (horizon - t))
        sol.y[:, i, :] = sol.y[:, i, :] @ scale.T
        if i < sol.times.shape[0] - 1:
            sol.z[:, i] = np.einsum("kl,nld->nkd", scale, sol.z[:, i])
            sol.u[:, i] = np.einsum("kl,njl->njk", scale, sol.u[:, i])
    sol.y0 = sol.y[:, 0, :].mean(axis=0)
    sol.y0_se = sol.y[:, 1, :].std(axis=0) / np.sqrt(sol.n_paths)
    return sol


@dataclass(frozen=True)
class DeviationCurves:
    """Distance of a solution from its zero-driver counterpart over time.

    ``total`` aggregates the squared value gap at t with the remaining
    integrated gaps of both martingale integrands; ``linear_bound``
    is the smallest M with total(t) <= M (T - t) on the open interval.
    """

    times: np.ndarray
    value_gap: np.ndarray
    z_tail: np.ndarray
    u_tail: np.ndarray
    z_raw_tail: np.ndarray
    u_raw_tail: np.ndarray
    total: np.ndarray
    linear_bound: float


def apriori_diagnostics(
    sol: BsdeSolution, terminal: TerminalCondition, marks: FiniteMarkMeasure | None = None
) -> DeviationCurves:
    """Compare a solution against the plain conditional expectation of xi."""
    if sol.paths is None:
        raise ValueError("solution does not carry its path bundle")
    marks = marks if marks is not None else sol.paths.marks
    zero = ZeroGen(
        state_dim=sol.state_dim, brownian_dim=sol.paths.brownian_dim, marks=marks
    )
    base = solve_backward(zero, terminal, sol.paths, basis=sol.basis)

    h = sol.paths.grid.steps
    value_gap = np.mean(np.sum((sol.y - base.y) ** 2, axis=2), axis=0)

    z_step = np.mean(np.sum((sol.z - base.z) ** 2, axis=(2, 3)), axis=0) * h
    z_raw = np.mean(np.sum(sol.z**2, axis=(2, 3)), axis=0) * h
    w = marks.weights[None, None, :, None]
    u_step = np.mean(np.sum(w * (sol.u - base.u) ** 2, axis=(2, 3)), axis=0) * h
    u_raw = np.mean(np.sum(w * sol.u**2, axis=(2, 3)), axis=0) * h

    def tail(per_step):
        out = np.zeros(h.shape[0] + 1)
        out[:-1] = np.cumsum(per_step[::-1])[::-1]
        return out

    z_tail, u_tail = tail(z_step), tail(u_step)
    total = value_gap + z_tail + u_tail
    remaining = sol.times[-1] - sol.times[:-1]
    linear_bound = float(np.max(total[:-1] / remaining)) if remaining.size else 0.0
    return DeviationCurves(
        times=sol.times.copy(),
        value_gap=value_gap,
        z_tail=z_tail,
        u_tail=u_tail,
        z_raw_tail=tail(z_raw),
        u_raw_tail=tail(u_raw),
        total=total,
        linear_bound=linear_bound,
    )
