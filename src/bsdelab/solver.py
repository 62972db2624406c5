"""Backward induction for jump equations via regression Monte Carlo.

The scheme walks a simulated path bundle backwards: conditional
expectations against the Markov state (W, N) are least-squares fits on a
polynomial basis, the martingale integrands follow from increment
covariances, and the drift is folded in either explicitly or through a
fixed point.  On drivers whose true integrands lie in the basis span the
scheme is exact up to Monte Carlo noise in the fitted coefficients.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import operator
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .generators import Generator
from .stochastic import DrivingPaths, _noise_mismatch, compensated_increment

__all__ = [
    "TerminalCondition",
    "RegressionBasis",
    "RegressionDiagnostics",
    "BsdeSolution",
    "SolverError",
    "solve_backward",
    "solve_backward_many",
    "DeviationCurves",
]

# structural degeneracy (exact collinearity of the discrete state support)
# is dropped silently; anything between the two thresholds is an error
_COLLINEAR_RTOL = 1e-14
_MAX_CONDITION = 1e12
# the regression step's fixed row chunks: R factors over _QR_CHUNK rows,
# the fit's reductions over _FIT_CHUNK rows
_QR_CHUNK = 4096
_FIT_CHUNK = 8192
# below this condition number the basis is orthonormal to about 1e-12
# (condition * eps), the fit's own rounding level; above it, it is
# re-orthogonalized once
_REORTHOGONALIZE_CONDITION = 1e4
# the implicit step's fixed point: done when an iterate moves by at most
# the tolerance, stalled after the iteration cap
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 100


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


def _monomial_powers(n_features: int, degree: int) -> np.ndarray:
    """Exponent rows of the monomials of total degree <= ``degree``, by degree."""
    return np.array([
        np.bincount(np.array(c, dtype=int), minlength=n_features)
        for k in range(degree + 1)
        for c in itertools.combinations_with_replacement(range(n_features), k)
    ])


@functools.lru_cache(maxsize=None)
def _monomial_plan(n_features: int, degree: int) -> tuple[tuple[int, int], ...]:
    """Per column after the constant one, in the order of ``_monomial_powers``:
    the column of the monomial with its last factor removed, and that factor.
    The columns come by degree, so that earlier column comes first."""
    powers = _monomial_powers(n_features, degree)
    column = {tuple(p): col for col, p in enumerate(powers)}
    plan = []
    for p in powers[1:]:
        last = int(np.flatnonzero(p)[-1])
        lower = p.copy()
        lower[last] -= 1
        plan.append((column[tuple(lower)], last))
    return tuple(plan)


@dataclass(frozen=True)
class RegressionBasis:
    """Total-degree polynomial basis over the live state features.

    Features with zero sample variance (the deterministic time-zero
    state, atoms that have not fired yet) carry no information and are
    dropped before monomial expansion; the remaining features are
    standardized, which spans the same polynomial space but keeps the
    design well conditioned.  A feature whose mean or standard deviation
    is not finite is refused with ``ValueError``.
    """

    degree: int = 2

    def __post_init__(self):
        degree = operator.index(self.degree)
        if degree < 0:
            raise ValueError("basis degree must be nonnegative")
        object.__setattr__(self, "degree", degree)

    def design_matrix(self, *blocks) -> np.ndarray:
        """The (n, p) design over the features of ``blocks``, each (n, f_b)
        and of any real dtype, side by side: the state (W, N) of one node
        is ``design_matrix(brownian_i, counts_i)``."""
        blocks = [np.asarray(b) for b in blocks]
        # feature-major, so that each feature's mean and std are pairwise sums
        # over one contiguous row (a strided axis-0 sum adds row after row)
        rows = np.empty((sum(b.shape[1] for b in blocks), blocks[0].shape[0]))
        start = 0
        for b in blocks:
            rows[start : start + b.shape[1]] = b.T
            start += b.shape[1]
        # the mean and std of np.mean and np.std, with the deviation from the
        # mean made once; a NaN or inf anywhere in a feature makes its std non
        # finite, which would otherwise read as a dead feature below
        mean = rows.mean(axis=1)
        with np.errstate(invalid="ignore"):
            centered = np.subtract(rows, mean[:, None], out=rows)
            std = np.sqrt((centered * centered).sum(axis=1) / centered.shape[1])
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if bad.size:
            raise ValueError(f"state feature {bad[0]} is not finite")
        live = std > 0.0
        if not live.all():
            centered = centered[live]
        centered /= std[live, None]
        plan = _monomial_plan(centered.shape[0], self.degree)
        # built column-major, one product per column: a monomial's column is
        # the column of the monomial with its last factor removed, times that
        # factor, so a column multiplies its factors in ascending feature order
        design = np.empty((len(plan) + 1, rows.shape[1]))
        design[0] = 1.0
        for col, (lower, last) in enumerate(plan, start=1):
            np.multiply(design[lower], centered[last], out=design[col])
        return design.T


@dataclass(frozen=True)
class RegressionDiagnostics:
    step: int
    n_columns: int
    rank: int
    condition: float


def _row_chunks(a: np.ndarray, size: int):
    """``a``'s whole chunks of ``size`` rows, stacked as one view, and its
    remaining rows."""
    whole = a.shape[0] // size * size
    return a[:whole].reshape(-1, size, a.shape[1]), a[whole:]


def _chunked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b, summed over fixed ``_FIT_CHUNK``-row chunks in row order, so
    that no BLAS thread count moves its bits."""
    chunks_a, rest_a = _row_chunks(a, _FIT_CHUNK)
    chunks_b, rest_b = _row_chunks(b, _FIT_CHUNK)
    return (chunks_a.transpose(0, 2, 1) @ chunks_b).sum(axis=0) + rest_a.T @ rest_b


class _StepRegression:
    """One step's design, reduced once and reused across all targets.

    A fixed-chunk tall-skinny QR (Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 34, 2012): the R factor of each ``_QR_CHUNK``-row
    chunk of the design, then the R of the stacked factors.  The SVD of
    that p x p R gives the design's singular values, and so the rank cut
    and the condition number, and its right singular vectors give the
    basis B = D V[:, keep] / s[keep] of the kept column space.  Every sum
    over the rows runs over fixed chunks in a fixed order, so the fit's
    bits do not depend on the BLAS thread count.
    """

    def __init__(self, design: np.ndarray, step: int):
        p = design.shape[1]
        chunks, rest = _row_chunks(design, _QR_CHUNK)
        factors = np.concatenate([
            np.linalg.qr(chunks, mode="r").reshape(-1, p), np.linalg.qr(rest, mode="r")
        ])
        _, s, vt = np.linalg.svd(np.linalg.qr(factors, mode="r"))
        keep = s > s[0] * _COLLINEAR_RTOL
        condition = float(s[0] / s[keep][-1])
        if condition > _MAX_CONDITION:
            raise SolverError(
                f"regression design at step {step} is ill conditioned "
                f"(condition number {condition:.3e} > {_MAX_CONDITION:.0e}); "
                "reduce the basis degree or add paths"
            )
        basis = design @ (vt[keep].T / s[keep])
        if condition > _REORTHOGONALIZE_CONDITION:
            # B is orthonormal only to about condition * eps; one Cholesky
            # pass over its Gram matrix, as in CholeskyQR2, restores it
            basis = basis @ np.linalg.inv(np.linalg.cholesky(_chunked_product(basis, basis))).T
        self.basis = basis
        self.diagnostics = RegressionDiagnostics(
            step=step, n_columns=p, rank=int(keep.sum()), condition=condition
        )

    def fit(self, targets: np.ndarray) -> np.ndarray:
        return self.basis @ _chunked_product(self.basis, targets)


@dataclass
class BsdeSolution:
    """Backward pass output on the simulation grid.

    The pass keeps no values: a caller reads them node by node through
    its ``on_node`` callback (see :func:`solve_backward_many`).  ``y0``
    averages the time-zero values, with a first-order Monte Carlo standard
    error; the pass reduces both from its nodes 0 and 1.  ``seconds``
    is where the pass's time went: the worker's seconds in the design
    build (``design``) and in the step regressions (``regression``), the
    calling thread's seconds waiting for them (``wait``), in the fits
    (``fit``) and in the drivers (``driver``), and the seconds in the node
    callback (``nodes``) and in rebuilding the bundle's nodes between its
    stored ones (``redraw``), on whichever thread ran them.
    """

    times: np.ndarray
    y0: np.ndarray
    y0_se: np.ndarray
    mode: str
    regression: list = field(repr=False)
    paths: DrivingPaths = field(repr=False)
    seconds: dict = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.paths.n_paths

    @property
    def state_dim(self) -> int:
        return self.y0.shape[0]


def _check_jump_power(paths: DrivingPaths):
    h_min = paths.grid.steps.min()
    weakest = h_min * paths.marks.weights.min() * paths.n_paths
    if weakest < 100.0:
        # attribute the warning to the first caller outside this module
        frame, stacklevel = sys._getframe(1), 2
        while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            "jump integrand regressions are underpowered: the least active atom "
            f"expects about {weakest:.1f} firings per step; increase paths or coarsen the grid",
            stacklevel=stacklevel,
        )


def _finite_driver(gen: Generator, t: float, y, z, u, step: int, where: str, seconds: dict) -> np.ndarray:
    started = time.perf_counter()
    out = gen(t, y, z, u)
    seconds["driver"] += time.perf_counter() - started
    if not np.isfinite(out).all():
        bad = int(np.count_nonzero(~np.isfinite(out).all(axis=1)))
        raise SolverError(f"driver{where} returned non-finite values at step {step} on {bad} paths")
    return out


def _problem_step(gen, y_next, y_i, z, u, i, h, t_i, reg, dw, comp, marks, where, mode, seconds, integrands):
    """One problem's share of step i: its targets, its fit and its driver.

    Step i reads node i + 1, ``y_next`` (n, m), and writes node i into
    ``y_i``; ``z`` (n, m, d) and ``u`` (n, J, m) are the step's integrand
    slots, contiguous, which it overwrites with their fits when
    ``integrands`` is true and leaves as they are otherwise.  A function,
    so that one problem's step temporaries are freed before the next
    problem makes its own.
    """
    n, m = y_next.shape
    d, J = dw.shape[1], comp.shape[1]
    if integrands:
        # y, then the z and u targets, written in place into their columns
        targets = np.empty((n, m * (1 + d + J)))
        targets[:, :m] = y_next
        z_target = targets[:, m : m + m * d].reshape(n, m, d)
        np.multiply(y_next[:, :, None], dw[:, None, :], out=z_target)
        z_target /= h
        u_target = targets[:, m + m * d :].reshape(n, J, m)
        np.multiply(y_next[:, None, :], comp[:, :, None], out=u_target)
        u_target /= h * marks.weights[:, None]
    else:
        targets = y_next
    started = time.perf_counter()
    fitted = reg.fit(targets)
    seconds["fit"] += time.perf_counter() - started
    cond_mean = fitted[:, :m]
    if integrands:
        z[...] = fitted[:, m : m + m * d].reshape(n, m, d)
        u[...] = fitted[:, m + m * d :].reshape(n, J, m)

    if mode == "explicit":
        y_i[...] = cond_mean + h * _finite_driver(gen, t_i, cond_mean, z, u, i, where, seconds)
        return
    current = cond_mean.copy()
    for _ in range(_FIXED_POINT_MAX_ITER):
        nxt = cond_mean + h * _finite_driver(gen, t_i, current, z, u, i, where, seconds)
        delta = np.max(np.abs(nxt - current))
        current = nxt
        if delta <= _FIXED_POINT_TOL:
            y_i[...] = current
            return
    raise SolverError(f"implicit fixed point{where} stalled at step {i}")


def solve_backward(
    gen: Generator,
    terminal: TerminalCondition,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
    mode: str = "explicit",
    on_node=None,
) -> BsdeSolution:
    """Run the backward induction over a simulated bundle.

    ``mode`` selects how the drift enters each step: "explicit" plugs the
    regressed conditional mean into the driver, "implicit" solves the
    one-step fixed point (requires h * Lipschitz < 1).  This is the
    one-problem case of :func:`solve_backward_many`, which also says how
    ``on_node`` is called.
    """
    (sol,) = solve_backward_many([(gen, terminal)], paths, basis=basis, mode=mode, on_node=on_node)
    return sol


def solve_backward_many(
    problems,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
    mode: str = "explicit",
    on_node=None,
) -> list[BsdeSolution]:
    """Solve several equations on one bundle in a single backward pass.

    ``problems`` is a sequence of ``(generator, terminal)`` pairs.  The
    step-i regression depends only on the state (W, N) at t_i, not on the
    equation, so each step builds one design and one regression basis and
    fits every problem's targets on it.  Each solution equals a solve of
    its problem alone, bit for bit, at any BLAS thread count; ``mode`` is
    as in :func:`solve_backward`.  The next step's design and basis are
    built on a worker thread, which ends with the call; its numpy calls
    release the GIL, so they run beside this thread's fits and drivers.
    The pass rebuilds the bundle's nodes between its stored ones (see
    :class:`~bsdelab.stochastic.DrivingPaths`) one at a time, ahead of
    the design that reads them, on this thread or on the worker, whichever
    is free, as the node callbacks are; it holds at most k of them.

    The pass keeps no store: ``on_node(i, ys, zs, us)``, if given, is
    called for i = N, N - 1, ..., 0 as the pass writes node i, with ``ys``
    one read-only (n_paths, m) array per problem, in problem order, and
    ``zs`` and ``us`` each problem's read-only step-i integrands,
    (n_paths, m, d) and (n_paths, n_atoms, m).  They are None at node N,
    and None for a problem whose integrands the pass did not fit: it fits
    them when the problem's driver reads them (``reads_z`` or ``reads_u``)
    or when ``on_node`` has a true ``reads_integrands`` attribute, and
    otherwise fits y alone and hands its driver z and u as zeros.  The
    calls run one at a time, in that order, on this thread or on the worker,
    whichever is free, beside the next step; an array is valid only
    during its call, so a caller that needs it later copies it, and an
    error in a call ends the pass.  Node N, the terminal data, is handed
    on this thread before any step, so a callback that refuses it ends
    the pass before its second step regression.
    """
    if basis is None:
        basis = RegressionBasis()
    if mode not in ("explicit", "implicit"):
        raise ValueError("mode must be 'explicit' or 'implicit'")
    problems = list(problems)
    if not problems:
        raise ValueError("no problems to solve")
    grid, marks = paths.grid, paths.marks
    steps = grid.steps
    n, N = paths.n_paths, grid.n_steps
    d, J = paths.brownian_dim, marks.n_atoms
    # error messages name the problem only when there is more than one
    wheres = [f" of problem {k}" if len(problems) > 1 else "" for k in range(len(problems))]
    for (gen, terminal), where in zip(problems, wheres):
        clash = _noise_mismatch(paths, gen)
        if clash:
            raise ValueError(f"path bundle and driver{where} disagree on {clash}")
        if terminal.state_dim != gen.state_dim:
            raise ValueError(f"terminal and driver{where} disagree on the state dimension")
        if mode == "implicit":
            contraction = steps.max() * gen.lipschitz
            if contraction >= 1.0:
                raise SolverError(
                    f"implicit step{where} is not a contraction: h * L = {contraction:.3f} >= 1"
                )
    _check_jump_power(paths)

    # each problem's y, z and u are rings two deep: node i, and step i's
    # integrands, are block i % 2, one contiguous block.  Step i reads node
    # i + 1 and writes node i, and a callback reading node i and step i may
    # still run on the worker while step i - 1 writes the other block
    reads_integrands = getattr(on_node, "reads_integrands", False)
    ys, zs, us, integrands = [], [], [], []
    for gen, terminal in problems:
        m = gen.state_dim
        y = np.empty((2, n, m))
        y[N % 2] = terminal(paths.brownian[-1], paths.count_nodes[-1])
        ys.append(y)
        zs.append(np.zeros((2, n, m, d)))
        us.append(np.zeros((2, n, J, m)))
        integrands.append(reads_integrands or gen.reads_z or gen.reads_u)
    regression = []

    seconds = dict.fromkeys(("design", "regression", "wait", "fit", "driver", "nodes"), 0.0)

    def reduce(i, nodes, z_steps, u_steps):
        started = time.perf_counter()
        on_node(i, nodes, z_steps, u_steps)
        seconds["nodes"] += time.perf_counter() - started

    # node i < N goes to whichever thread is free: the worker if it has built
    # the next step, else this thread, which would wait for it; node N stays
    # on this thread, so its refusal comes before step N - 1.  Each call
    # first waits for the node the worker last took, so the calls run in
    # order, one at a time, and an error in one surfaces at the next node.
    # The call for node i is done before step i - 2 overwrites its blocks.
    handed = None

    def hand_on(i):
        nonlocal handed
        if on_node is None:
            return
        nodes = tuple(y[i % 2] for y in ys)
        z_steps = u_steps = None
        if i < N:
            z_steps = tuple(z[i % 2] if fit else None for z, fit in zip(zs, integrands))
            u_steps = tuple(u[i % 2] if fit else None for u, fit in zip(us, integrands))
        for block in (*nodes, *(z_steps or ()), *(u_steps or ())):
            if block is not None:
                block.flags.writeable = False
        if handed is not None:
            handed.result()
            handed = None
        if i < N and ahead.done():
            handed = worker.submit(reduce, i, nodes, z_steps, u_steps)
        else:
            reduce(i, nodes, z_steps, u_steps)

    # step i reads nodes i and i + 1 of segment i // k, and the design of
    # step i - 1 node i - 1.  The rebuilt nodes are written into a pool of
    # k node stores: after step i, node i + 1 is read no more and hands its
    # store back, and one node of the segment that the designs read next is
    # rebuilt into a free store.  That segment has k - 1 nodes to rebuild
    # before its first design, and the k - 1 steps before that design free
    # a store each: one node of the segment after, and k - 2 of the one
    # being read, whose k - 1 nodes and this one fill the pool.  A node is
    # rebuilt on whichever thread is free, as the node callbacks are; each
    # waits for the node the worker last took, so they run in order, and an
    # error in one surfaces at the next.
    k = paths.stride
    pool = [
        (np.empty((n, d)), np.empty((n, J), dtype=paths.count_nodes.dtype)) for _ in range(k if k > 1 else 0)
    ]

    def stores():
        while True:
            yield pool.pop()

    segments = {}
    redraw = 0.0
    rebuilding = None

    def rebuild_next(segment):
        nonlocal rebuilding
        if rebuilding is not None:
            rebuilding.result()
            rebuilding = None
        if segment.complete or not pool:
            return
        if ahead.done():
            rebuilding = worker.submit(segment.extend)
        else:
            segment.extend()

    def step_regression(i):
        segment = segments[i // k]
        started = time.perf_counter()
        try:
            design = basis.design_matrix(*segment.node(i))
        except ValueError as err:
            raise ValueError(f"state at step {i}: {err}") from err
        built = time.perf_counter()
        reg = _StepRegression(design, step=i)
        return reg, built - started, time.perf_counter() - built

    # the step-i regression reads only the state at t_i, so a worker thread
    # builds step i - 1's design and basis while this thread fits, drives and
    # hands on step i; one step at most is in flight, and its error surfaces
    # when the loop reaches that step
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
        # the worker rebuilds the last segment for its first design, and this
        # thread then starts on the one before
        last = paths.n_segments - 1
        segments[last] = paths.segment(last, out=stores())
        first = worker.submit(segments[last].node, N - 1)
        ahead = worker.submit(step_regression, N - 1)
        hand_on(N)
        first.result()
        if last > 0:
            segments[last - 1] = paths.segment(last - 1, out=stores())
            while pool and not segments[last - 1].complete:
                segments[last - 1].extend()
        for i in range(N - 1, -1, -1):
            started = time.perf_counter()
            reg, design_s, regression_s = ahead.result()
            seconds["wait"] += time.perf_counter() - started
            seconds["design"] += design_s
            seconds["regression"] += regression_s
            if i > 0:
                ahead = worker.submit(step_regression, i - 1)
            regression.append(reg.diagnostics)
            h = steps[i]
            segment = segments[i // k]
            dw = segment.brownian_increments(i)
            comp = compensated_increment(segment.jump_increments(i), h, marks)
            for (gen, _), y, z, u, fit_zu, where in zip(problems, ys, zs, us, integrands, wheres):
                _problem_step(
                    gen, y[(i + 1) % 2], y[i % 2], z[i % 2], u[i % 2],
                    i, h, grid.nodes[i], reg, dw, comp, marks, where, mode, seconds, fit_zu,
                )
            hand_on(i)
            if i == 0:
                break
            if (i + 1) % k and i + 1 < N:
                pool.append(segment.release(i + 1))
            following = (i - 1) // k - 1
            if i % k == 0:
                redraw += segments.pop(i // k).seconds
                if following >= 0:
                    segments[following] = paths.segment(following, out=stores())
            if following >= 0:
                rebuild_next(segments[following])
    if handed is not None:
        handed.result()
    if rebuilding is not None:
        rebuilding.result()
    seconds["redraw"] = redraw + sum(segment.seconds for segment in segments.values())

    regression.reverse()
    return [
        BsdeSolution(
            times=grid.nodes.copy(),
            y0=y[0].mean(axis=0),
            y0_se=y[1].std(axis=0) / np.sqrt(n),
            mode=mode,
            regression=list(regression),
            paths=paths,
            seconds=dict(seconds),
        )
        for y in ys
    ]


class DeviationCurves:
    """Distance of a solution from its zero-driver counterpart over time.

    A node reducer over one backward pass: ``curves(i, ys, zs, us)`` for
    i = N, ..., 0 reads the solution and then its zero-driver base, the
    same terminal data solved with the zero driver, first in ``ys``,
    ``zs`` and ``us``, and keeps one scalar per node and per step.  It
    reads integrands (``reads_integrands``), so the pass fits them for
    every problem.  A base of another state dimension or other terminal
    data is refused at node N, and a step without both problems'
    integrands at that step.

    ``value_gap`` is the mean squared value gap at each node of ``times``;
    ``z_tail`` and ``u_tail`` integrate the mean squared gaps of the
    martingale integrands from t to T.  ``total`` adds the three, and
    ``linear_bound`` is the smallest M with total(t) <= M (T - t) on the
    open interval.
    """

    reads_integrands = True

    def __init__(self, grid, marks):
        self.times = grid.nodes.copy()
        self._steps = grid.steps
        self._weights = marks.weights[:, None]
        self.value_gap = np.empty(self.times.shape[0])
        self._z_step = np.empty(self._steps.shape[0])
        self._u_step = np.empty(self._steps.shape[0])

    def __call__(self, i: int, ys, zs, us) -> None:
        y, base = ys[:2]
        if i == self._steps.shape[0]:
            if y.shape != base.shape:
                raise ValueError("solutions must share the state dimension")
            if not np.array_equal(y, base):
                raise ValueError("solutions must share the terminal data")
        else:
            if zs[0] is None or zs[1] is None:
                raise ValueError(
                    "the curves read both problems' integrands: pass an on_node whose reads_integrands is true"
                )
            h = self._steps[i]
            self._z_step[i] = np.mean(np.sum((zs[0] - zs[1]) ** 2, axis=(1, 2))) * h
            self._u_step[i] = np.mean(np.sum(self._weights * (us[0] - us[1]) ** 2, axis=(1, 2))) * h
        self.value_gap[i] = np.mean(np.sum((y - base) ** 2, axis=1))

    @staticmethod
    def _tail(per_step):
        out = np.zeros(per_step.shape[0] + 1)
        out[:-1] = np.cumsum(per_step[::-1])[::-1]
        return out

    @property
    def z_tail(self) -> np.ndarray:
        return self._tail(self._z_step)

    @property
    def u_tail(self) -> np.ndarray:
        return self._tail(self._u_step)

    @property
    def total(self) -> np.ndarray:
        return self.value_gap + self.z_tail + self.u_tail

    @property
    def linear_bound(self) -> float:
        remaining = self.times[-1] - self.times[:-1]
        return float(np.max(self.total[:-1] / remaining)) if remaining.size else 0.0
