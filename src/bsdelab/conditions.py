"""Samplers and checkers for viability and comparison inequalities.

Each checker evaluates a pointwise inequality of the form

    lhs(sample) <= rhs0(sample) + C * weight(sample)

over randomized samples concentrated near the relevant boundary, then
returns a three-valued verdict.  "certified" reports the largest
constant the samples require; "falsified" carries a replayable witness
whose violation excess out-scales any constant as the weight shrinks
(excess stays above cutoff * weight with weight -> 0), which separates
genuine failures from a merely undersized search cap; anything else is
"inconclusive" with statistics.

Samples move through the engine as a :class:`SampleBatch`, one row per
point: the initial sweep is one evaluation of the whole batch, and every
climb round one evaluation of that round's trials.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .generators import Generator, dependency_probe
from .geometry import (
    ConvexBody,
    OrthantProduct,
    PsdCone,
    _rowdot,
    jump_defect_batch,
    sym_to_vec,
    vec_to_sym,
)
from .solver import BsdeSolution, RegressionBasis, TerminalCondition, solve_backward
from .stochastic import DrivingPaths, FiniteMarkMeasure

__all__ = [
    "PointSample",
    "SampleBatch",
    "ConditionVerdict",
    "SampleRanges",
    "ConditionSampler",
    "viability_lhs_rhs",
    "check_viability_condition",
    "ViabilityPathReport",
    "viability_path_report",
    "check_viability_empirical",
    "check_comparison_m1",
    "check_comparison_multidim",
    "StructuralReport",
    "check_structural",
    "check_comparison_matrix",
    "StackedGenerator",
    "stacked_reduction",
    "ComparisonPathReport",
    "comparison_path_report",
    "empirical_comparison",
]

_TOL = 1e-9
_WEIGHT_FLOOR = 1e-8
_BLOWUP_CUTOFF = 1e8
_SLOTS = ("y", "z", "u", "y_prime", "z_prime", "u_prime")


@dataclass(frozen=True)
class PointSample:
    """One evaluation point for a pointwise inequality.

    Comparison checks read the primed slots as the second solution's
    arguments; viability checks ignore them.
    """

    t: float
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    y_prime: np.ndarray | None = None
    z_prime: np.ndarray | None = None
    u_prime: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {"t": self.t}
        for name in _SLOTS:
            val = getattr(self, name)
            out[name] = None if val is None else np.asarray(val).tolist()
        return out


@dataclass(frozen=True)
class SampleBatch:
    """Evaluation points as a struct of arrays, one row per point.

    ``t`` has shape (n,), ``y`` (n, m), ``z`` (n, m, d) and ``u``
    (n, n_atoms, m); the primed slots have the shapes of their unprimed
    ones, or are None for viability checks.
    """

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    y_prime: np.ndarray | None = None
    z_prime: np.ndarray | None = None
    u_prime: np.ndarray | None = None

    def __len__(self) -> int:
        return self.t.shape[0]

    @classmethod
    def of(cls, points: PointSample | list[PointSample]) -> SampleBatch:
        """Stack one point or a list of points into a batch."""
        if isinstance(points, PointSample):
            points = [points]

        def stack(name):
            vals = [getattr(p, name) for p in points]
            return None if vals[0] is None else np.stack([np.asarray(v, dtype=float) for v in vals])

        return cls(np.array([float(p.t) for p in points]), *(stack(name) for name in _SLOTS))

    def take(self, rows) -> SampleBatch:
        """A new batch of the given rows, copied, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        slots = (getattr(self, name) for name in _SLOTS)
        return SampleBatch(self.t[rows], *(None if a is None else a[rows] for a in slots))

    def point(self, i: int) -> PointSample:
        slots = (getattr(self, name) for name in _SLOTS)
        return PointSample(float(self.t[i]), *(None if a is None else a[i].copy() for a in slots))


@dataclass
class ConditionVerdict:
    outcome: str  # "certified" | "falsified" | "inconclusive"
    constant: float | None = None
    witness: PointSample | None = None
    witness_lhs: float | None = None
    witness_rhs: float | None = None
    margin: float | None = None
    samples: int = 0
    boundary_samples: int = 0
    skipped: int = 0
    detail: str = ""
    _replay: callable = field(default=None, repr=False, compare=False)

    @property
    def certified(self) -> bool:
        return self.outcome == "certified"

    @property
    def falsified(self) -> bool:
        return self.outcome == "falsified"

    def replay(self) -> dict:
        """Re-evaluate the stored witness; violations must reproduce."""
        if self.witness is None or self._replay is None:
            raise ValueError("verdict has no witness to replay")
        lhs, rhs = self._replay(self.witness)
        return {"lhs": lhs, "rhs": rhs, "violated": lhs > rhs + _TOL}

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "constant": self.constant,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "witness_lhs": self.witness_lhs,
            "witness_rhs": self.witness_rhs,
            "margin": self.margin,
            "samples": self.samples,
            "boundary_samples": self.boundary_samples,
            "skipped": self.skipped,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SampleRanges:
    """Draw boxes and boundary-concentration policy for the samplers."""

    y_box: float = 5.0
    z_box: float = 3.0
    u_box: float = 3.0
    boundary_fraction: float = 0.3
    boundary_width: float = 0.1
    zero_block_fraction: float = 0.25


class ConditionSampler:
    """Seeded sample generator with boundary concentration.

    A ``boundary_fraction`` share of draws lands within
    ``boundary_width`` of the relevant boundary (the body's surface for
    viability, small negative parts for orthant-type comparisons, small
    negative eigenvalues for the matrix cone), keeping a 1e-5 offset so
    Hessian evaluations stay off the nonsmooth locus.  Points are drawn
    one after another, so each seed fixes the whole stream.
    """

    def __init__(self, m: int, d: int, n_atoms: int, seed: int = 0, ranges: SampleRanges | None = None):
        self.m, self.d, self.n_atoms = m, d, n_atoms
        self.ranges = ranges or SampleRanges()
        self.rng = np.random.default_rng(seed)

    def _blocks(self):
        r = self.ranges
        z = self.rng.uniform(-r.z_box, r.z_box, size=(self.m, self.d))
        u = self.rng.uniform(-r.u_box, r.u_box, size=(self.n_atoms, self.m))
        if self.rng.uniform() < r.zero_block_fraction:
            z = np.zeros_like(z)
        if self.rng.uniform() < r.zero_block_fraction:
            u = np.zeros_like(u)
        return z, u

    def _empty(self, n: int, primed: bool) -> SampleBatch:
        m, d, j = self.m, self.d, self.n_atoms
        shapes = [(n, m), (n, m, d), (n, j, m)] * (2 if primed else 1)
        return SampleBatch(np.empty(n), *(np.empty(shape) for shape in shapes))

    def _near_boundary_y(self, body: ConvexBody) -> np.ndarray:
        r = self.ranges
        x = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
        p = body.project(x)
        offset = x - p
        norm = np.linalg.norm(offset)
        if norm < 1e-9:
            direction = self.rng.normal(size=self.m)
            direction /= np.linalg.norm(direction)
        else:
            direction = offset / norm
        side = 1.0 if self.rng.uniform() < 0.5 else -1.0
        eps = self.rng.uniform(1e-5, r.boundary_width)
        return p + side * eps * direction

    def viability(self, body: ConvexBody, n: int) -> SampleBatch:
        r = self.ranges
        out = self._empty(n, primed=False)
        for i in range(n):
            if self.rng.uniform() < r.boundary_fraction:
                out.y[i] = self._near_boundary_y(body)
            else:
                out.y[i] = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
            out.z[i], out.u[i] = self._blocks()
            out.t[i] = self.rng.uniform(0.0, 1.0)
        return out

    def _difference_y(self) -> np.ndarray:
        r = self.ranges
        y = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
        if self.rng.uniform() < r.boundary_fraction:
            neg = y < 0.0
            y[neg] = -self.rng.uniform(1e-5, r.boundary_width, size=int(neg.sum()))
        return y

    def pair(self, n: int, ordered_jumps: bool = False, reversed_jumps: bool = False) -> SampleBatch:
        """Samples for comparison checks; ``ordered_jumps`` forces u >= u'."""
        r = self.ranges
        out = self._empty(n, primed=True)
        for i in range(n):
            out.y[i] = self._difference_y()
            out.y_prime[i] = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
            z, u = self._blocks()
            z_prime, u_prime = self._blocks()
            if ordered_jumps or reversed_jumps:
                du = self.rng.uniform(0.0, r.u_box, size=(self.n_atoms, self.m))
                zero = self.rng.uniform(size=du.shape) < 0.3
                du[zero] = 0.0
                u = u_prime + du if ordered_jumps else u_prime - du
            elif self.rng.uniform() < r.zero_block_fraction:
                # matched primed blocks isolate the state-difference terms
                z_prime, u_prime = z, u
            out.z[i], out.u[i], out.z_prime[i], out.u_prime[i] = z, u, z_prime, u_prime
            out.t[i] = self.rng.uniform(0.0, 1.0)
        return out

    def matrix(self, side: int, n: int) -> SampleBatch:
        """Symmetric-matrix samples in flattened coordinates."""
        r = self.ranges
        out = self._empty(n, primed=True)
        for i in range(n):
            lam = self.rng.uniform(-r.y_box, r.y_box, size=side)
            lam[np.abs(lam) < 1e-3] = 1e-3
            if self.rng.uniform() < r.boundary_fraction:
                k = self.rng.integers(1, side + 1)
                lam[:k] = -self.rng.uniform(1e-5, r.boundary_width, size=k)
            q, _ = np.linalg.qr(self.rng.normal(size=(side, side)))
            out.y[i] = sym_to_vec((q * lam) @ q.T)
            out.y_prime[i] = sym_to_vec(_random_sym(self.rng, side, r.y_box))
            out.z[i] = sym_to_vec(_random_sym(self.rng, side, r.z_box))[:, None]
            out.z_prime[i] = sym_to_vec(_random_sym(self.rng, side, r.z_box))[:, None]
            for slot in (out.u, out.u_prime):
                for j in range(self.n_atoms):
                    slot[i, j] = sym_to_vec(_random_sym(self.rng, side, r.u_box))
            if self.rng.uniform() < r.zero_block_fraction:
                # matched primed blocks isolate the state-difference terms
                out.z_prime[i], out.u_prime[i] = out.z[i], out.u[i]
            out.t[i] = self.rng.uniform(0.0, 1.0)
        return out


def _random_sym(rng, side, scale):
    g = rng.normal(size=(side, side)) * scale / 2.0
    return g + g.T


# ---------------------------------------------------------------------------
# generic certification engine


def _rowsum(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but the first."""
    return np.ascontiguousarray(x).reshape(x.shape[0], -1).sum(axis=1)


def _quadratic_form(hess: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_d <H z_d, z_d> per row, for H (n, m, m) and z (n, m, d)."""
    return _rowsum(z * (hess @ z))


def _nudged(array: np.ndarray, step: float) -> np.ndarray:
    """All single-coordinate perturbations of an array, both signs, stacked."""
    flat = array.ravel()
    rows = np.arange(2 * flat.size)
    out = np.repeat(flat[None], rows.size, axis=0)
    out[rows, rows // 2] += np.tile([step, -step], flat.size)
    return out.reshape(-1, *array.shape)


def _slot_zeroed(array: np.ndarray) -> np.ndarray:
    """Copies of the array with one nonzero coordinate cleared, stacked."""
    flat = array.ravel()
    slots = np.flatnonzero(flat != 0.0)
    out = np.repeat(flat[None], slots.size, axis=0)
    out[np.arange(slots.size), slots] = 0.0
    return out.reshape(-1, *array.shape)


def _variants(s: SampleBatch, blocks) -> SampleBatch:
    """Trials that copy the one-row batch ``s`` and replace one slot each.

    ``blocks`` is a list of (slot name, stacked values); the trials come
    block after block, one row per value, in the order given.
    """
    blocks = [(name, np.asarray(values, dtype=float)) for name, values in blocks]
    trials = s.take(np.zeros(sum(len(values) for _, values in blocks), dtype=np.intp))
    start = 0
    for name, values in blocks:
        getattr(trials, name)[start : start + len(values)] = values
        start += len(values)
    return trials


def _neg_scaled(y: np.ndarray, alpha) -> np.ndarray:
    """Rows of y with their negative entries scaled by ``alpha`` (a number or one per row)."""
    return np.where(y < 0.0, np.reshape(alpha, (-1, 1)) * y, y)


# multipliers the climbs try on a slot, or on its gap to the primed slot
_SCALES = np.array([0.0, 0.5, 2.0])
_SCALES_FLIP = np.array([0.0, 0.5, 2.0, -1.0])


class _Inequality:
    """Pointwise inequality lhs <= rhs0 + C * weight over batches of points."""

    def evaluate(self, b: SampleBatch, constant: float):
        """(lhs, rhs, weight, defined), one entry per row of ``b``.

        ``defined`` is False where an ingredient (a Hessian) is undefined;
        such rows carry finite placeholder values.
        """
        raise NotImplementedError

    def excess_weight(self, b: SampleBatch):
        """(lhs - rhs0, weight, defined), one entry per row of ``b``."""
        lhs, rhs0, weight, defined = self.evaluate(b, 0.0)
        return lhs - rhs0, weight, defined

    def lhs_rhs(self, b: SampleBatch, constant: float):
        """(lhs, rhs) per row; raises when an ingredient is undefined."""
        lhs, rhs, _, defined = self.evaluate(b, constant)
        if not defined.all():
            raise ValueError(f"Hessian undefined at {int((~defined).sum())} of {len(b)} points")
        return lhs, rhs

    def shrink(self, b: SampleBatch, alpha) -> SampleBatch:
        """Pull each row toward the boundary (weight -> 0) by ``alpha``,
        a number or one per row."""
        raise NotImplementedError

    def mutate(self, s: SampleBatch, rng) -> SampleBatch:
        """One climb round's trials around the one-row batch ``s``."""
        raise NotImplementedError


def _point_lhs_rhs(ineq: _Inequality, constant: float):
    """(lhs, rhs) of one point, as floats: the one-row case of ``lhs_rhs``."""

    def lhs_rhs(s: PointSample) -> tuple[float, float]:
        lhs, rhs = ineq.lhs_rhs(SampleBatch.of(s), constant)
        return float(lhs[0]), float(rhs[0])

    return lhs_rhs


_DESCENT_ALPHAS = np.array([0.5, 0.45, 0.55])


def _run_certification(
    ineq: _Inequality,
    samples: SampleBatch,
    c_max: float,
    rng,
    refine_rounds: int = 8,
) -> ConditionVerdict:
    def evaluate(batch, phase):
        excess, weight, defined = ineq.excess_weight(batch)
        bad = defined & ~(np.isfinite(excess) & np.isfinite(weight))
        if bad.any():
            raise ValueError(
                f"certification {phase}: {int(bad.sum())} of {len(batch)} defined "
                "evaluations gave a non-finite excess or weight"
            )
        return excess, weight, defined

    def margin(e, w):
        return e - c_max * w

    def ratio(e, w):
        return e / np.maximum(w, 1e-300)

    def climb(cand, rounds, phase, by_ratio=False):
        # a round's trials are fixed when it starts; the scan then takes each
        # trial that beats the best so far, so the last such trial wins
        score = ratio if by_ratio else margin
        s, e, w = cand
        best = score(e, w)
        for _ in range(rounds):
            trials = ineq.mutate(s, rng)
            te, tw, td = evaluate(trials, phase)
            # inside the target set both sides of the clamped inequality
            # vanish, so the margin climb stays on positive weights
            admit = (td & ((te > 0.0) if by_ratio else (tw > 0.0))).tolist()
            pick = None
            for i, (ok, val) in enumerate(zip(admit, score(te, tw).tolist())):
                if ok and val > best + 1e-15:
                    pick, best = i, val
            if pick is None:
                break
            s, e, w = trials.take([pick]), float(te[pick]), float(tw[pick])
        return s, e, w

    n = len(samples)
    excess, weight, defined = (
        evaluate(samples, "initial sweep") if n else (np.zeros(0), np.zeros(0), np.zeros(0, bool))
    )
    rows = np.flatnonzero(defined)
    skipped = n - rows.size
    if not rows.size:
        return ConditionVerdict(
            outcome="inconclusive",
            samples=n,
            skipped=skipped,
            detail="every sample hit an undefined ingredient",
        )
    excess, weight = excess[rows], weight[rows]
    boundary = int(np.count_nonzero(weight <= _WEIGHT_FLOOR))
    # descending margin, ties in sample order
    ranked = np.argsort(-margin(excess, weight), kind="stable")
    # only positive-weight samples can lead to a violation; seeding (and
    # the climb itself) stays on that stratum, otherwise the flat interior
    # margin of exactly zero absorbs every ascent
    positive = ranked[weight[ranked] > 0.0]
    pool = positive[:30] if positive.size else ranked[:15]

    seeded = [
        climb((samples.take(rows[[i]]), float(excess[i]), float(weight[i])), 2, "seeding climb")
        for i in pool
    ]
    seeded.sort(key=lambda c: margin(c[1], c[2]), reverse=True)
    refined = [climb(cand, refine_rounds, "refine") for cand in seeded[:8]]

    # sustained-blowup test: a genuine failure keeps its excess above
    # cutoff * weight while the weight is driven to zero
    for cand in sorted(refined, key=lambda c: margin(c[1], c[2]), reverse=True)[:3]:
        if cand[1] <= _TOL:
            continue
        # cleanup pass: margin-optimal candidates may carry slack in
        # penalized slots that pays at the current offset but kills the
        # blowup; maximizing the ratio strips it before descending
        s, e, w = climb(cand, 6, "cleanup", by_ratio=True)
        rescues = 4
        for _ in range(80):
            trials = ineq.shrink(s.take([0, 0, 0]), _DESCENT_ALPHAS)
            te, tw, td = evaluate(trials, "blowup descent")
            hit = np.flatnonzero(td)
            if not hit.size:
                break
            s, e, w = trials.take(hit[:1]), float(te[hit[0]]), float(tw[hit[0]])
            if e <= _TOL:
                # leftover slack only becomes decisive at depth: try one
                # mutation round to strip it before abandoning the descent
                if rescues > 0:
                    rescues -= 1
                    trials = ineq.mutate(s, rng)
                    te, tw, td = evaluate(trials, "blowup descent")
                    live = td & (te > _TOL)
                    if live.any():
                        i = int(np.argmax(np.where(live, ratio(te, tw), -np.inf)))
                        s, e, w = trials.take([i]), float(te[i]), float(tw[i])
                        continue
                break
            if w <= 1e-10 and e > max(_TOL, _BLOWUP_CUTOFF * w):
                replay = _point_lhs_rhs(ineq, c_max)
                witness = s.point(0)
                lhs, rhs = replay(witness)
                return ConditionVerdict(
                    outcome="falsified",
                    witness=witness,
                    witness_lhs=lhs,
                    witness_rhs=rhs,
                    margin=lhs - rhs,
                    samples=n,
                    boundary_samples=boundary,
                    skipped=skipped,
                    detail=f"violation sustained to weight {w:.2e}",
                    _replay=replay,
                )

    found = seeded + refined
    excess = np.concatenate([excess, [c[1] for c in found]])
    weight = np.concatenate([weight, [c[2] for c in found]])
    away = weight > _WEIGHT_FLOOR
    sup_c = max(0.0, float(np.max(excess[away] / weight[away]))) if away.any() else 0.0
    worst_margin = float(np.max(margin(excess, weight)))
    if sup_c <= c_max * (1.0 + 1e-12) and worst_margin <= _TOL:
        return ConditionVerdict(
            outcome="certified",
            constant=sup_c,
            samples=n,
            boundary_samples=boundary,
            skipped=skipped,
            detail=f"largest required constant {sup_c:.6g} within cap {c_max:g}",
        )
    return ConditionVerdict(
        outcome="inconclusive",
        constant=sup_c,
        samples=n,
        boundary_samples=boundary,
        skipped=skipped,
        detail=(
            f"samples demand a constant near {sup_c:.6g} (cap {c_max:g}) without a "
            "sustained boundary violation; raise the cap or the sample budget"
        ),
    )


# ---------------------------------------------------------------------------
# viability


class _ViabilityInequality(_Inequality):
    """The pointwise viability inequality; see :func:`viability_lhs_rhs`."""

    def __init__(self, gen, body):
        self.gen, self.body = gen, body

    def evaluate(self, b, constant):
        body = self.body
        f_val = self.gen(b.t, b.y, b.z, b.u)
        lhs = 4.0 * _rowdot(b.y - body.project_batch(b.y), f_val)
        hess, defined = body.hess_dist2_batch(b.y)
        # the Hessian form and the jump defect are nonnegative for convex
        # distance-squared; clamping removes rounding noise that large z/u
        # would otherwise amplify into spurious violations
        zterm = np.maximum(0.0, _quadratic_form(hess, b.z))
        defect = np.maximum(0.0, jump_defect_batch(body, b.y, b.u, self.gen.marks))
        weight = body.dist2_batch(b.y)
        return lhs, zterm + constant * weight + 2.0 * defect, weight, defined

    def _toward(self, y, alpha):
        p = self.body.project_batch(y)
        return p + np.reshape(alpha, (-1, 1)) * (y - p)

    def shrink(self, b, alpha):
        return dataclasses.replace(b, y=self._toward(b.y, alpha))

    def mutate(self, s, rng):
        y, z, u = s.y[0], s.z[0], s.u[0]
        return _variants(s, [
            ("y", self._toward(s.y, np.array([2.0, 1.5, 0.7, 0.4]))),
            ("z", _SCALES_FLIP[:, None, None] * z),
            ("u", _SCALES_FLIP[:, None, None] * u),
            # random-direction proposals let the climb leave a dead block
            ("y", [y + rng.normal(size=y.shape) * scale for scale in (0.05, 1.0)]),
            ("z", [z + rng.normal(size=z.shape)]),
            ("u", [u + rng.normal(size=u.shape)]),
            # single-slot moves find violations hidden behind penalized slots
            ("z", np.concatenate([_nudged(z, 1.0), _slot_zeroed(z)])),
            ("u", np.concatenate([_nudged(u, 1.0), _slot_zeroed(u)])),
        ])


def viability_lhs_rhs(
    gen: Generator, body: ConvexBody, s: PointSample, constant: float
) -> tuple[float, float]:
    """Drift-versus-curvature split of the pointwise viability inequality.

    lhs = 4 <y - proj(y), f(t, y, z, u)>;
    rhs = <H z, z> + constant * d2(y) + 2 * jump defect, with H the
    Hessian of d2 at y.  Raises when that Hessian is undefined.
    """
    return _point_lhs_rhs(_ViabilityInequality(gen, body), constant)(s)


def check_viability_condition(
    gen: Generator,
    body: ConvexBody,
    n_samples: int = 4000,
    seed: int = 0,
    c_max: float = 100.0,
    ranges: SampleRanges | None = None,
) -> ConditionVerdict:
    """Sampled certification of the pointwise viability inequality."""
    sampler = ConditionSampler(gen.state_dim, gen.brownian_dim, gen.marks.n_atoms, seed, ranges)
    samples = sampler.viability(body, n_samples)
    return _run_certification(_ViabilityInequality(gen, body), samples, c_max, sampler.rng)


@dataclass(frozen=True)
class ViabilityPathReport:
    times: np.ndarray
    mean_distance: np.ndarray
    max_mean_distance: float
    pathwise_max_mean: float
    pathwise_max_ci: tuple[float, float]
    tolerance: float
    empirically_viable: bool


def viability_path_report(
    sol: BsdeSolution, body, tolerance: float = 0.05
) -> ViabilityPathReport:
    """Track how far a solved equation strays from the target set.

    The terminal values ``sol.y[:, -1]``, which are the payoff itself,
    must sit in the target set; the report carries the per-time mean
    distance and the distribution of pathwise maxima.
    """
    n, n_nodes, m = sol.y.shape
    dists = body.dist_batch(sol.y.reshape(n * n_nodes, m)).reshape(n, n_nodes)
    xi_dist = dists[:, -1]
    if np.any(xi_dist > 1e-6):
        raise ValueError(
            f"terminal data leaves the target set (max distance {xi_dist.max():.3e})"
        )
    mean_distance = dists.mean(axis=0)
    pathwise_max = dists.max(axis=1)
    center = float(pathwise_max.mean())
    half = 1.96 * float(pathwise_max.std()) / np.sqrt(n)
    return ViabilityPathReport(
        times=sol.times.copy(),
        mean_distance=mean_distance,
        max_mean_distance=float(mean_distance.max()),
        pathwise_max_mean=center,
        pathwise_max_ci=(center - half, center + half),
        tolerance=tolerance,
        empirically_viable=bool(mean_distance.max() <= tolerance),
    )


def check_viability_empirical(
    gen: Generator,
    terminal: TerminalCondition,
    body,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
    mode: str = "explicit",
    tolerance: float = 0.05,
) -> tuple[ViabilityPathReport, BsdeSolution]:
    """Solve the equation on ``paths`` and report it with
    :func:`viability_path_report`."""
    sol = solve_backward(gen, terminal, paths, basis=basis, mode=mode)
    return viability_path_report(sol, body, tolerance), sol


# ---------------------------------------------------------------------------
# scalar comparison (ordered jump arguments)


def _jump_pull(marks: FiniteMarkMeasure, du: np.ndarray) -> np.ndarray:
    """sum_j n_j du_j for rows of per-atom values du (n, n_atoms)."""
    return _rowdot(du, np.broadcast_to(marks.weights, du.shape))


def _m1_gaps(f1: Generator, f2: Generator, b: SampleBatch) -> np.ndarray:
    val1 = f1(b.t, b.y_prime, b.z, b.u)[:, 0]
    val2 = f2(b.t, b.y_prime, b.z, b.u_prime)[:, 0]
    return val1 - val2 + _jump_pull(f1.marks, (b.u - b.u_prime)[:, :, 0])


def check_comparison_m1(
    f1: Generator, f2: Generator, n_samples: int = 3000, seed: int = 0
) -> ConditionVerdict:
    """Scalar comparison criterion: for u >= u' the driver gap must
    dominate the compensator pull -sum_j n_j (u_j - u'_j)."""
    if f1.state_dim != 1 or f2.state_dim != 1:
        raise ValueError("scalar comparison requires one-dimensional drivers")
    _require_matching_noise(f1, f2)
    sampler = ConditionSampler(1, f1.brownian_dim, f1.marks.n_atoms, seed)
    samples = sampler.pair(n_samples, ordered_jumps=True)
    gaps = _m1_gaps(f1, f2, samples)
    first = int(np.argmin(gaps))  # the first smallest gap
    worst, worst_sample = float(gaps[first]), samples.take([first])
    # sharpen the worst sample by scaling its jump gap
    for scale in (2.0, 4.0, 8.0):
        s = worst_sample
        trial = dataclasses.replace(s, u=s.u_prime + scale * (s.u - s.u_prime))
        gap = float(_m1_gaps(f1, f2, trial)[0])
        if gap < worst:
            worst, worst_sample = gap, trial
    if worst < -_TOL:
        return ConditionVerdict(
            outcome="falsified",
            witness=worst_sample.point(0),
            witness_lhs=-worst,
            witness_rhs=0.0,
            margin=-worst,
            samples=n_samples,
            detail=f"driver gap {worst:.6g} falls below the compensator bound",
            _replay=lambda sample: (-float(_m1_gaps(f1, f2, SampleBatch.of(sample))[0]), 0.0),
        )
    return ConditionVerdict(
        outcome="certified",
        constant=0.0,
        samples=n_samples,
        detail=f"smallest sampled slack {worst:.3g}",
    )


def _require_matching_noise(f1: Generator, f2: Generator):
    same = (
        f1.brownian_dim == f2.brownian_dim
        and np.array_equal(f1.marks.atoms, f2.marks.atoms)
        and np.array_equal(f1.marks.weights, f2.marks.weights)
    )
    if not same:
        raise ValueError("drivers must share the same noise (Brownian dimension and marks)")


# ---------------------------------------------------------------------------
# multidimensional comparison


def _prime_variants(s: SampleBatch, name: str, scales: np.ndarray) -> tuple:
    """Block of trials moving slot ``name`` along its gap from the primed slot."""
    value, prime = getattr(s, name)[0], getattr(s, name + "_prime")[0]
    return name, prime + scales.reshape(-1, *[1] * value.ndim) * (value - prime)


def _slot_moves(s: SampleBatch, name: str) -> tuple:
    """Block of single-slot moves of ``name``: nudges of the slot, and
    copies with one slot of its gap to the primed slot cleared."""
    value, prime = getattr(s, name)[0], getattr(s, name + "_prime")[0]
    return name, np.concatenate([_nudged(value, 1.0), prime + _slot_zeroed(value - prime)])


class _ComparisonInequality(_Inequality):
    """The componentwise comparison inequality; see :func:`comparison_lhs_rhs`."""

    def __init__(self, f1, f2):
        self.f1, self.f2 = f1, f2

    def evaluate(self, b, constant):
        y = b.y
        neg = np.maximum(-y, 0.0)
        is_neg = y < 0.0
        val1 = self.f1(b.t, np.maximum(y, 0.0) + b.y_prime, b.z, b.u)
        val2 = self.f2(b.t, b.y_prime, b.z_prime, b.u_prime)
        lhs = -4.0 * _rowdot(neg, val1 - val2)

        dz = b.z - b.z_prime
        zterm = 2.0 * _rowsum(np.where(is_neg[:, :, None], dz**2, 0.0))
        du = b.u - b.u_prime  # (n, n_atoms, m)
        shifted_neg = np.maximum(-(y[:, None, :] + du), 0.0)
        w = self.f1.marks.weights[:, None]
        neg_atoms = np.broadcast_to(is_neg[:, None, :], du.shape)
        pos_term = 2.0 * _rowsum(np.where(neg_atoms, 0.0, w * shifted_neg**2))
        # per-component convexity gaps of x -> (x^-)^2; nonnegative, so
        # clamp away cancellation noise from large jump offsets
        inner = shifted_neg**2 - neg[:, None, :] ** 2 - 2.0 * y[:, None, :] * du
        neg_term = 2.0 * _rowsum(np.where(neg_atoms, w * np.maximum(inner, 0.0), 0.0))
        weight = _rowdot(neg, neg)
        rhs = zterm + constant * weight + pos_term + neg_term
        return lhs, rhs, weight, np.ones(len(b), dtype=bool)

    def shrink(self, b, alpha):
        return dataclasses.replace(b, y=_neg_scaled(b.y, alpha))

    def mutate(self, s, rng):
        y, z, u, y_prime = s.y[0], s.z[0], s.u[0], s.y_prime[0]
        return _variants(s, [
            ("y", _neg_scaled(s.y, np.array([2.0, 0.5, 0.25]))),
            _prime_variants(s, "z", _SCALES),
            _prime_variants(s, "u", _SCALES_FLIP),
            # random-direction proposals let the climb leave a dead block
            ("y", [y + rng.normal(size=y.shape) * 0.3]),
            ("z", [z + rng.normal(size=z.shape)]),
            ("u", [u + rng.normal(size=u.shape)]),
            ("y_prime", [y_prime + rng.normal(size=y_prime.shape) * 0.1]),
            # single-slot moves find violations hidden behind penalized slots
            _slot_moves(s, "z"),
            _slot_moves(s, "u"),
        ])


def comparison_lhs_rhs(
    f1: Generator, f2: Generator, s: PointSample, constant: float
) -> tuple[float, float]:
    """Componentwise comparison inequality for the difference variable y.

    Negative components of y act through the quadratic terms on the
    right; the left side couples the negative part of y with the driver
    gap evaluated at (y^+ + y', z, u) versus (y', z', u')."""
    return _point_lhs_rhs(_ComparisonInequality(f1, f2), constant)(s)


def check_comparison_multidim(
    f1: Generator,
    f2: Generator,
    n_samples: int = 4000,
    seed: int = 0,
    c_max: float = 500.0,
    ranges: SampleRanges | None = None,
) -> ConditionVerdict:
    """Sampled certification of the componentwise comparison inequality."""
    _require_matching_noise(f1, f2)
    if f1.state_dim != f2.state_dim:
        raise ValueError("drivers must share the state dimension")
    sampler = ConditionSampler(f1.state_dim, f1.brownian_dim, f1.marks.n_atoms, seed, ranges)
    samples = sampler.pair(n_samples)
    return _run_certification(_ComparisonInequality(f1, f2), samples, c_max, sampler.rng)


# ---------------------------------------------------------------------------
# structural sufficient conditions


@dataclass
class StructuralReport:
    diagonal_z: bool
    offending_z_slots: list
    monotone: ConditionVerdict
    quadratic: ConditionVerdict
    quadratic_implied: bool
    outcome: str

    @property
    def passed(self) -> bool:
        return self.outcome == "certified"

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "diagonal_z": self.diagonal_z,
            "offending_z_slots": [[int(k), [int(i) for i in slot]] for k, slot in self.offending_z_slots],
            "monotone": self.monotone.to_dict(),
            "quadratic": self.quadratic.to_dict(),
            "quadratic_implied": self.quadratic_implied,
        }


class _QuadraticClause(_Inequality):
    """Clause bounding the negative-part drift against jump quadratics."""

    def __init__(self, gen):
        self.gen = gen

    def evaluate(self, b, constant):
        y = b.y
        neg = np.maximum(-y, 0.0)
        is_neg = y < 0.0
        val1 = self.gen(b.t, np.maximum(y, 0.0) + b.y_prime, b.z, b.u)
        val2 = self.gen(b.t, b.y_prime, b.z, b.u_prime)
        lhs = 4.0 * _rowsum(np.where(is_neg, y * (val1 - val2), 0.0))
        du = b.u - b.u_prime
        w = self.gen.marks.weights[:, None]
        neg_atoms = np.broadcast_to(is_neg[:, None, :], du.shape)
        neg_term = 2.0 * _rowsum(np.where(neg_atoms, w * du**2, 0.0))
        shifted_neg = np.maximum(-(y[:, None, :] + du), 0.0)
        pos_term = 2.0 * _rowsum(np.where(neg_atoms, 0.0, w * shifted_neg**2))
        weight = _rowdot(neg, neg)
        return lhs - neg_term - pos_term, constant * weight, weight, np.ones(len(b), dtype=bool)

    def shrink(self, b, alpha):
        return dataclasses.replace(b, y=_neg_scaled(b.y, alpha))

    def mutate(self, s, rng):
        return _variants(s, [
            ("y", _neg_scaled(s.y, np.array([2.0, 0.5]))),
            _prime_variants(s, "u", _SCALES),
        ])


def _monotone_gaps(gen: Generator, b: SampleBatch) -> np.ndarray:
    """(n, m) gaps f_k(y^+ off k + y', z, u) - f_k(y', z, u') + sum_j n_j (u - u')_jk.

    Component k of the state moves up by the positive part of y in every
    other component; one driver call covers all n * m cases.
    """
    n, m = b.y.shape
    delta = np.repeat(np.maximum(b.y, 0.0)[:, None, :], m, axis=1)
    delta[:, np.arange(m), np.arange(m)] = 0.0
    rows = np.repeat(np.arange(n), m)
    val1 = gen(b.t[rows], (delta + b.y_prime[:, None, :]).reshape(n * m, m), b.z[rows], b.u[rows])
    val1 = np.diagonal(val1.reshape(n, m, m), axis1=1, axis2=2)
    val2 = gen(b.t, b.y_prime, b.z, b.u_prime)
    du = np.swapaxes(b.u - b.u_prime, 1, 2).reshape(n * m, -1)
    return val1 - val2 + _jump_pull(gen.marks, du).reshape(n, m)


def check_structural(
    gen: Generator,
    n_samples: int = 2500,
    seed: int = 0,
    c_max: float = 500.0,
) -> StructuralReport:
    """Three-part sufficient test for self-comparison of one driver.

    (i) each output may touch only its own row of z; (ii) the driver is
    monotone against coordinated upward moves of the off-component state
    and the jump argument; (iii) a quadratic clause bounds the
    negative-part coupling.  When every output reads only its own jump
    component, (iii) follows from (ii) and is reported as implied.
    """
    probe = dependency_probe(gen, seed=seed)
    offending = []
    for k in range(gen.state_dim):
        for row, col in probe.z_slots[k]:
            if row != k:
                offending.append((k, (row, col)))
    diagonal_z = not offending

    sampler = ConditionSampler(gen.state_dim, gen.brownian_dim, gen.marks.n_atoms, seed + 1)
    samples = sampler.pair(n_samples, ordered_jumps=True)
    gaps = _monotone_gaps(gen, samples)
    # the first smallest gap, scanning samples and then components
    first = int(np.argmin(gaps))
    worst = float(gaps.flat[first])
    worst_row, worst_k = divmod(first, gen.state_dim)
    if worst < -_TOL:
        monotone = ConditionVerdict(
            outcome="falsified",
            witness=samples.point(worst_row),
            witness_lhs=-worst,
            witness_rhs=0.0,
            margin=-worst,
            samples=n_samples,
            detail=f"monotonicity fails on component {worst_k}",
            _replay=lambda s, _k=worst_k: (
                -float(_monotone_gaps(gen, SampleBatch.of(s))[0, _k]), 0.0
            ),
        )
    else:
        monotone = ConditionVerdict(
            outcome="certified", constant=0.0, samples=n_samples,
            detail=f"smallest sampled slack {worst:.3g}",
        )

    quad_samples = sampler.pair(n_samples, reversed_jumps=True)
    quadratic = _run_certification(_QuadraticClause(gen), quad_samples, c_max, sampler.rng)

    diag_u = all(
        probe.u_components(k) <= {k} for k in range(gen.state_dim)
    )
    implied = diag_u and diagonal_z and monotone.certified and quadratic.certified

    if diagonal_z and monotone.certified and quadratic.certified:
        outcome = "certified"
    elif not diagonal_z or monotone.falsified or quadratic.falsified:
        outcome = "falsified"
    else:
        outcome = "inconclusive"
    return StructuralReport(
        diagonal_z=diagonal_z,
        offending_z_slots=offending,
        monotone=monotone,
        quadratic=quadratic,
        quadratic_implied=implied,
        outcome=outcome,
    )


# ---------------------------------------------------------------------------
# matrix comparison on the semidefinite cone


class _MatrixInequality(_Inequality):
    """The semidefinite comparison inequality; see :func:`matrix_lhs_rhs`."""

    def __init__(self, f1, f2, side):
        self.f1, self.f2, self.side = f1, f2, side
        self.cone = PsdCone(side)

    def _eigen(self, y):
        w, q = np.linalg.eigh(vec_to_sym(y, self.side))
        return w, q, np.swapaxes(q, -1, -2)

    def evaluate(self, b, constant):
        cone, marks = self.cone, self.f1.marks
        w_eig, q, qt = self._eigen(b.y)
        y_pos = sym_to_vec((q * np.maximum(w_eig, 0.0)[:, None, :]) @ qt)
        y_neg = sym_to_vec((q * np.maximum(-w_eig, 0.0)[:, None, :]) @ qt)

        val1 = self.f1(b.t, y_pos + b.y_prime, b.z, b.u)
        val2 = self.f2(b.t, b.y_prime, b.z_prime, b.u_prime)
        lhs = -4.0 * _rowdot(y_neg, val1 - val2)

        hess, defined = cone.hess_dist2_batch(b.y)
        # quadratic form of a convex function's Hessian and per-atom
        # convexity gaps are nonnegative; clamp away rounding noise
        zterm = np.maximum(0.0, _quadratic_form(hess, b.z - b.z_prime))
        w2 = _rowdot(y_neg, y_neg)
        jump = np.zeros(len(b))
        for j in range(marks.n_atoms):
            du = b.u[:, j] - b.u_prime[:, j]
            gap = cone.dist2_batch(b.y + du) - w2 + 2.0 * _rowdot(y_neg, du)
            jump += marks.weights[j] * np.maximum(0.0, gap)
        rhs = zterm + constant * w2 + 2.0 * jump
        return lhs, rhs, cone.dist2_batch(b.y), defined

    def _shrunk(self, y, alpha):
        w, q, qt = self._eigen(y)
        w = np.where(w < 0.0, np.reshape(alpha, (-1, 1)) * w, w)
        return sym_to_vec((q * w[:, None, :]) @ qt)

    def shrink(self, b, alpha):
        return dataclasses.replace(b, y=self._shrunk(b.y, alpha))

    def mutate(self, s, rng):
        y, z, y_prime = s.y[0], s.z[0], s.y_prime[0]
        side = self.side
        return _variants(s, [
            ("y", self._shrunk(s.y[[0, 0, 0]], np.array([2.0, 0.5, 0.25]))),
            _prime_variants(s, "z", _SCALES),
            _prime_variants(s, "u", _SCALES),
            # random-direction proposals let the climb leave a dead block
            ("y", [y + sym_to_vec(_random_sym(rng, side, 0.3))]),
            ("z", [z + sym_to_vec(_random_sym(rng, side, 1.0))[:, None]]),
            ("y_prime", [y_prime + sym_to_vec(_random_sym(rng, side, 0.2))]),
            # single-slot moves find violations hidden behind penalized slots
            _slot_moves(s, "z"),
            _slot_moves(s, "u"),
        ])


def matrix_lhs_rhs(
    f1: Generator, f2: Generator, side: int, s: PointSample, constant: float
) -> tuple[float, float]:
    """Comparison inequality for symmetric-matrix solutions, d = 1.

    All slots are flattened symmetric matrices; the curvature term uses
    the cone's distance Hessian and the jump correction mirrors the
    semidefinite splitting."""
    return _point_lhs_rhs(_MatrixInequality(f1, f2, side), constant)(s)


def check_comparison_matrix(
    f1: Generator,
    f2: Generator,
    side: int,
    n_samples: int = 3000,
    seed: int = 0,
    c_max: float = 500.0,
    ranges: SampleRanges | None = None,
) -> ConditionVerdict:
    """Comparison certification for semidefinite-ordered matrix solutions."""
    _require_matching_noise(f1, f2)
    vec_dim = side * (side + 1) // 2
    if f1.state_dim != vec_dim or f2.state_dim != vec_dim:
        raise ValueError(f"matrix drivers must act on flattened dimension {vec_dim}")
    if f1.brownian_dim != 1:
        raise ValueError("matrix comparison is set up for a single Brownian channel")
    sampler = ConditionSampler(vec_dim, 1, f1.marks.n_atoms, seed, ranges)
    samples = sampler.matrix(side, n_samples)
    return _run_certification(_MatrixInequality(f1, f2, side), samples, c_max, sampler.rng)


# ---------------------------------------------------------------------------
# stacked reduction: comparison as viability on an orthant product


class StackedGenerator(Generator):
    """Driver of the stacked difference system.

    The first block carries the difference equation's driver gap, the
    second block the reference driver; shrinking the first block's
    negative part toward zero reproduces the comparison inequality as
    orthant viability.
    """

    def __init__(self, f1: Generator, f2: Generator):
        _require_matching_noise(f1, f2)
        if f1.state_dim != f2.state_dim:
            raise ValueError("drivers must share the state dimension")
        self.f1, self.f2 = f1, f2
        self.base_dim = f1.state_dim
        self.state_dim = 2 * f1.state_dim
        self.brownian_dim = f1.brownian_dim
        self.marks = f1.marks
        self.lipschitz = float(np.sqrt(2.0) * f1.lipschitz + 2.0 * f2.lipschitz)

    def _eval(self, t, y, z, u):
        m = self.base_dim
        y1, y2 = y[:, :m], y[:, m:]
        z1, z2 = z[:, :m, :], z[:, m:, :]
        u1, u2 = u[:, :, :m], u[:, :, m:]
        second = self.f2(t, y2, z2, u2)
        first = self.f1(t, y1 + y2, z1 + z2, u1 + u2) - second
        return np.concatenate([first, second], axis=1)


def stacked_reduction(f1: Generator, f2: Generator) -> tuple[StackedGenerator, OrthantProduct]:
    """Reduce a comparison question to viability of the stacked system in
    the product of the nonnegative orthant with a free block."""
    stacked = StackedGenerator(f1, f2)
    return stacked, OrthantProduct(n_plus=stacked.base_dim, n_free=stacked.base_dim)


# ---------------------------------------------------------------------------
# empirical comparison of two solved equations


@dataclass(frozen=True)
class ComparisonPathReport:
    times: np.ndarray
    min_gap: float
    min_gap_per_time: np.ndarray
    violation_fraction: np.ndarray
    gap_at_zero: np.ndarray


def comparison_path_report(sol1: BsdeSolution, sol2: BsdeSolution) -> ComparisonPathReport:
    """Compare two equations solved on one path bundle.

    The terminal values ``sol.y[:, -1]``, which are the payoffs
    themselves, must already be ordered; the report tracks the smallest
    componentwise gap and the per-time fraction of paths where the
    ordering fails."""
    if sol1.paths is None or sol1.paths is not sol2.paths:
        raise ValueError("solutions must be solved on one path bundle")
    if sol1.state_dim != sol2.state_dim:
        raise ValueError("solutions must share the state dimension")
    if np.any(sol1.y[:, -1, :] < sol2.y[:, -1, :] - 1e-12):
        raise ValueError("terminal data is not ordered: xi1 must dominate xi2 pathwise")
    gap = sol1.y - sol2.y
    return ComparisonPathReport(
        times=sol1.times.copy(),
        min_gap=float(gap.min()),
        min_gap_per_time=gap.min(axis=(0, 2)),
        violation_fraction=(gap < 0.0).any(axis=2).mean(axis=0),
        gap_at_zero=gap[:, 0, :].mean(axis=0),
    )


def empirical_comparison(
    f1: Generator,
    f2: Generator,
    terminal1: TerminalCondition,
    terminal2: TerminalCondition,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
    mode: str = "explicit",
) -> tuple[ComparisonPathReport, BsdeSolution, BsdeSolution]:
    """Solve both equations on ``paths`` and compare them with
    :func:`comparison_path_report`."""
    _require_matching_noise(f1, f2)
    sol1 = solve_backward(f1, terminal1, paths, basis=basis, mode=mode)
    sol2 = solve_backward(f2, terminal2, paths, basis=basis, mode=mode)
    return comparison_path_report(sol1, sol2), sol1, sol2
