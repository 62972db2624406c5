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
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .generators import Generator, dependency_probe, evaluate
from .geometry import ConvexBody, OrthantProduct, PsdCone, jump_defect, sym_to_vec, vec_to_sym
from .solver import BsdeSolution, RegressionBasis, TerminalCondition, solve_backward
from .stochastic import DrivingPaths, FiniteMarkMeasure

__all__ = [
    "PointSample",
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
        for name in ("y", "z", "u", "y_prime", "z_prime", "u_prime"):
            val = getattr(self, name)
            out[name] = None if val is None else np.asarray(val).tolist()
        return out


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
    Hessian evaluations stay off the nonsmooth locus.
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

    def viability(self, body: ConvexBody, n: int) -> list[PointSample]:
        r = self.ranges
        out = []
        for _ in range(n):
            if self.rng.uniform() < r.boundary_fraction:
                y = self._near_boundary_y(body)
            else:
                y = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
            z, u = self._blocks()
            out.append(PointSample(t=self.rng.uniform(0.0, 1.0), y=y, z=z, u=u))
        return out

    def _difference_y(self) -> np.ndarray:
        r = self.ranges
        y = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
        if self.rng.uniform() < r.boundary_fraction:
            neg = y < 0.0
            y[neg] = -self.rng.uniform(1e-5, r.boundary_width, size=int(neg.sum()))
        return y

    def pair(self, n: int, ordered_jumps: bool = False, reversed_jumps: bool = False) -> list[PointSample]:
        """Samples for comparison checks; ``ordered_jumps`` forces u >= u'."""
        r = self.ranges
        out = []
        for _ in range(n):
            y = self._difference_y()
            y_prime = self.rng.uniform(-r.y_box, r.y_box, size=self.m)
            z, u = self._blocks()
            z_prime, u_prime = self._blocks()
            if ordered_jumps or reversed_jumps:
                du = self.rng.uniform(0.0, r.u_box, size=(self.n_atoms, self.m))
                zero = self.rng.uniform(size=du.shape) < 0.3
                du[zero] = 0.0
                u = u_prime + du if ordered_jumps else u_prime - du
            elif self.rng.uniform() < r.zero_block_fraction:
                # matched primed blocks isolate the state-difference terms
                z_prime, u_prime = z.copy(), u.copy()
            out.append(
                PointSample(
                    t=self.rng.uniform(0.0, 1.0),
                    y=y,
                    z=z,
                    u=u,
                    y_prime=y_prime,
                    z_prime=z_prime,
                    u_prime=u_prime,
                )
            )
        return out

    def matrix(self, side: int, n: int) -> list[PointSample]:
        """Symmetric-matrix samples in flattened coordinates."""
        r = self.ranges
        out = []
        for _ in range(n):
            lam = self.rng.uniform(-r.y_box, r.y_box, size=side)
            lam[np.abs(lam) < 1e-3] = 1e-3
            if self.rng.uniform() < r.boundary_fraction:
                k = self.rng.integers(1, side + 1)
                lam[:k] = -self.rng.uniform(1e-5, r.boundary_width, size=k)
            q, _ = np.linalg.qr(self.rng.normal(size=(side, side)))
            y = sym_to_vec((q * lam) @ q.T)
            y_prime = sym_to_vec(_random_sym(self.rng, side, r.y_box))
            z = sym_to_vec(_random_sym(self.rng, side, r.z_box))[:, None]
            z_prime = sym_to_vec(_random_sym(self.rng, side, r.z_box))[:, None]
            u = np.stack([sym_to_vec(_random_sym(self.rng, side, r.u_box)) for _ in range(self.n_atoms)])
            u_prime = np.stack(
                [sym_to_vec(_random_sym(self.rng, side, r.u_box)) for _ in range(self.n_atoms)]
            )
            if self.rng.uniform() < r.zero_block_fraction:
                # matched primed blocks isolate the state-difference terms
                z_prime = z.copy()
                u_prime = u.copy()
            out.append(
                PointSample(
                    t=self.rng.uniform(0.0, 1.0),
                    y=y,
                    z=z,
                    u=u,
                    y_prime=y_prime,
                    z_prime=z_prime,
                    u_prime=u_prime,
                )
            )
        return out


def _random_sym(rng, side, scale):
    g = rng.normal(size=(side, side)) * scale / 2.0
    return g + g.T


# ---------------------------------------------------------------------------
# generic certification engine


def _nudged(array: np.ndarray, step: float):
    """All single-coordinate perturbations of an array, both signs."""
    flat = array.ravel()
    for idx in range(flat.size):
        for sign in (step, -step):
            bumped = flat.copy()
            bumped[idx] += sign
            yield bumped.reshape(array.shape)


def _slot_zeroed(array: np.ndarray):
    """Copies of the array with one nonzero coordinate cleared."""
    flat = array.ravel()
    for idx in range(flat.size):
        if flat[idx] != 0.0:
            cleared = flat.copy()
            cleared[idx] = 0.0
            yield cleared.reshape(array.shape)


class _Inequality:
    """Pointwise inequality lhs <= rhs0 + C * weight with refinement hooks."""

    def excess_weight(self, s: PointSample):
        """Return (lhs - rhs0, weight), or None when ingredients are undefined."""
        raise NotImplementedError

    def lhs_rhs(self, s: PointSample, constant: float):
        raise NotImplementedError

    def shrink(self, s: PointSample, alpha: float) -> PointSample:
        """Pull the sample toward the boundary (weight -> 0)."""
        raise NotImplementedError

    def mutate(self, s: PointSample, rng) -> list[PointSample]:
        raise NotImplementedError


def _worker_count() -> int:
    raw = os.environ.get("BSDELAB_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_samples(fn, samples):
    """Map ``fn`` over samples, in order.

    BSDELAB_WORKERS > 1 fans the evaluations out over a thread pool;
    results are consumed in submission order, so the verdict never
    depends on the worker count.
    """
    workers = _worker_count()
    if workers <= 1 or len(samples) < 2 * workers:
        return [fn(s) for s in samples]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, samples, chunksize=max(1, len(samples) // (4 * workers))))


def _run_certification(
    ineq: _Inequality,
    samples: list[PointSample],
    c_max: float,
    rng,
    refine_rounds: int = 8,
) -> ConditionVerdict:
    evaluated = []
    skipped = 0
    for s, r in zip(samples, _map_samples(ineq.excess_weight, samples)):
        if r is None:
            skipped += 1
        else:
            evaluated.append((s, r[0], r[1]))
    if not evaluated:
        return ConditionVerdict(
            outcome="inconclusive",
            samples=len(samples),
            skipped=skipped,
            detail="every sample hit an undefined ingredient",
        )

    def margin(excess, w):
        return excess - c_max * w

    boundary = sum(1 for _, _, w in evaluated if w <= _WEIGHT_FLOOR)
    ranked = sorted(evaluated, key=lambda t: margin(t[1], t[2]), reverse=True)
    # inside the target set both sides of the clamped inequality vanish,
    # so only positive-weight samples can lead to a violation; seeding
    # (and the climb itself) stays on that stratum, otherwise the flat
    # interior margin of exactly zero absorbs every ascent
    positive = [t for t in ranked if t[2] > 0.0]
    pool = positive[:30] if positive else ranked[:15]

    def climb(start, info, rounds):
        current = start
        for _ in range(rounds):
            improved = False
            for trial in ineq.mutate(current, rng):
                r = ineq.excess_weight(trial)
                if r is not None and r[1] > 0.0 and margin(*r) > margin(*info) + 1e-15:
                    current, info, improved = trial, r, True
            if not improved:
                break
        return current, info

    seeded = []
    for cand, excess, w in pool:
        current, info = climb(cand, (excess, w), rounds=2)
        seeded.append((current, *info))
    seeded.sort(key=lambda t: margin(t[1], t[2]), reverse=True)

    refined = []
    for cand, excess, w in seeded[:8]:
        current, info = climb(cand, (excess, w), refine_rounds)
        refined.append((current, *info))
    evaluated.extend(seeded)
    evaluated.extend(refined)

    # sustained-blowup test: a genuine failure keeps its excess above
    # cutoff * weight while the weight is driven to zero
    def ratio(e, wt):
        return e / max(wt, 1e-300)

    for cand, excess, w in sorted(refined, key=lambda t: margin(t[1], t[2]), reverse=True)[:3]:
        if excess <= _TOL:
            continue
        # cleanup pass: margin-optimal candidates may carry slack in
        # penalized slots that pays at the current offset but kills the
        # blowup; maximizing the ratio strips it before descending
        current, info = cand, (excess, w)
        for _ in range(6):
            improved = False
            for trial in ineq.mutate(current, rng):
                r = ineq.excess_weight(trial)
                if r is not None and r[0] > 0.0 and ratio(*r) > ratio(*info) + 1e-15:
                    current, info, improved = trial, r, True
            if not improved:
                break
        s, (excess, w) = current, info
        rescues = 4
        for _ in range(80):
            nxt = None
            for alpha in (0.5, 0.45, 0.55):
                trial = ineq.shrink(s, alpha)
                r = ineq.excess_weight(trial)
                if r is not None:
                    nxt = (trial, *r)
                    break
            if nxt is None:
                break
            s, excess, w = nxt
            if excess <= _TOL:
                # leftover slack only becomes decisive at depth: try one
                # mutation round to strip it before abandoning the descent
                if rescues > 0:
                    rescues -= 1
                    best = None
                    for trial in ineq.mutate(s, rng):
                        r = ineq.excess_weight(trial)
                        if r is not None and r[0] > _TOL and (best is None or ratio(*r) > ratio(*best[1])):
                            best = (trial, r)
                    if best is not None:
                        s, (excess, w) = best
                        continue
                break
            if w <= 1e-10 and excess > max(_TOL, _BLOWUP_CUTOFF * w):
                def replay(sample, _ineq=ineq, _c=c_max):
                    return _ineq.lhs_rhs(sample, _c)

                lhs, rhs = ineq.lhs_rhs(s, c_max)
                return ConditionVerdict(
                    outcome="falsified",
                    witness=s,
                    witness_lhs=lhs,
                    witness_rhs=rhs,
                    margin=lhs - rhs,
                    samples=len(samples),
                    boundary_samples=boundary,
                    skipped=skipped,
                    detail=f"violation sustained to weight {w:.2e}",
                    _replay=replay,
                )

    sup_c = 0.0
    for _, excess, w in evaluated:
        if w > _WEIGHT_FLOOR:
            sup_c = max(sup_c, excess / w)
    worst_margin = max(margin(excess, w) for _, excess, w in evaluated)
    if sup_c <= c_max * (1.0 + 1e-12) and worst_margin <= _TOL:
        return ConditionVerdict(
            outcome="certified",
            constant=sup_c,
            samples=len(samples),
            boundary_samples=boundary,
            skipped=skipped,
            detail=f"largest required constant {sup_c:.6g} within cap {c_max:g}",
        )
    return ConditionVerdict(
        outcome="inconclusive",
        constant=sup_c,
        samples=len(samples),
        boundary_samples=boundary,
        skipped=skipped,
        detail=(
            f"samples demand a constant near {sup_c:.6g} (cap {c_max:g}) without a "
            "sustained boundary violation; raise the cap or the sample budget"
        ),
    )


# ---------------------------------------------------------------------------
# viability


def viability_lhs_rhs(
    gen: Generator, body: ConvexBody, s: PointSample, constant: float
) -> tuple[float, float]:
    """Drift-versus-curvature split of the pointwise viability inequality.

    lhs = 4 <y - proj(y), f(t, y, z, u)>;
    rhs = <H z, z> + constant * d2(y) + 2 * jump defect, with H the
    Hessian of d2 at y.  Raises when that Hessian is undefined.
    """
    f_val = evaluate(gen, s.t, s.y, s.z, s.u)
    offset = s.y - body.project(s.y)
    lhs = 4.0 * float(offset @ f_val)
    hess = body.hess_dist2(s.y).require()
    # the Hessian form and the jump defect are nonnegative for convex
    # distance-squared; clamping removes rounding noise that large z/u
    # would otherwise amplify into spurious violations
    zterm = max(0.0, float(np.einsum("kd,kl,ld->", s.z, hess, s.z)))
    defect = max(0.0, jump_defect(body, s.y, s.u, gen.marks))
    rhs = zterm + constant * body.dist2(s.y) + 2.0 * defect
    return lhs, rhs


class _ViabilityInequality(_Inequality):
    def __init__(self, gen, body):
        self.gen, self.body = gen, body

    def excess_weight(self, s):
        try:
            lhs, rhs0 = viability_lhs_rhs(self.gen, self.body, s, constant=0.0)
        except ValueError:
            return None
        return lhs - rhs0, self.body.dist2(s.y)

    def lhs_rhs(self, s, constant):
        return viability_lhs_rhs(self.gen, self.body, s, constant)

    def shrink(self, s, alpha):
        p = self.body.project(s.y)
        return PointSample(t=s.t, y=p + alpha * (s.y - p), z=s.z, u=s.u)

    def mutate(self, s, rng):
        out = []
        p = self.body.project(s.y)
        for alpha in (2.0, 1.5, 0.7, 0.4):
            out.append(PointSample(t=s.t, y=p + alpha * (s.y - p), z=s.z, u=s.u))
        for zs in (0.0, 0.5, 2.0, -1.0):
            out.append(PointSample(t=s.t, y=s.y, z=zs * s.z, u=s.u))
        for us in (0.0, 0.5, 2.0, -1.0):
            out.append(PointSample(t=s.t, y=s.y, z=s.z, u=us * s.u))
        # random-direction proposals let the climb leave a dead block
        for scale in (0.05, 1.0):
            out.append(PointSample(t=s.t, y=s.y + rng.normal(size=s.y.shape) * scale, z=s.z, u=s.u))
        out.append(PointSample(t=s.t, y=s.y, z=s.z + rng.normal(size=s.z.shape), u=s.u))
        out.append(PointSample(t=s.t, y=s.y, z=s.z, u=s.u + rng.normal(size=s.u.shape)))
        # single-slot moves find violations hidden behind penalized slots
        for z_new in (*_nudged(s.z, 1.0), *_slot_zeroed(s.z)):
            out.append(PointSample(t=s.t, y=s.y, z=z_new, u=s.u))
        for u_new in (*_nudged(s.u, 1.0), *_slot_zeroed(s.u)):
            out.append(PointSample(t=s.t, y=s.y, z=s.z, u=u_new))
        return out


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


def _m1_gap(f1: Generator, f2: Generator, s: PointSample) -> float:
    marks = f1.marks
    du = s.u - s.u_prime
    val1 = evaluate(f1, s.t, s.y_prime, s.z, s.u)[0]
    val2 = evaluate(f2, s.t, s.y_prime, s.z, s.u_prime)[0]
    return val1 - val2 + float(marks.weights @ du[:, 0])


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
    worst, worst_sample = np.inf, None
    for s in samples:
        gap = _m1_gap(f1, f2, s)
        if gap < worst:
            worst, worst_sample = gap, s
    # sharpen the worst sample by scaling its jump gap
    for scale in (2.0, 4.0, 8.0):
        s = worst_sample
        trial = PointSample(
            t=s.t,
            y=s.y,
            z=s.z,
            u=s.u_prime + scale * (s.u - s.u_prime),
            y_prime=s.y_prime,
            z_prime=s.z_prime,
            u_prime=s.u_prime,
        )
        gap = _m1_gap(f1, f2, trial)
        if gap < worst:
            worst, worst_sample = gap, trial
    if worst < -_TOL:
        return ConditionVerdict(
            outcome="falsified",
            witness=worst_sample,
            witness_lhs=-worst,
            witness_rhs=0.0,
            margin=-worst,
            samples=n_samples,
            detail=f"driver gap {worst:.6g} falls below the compensator bound",
            _replay=lambda sample: (-_m1_gap(f1, f2, sample), 0.0),
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


def comparison_lhs_rhs(
    f1: Generator, f2: Generator, s: PointSample, constant: float
) -> tuple[float, float]:
    """Componentwise comparison inequality for the difference variable y.

    Negative components of y act through the quadratic terms on the
    right; the left side couples the negative part of y with the driver
    gap evaluated at (y^+ + y', z, u) versus (y', z', u')."""
    marks = f1.marks
    y = s.y
    neg = np.maximum(-y, 0.0)
    is_neg = y < 0.0
    val1 = evaluate(f1, s.t, np.maximum(y, 0.0) + s.y_prime, s.z, s.u)
    val2 = evaluate(f2, s.t, s.y_prime, s.z_prime, s.u_prime)
    lhs = -4.0 * float(neg @ (val1 - val2))

    dz = s.z - s.z_prime
    zterm = 2.0 * float(np.sum(dz[is_neg] ** 2))
    du = s.u - s.u_prime  # (n_atoms, m)
    shifted_neg = np.maximum(-(y[None, :] + du), 0.0)
    w = marks.weights[:, None]
    pos_term = 2.0 * float(np.sum(w * shifted_neg[:, ~is_neg] ** 2)) if (~is_neg).any() else 0.0
    neg_term = 0.0
    if is_neg.any():
        # per-component convexity gaps of x -> (x^-)^2; nonnegative, so
        # clamp away cancellation noise from large jump offsets
        inner = shifted_neg[:, is_neg] ** 2 - neg[None, is_neg] ** 2 - 2.0 * y[None, is_neg] * du[:, is_neg]
        neg_term = 2.0 * float(np.sum(w * np.maximum(inner, 0.0)))
    rhs = zterm + constant * float(neg @ neg) + pos_term + neg_term
    return lhs, rhs


class _ComparisonInequality(_Inequality):
    def __init__(self, f1, f2):
        self.f1, self.f2 = f1, f2

    def excess_weight(self, s):
        lhs, rhs0 = comparison_lhs_rhs(self.f1, self.f2, s, constant=0.0)
        neg = np.maximum(-s.y, 0.0)
        return lhs - rhs0, float(neg @ neg)

    def lhs_rhs(self, s, constant):
        return comparison_lhs_rhs(self.f1, self.f2, s, constant)

    def shrink(self, s, alpha):
        y = np.where(s.y < 0.0, alpha * s.y, s.y)
        return PointSample(
            t=s.t, y=y, z=s.z, u=s.u, y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime
        )

    def mutate(self, s, rng):
        out = []
        for alpha in (2.0, 0.5, 0.25):
            out.append(self.shrink(s, alpha))
        for zs in (0.0, 0.5, 2.0):
            dz = s.z - s.z_prime
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z_prime + zs * dz, u=s.u,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        for us in (0.0, 0.5, 2.0, -1.0):
            du = s.u - s.u_prime
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z, u=s.u_prime + us * du,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        # random-direction proposals let the climb leave a dead block
        out.append(
            PointSample(
                t=s.t, y=s.y + rng.normal(size=s.y.shape) * 0.3, z=s.z, u=s.u,
                y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        out.append(
            PointSample(
                t=s.t, y=s.y, z=s.z + rng.normal(size=s.z.shape), u=s.u,
                y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        out.append(
            PointSample(
                t=s.t, y=s.y, z=s.z, u=s.u + rng.normal(size=s.u.shape),
                y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        out.append(
            PointSample(
                t=s.t, y=s.y, z=s.z, u=s.u,
                y_prime=s.y_prime + rng.normal(size=s.y_prime.shape) * 0.1,
                z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        # single-slot moves find violations hidden behind penalized slots;
        # clearing a slot of the difference sets that slot of z to z'
        z_moves = list(_nudged(s.z, 1.0))
        z_moves += [s.z_prime + dz for dz in _slot_zeroed(s.z - s.z_prime)]
        for z_new in z_moves:
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=z_new, u=s.u,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        u_moves = list(_nudged(s.u, 1.0))
        u_moves += [s.u_prime + du for du in _slot_zeroed(s.u - s.u_prime)]
        for u_new in u_moves:
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z, u=u_new,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        return out


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

    def _split(self, s):
        y = s.y
        return y, np.maximum(y, 0.0), np.maximum(-y, 0.0), y < 0.0

    def excess_weight(self, s):
        gen = self.gen
        marks = gen.marks
        y, pos, neg, is_neg = self._split(s)
        val1 = evaluate(gen, s.t, pos + s.y_prime, s.z, s.u)
        val2 = evaluate(gen, s.t, s.y_prime, s.z, s.u_prime)
        lhs = 4.0 * float(np.sum(y[is_neg] * (val1 - val2)[is_neg]))
        du = s.u - s.u_prime
        w = marks.weights[:, None]
        neg_term = 2.0 * float(np.sum(w * du[:, is_neg] ** 2))
        shifted_neg = np.maximum(-(y[None, :] + du), 0.0)
        pos_term = 2.0 * float(np.sum(w * shifted_neg[:, ~is_neg] ** 2)) if (~is_neg).any() else 0.0
        return lhs - neg_term - pos_term, float(neg @ neg)

    def lhs_rhs(self, s, constant):
        excess, w = self.excess_weight(s)
        return excess, constant * w

    def shrink(self, s, alpha):
        y = np.where(s.y < 0.0, alpha * s.y, s.y)
        return PointSample(
            t=s.t, y=y, z=s.z, u=s.u, y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime
        )

    def mutate(self, s, rng):
        out = [self.shrink(s, a) for a in (2.0, 0.5)]
        for us in (0.0, 0.5, 2.0):
            du = s.u - s.u_prime
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z, u=s.u_prime + us * du,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        return out


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
    marks = gen.marks

    def mono_gap(s: PointSample, k: int) -> float:
        delta = np.maximum(s.y, 0.0)
        delta[k] = 0.0
        du = s.u - s.u_prime
        val1 = evaluate(gen, s.t, delta + s.y_prime, s.z, s.u)[k]
        val2 = evaluate(gen, s.t, s.y_prime, s.z, s.u_prime)[k]
        return val1 - val2 + float(marks.weights @ du[:, k])

    worst, worst_sample, worst_k = np.inf, None, None
    for s in sampler.pair(n_samples, ordered_jumps=True):
        for k in range(gen.state_dim):
            gap = mono_gap(s, k)
            if gap < worst:
                worst, worst_sample, worst_k = gap, s, k
    if worst < -_TOL:
        monotone = ConditionVerdict(
            outcome="falsified",
            witness=worst_sample,
            witness_lhs=-worst,
            witness_rhs=0.0,
            margin=-worst,
            samples=n_samples,
            detail=f"monotonicity fails on component {worst_k}",
            _replay=lambda s, _k=worst_k: (-mono_gap(s, _k), 0.0),
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


def matrix_lhs_rhs(
    f1: Generator, f2: Generator, side: int, s: PointSample, constant: float
) -> tuple[float, float]:
    """Comparison inequality for symmetric-matrix solutions, d = 1.

    All slots are flattened symmetric matrices; the curvature term uses
    the cone's distance Hessian and the jump correction mirrors the
    semidefinite splitting."""
    cone = PsdCone(side)
    y_mat = vec_to_sym(s.y, side)
    w_eig, q = np.linalg.eigh(y_mat)
    y_pos = sym_to_vec((q * np.maximum(w_eig, 0.0)) @ q.T)
    y_neg_vec = sym_to_vec((q * np.maximum(-w_eig, 0.0)) @ q.T)

    val1 = evaluate(f1, s.t, y_pos + s.y_prime, s.z, s.u)
    val2 = evaluate(f2, s.t, s.y_prime, s.z_prime, s.u_prime)
    lhs = -4.0 * float(y_neg_vec @ (val1 - val2))

    hess = cone.hess_dist2(s.y).require()
    dz = s.z - s.z_prime
    # quadratic form of a convex function's Hessian and per-atom
    # convexity gaps are nonnegative; clamp away rounding noise
    zterm = max(0.0, float(np.einsum("kd,kl,ld->", dz, hess, dz)))
    w2 = float(y_neg_vec @ y_neg_vec)
    jump = 0.0
    for j in range(f1.marks.n_atoms):
        du = s.u[j] - s.u_prime[j]
        gap = cone.dist2(s.y + du) - w2 + 2.0 * float(y_neg_vec @ du)
        jump += f1.marks.weights[j] * max(0.0, gap)
    rhs = zterm + constant * w2 + 2.0 * jump
    return lhs, rhs


class _MatrixInequality(_Inequality):
    def __init__(self, f1, f2, side):
        self.f1, self.f2, self.side = f1, f2, side
        self.cone = PsdCone(side)

    def excess_weight(self, s):
        try:
            lhs, rhs0 = matrix_lhs_rhs(self.f1, self.f2, self.side, s, constant=0.0)
        except ValueError:
            return None
        return lhs - rhs0, self.cone.dist2(s.y)

    def lhs_rhs(self, s, constant):
        return matrix_lhs_rhs(self.f1, self.f2, self.side, s, constant)

    def shrink(self, s, alpha):
        mat = vec_to_sym(s.y, self.side)
        w, q = np.linalg.eigh(mat)
        shrunk = np.where(w < 0.0, alpha * w, w)
        return PointSample(
            t=s.t, y=sym_to_vec((q * shrunk) @ q.T), z=s.z, u=s.u,
            y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
        )

    def mutate(self, s, rng):
        out = [self.shrink(s, a) for a in (2.0, 0.5, 0.25)]
        for zs in (0.0, 0.5, 2.0):
            dz = s.z - s.z_prime
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z_prime + zs * dz, u=s.u,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        for us in (0.0, 0.5, 2.0):
            du = s.u - s.u_prime
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z, u=s.u_prime + us * du,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        # random-direction proposals let the climb leave a dead block
        out.append(
            PointSample(
                t=s.t, y=s.y + sym_to_vec(_random_sym(rng, self.side, 0.3)), z=s.z, u=s.u,
                y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        out.append(
            PointSample(
                t=s.t, y=s.y, z=s.z + sym_to_vec(_random_sym(rng, self.side, 1.0))[:, None],
                u=s.u, y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        out.append(
            PointSample(
                t=s.t, y=s.y, z=s.z, u=s.u,
                y_prime=s.y_prime + sym_to_vec(_random_sym(rng, self.side, 0.2)),
                z_prime=s.z_prime, u_prime=s.u_prime,
            )
        )
        # single-slot moves find violations hidden behind penalized slots;
        # clearing a slot of the difference sets that slot of z to z'
        z_moves = list(_nudged(s.z, 1.0))
        z_moves += [s.z_prime + dz for dz in _slot_zeroed(s.z - s.z_prime)]
        for z_new in z_moves:
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=z_new, u=s.u,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        u_moves = list(_nudged(s.u, 1.0))
        u_moves += [s.u_prime + du for du in _slot_zeroed(s.u - s.u_prime)]
        for u_new in u_moves:
            out.append(
                PointSample(
                    t=s.t, y=s.y, z=s.z, u=u_new,
                    y_prime=s.y_prime, z_prime=s.z_prime, u_prime=s.u_prime,
                )
            )
        return out


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
