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

Comparison is viability of the difference y = Y1 - Y2 in an order cone:
the nonnegative orthant for componentwise order, the semidefinite cone
for matrix order.  Both use the viability inequality's evaluation, with
the driver gap f1(t, proj(y) + y', z, u) - f2(t, y', z', u') as the drift
and the gaps z - z' and u - u' in the curvature and jump terms.

Samples move through the engine as a :class:`SampleBatch`, one row per
point: the initial sweep is one evaluation of the whole batch, and every
climb round one evaluation of the trials of all its live candidates.  A
falsified verdict's witness is a one-row batch, and the public
``*_lhs_rhs`` functions evaluate a batch, one (lhs, rhs) entry per row.
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
    _jump_defect,
    _rowdot,
    sym_to_vec,
)
from .solver import (
    BsdeSolution,
    RegressionBasis,
    TerminalCondition,
    solve_backward_many,
)
from .stochastic import DrivingPaths, FiniteMarkMeasure, StreamKey, _noise_mismatch

__all__ = [
    "SampleBatch",
    "ConditionVerdict",
    "ConditionSampler",
    "viability_lhs_rhs",
    "check_viability_condition",
    "ViabilityPathReport",
    "check_viability_empirical",
    "check_comparison_m1",
    "check_comparison_multidim",
    "StructuralReport",
    "check_structural",
    "check_comparison_matrix",
    "StackedGenerator",
    "stacked_reduction",
    "ComparisonPathReport",
    "empirical_comparison",
]

_TOL = 1e-9
_WEIGHT_FLOOR = 1e-8
_BLOWUP_CUTOFF = 1e8
_SLOTS = ("y", "z", "u", "y_prime", "z_prime", "u_prime")


@dataclass(frozen=True)
class SampleBatch:
    """Evaluation points as a struct of arrays, one row per point.

    ``t`` has shape (n,), ``y`` (n, m), ``z`` (n, m, d) and ``u``
    (n, n_atoms, m); the primed slots have the shapes of their unprimed
    ones, or are None for viability checks.  Comparison checks read the
    primed slots as the second solution's arguments.
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

    def take(self, rows) -> SampleBatch:
        """A new batch of the given rows, copied, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        slots = (getattr(self, name) for name in _SLOTS)
        return SampleBatch(self.t[rows], *(None if a is None else a[rows] for a in slots))


@dataclass
class ConditionVerdict:
    outcome: str  # "certified" | "falsified" | "inconclusive"
    constant: float | None = None
    witness: SampleBatch | None = None  # one row
    witness_lhs: float | None = None
    witness_rhs: float | None = None
    margin: float | None = None
    samples: int = 0
    boundary_samples: int = 0
    skipped: int = 0
    detail: str = ""
    profile: dict | None = None  # counts per engine phase; None for a sampled gap
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
        lhs, rhs = (float(side[0]) for side in self._replay(self.witness))
        return {"lhs": lhs, "rhs": rhs, "violated": lhs > rhs + _TOL}

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "_replay"}
        w = self.witness
        if w is not None:
            slots = {name: None if (a := getattr(w, name)) is None else a[0].tolist() for name in _SLOTS}
            out["witness"] = {"t": float(w.t[0]), **slots}
        return out


# the samplers' draw boxes, y (and y') in [-5, 5] and z and u in [-3, 3];
# the matrix sampler scales its symmetric draws by them
_Y_BOX = 5.0
_Z_BOX = 3.0
_U_BOX = 3.0
# the share of rows moved near the boundary, and how near (at most)
_BOUNDARY_FRACTION = 0.3
_BOUNDARY_WIDTH = 0.1
# the share of rows whose z or u block is zeroed, or whose primed blocks
# copy the unprimed ones
_ZERO_BLOCK_FRACTION = 0.25


# Sampler kind k draws on stream step 2**32 - 1 - k, at the top of the
# 32-bit step range, which no path bundle reaches (a bundle's steps are its
# time steps 0, 1, ...); each field of a kind draws on its own channel.
_SAMPLER_KINDS = ("viability", "pair", "ordered", "reversed", "matrix")
# the pair sampler's kind for each ordering of its jump blocks
_PAIR_KINDS = {"free": "pair", "ordered": "ordered", "reversed": "reversed"}
_SAMPLE_FIELDS = (
    "t", "y", "y_prime", "z", "u", "z_prime", "u_prime", "zero", "zero_prime",
    "matched", "boundary", "side", "eps", "direction", "du", "du_zero", "rank", "q",
)


class ConditionSampler:
    """Seeded sample generator with boundary concentration.

    A ``_BOUNDARY_FRACTION`` share of draws lands within
    ``_BOUNDARY_WIDTH`` of the relevant boundary (the body's surface for
    viability, small negative parts for orthant-type comparisons, small
    negative eigenvalues for the matrix cone), keeping a 1e-5 offset so
    Hessian evaluations stay off the nonsmooth locus.  Samples are keyed
    by (seed, sampler kind, row): each field of row i comes from fixed
    positions of a counter-based stream, so budgets are prefix-stable --
    the first k rows of an n-row draw are exactly a k-row draw.
    """

    def __init__(self, m: int, d: int, n_atoms: int, seed: int = 0):
        self.m, self.d, self.n_atoms = m, d, n_atoms
        self.key = StreamKey(seed)

    def _draw(self, kind, name, n, shape=(), low=0.0, high=1.0, normal=False):
        """(n, *shape) draws of one field, uniform on (low, high) or standard
        normal; row i takes positions [i k, (i + 1) k) of the field's stream,
        k = prod(shape), whatever n is.  Every certifier draws its samples
        here, so this is where a budget below one sample is refused."""
        if n < 1:
            raise ValueError(f"n_samples must be at least 1, got {n}")
        count = n * int(np.prod(shape, dtype=np.int64))
        step, channel = 2**32 - 1 - _SAMPLER_KINDS.index(kind), _SAMPLE_FIELDS.index(name)
        if normal:
            return self.key.normals(step, channel, count).reshape(n, *shape)
        return low + (high - low) * self.key.uniforms(step, channel, count).reshape(n, *shape)

    def _noise_blocks(self, kind, n, primed=False):
        """z (n, m, d) and u (n, n_atoms, m) in their boxes, each zeroed on
        a ``_ZERO_BLOCK_FRACTION`` share of rows."""
        suffix = "_prime" if primed else ""
        z = self._draw(kind, "z" + suffix, n, (self.m, self.d), -_Z_BOX, _Z_BOX)
        u = self._draw(kind, "u" + suffix, n, (self.n_atoms, self.m), -_U_BOX, _U_BOX)
        zero = self._draw(kind, "zero" + suffix, n, (2,)) < _ZERO_BLOCK_FRACTION
        z[zero[:, 0]] = 0.0
        u[zero[:, 1]] = 0.0
        return z, u

    def _matched(self, kind, out: SampleBatch) -> SampleBatch:
        """Copy the unprimed z and u blocks into the primed ones on a
        ``_ZERO_BLOCK_FRACTION`` share of rows: matched primed blocks
        isolate the state-difference terms."""
        same = self._draw(kind, "matched", len(out)) < _ZERO_BLOCK_FRACTION
        out.z_prime[same], out.u_prime[same] = out.z[same], out.u[same]
        return out

    def viability(self, body: ConvexBody, n: int) -> SampleBatch:
        kind = "viability"
        y = self._draw(kind, "y", n, (self.m,), -_Y_BOX, _Y_BOX)
        # boundary rows move to distance eps from their projection, on a
        # random side, along the offset, or a random direction from inside
        near = np.flatnonzero(self._draw(kind, "boundary", n) < _BOUNDARY_FRACTION)
        x = y[near]
        p = body.project_batch(x)
        offset = x - p
        inside = np.sqrt(_rowdot(offset, offset)) < 1e-9
        direction = self._draw(kind, "direction", n, (self.m,), normal=True)[near]
        direction = np.where(inside[:, None], direction, offset)
        direction /= np.sqrt(_rowdot(direction, direction))[:, None]
        side = np.where(self._draw(kind, "side", n)[near] < 0.5, 1.0, -1.0)
        eps = self._draw(kind, "eps", n, (), 1e-5, _BOUNDARY_WIDTH)[near]
        y[near] = p + (side * eps)[:, None] * direction
        z, u = self._noise_blocks(kind, n)
        return SampleBatch(self._draw(kind, "t", n), y, z, u)

    def pair(self, n: int, jumps: str = "free") -> SampleBatch:
        """Samples for comparison checks; ``jumps`` is "free", "ordered"
        (forcing u >= u') or "reversed" (u <= u')."""
        if jumps not in _PAIR_KINDS:
            raise ValueError(f"pair: jumps must be one of {', '.join(map(repr, _PAIR_KINDS))}, got {jumps!r}")
        kind = _PAIR_KINDS[jumps]
        y = self._draw(kind, "y", n, (self.m,), -_Y_BOX, _Y_BOX)
        # boundary rows pull every negative entry to just below zero
        near = self._draw(kind, "boundary", n) < _BOUNDARY_FRACTION
        small = -self._draw(kind, "eps", n, (self.m,), 1e-5, _BOUNDARY_WIDTH)
        y = np.where(near[:, None] & (y < 0.0), small, y)
        y_prime = self._draw(kind, "y_prime", n, (self.m,), -_Y_BOX, _Y_BOX)
        z, u = self._noise_blocks(kind, n)
        z_prime, u_prime = self._noise_blocks(kind, n, primed=True)
        out = SampleBatch(self._draw(kind, "t", n), y, z, u, y_prime, z_prime, u_prime)
        if kind == "pair":
            return self._matched(kind, out)
        shape = (self.n_atoms, self.m)
        du = self._draw(kind, "du", n, shape, 0.0, _U_BOX)
        du[self._draw(kind, "du_zero", n, shape) < 0.3] = 0.0
        return dataclasses.replace(out, u=u_prime + du if kind == "ordered" else u_prime - du)

    def matrix(self, side: int, n: int) -> SampleBatch:
        """Symmetric-matrix samples in flattened coordinates."""
        kind = "matrix"
        lam = self._draw(kind, "y", n, (side,), -_Y_BOX, _Y_BOX)
        lam[np.abs(lam) < 1e-3] = 1e-3
        # boundary rows get 1..side small negative eigenvalues, leading ones first
        near = self._draw(kind, "boundary", n) < _BOUNDARY_FRACTION
        rank = 1 + np.floor(side * self._draw(kind, "rank", n)).astype(np.int64)
        small = -self._draw(kind, "eps", n, (side,), 1e-5, _BOUNDARY_WIDTH)
        lam = np.where(near[:, None] & (np.arange(side) < rank[:, None]), small, lam)
        q, _ = np.linalg.qr(self._draw(kind, "q", n, (side, side), normal=True))
        square = (side, side)

        def sym(name, lead, scale):
            draw = self._draw(kind, name, n, lead + square, normal=True)
            return sym_to_vec(_random_sym(draw, scale))

        out = SampleBatch(
            self._draw(kind, "t", n),
            sym_to_vec((q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)),
            sym("z", (), _Z_BOX)[:, :, None],
            sym("u", (self.n_atoms,), _U_BOX),
            sym("y_prime", (), _Y_BOX),
            sym("z_prime", (), _Z_BOX)[:, :, None],
            sym("u_prime", (self.n_atoms,), _U_BOX),
        )
        return self._matched(kind, out)


def _random_sym(g, scale):
    """Symmetric matrices (g + g^T) * scale / 2 from stacked square normals g."""
    g = g * scale / 2.0
    return g + np.swapaxes(g, -1, -2)


# ---------------------------------------------------------------------------
# generic certification engine


def _rowsum(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but the first."""
    return np.ascontiguousarray(x).reshape(x.shape[0], -1).sum(axis=1)


def _quadratic_form(hess: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_d <H z_d, z_d> per row, for H (n, m, m) and z (n, m, d)."""
    return _rowsum(z * (hess @ z))


# the climb's trials: factors that move y toward the body, and multipliers
# of the z and u gaps to the primed blocks
_TOWARD = np.array([2.0, 1.5, 0.7, 0.4])
_GAP_SCALES = np.array([0.0, 0.5, 2.0, -1.0])


class _Inequality:
    """Pointwise inequality lhs <= rhs0 + C * weight over batches of points,
    a viability condition for the convex ``body``: the weight is the
    squared distance of y to it."""

    def __init__(self, gen, body):
        self.gen, self.body = gen, body

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

    def _toward(self, y, alpha):
        """Each row of y pulled toward the body by each factor in ``alpha``,
        (n, len(alpha), m)."""
        p = self.body.project_batch(y)[:, None]
        return p + np.reshape(alpha, (-1, 1)) * (y[:, None] - p)

    def shrink(self, b: SampleBatch, alpha: float) -> SampleBatch:
        """Pull each row's y toward the body (weight -> 0) by the factor ``alpha``."""
        return dataclasses.replace(b, y=self._toward(b.y, alpha)[:, 0])

    def mutate(self, s: SampleBatch) -> tuple[SampleBatch, np.ndarray]:
        """One climb round's trials around every row of ``s``, and the row
        each trial comes from.  A row's trials are contiguous: y moved toward
        the body, z and u moved along their gaps from the primed blocks (from
        0 when there are none), and single-slot moves that nudge one slot of
        z or u by +-1 or clear one nonzero slot of its gap."""
        n = len(s)
        blocks = [("y", self._toward(s.y, _TOWARD), None)]
        slots = []
        for name in ("z", "u"):
            value, prime = getattr(s, name), getattr(s, name + "_prime")
            prime = np.zeros_like(value) if prime is None else prime
            gap = value - prime
            scales = _GAP_SCALES.reshape(-1, *[1] * (gap.ndim - 1))
            blocks.append((name, prime[:, None] + scales * gap[:, None], None))
            # single-slot moves find violations hidden behind penalized slots
            flat, gap = value.reshape(n, -1), gap.reshape(n, -1)
            size = flat.shape[1]
            nudge = np.repeat(flat[:, None], 2 * size, axis=1)
            rows = np.arange(2 * size)
            nudge[:, rows, rows // 2] += np.tile([1.0, -1.0], size)
            clear = np.repeat(gap[:, None], size, axis=1)
            clear[:, np.arange(size), np.arange(size)] = 0.0
            clear = prime.reshape(n, 1, -1) + clear
            shape = (n, -1, *value.shape[1:])
            slots += [(name, nudge.reshape(shape), None), (name, clear.reshape(shape), gap != 0.0)]
        blocks += slots
        keep = np.concatenate([np.ones(v.shape[:2], bool) if k is None else k for _, v, k in blocks], 1)
        owner = np.repeat(np.arange(n), keep.sum(axis=1))
        trials = s.take(owner)
        # each block's kept trials land at their places in the stacked order
        place = (np.cumsum(keep) - 1).reshape(keep.shape)
        start = 0
        for name, values, _ in blocks:
            cols = slice(start, start + values.shape[1])
            sel = keep[:, cols]
            getattr(trials, name)[place[:, cols][sel]] = values[sel]
            start = cols.stop
        return trials, owner


_REFINE_ROUNDS = 8


def _run_certification(
    ineq: _Inequality,
    samples: SampleBatch,
    c_max: float,
) -> ConditionVerdict:
    """Sweep every sample, climb from the best eight in lock-step, then
    descend from the best climbed point toward weight 0 to test for a
    sustained violation.
    Every move is a fixed function of the point it starts from, so the
    verdict is a function of the samples.  The verdict's ``profile`` counts
    each phase's evaluations, rows and accepted moves, and the descent's
    depth in shrink steps.  A cap that is negative or not finite raises
    ``ValueError``."""
    if not (np.isfinite(c_max) and c_max >= 0.0):
        raise ValueError(f"c_max must be finite and nonnegative, got {c_max}")
    profile = {phase: {"evaluations": 0, "rows": 0, "accepted": 0} for phase in ("sweep", "climb", "descent")}
    profile["descent"]["depth"] = 0

    def evaluate(batch, phase):
        count = profile[phase]
        count["evaluations"] += 1
        count["rows"] += len(batch)
        excess, weight, defined = ineq.excess_weight(batch)
        bad = defined & ~(np.isfinite(excess) & np.isfinite(weight))
        if bad.any():
            where = "initial sweep" if phase == "sweep" else phase
            raise ValueError(
                f"certification {where}: {int(bad.sum())} of {len(batch)} defined "
                "evaluations gave a non-finite excess or weight"
            )
        return excess, weight, defined

    def margin(e, w):
        return e - c_max * w

    n = len(samples)
    excess, weight, defined = evaluate(samples, "sweep")
    rows = np.flatnonzero(defined)
    skipped = n - rows.size
    if not rows.size:
        return ConditionVerdict(
            outcome="inconclusive",
            samples=n,
            skipped=skipped,
            detail="every sample hit an undefined ingredient",
            profile=profile,
        )
    excess, weight = excess[rows], weight[rows]
    boundary = int(np.count_nonzero(weight <= _WEIGHT_FLOOR))
    # descending margin, ties in sample order
    ranked = np.argsort(-margin(excess, weight), kind="stable")
    # only positive-weight samples can lead to a violation; the climb starts
    # (and stays) on that stratum, otherwise the flat interior margin of
    # exactly zero absorbs every ascent
    positive = ranked[weight[ranked] > 0.0]
    first = (positive if positive.size else ranked)[:8]
    c, ce, cw = samples.take(rows[first]), excess[first], weight[first]
    # lock-step rounds: every live candidate moves to the first best of its
    # trials if that beats its margin, and drops out otherwise
    best, live = margin(ce, cw), np.arange(len(c))
    for _ in range(_REFINE_ROUNDS):
        if not live.size:
            break
        trials, owner = ineq.mutate(c.take(live))
        te, tw, td = evaluate(trials, "climb")
        # inside the target set both sides of the clamped inequality vanish,
        # so the climb stays on positive weights
        tm = np.where(td & (tw > 0.0), margin(te, tw), -np.inf)
        counts = np.bincount(owner)
        starts = np.cumsum(counts) - counts
        top = np.maximum.reduceat(tm, starts)[owner]
        pick = np.minimum.reduceat(np.where(tm == top, np.arange(tm.size), tm.size), starts)
        gain = tm[pick] > best[live] + 1e-15
        live, pick = live[gain], pick[gain]
        profile["climb"]["accepted"] += live.size
        for f in dataclasses.fields(c):
            if getattr(c, f.name) is not None:
                getattr(c, f.name)[live] = getattr(trials, f.name)[pick]
        ce[live], cw[live], best[live] = te[pick], tw[pick], tm[pick]

    # sustained-blowup test: a genuine failure keeps its excess above
    # cutoff * weight while the weight is halved toward zero
    i = int(np.argmax(margin(ce, cw)))
    s, e, w = c.take([i]), float(ce[i]), float(cw[i])
    descent = profile["descent"]
    rescues = 4
    while e > _TOL and descent["depth"] < 80:
        trial = ineq.shrink(s, 0.5)
        te, tw, td = evaluate(trial, "descent")
        if not td[0]:
            break
        s, e, w = trial, float(te[0]), float(tw[0])
        descent["depth"] += 1
        descent["accepted"] += 1
        if e <= _TOL:
            # leftover slack only becomes decisive at depth: try one
            # mutation round to strip it before abandoning the descent
            if rescues:
                rescues -= 1
                trials, _ = ineq.mutate(s)
                te, tw, td = evaluate(trials, "descent")
                live = td & (te > _TOL)
                if live.any():
                    i = int(np.argmax(np.where(live, te / np.maximum(tw, 1e-300), -np.inf)))
                    s, e, w = trials.take([i]), float(te[i]), float(tw[i])
                    descent["accepted"] += 1
            continue
        if w <= 1e-10 and e > max(_TOL, _BLOWUP_CUTOFF * w):
            lhs, rhs = (float(side[0]) for side in ineq.lhs_rhs(s, c_max))
            return ConditionVerdict(
                outcome="falsified", witness=s, witness_lhs=lhs, witness_rhs=rhs,
                margin=lhs - rhs, samples=n, boundary_samples=boundary, skipped=skipped,
                detail=f"violation sustained to weight {w:.2e}", profile=profile,
                _replay=lambda b: ineq.lhs_rhs(b, c_max),
            )

    excess = np.concatenate([excess, ce])
    weight = np.concatenate([weight, cw])
    away = weight > _WEIGHT_FLOOR
    sup_c = max(0.0, float(np.max(excess[away] / weight[away]))) if away.any() else 0.0
    worst_margin = float(np.max(margin(excess, weight)))
    if sup_c <= c_max * (1.0 + 1e-12) and worst_margin <= _TOL:
        outcome, detail = "certified", f"largest required constant {sup_c:.6g} within cap {c_max:g}"
    else:
        outcome, detail = "inconclusive", (
            f"samples demand a constant near {sup_c:.6g} (cap {c_max:g}) without a "
            "sustained boundary violation; raise the cap or the sample budget"
        )
    return ConditionVerdict(
        outcome=outcome, constant=sup_c, samples=n, boundary_samples=boundary,
        skipped=skipped, detail=detail, profile=profile,
    )


# ---------------------------------------------------------------------------
# viability


class _ViabilityInequality(_Inequality):
    """The pointwise viability inequality; see :func:`viability_lhs_rhs`."""

    def _reads(self, b, proj):
        """The drift paired with y - proj(y), and the z and u blocks that
        the curvature and jump terms read."""
        return self.gen(b.t, b.y, b.z, b.u), b.z, b.u

    def evaluate(self, b, constant):
        body = self.body
        proj, weight = body.project_batch(b.y), body.dist2_batch(b.y)
        drift, z, u = self._reads(b, proj)
        lhs = 4.0 * _rowdot(b.y - proj, drift)
        hess, defined = body.hess_dist2_batch(b.y)
        # the Hessian form and the jump defect are nonnegative for convex
        # distance-squared; clamping removes rounding noise that large z/u
        # would otherwise amplify into spurious violations
        zterm = np.maximum(0.0, _quadratic_form(hess, z))
        defect = np.maximum(0.0, _jump_defect(body, b.y, proj, weight, u, self.gen.marks))
        return lhs, zterm + constant * weight + 2.0 * defect, weight, defined


def viability_lhs_rhs(
    gen: Generator, body: ConvexBody, s: SampleBatch, constant: float
) -> tuple[np.ndarray, np.ndarray]:
    """Drift-versus-curvature split of the pointwise viability inequality,
    one (lhs, rhs) entry per row of ``s``.

    lhs = 4 <y - proj(y), f(t, y, z, u)>;
    rhs = <H z, z> + constant * d2(y) + 2 * jump defect, with H the
    Hessian of d2 at y.  Raises when that Hessian is undefined at a row.
    """
    return _ViabilityInequality(gen, body).lhs_rhs(s, constant)


def check_viability_condition(
    gen: Generator,
    body: ConvexBody,
    n_samples: int = 4000,
    seed: int = 0,
    c_max: float = 100.0,
) -> ConditionVerdict:
    """Sampled certification of the pointwise viability inequality."""
    sampler = ConditionSampler(gen.state_dim, gen.brownian_dim, gen.marks.n_atoms, seed)
    samples = sampler.viability(body, n_samples)
    return _run_certification(_ViabilityInequality(gen, body), samples, c_max)


class ViabilityPathReport:
    """How far a solved equation strays from the target set ``body``: the
    mean distance over paths at each of the nodes ``times``
    (``mean_distance``) and its largest value (``max_mean_distance``).

    The report is a backward pass's ``on_node``, filled one node at a
    time, as ``report(i, ys, zs, us)`` for i = N, ..., 0 with the solved
    problem's node i first in ``ys``; it reads no integrands and holds one
    node's distances, not the whole path's.  The terminal node, which is
    the payoff itself, must sit in the target set.
    """

    def __init__(self, body, times: np.ndarray):
        self.body = body
        self.times = times.copy()
        self.mean_distance = np.empty(times.shape[0])

    def __call__(self, i: int, ys, zs, us) -> None:
        dist = self.body.dist_batch(ys[0])
        if i == self.times.shape[0] - 1 and np.any(dist > 1e-6):
            raise ValueError(
                f"terminal data leaves the target set (max distance {dist.max():.3e})"
            )
        self.mean_distance[i] = dist.mean()

    @property
    def max_mean_distance(self) -> float:
        return float(self.mean_distance.max())


def check_viability_empirical(
    gen: Generator,
    terminal: TerminalCondition,
    body,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
) -> tuple[ViabilityPathReport, BsdeSolution]:
    """Solve the equation on ``paths`` (explicit steps) and fill its
    :class:`ViabilityPathReport` as the pass solves each node; terminal
    data outside the target set ends the pass at node N.  The solution
    keeps no values, only ``y0`` and ``y0_se``."""
    report = ViabilityPathReport(body, paths.grid.nodes)
    (sol,) = solve_backward_many([(gen, terminal)], paths, basis=basis, on_node=report)
    return report, sol


# ---------------------------------------------------------------------------
# scalar comparison (ordered jump arguments)


def _jump_pull(marks: FiniteMarkMeasure, du: np.ndarray) -> np.ndarray:
    """sum_j n_j du_j for rows of per-atom values du (n, n_atoms)."""
    return _rowdot(du, np.broadcast_to(marks.weights, du.shape))


def _monotone_gaps(f1: Generator, f2: Generator, b: SampleBatch) -> np.ndarray:
    """(n, m) gaps f1_k(y^+ off k + y', z, u) - f2_k(y', z, u') + sum_j n_j (u - u')_jk.

    Component k of the state moves up by the positive part of y in every
    other component; one call of ``f1`` covers all n * m cases.  At m = 1
    nothing moves, and the gap is the scalar comparison's.
    """
    n, m = b.y.shape
    delta = np.repeat(np.maximum(b.y, 0.0)[:, None, :], m, axis=1)
    delta[:, np.arange(m), np.arange(m)] = 0.0
    rows = np.repeat(np.arange(n), m)
    val1 = f1(b.t[rows], (delta + b.y_prime[:, None, :]).reshape(n * m, m), b.z[rows], b.u[rows])
    val1 = np.diagonal(val1.reshape(n, m, m), axis1=1, axis2=2)
    val2 = f2(b.t, b.y_prime, b.z, b.u_prime)
    du = np.swapaxes(b.u - b.u_prime, 1, 2).reshape(n * m, -1)
    return val1 - val2 + _jump_pull(f1.marks, du).reshape(n, m)


def check_comparison_m1(
    f1: Generator, f2: Generator, n_samples: int = 3000, seed: int = 0
) -> ConditionVerdict:
    """Scalar comparison criterion: for u >= u' the driver gap must
    dominate the compensator pull -sum_j n_j (u_j - u'_j)."""
    if f1.state_dim != 1 or f2.state_dim != 1:
        raise ValueError("scalar comparison requires one-dimensional drivers")
    _require_matching_noise(f1, f2)
    sampler = ConditionSampler(1, f1.brownian_dim, f1.marks.n_atoms, seed)
    samples = sampler.pair(n_samples, jumps="ordered")
    s = samples.take([int(np.argmin(_monotone_gaps(f1, f2, samples)))])  # the first smallest gap
    # sharpen it: the row itself and its jump gap scaled by 2, 4 and 8, the
    # first smallest gap kept (the row itself on a tie)
    scaled = s.u_prime + np.array([2.0, 4.0, 8.0])[:, None, None] * (s.u - s.u_prime)
    trials = dataclasses.replace(s.take([0, 0, 0, 0]), u=np.concatenate([s.u, scaled]))
    gaps = _monotone_gaps(f1, f2, trials)[:, 0]
    pick = int(np.argmin(gaps))
    worst = float(gaps[pick])
    return _gap_verdict(
        worst, trials.take([pick]), n_samples,
        f"driver gap {worst:.6g} falls below the compensator bound",
        lambda b: (-_monotone_gaps(f1, f2, b)[:, 0], np.zeros(len(b))),
    )


def _gap_verdict(worst, witness, n_samples, detail, replay) -> ConditionVerdict:
    """Verdict on a sampled gap that must stay nonnegative: falsified at
    ``witness`` when the smallest gap ``worst`` is negative."""
    if worst < -_TOL:
        return ConditionVerdict(
            outcome="falsified", witness=witness, witness_lhs=-worst, witness_rhs=0.0,
            margin=-worst, samples=n_samples, detail=detail, _replay=replay,
        )
    return ConditionVerdict(
        outcome="certified", constant=0.0, samples=n_samples,
        detail=f"smallest sampled slack {worst:.3g}",
    )


def _require_matching_noise(f1: Generator, f2: Generator):
    if _noise_mismatch(f1, f2):
        raise ValueError("drivers must share the same noise (Brownian dimension and marks)")


# ---------------------------------------------------------------------------
# multidimensional comparison


class _ComparisonInequality(_ViabilityInequality):
    """Comparison as viability of the difference y in an order cone; see
    :func:`comparison_lhs_rhs` and :func:`matrix_lhs_rhs`."""

    def __init__(self, f1, f2, cone):
        super().__init__(f1, cone)
        self.f2 = f2

    def _reads(self, b, proj):
        gap = self.gen(b.t, proj + b.y_prime, b.z, b.u) - self.f2(b.t, b.y_prime, b.z_prime, b.u_prime)
        return gap, b.z - b.z_prime, b.u - b.u_prime


def comparison_lhs_rhs(
    f1: Generator, f2: Generator, s: SampleBatch, constant: float
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise comparison inequality for the difference variable y,
    one (lhs, rhs) entry per row of ``s``.

    The viability inequality of y in the orthant R^m_+, with the driver
    gap f1(t, y^+ + y', z, u) - f2(t, y', z', u') as its drift and the
    gaps z - z' and u - u' in the curvature and jump terms."""
    return _ComparisonInequality(f1, f2, OrthantProduct(f1.state_dim, 0)).lhs_rhs(s, constant)


def check_comparison_multidim(
    f1: Generator,
    f2: Generator,
    n_samples: int = 4000,
    seed: int = 0,
    c_max: float = 500.0,
) -> ConditionVerdict:
    """Sampled certification of the componentwise comparison inequality."""
    _require_matching_noise(f1, f2)
    if f1.state_dim != f2.state_dim:
        raise ValueError("drivers must share the state dimension")
    sampler = ConditionSampler(f1.state_dim, f1.brownian_dim, f1.marks.n_atoms, seed)
    samples = sampler.pair(n_samples)
    cone = OrthantProduct(f1.state_dim, 0)
    return _run_certification(_ComparisonInequality(f1, f2, cone), samples, c_max)


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
    """Clause bounding the negative-part drift against jump quadratics; its
    weight is the squared distance of y to the nonnegative orthant."""

    def __init__(self, gen):
        super().__init__(gen, OrthantProduct(gen.state_dim, 0))

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

    # wrapped to the stream keys' 64 bits; every smaller seed keeps its samples
    sampler = ConditionSampler(gen.state_dim, gen.brownian_dim, gen.marks.n_atoms, (seed + 1) % 2**64)
    samples = sampler.pair(n_samples, jumps="ordered")
    gaps = _monotone_gaps(gen, gen, samples)
    # the first smallest gap, scanning samples and then components
    first = int(np.argmin(gaps))
    worst = float(gaps.flat[first])
    worst_row, worst_k = divmod(first, gen.state_dim)
    monotone = _gap_verdict(
        worst, samples.take([worst_row]), n_samples,
        f"monotonicity fails on component {worst_k}",
        lambda b: (-_monotone_gaps(gen, gen, b)[:, worst_k], np.zeros(len(b))),
    )

    quad_samples = sampler.pair(n_samples, jumps="reversed")
    quadratic = _run_certification(_QuadraticClause(gen), quad_samples, c_max)

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
    f1: Generator, f2: Generator, side: int, s: SampleBatch, constant: float
) -> tuple[np.ndarray, np.ndarray]:
    """Comparison inequality for symmetric-matrix solutions, d = 1, one
    (lhs, rhs) entry per row of ``s``.

    All slots are flattened symmetric matrices; the inequality is that of
    :func:`comparison_lhs_rhs` with the semidefinite cone as the order
    cone, so y^+ is the positive spectral part of y."""
    return _ComparisonInequality(f1, f2, PsdCone(side)).lhs_rhs(s, constant)


def check_comparison_matrix(
    f1: Generator,
    f2: Generator,
    side: int,
    n_samples: int = 3000,
    seed: int = 0,
    c_max: float = 500.0,
) -> ConditionVerdict:
    """Comparison certification for semidefinite-ordered matrix solutions."""
    _require_matching_noise(f1, f2)
    vec_dim = side * (side + 1) // 2
    if f1.state_dim != vec_dim or f2.state_dim != vec_dim:
        raise ValueError(f"matrix drivers must act on flattened dimension {vec_dim}")
    if f1.brownian_dim != 1:
        raise ValueError("matrix comparison is set up for a single Brownian channel")
    sampler = ConditionSampler(vec_dim, 1, f1.marks.n_atoms, seed)
    samples = sampler.matrix(side, n_samples)
    return _run_certification(_ComparisonInequality(f1, f2, PsdCone(side)), samples, c_max)


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


class ComparisonPathReport:
    """How two solved equations stay ordered: at each of the nodes
    ``times``, the smallest componentwise gap Y1 - Y2 over paths
    (``min_gap_per_time``) and the fraction of paths where some component
    of the gap is negative (``violation_fraction``); the smallest gap of
    all (``min_gap``), and the mean gap at time zero (``gap_at_zero``).

    The report is a backward pass's ``on_node``, filled one node at a
    time, as ``report(i, ys, zs, us)`` for i = N, ..., 0 with node i of
    the dominating problem and of the dominated one first in ``ys``; it
    reads no integrands and holds one node's gap, not the whole path's.
    The terminal nodes, which are the payoffs themselves, must have one
    state dimension and already be ordered.
    """

    def __init__(self, times: np.ndarray):
        self.times = times.copy()
        self.min_gap_per_time = np.empty(times.shape[0])
        self.violation_fraction = np.empty(times.shape[0])
        self.gap_at_zero = None

    def __call__(self, i: int, ys, zs, us) -> None:
        y1, y2 = ys[:2]
        if i == self.times.shape[0] - 1:
            if y1.shape != y2.shape:
                raise ValueError("solutions must share the state dimension")
            if np.any(y1 < y2 - 1e-12):
                raise ValueError("terminal data is not ordered: xi1 must dominate xi2 pathwise")
        gap = y1 - y2
        self.min_gap_per_time[i] = gap.min()
        self.violation_fraction[i] = (gap < 0.0).any(axis=1).mean()
        if i == 0:
            self.gap_at_zero = gap.mean(axis=0)

    @property
    def min_gap(self) -> float:
        return float(self.min_gap_per_time.min())


def empirical_comparison(
    f1: Generator,
    f2: Generator,
    terminal1: TerminalCondition,
    terminal2: TerminalCondition,
    paths: DrivingPaths,
    basis: RegressionBasis | None = None,
) -> tuple[ComparisonPathReport, BsdeSolution, BsdeSolution]:
    """Solve both equations on ``paths`` in one backward pass (explicit
    steps) and fill their :class:`ComparisonPathReport` as the pass solves
    each node; unordered terminal data ends the pass at node N.  The
    solutions keep no values, only ``y0`` and ``y0_se``."""
    _require_matching_noise(f1, f2)
    if f1.state_dim != f2.state_dim:
        raise ValueError("drivers must share the state dimension")
    report = ComparisonPathReport(paths.grid.nodes)
    sol1, sol2 = solve_backward_many(
        [(f1, terminal1), (f2, terminal2)], paths, basis=basis, on_node=report
    )
    return report, sol1, sol2
