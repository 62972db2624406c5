"""Driving noise for backward equations with jumps.

A path bundle carries a d-dimensional Brownian motion together with a
Poisson random measure whose intensity is a finite sum of weighted atoms.
All randomness is derived from counter-based streams keyed by
(step, channel), so a simulation is reproducible draw-by-draw no matter
how the work is scheduled or chunked.
"""

from __future__ import annotations

import concurrent.futures
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "FiniteMarkMeasure",
    "TimeGrid",
    "StreamKey",
    "DrivingPaths",
    "simulate_paths",
    "compensated_increment",
    "jump_norm2",
]


@dataclass(frozen=True)
class FiniteMarkMeasure:
    """Atomic jump intensity: marks ``atoms[j]`` arriving at rate ``weights[j]``.

    ``atoms`` has shape (n_atoms, mark_dim); ``weights`` is positive.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("marks: atoms and weights must have equal length")
        if atoms.shape[0] == 0:
            raise ValueError("marks: at least one atom required")
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all() and np.all(weights > 0.0)):
            raise ValueError("marks: atoms and weights must be finite, weights strictly positive")
        for a in range(atoms.shape[0]):
            for b in range(a + 1, atoms.shape[0]):
                if np.array_equal(atoms[a], atoms[b]):
                    raise ValueError("marks: atoms must be pairwise distinct")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    @property
    def mark_dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _noise_mismatch(a, b) -> str | None:
    """What two carriers of driving noise disagree on, or None when they agree.

    ``a`` and ``b`` are path bundles or drivers: anything with a
    ``brownian_dim`` and ``marks``.  Marks agree when their atoms and
    weights are equal.
    """
    if a.brownian_dim != b.brownian_dim:
        return "the Brownian dimension"
    if not (
        np.array_equal(a.marks.atoms, b.marks.atoms)
        and np.array_equal(a.marks.weights, b.marks.weights)
    ):
        return "the marks (atoms and weights)"
    return None


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes 0 = t_0 < ... < t_N = horizon."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).ravel()
        if nodes.shape[0] < 2:
            raise ValueError("empty grid: need at least one step")
        if not np.isfinite(nodes).all():
            raise ValueError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError("empty grid: need at least one step")
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, horizon, n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def steps(self) -> np.ndarray:
        """Step widths h_i = t_{i+1} - t_i."""
        return np.diff(self.nodes)


@dataclass(frozen=True)
class StreamKey:
    """Counter-based substream addressing on top of a single master seed.

    Substream (step, channel) is an independent Philox stream; positions
    within a substream index individual draws, so a block of paths can be
    generated standalone via ``offset`` and still match a full pass.
    """

    master_seed: int

    def __post_init__(self):
        # numpy integers pass; a float raises TypeError, where int() truncated it
        seed = operator.index(self.master_seed)
        if not 0 <= seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        object.__setattr__(self, "master_seed", seed)

    def _raw(self, step: int, channel: int, count: int, offset: int) -> np.ndarray:
        if step < 0 or channel < 0 or offset < 0:
            raise ValueError("stream coordinates must be nonnegative")
        key = np.array(
            [self.master_seed, (np.uint64(step) << np.uint64(32)) ^ np.uint64(channel)],
            dtype=np.uint64,
        )
        bg = np.random.Philox(key=key)
        # Philox advances in blocks of four 64-bit words; discard the remainder.
        skip = offset % 4
        if offset >= 4:
            bg.advance(offset // 4)
        return bg.random_raw(count + skip)[skip:]

    def uniforms(self, step: int, channel: int, count: int, offset: int = 0) -> np.ndarray:
        """Draws in the open interval (0, 1); position k is draw offset + k."""
        return _open_uniforms(self._raw(step, channel, count, offset))

    def normals(self, step: int, channel: int, count: int, offset: int = 0) -> np.ndarray:
        return ndtri(self.uniforms(step, channel, count, offset))


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from raw 64-bit words: (top 53 bits + 1/2) 2^-53.

    For the top 53-bit value, 2^53 - 1/2 rounds to 2^53 and the formula
    gives 1.0; those words take the largest double below 1 instead.
    """
    u = ((raw >> np.uint64(11)) + 0.5) * 2.0**-53
    return np.minimum(u, np.nextafter(1.0, 0.0), out=u)


_POISSON_TAIL = 1e-16
_POISSON_CAP = 400
# a count node sums at most _POISSON_CAP per step, so int32 holds it
_MAX_STEPS = (2**31 - 1) // _POISSON_CAP


def _poisson_cdf_table(mean: float) -> np.ndarray:
    """CDF values P(X <= k) until the remaining tail is below ``_POISSON_TAIL``,
    or until, past the mode, a term leaves the sum unchanged.

    Raises ``ValueError`` when ``_POISSON_CAP`` terms leave more of the mass
    out than the rounding of their sum can explain: at a mean above about 270
    the table would need more terms, and above about 745 ``exp(-mean)``
    underflows to 0.
    """
    pmf = np.exp(-mean)
    cdf = [pmf]
    k = 0
    while 1.0 - cdf[-1] > _POISSON_TAIL and k < _POISSON_CAP:
        k += 1
        pmf *= mean / k
        cdf.append(cdf[-1] + pmf)
        if k > mean and cdf[-1] == cdf[-2]:
            break
    # a sum of k terms can fall short of 1 by a few ulps and stall there;
    # such a table is complete, and ends at its first repeated value
    if 1.0 - cdf[-1] > max(_POISSON_TAIL, _POISSON_CAP * np.finfo(float).eps):
        raise ValueError(
            f"Poisson mean {float(mean)!r} needs more than {_POISSON_CAP} terms of its CDF table; "
            "refine the time grid or lower the jump intensity"
        )
    return np.asarray(cdf)


def poisson_counts(u: np.ndarray, mean: float) -> np.ndarray:
    """Invert uniforms through the Poisson(mean) CDF, as ``int32`` counts.

    Uniforms below P(X = 0), most of them at a small mean, give 0 without a
    search; only the rest are searched in the table.
    """
    cdf = _poisson_cdf_table(mean)
    counts = np.zeros(np.shape(u), dtype=np.int32)
    fired = u >= cdf[0]
    counts[fired] = np.minimum(np.searchsorted(cdf, u[fired], side="right"), cdf.shape[0] - 1)
    return counts


def _on_two_threads(work, n: int) -> None:
    """Run ``work(lo, hi)`` over [0, n) in two halves, one per core.

    The calling thread runs [0, ceil(n / 2)) and one worker thread the rest;
    the worker ends with the call, and an error on either side is raised
    here once both halves are done.  The halves must write disjoint outputs.
    With n = 1 the worker has nothing to do and is not started.
    """
    mid = (n + 1) // 2
    if mid == n:
        work(0, n)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
        rest = worker.submit(work, mid, n)
        work(0, mid)
        rest.result()


def _accumulate(nodes: np.ndarray) -> None:
    """nodes[i + 1] += nodes[i] along the leading (time) axis: increments
    stored at nodes 1..N become node values.  Each step adds one contiguous
    block of a time-major buffer, the same sums as ``np.cumsum(axis=0)``,
    which walks every path down a strided column.
    """
    for i in range(nodes.shape[0] - 1):
        np.add(nodes[i], nodes[i + 1], out=nodes[i + 1])


@dataclass(frozen=True)
class DrivingPaths:
    """Simulated noise bundle on a fixed grid, as node values, time-major.

    brownian:     (N + 1, n_paths, d) node values, zero at t_0
    count_nodes:  (N + 1, n_paths, n_atoms) integer cumulative counts at
                  nodes; ``int32`` from :func:`simulate_paths`, any integer
                  dtype in a bundle built by hand

    Node i is ``brownian[i]`` and ``count_nodes[i]``; step i's increments
    are ``brownian_increments(i)`` and ``jump_increments(i)``.
    """

    grid: TimeGrid
    marks: FiniteMarkMeasure
    brownian: np.ndarray
    count_nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n_nodes = self.grid.n_steps + 1
        if self.brownian.ndim != 3 or self.brownian.shape[0] != n_nodes:
            raise ValueError(f"brownian must have shape ({n_nodes}, n_paths, d)")
        if self.count_nodes.shape != (n_nodes, self.n_paths, self.marks.n_atoms):
            raise ValueError(
                f"count_nodes must have shape ({n_nodes}, {self.n_paths}, {self.marks.n_atoms})"
            )
        if not np.issubdtype(self.count_nodes.dtype, np.integer):
            raise ValueError("count_nodes must have an integer dtype")

    @property
    def n_paths(self) -> int:
        return self.brownian.shape[1]

    @property
    def brownian_dim(self) -> int:
        return self.brownian.shape[2]

    def brownian_increments(self, i: int) -> np.ndarray:
        """Increment over step i, shape (n_paths, d)."""
        return self.brownian[i + 1] - self.brownian[i]

    def jump_increments(self, i: int) -> np.ndarray:
        """Jump counts per atom over step i, shape (n_paths, n_atoms)."""
        return self.count_nodes[i + 1] - self.count_nodes[i]

    def state(self, i: int) -> np.ndarray:
        """Markov state (W_{t_i}, N_{t_i}) per path, shape (n_paths, d + n_atoms)."""
        return np.concatenate([self.brownian[i], self.count_nodes[i].astype(float)], axis=1)


def simulate_paths(
    grid: TimeGrid,
    marks: FiniteMarkMeasure,
    brownian_dim: int,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> DrivingPaths:
    """Draw a path bundle.

    Brownian channels occupy stream channels 0..d-1, atoms d..d+J-1.
    ``path_offset`` generates paths [offset, offset + n_paths) of the
    notional full run, so chunked generation concatenates exactly.

    The work runs on two threads: this one draws the first half of the
    steps and one worker thread the second half, each step into its node
    of ``brownian`` and ``count_nodes``; then each thread sums one of the
    two stores in place.
    Every draw is keyed by its step, channel and path, so the bundle is
    the same bit for bit however the work is split; the worker ends with
    the call.  A jump mean too large for its Poisson table (see
    ``_poisson_cdf_table``) raises ``ValueError`` naming its step and atom.

    ``count_nodes`` is ``int32``: each step adds at most ``_POISSON_CAP``
    jumps per atom, so a grid of more than ``_MAX_STEPS`` steps, whose
    counts could overflow, is refused with ``ValueError``.
    """
    if brownian_dim < 1:
        raise ValueError("brownian_dim must be at least 1")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if grid.n_steps > _MAX_STEPS:
        raise ValueError(
            f"grid has {grid.n_steps} steps; int32 jump counts hold at most {_MAX_STEPS}"
        )
    key = StreamKey(seed)
    n_steps = grid.n_steps
    h = grid.steps
    d = brownian_dim
    J = marks.n_atoms

    # step i's draws go to node i + 1 and are summed in place afterwards
    W = np.zeros((n_steps + 1, n_paths, d))
    cum = np.zeros((n_steps + 1, n_paths, J), dtype=np.int32)

    def draw(first, stop):
        for i in range(first, stop):
            sqrt_h = np.sqrt(h[i])
            for c in range(d):
                W[i + 1, :, c] = sqrt_h * key.normals(i, c, n_paths, offset=path_offset)
            for j in range(J):
                u = key.uniforms(i, d + j, n_paths, offset=path_offset)
                try:
                    cum[i + 1, :, j] = poisson_counts(u, h[i] * marks.weights[j])
                except ValueError as exc:
                    raise ValueError(f"jump draw at step {i}, atom {j}: {exc}") from None

    def accumulate(first, stop):
        for nodes in (W, cum)[first:stop]:
            _accumulate(nodes)

    _on_two_threads(draw, n_steps)
    _on_two_threads(accumulate, 2)
    return DrivingPaths(grid=grid, marks=marks, brownian=W, count_nodes=cum)


def compensated_increment(counts: np.ndarray, h: float, marks: FiniteMarkMeasure) -> np.ndarray:
    """Compensated jump counts k_j - h * n_j per atom; shape follows ``counts``."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1] != marks.n_atoms:
        raise ValueError("counts last axis must match the number of atoms")
    return counts - h * marks.weights


def jump_norm2(u: np.ndarray, marks: FiniteMarkMeasure) -> float:
    """Squared intensity norm sum_j n_j |u_j|^2 of a per-atom integrand.

    ``u`` has shape (n_atoms,) for scalar equations or (n_atoms, m).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[0] != marks.n_atoms:
        raise ValueError("integrand first axis must match the number of atoms")
    return float(np.sum(marks.weights * np.sum(u * u, axis=1)))
