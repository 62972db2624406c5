"""Driving noise for backward equations with jumps.

A path bundle carries a d-dimensional Brownian motion together with a
Poisson random measure whose intensity is a finite sum of weighted atoms.
All randomness is derived from counter-based streams keyed by
(step, channel), so a simulation is reproducible draw-by-draw no matter
how the work is scheduled or chunked, and a bundle need store only some
of its nodes: the others are rebuilt from the keyed draws when read.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import operator
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "FiniteMarkMeasure",
    "TimeGrid",
    "StreamKey",
    "DrivingPaths",
    "PathSegment",
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


# each thread's Philox generator, see StreamKey._raw
_PHILOX = threading.local()


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
        # Philox makes its words in blocks of four, block b from counter b + 1:
        # start at block offset // 4 and discard the words before offset.  A
        # Philox built with a key still draws a seed from the OS, a system
        # call per stream that makes two drawing threads wait on each other
        # for the GIL, so each thread keeps one generator and sets its state.
        bg = getattr(_PHILOX, "generator", None)
        if bg is None:
            bg = _PHILOX.generator = np.random.Philox(key=key)
        bg.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([offset // 4, 0, 0, 0], dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        skip = offset % 4
        return bg.random_raw(count + skip)[skip:]

    def uniforms(self, step: int, channel: int, count: int, offset: int = 0) -> np.ndarray:
        """Draws in the open interval (0, 1); position k is draw offset + k."""
        return _open_uniforms(self._raw(step, channel, count, offset))

    def normals(self, step: int, channel: int, count: int, offset: int = 0) -> np.ndarray:
        u = self.uniforms(step, channel, count, offset)
        return ndtri(u, out=u)


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from raw 64-bit words: (top 53 bits + 1/2) 2^-53.

    For the top 53-bit value, 2^53 - 1/2 rounds to 2^53 and the formula
    gives 1.0; those words take the largest double below 1 instead.
    The uniforms take ``raw``'s memory: its words are shifted in place,
    then read as ``int64``, which converts to double exactly below 2^53
    and faster than ``uint64`` does.
    """
    np.right_shift(raw, np.uint64(11), out=raw)
    u = raw.view(np.float64)
    np.add(raw.view(np.int64), 0.5, out=u)
    u *= 2.0**-53
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


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; a float or another
    non-integer raises ``TypeError`` naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _stride(n_steps: int) -> int:
    """The checkpoint stride k = ceil(sqrt(N)) of a drawn bundle of N steps."""
    return math.isqrt(n_steps - 1) + 1


def _walk(key: StreamKey, grid: TimeGrid, marks: FiniteMarkMeasure, w, counts, first, stop, offset, out=None):
    """Nodes first + 1, ..., stop of the paths offset, offset + 1, ... from
    their node ``first``, ``w`` (n, d) and ``counts`` (n, J).

    Node i + 1 is node i plus step i's draws, one ``np.add`` per store, so a
    node walked to from any earlier one has the same bits.  Each node is
    written into the next pair of arrays that the iterator ``out`` gives,
    or into a new pair.  A jump mean too large for its Poisson table (see
    ``_poisson_cdf_table``) raises ``ValueError`` naming its step and atom.
    """
    (n, d), J = w.shape, counts.shape[1]
    steps = grid.steps
    for i in range(first, stop):
        h = steps[i]
        if out is None:
            dw, dk = np.empty((n, d)), np.empty((n, J), dtype=counts.dtype)
        else:
            dw, dk = next(out)
        sqrt_h = np.sqrt(h)
        for c in range(d):
            np.multiply(sqrt_h, key.normals(i, c, n, offset=offset), out=dw[:, c])
        for j in range(J):
            u = key.uniforms(i, d + j, n, offset=offset)
            try:
                dk[:, j] = poisson_counts(u, h * marks.weights[j])
            except ValueError as exc:
                raise ValueError(f"jump draw at step {i}, atom {j}: {exc}") from None
        w, counts = np.add(w, dw, out=dw), np.add(counts, dk, out=dk)
        yield w, counts


@dataclass(frozen=True)
class DrivingPaths:
    """Simulated noise bundle on a fixed grid, as node values, time-major,
    of which only every k-th node and node N are stored.

    brownian:     (S, n_paths, d) node values at the stored nodes, zero at t_0
    count_nodes:  (S, n_paths, n_atoms) integer cumulative counts there;
                  ``int32`` from :func:`simulate_paths`, any integer dtype
                  in a bundle built by hand
    key:          the streams the nodes were drawn from, or None
    path_offset:  the first path's position in those streams

    The stored nodes are ``stored_nodes``: 0, k, 2k, ... below N, then N.
    A bundle built by hand has no key and stores every node: k = 1 and
    S = N + 1.  A bundle from :func:`simulate_paths` has k = ceil(sqrt(N)),
    and rebuilds a node between two stored ones from the one before it
    with the same draws and adds that made it, so it reads the same bits.
    Segment s runs from stored node s to stored node s + 1, and step i
    reads nodes i and i + 1 of segment i // k.  Read the nodes in order
    through ``nodes()``, or a segment at a time through ``segment(s)``.
    """

    grid: TimeGrid
    marks: FiniteMarkMeasure
    brownian: np.ndarray
    count_nodes: np.ndarray = field(repr=False)
    key: StreamKey | None = None
    path_offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "path_offset", _count("path_offset", self.path_offset, 0))
        n_stored = len(self.stored_nodes)
        if self.brownian.ndim != 3 or self.brownian.shape[0] != n_stored:
            raise ValueError(f"brownian must have shape ({n_stored}, n_paths, d)")
        if self.count_nodes.shape != (n_stored, self.n_paths, self.marks.n_atoms):
            raise ValueError(
                f"count_nodes must have shape ({n_stored}, {self.n_paths}, {self.marks.n_atoms})"
            )
        if not np.issubdtype(self.count_nodes.dtype, np.integer):
            raise ValueError("count_nodes must have an integer dtype")

    @property
    def n_paths(self) -> int:
        return self.brownian.shape[1]

    @property
    def brownian_dim(self) -> int:
        return self.brownian.shape[2]

    @property
    def stride(self) -> int:
        """k: every k-th node is stored, and node N."""
        return 1 if self.key is None else _stride(self.grid.n_steps)

    @property
    def stored_nodes(self) -> list[int]:
        n_steps = self.grid.n_steps
        return [*range(0, n_steps, self.stride), n_steps]

    @property
    def n_segments(self) -> int:
        return self.brownian.shape[0] - 1

    def _walk(self, s: int, stop: int, out=None):
        """Nodes after stored node s, up to node ``stop``, rebuilt."""
        start = s * self.stride
        return _walk(
            self.key, self.grid, self.marks, self.brownian[s], self.count_nodes[s],
            start, stop, self.path_offset, out,
        )

    def segment(self, s: int, out=None) -> "PathSegment":
        """Segment s.  It rebuilds each node between the stored ones into
        the next pair of arrays, shapes (n_paths, d) and (n_paths, n_atoms),
        that the iterator ``out`` gives, or into a new pair."""
        if not 0 <= s < self.n_segments:
            raise IndexError(f"segment {s} out of range for {self.n_segments} segments")
        return PathSegment(self, s, out)

    def nodes(self):
        """Node values ``(brownian_i, counts_i)``, shapes (n_paths, d) and
        (n_paths, n_atoms), for i = 0, 1, ..., N in order.  A node between
        stored ones is rebuilt from the node before it, so the iteration
        holds two nodes at a time, not a segment."""
        for s in range(self.n_segments):
            yield self.brownian[s], self.count_nodes[s]
            yield from self._walk(s, min((s + 1) * self.stride, self.grid.n_steps) - 1)
        yield self.brownian[-1], self.count_nodes[-1]


class PathSegment:
    """Nodes ``first`` = s k to ``last`` = min(first + k, N) of a bundle:
    stored nodes s and s + 1, and the nodes between them, rebuilt in order,
    each when first read or ahead of that by ``extend``.  Steps first, ...,
    last - 1 read only these nodes.  ``seconds`` is the time spent
    rebuilding.  A segment is read by one thread at a time.
    """

    def __init__(self, paths: DrivingPaths, s: int, out=None):
        self.first = s * paths.stride
        self.last = min(self.first + paths.stride, paths.grid.n_steps)
        self.seconds = 0.0
        self._nodes = [(paths.brownian[s], paths.count_nodes[s])]
        self._rest = paths._walk(s, self.last - 1, out)
        self._end = (paths.brownian[s + 1], paths.count_nodes[s + 1])

    def release(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Node i's arrays, for a rebuilt node i that the segment will not
        be asked for again, so that the caller can write them."""
        if not self.first < i < self.last:
            raise IndexError(f"node {i} is not rebuilt in segment [{self.first}, {self.last}]")
        node, self._nodes[i - self.first] = self._nodes[i - self.first], None
        return node

    @property
    def complete(self) -> bool:
        """Whether every node between the stored ones is rebuilt."""
        return len(self._nodes) == self.last - self.first

    def extend(self) -> None:
        """Rebuild the next node between the stored ones, if one is left."""
        if self.complete:
            return
        started = time.perf_counter()
        self._nodes.append(next(self._rest))
        self.seconds += time.perf_counter() - started

    def node(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Node i's values ``(brownian_i, counts_i)``, first <= i <= last."""
        if not self.first <= i <= self.last:
            raise IndexError(f"node {i} is not in segment [{self.first}, {self.last}]")
        if i == self.last:
            return self._end
        while len(self._nodes) <= i - self.first:
            self.extend()
        if self._nodes[i - self.first] is None:
            raise ValueError(f"node {i} was released")
        return self._nodes[i - self.first]

    def brownian_increments(self, i: int) -> np.ndarray:
        """Increment over step i, shape (n_paths, d)."""
        return self.node(i + 1)[0] - self.node(i)[0]

    def jump_increments(self, i: int) -> np.ndarray:
        """Jump counts per atom over step i, shape (n_paths, n_atoms)."""
        return self.node(i + 1)[1] - self.node(i)[1]


def simulate_paths(
    grid: TimeGrid,
    marks: FiniteMarkMeasure,
    brownian_dim: int,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> DrivingPaths:
    """Draw a path bundle that stores every k-th node, k = ceil(sqrt(N)),
    and node N (see :class:`DrivingPaths`).

    Brownian channels occupy stream channels 0..d-1, atoms d..d+J-1.
    ``path_offset`` generates paths [offset, offset + n_paths) of the
    notional full run, so chunked generation concatenates exactly.
    ``brownian_dim``, ``n_paths`` and ``path_offset`` must be integers,
    the first two positive, the last nonnegative.

    The draw walks the grid forward, node i + 1 = node i + draw i, and
    never holds the full store.  It runs on two threads, each walking
    half of the paths: this one the first half, one worker thread the
    rest, each into its rows of the stored nodes.  Every draw is keyed by
    its step, channel and path, so the bundle is the same bit for bit
    however the work is split; the worker ends with the call.  A jump mean
    too large for its Poisson table (see ``_poisson_cdf_table``) raises
    ``ValueError`` naming its step and atom.

    ``count_nodes`` is ``int32``: each step adds at most ``_POISSON_CAP``
    jumps per atom, so a grid of more than ``_MAX_STEPS`` steps, whose
    counts could overflow, is refused with ``ValueError``.
    """
    d = _count("brownian_dim", brownian_dim, 1)
    n_paths = _count("n_paths", n_paths, 1)
    path_offset = _count("path_offset", path_offset, 0)
    if grid.n_steps > _MAX_STEPS:
        raise ValueError(
            f"grid has {grid.n_steps} steps; int32 jump counts hold at most {_MAX_STEPS}"
        )
    key = StreamKey(seed)
    n_steps, k, J = grid.n_steps, _stride(grid.n_steps), marks.n_atoms
    # node i is stored at slot i // k, and node N at the last slot
    n_stored = (n_steps - 1) // k + 2
    W = np.zeros((n_stored, n_paths, d))
    cum = np.zeros((n_stored, n_paths, J), dtype=np.int32)

    def draw(lo, hi):
        # node i + 1 is written while node i is read, so two arrays of each take turns
        ring = itertools.cycle(
            [(np.empty((hi - lo, d)), np.empty((hi - lo, J), dtype=np.int32)) for _ in range(2)]
        )
        nodes = _walk(key, grid, marks, W[0, lo:hi], cum[0, lo:hi], 0, n_steps, path_offset + lo, ring)
        for i, (w, counts) in enumerate(nodes, start=1):
            if i % k == 0 or i == n_steps:
                slot = -1 if i == n_steps else i // k
                W[slot, lo:hi], cum[slot, lo:hi] = w, counts

    _on_two_threads(draw, n_paths)
    return DrivingPaths(grid=grid, marks=marks, brownian=W, count_nodes=cum, key=key, path_offset=path_offset)


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
