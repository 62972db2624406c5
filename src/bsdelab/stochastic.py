"""Driving noise for backward equations with jumps.

A path bundle carries a d-dimensional Brownian motion together with a
Poisson random measure whose intensity is a finite sum of weighted atoms.
All randomness is derived from counter-based streams keyed by
(step, channel), so a simulation is reproducible draw-by-draw no matter
how the work is scheduled or chunked.
"""

from __future__ import annotations

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
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        object.__setattr__(self, "master_seed", int(self.master_seed))

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
        raw = self._raw(step, channel, count, offset)
        return ((raw >> np.uint64(11)) + 0.5) * 2.0**-53

    def normals(self, step: int, channel: int, count: int, offset: int = 0) -> np.ndarray:
        return ndtri(self.uniforms(step, channel, count, offset))


def _poisson_cdf_table(mean: float, tail: float = 1e-16, cap: int = 400) -> np.ndarray:
    """CDF values P(X <= k) until the remaining tail is below ``tail``."""
    pmf = np.exp(-mean)
    cdf = [pmf]
    k = 0
    while 1.0 - cdf[-1] > tail and k < cap:
        k += 1
        pmf *= mean / k
        cdf.append(cdf[-1] + pmf)
    return np.asarray(cdf)


def poisson_counts(u: np.ndarray, mean: float) -> np.ndarray:
    """Invert uniforms through the Poisson(mean) CDF.

    Uniforms below P(X = 0), most of them at a small mean, give 0 without a
    search; only the rest are searched in the table.
    """
    cdf = _poisson_cdf_table(mean)
    counts = np.zeros(np.shape(u), dtype=np.int64)
    fired = u >= cdf[0]
    counts[fired] = np.minimum(np.searchsorted(cdf, u[fired], side="right"), cdf.shape[0] - 1)
    return counts


def _accumulate(steps: np.ndarray, nodes: np.ndarray) -> None:
    """nodes[i + 1] = nodes[i] + steps[i] along the leading (time) axis.

    Each step adds one contiguous block of a time-major buffer; the same
    sums as ``np.cumsum(steps, axis=0)``, which walks every path down a
    strided column.
    """
    for i in range(steps.shape[0]):
        np.add(nodes[i], steps[i], out=nodes[i + 1])


@dataclass(frozen=True)
class DrivingPaths:
    """Simulated noise bundle on a fixed grid.

    brownian:     (n_paths, N + 1, d) node values, zero at t_0
    jump_counts:  (n_paths, N, n_atoms) counts per step and atom
    count_nodes:  (n_paths, N + 1, n_atoms) cumulative counts at nodes

    ``simulate_paths`` stores all three time-major, as (N + 1, n_paths, d)
    and so on, and these shapes are transposed views of that storage: a
    per-step slice such as ``brownian[:, i]`` or ``state(i)`` is one
    contiguous block, which is what the backward pass reads.  A reshape
    that merges the path and time axes copies the whole array; reshape
    ``a.transpose(1, 0, 2)`` instead.  Path-major arrays built by hand
    work too, only more slowly.
    """

    grid: TimeGrid
    marks: FiniteMarkMeasure
    brownian: np.ndarray
    jump_counts: np.ndarray
    count_nodes: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.count_nodes is None:
            cum = np.zeros(
                (self.grid.n_steps + 1, self.n_paths, self.marks.n_atoms), dtype=np.int64
            )
            _accumulate(self.jump_counts.transpose(1, 0, 2), cum)
            object.__setattr__(self, "count_nodes", cum.transpose(1, 0, 2))

    @property
    def n_paths(self) -> int:
        return self.brownian.shape[0]

    @property
    def brownian_dim(self) -> int:
        return self.brownian.shape[2]

    def brownian_increments(self, i: int) -> np.ndarray:
        """Increment over step i, shape (n_paths, d)."""
        return self.brownian[:, i + 1, :] - self.brownian[:, i, :]

    def state(self, i: int) -> np.ndarray:
        """Markov state (W_{t_i}, N_{t_i}) per path, shape (n_paths, d + n_atoms)."""
        return np.concatenate(
            [self.brownian[:, i, :], self.count_nodes[:, i, :].astype(float)], axis=1
        )


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
    """
    if brownian_dim < 1:
        raise ValueError("brownian_dim must be at least 1")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    key = StreamKey(seed)
    n_steps = grid.n_steps
    h = grid.steps
    d = brownian_dim
    J = marks.n_atoms

    # time-major storage: step i of every path is one contiguous block
    dW = np.empty((n_steps, n_paths, d))
    counts = np.empty((n_steps, n_paths, J), dtype=np.int64)
    for i in range(n_steps):
        sqrt_h = np.sqrt(h[i])
        for c in range(d):
            dW[i, :, c] = sqrt_h * key.normals(i, c, n_paths, offset=path_offset)
        for j in range(J):
            u = key.uniforms(i, d + j, n_paths, offset=path_offset)
            counts[i, :, j] = poisson_counts(u, h[i] * marks.weights[j])

    W = np.zeros((n_steps + 1, n_paths, d))
    _accumulate(dW, W)
    return DrivingPaths(
        grid=grid, marks=marks,
        brownian=W.transpose(1, 0, 2), jump_counts=counts.transpose(1, 0, 2),
    )


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
