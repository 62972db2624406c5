"""Fixed reference kernels that measure the host's speed next to each operation.

The benchmark's host is a VM on a shared machine whose speed changes for
seconds to minutes at a time: code made of many small numpy calls runs up
to about 2x slower in a slow phase, large-array code about 1.25x slower.
A kernel is timed right before every operation and once after the last,
and each operation's time is scaled by ``nominal / measured`` of the
kernels on either side of it (README.md, "Noise").  A kernel calls numpy
only, never bsdelab, so no change to the program moves it.

Each kernel has the shape of one kind of work in the program, so that a
slow phase slows it about as much as the operations it is paired with:
``mixed`` for workloads of per-point geometry and certification calls with
some array work, ``large_arrays`` for simulation and regression,
``imports`` for set-up, which is almost all library import.
``NOMINAL_S`` is each kernel's time in a quiet phase of the baseline host
(BASELINE.md); it only sets the scale, so reported times read as seconds
on that host in a quiet phase.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_POINTS = np.random.default_rng(0).normal(scale=1.5, size=(12_000, 2))
_CENTER = np.zeros(2)
# written in place, so a kernel adds a fixed amount to the process's memory
# and never a passing peak; pages are touched only by the kernels a run uses
_MIXED = (np.empty((100_000, 6)), np.empty(100_000))
_LARGE = (np.empty((200_000, 6)), np.empty(200_000))


def small_calls() -> float:
    """Per-point projection onto the unit disc, one numpy call at a time."""
    start = time.perf_counter()
    for p in _POINTS:
        v = p - _CENTER
        norm = np.linalg.norm(v)
        if norm > 1.0:
            _CENTER + v * (1.0 / norm)
    return time.perf_counter() - start


def _draws_and_fit(buffers) -> float:
    x, y = buffers
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rng.standard_normal(out=x)
    rng.standard_normal(out=y)
    np.cumsum(y, out=y)
    np.linalg.solve(x.T @ x, x.T @ y)
    return time.perf_counter() - start


def large_arrays() -> float:
    """Gaussian draws, a cumulative sum and a normal-equations fit on a 200000x6 design."""
    return _draws_and_fit(_LARGE)


def mixed() -> float:
    """``small_calls`` then draws and a fit on 100000 rows, about 2:1 by time."""
    return small_calls() + _draws_and_fit(_MIXED)


_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import numpy, scipy.optimize; "
    "print(time.perf_counter() - start)"
)


def imports() -> float:
    """A fresh interpreter importing numpy and scipy.optimize, the libraries bsdelab loads."""
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=120, check=True
    )
    return float(child.stdout)


KERNELS = {"mixed": mixed, "large_arrays": large_arrays, "imports": imports}
NOMINAL_S = {"mixed": 0.051, "large_arrays": 0.027, "imports": 0.5}


def scaled(elapsed: float, kernel: str, before: float, after: float) -> float:
    """``elapsed`` at the nominal speed, given the kernel's times on either side."""
    return elapsed * NOMINAL_S[kernel] / (0.5 * (before + after))
