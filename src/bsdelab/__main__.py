"""The ``bsdelab`` command, also run as ``python -m bsdelab``.

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
or ``MKL_NUM_THREADS`` is set: the backward pass's fits and its worker
thread's regression step are faster on one BLAS thread than sharing a pool
of two.  BLAS reads these variables when numpy loads, so ``main`` sets them
before it imports the command line module; importing this module sets
nothing.  The scripts under ``scripts/`` read ``BLAS_VARS`` from here before
numpy loads, so this module imports only ``os`` and ``sys``.
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
