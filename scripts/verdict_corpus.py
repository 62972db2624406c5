#!/usr/bin/env python3
"""Run a fixed corpus of 609 certification verdicts and digest them.

The corpus: criterion 10's driver pairs (``perfbench/workloads.py``'s
``random_affine_pair``) at rng seeds 7, 8 and 9, 100 pairs each with the
even pairs sound, each pair by both routes with criterion 10's budgets;
criterion 4's disc verdict; the projection drift on ``PsdCone(2)`` at
seeds 0, 1 and 2, on the box [-1, 1]^2 and on the criterion-6 polygon;
the matrix comparison of two zero drivers; the constant push (1, 0) on
the unit disc; and the quadratic clause of ``check_structural`` on a
diagonal, monotone driver.

Each verdict is written as one JSON line, its name, ``to_dict()`` and
``replay()`` (null without a witness), to ``--out``.  The script prints
the outcome counts and the SHA-256 of that file, so two checkouts give
the same verdicts, witnesses and replays exactly when their digests agree.
It exits 1 when a falsified witness does not replay to a violation.
"""

import argparse
import collections
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the checkout's own package and benchmark come first
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from bsdelab.__main__ import BLAS_VARS  # noqa: E402

# BLAS reads these when numpy loads, so they are set before any import of it
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from workloads import UNIT_MARKS, random_affine_pair  # noqa: E402

from bsdelab import conditions  # noqa: E402
from bsdelab.generators import AffineGen, ProjectionDriftGen, ZeroGen  # noqa: E402
from bsdelab.geometry import Ball, Box, HalfspaceIntersection, PsdCone  # noqa: E402
from bsdelab.stochastic import FiniteMarkMeasure  # noqa: E402

MARKS2 = FiniteMarkMeasure([[1.0], [-1.0]], [1.0, 0.5])


def corpus():
    """(name, verdict thunk) for every verdict, in a fixed order."""
    for rng_seed in (7, 8, 9):
        rng = np.random.default_rng(rng_seed)
        for i in range(100):
            f1, f2 = random_affine_pair(rng, i % 2 == 0)
            stacked, orthant = conditions.stacked_reduction(f1, f2)
            yield f"c10-rng{rng_seed}-pair{i}-direct", lambda f1=f1, f2=f2, i=i: (
                conditions.check_comparison_multidim(f1, f2, n_samples=1500, seed=100 + i, c_max=500.0)
            )
            yield f"c10-rng{rng_seed}-pair{i}-stacked", lambda g=stacked, body=orthant, i=i: (
                conditions.check_viability_condition(g, body, n_samples=2000, seed=200 + i, c_max=500.0)
            )

    disc = Ball(np.zeros(2), 1.0)
    yield "c4-disc", lambda: conditions.check_viability_condition(
        ProjectionDriftGen(disc, 1, UNIT_MARKS), disc, n_samples=4000, seed=0, c_max=4.01
    )
    cone = PsdCone(2)
    for seed in (0, 1, 2):
        yield f"drift-psd-seed{seed}", lambda seed=seed: conditions.check_viability_condition(
            ProjectionDriftGen(cone, 1, UNIT_MARKS), cone, n_samples=500, seed=seed
        )
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    yield "drift-box", lambda: conditions.check_viability_condition(
        ProjectionDriftGen(box, 1, UNIT_MARKS), box, n_samples=1000, seed=0
    )
    zero = ZeroGen(3, 1, UNIT_MARKS)
    yield "matrix-zero", lambda: conditions.check_comparison_matrix(zero, zero, side=2, n_samples=800, seed=0)
    push = AffineGen(
        np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
        np.array([1.0, 0.0]), brownian_dim=2, marks=MARKS2,
    )
    yield "push-disc", lambda: conditions.check_viability_condition(push, disc, n_samples=800, seed=1)
    b = np.zeros((2, 2, 1))
    b[0, 0, 0], b[1, 1, 0] = 0.7, -0.4
    c = np.zeros((1, 2, 2))
    c[0, 0, 0], c[0, 1, 1] = -0.5, 0.3
    diagonal = AffineGen([[-0.3, 0.2], [0.1, -0.5]], b, c, np.zeros(2), brownian_dim=1, marks=UNIT_MARKS)
    yield "structural-quadratic", lambda: conditions.check_structural(diagonal, n_samples=800, seed=0).quadratic
    polygon = HalfspaceIntersection(
        normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
        offsets=[1.5, 1.5, 1.0, 1.2, 1.8],
    )
    yield "drift-polygon", lambda: conditions.check_viability_condition(
        ProjectionDriftGen(polygon, brownian_dim=2, marks=MARKS2), polygon, n_samples=400, seed=0
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/verdict_corpus.jsonl", help="JSON-lines output file")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    outcomes = collections.Counter()
    unreplayed = []
    started = time.perf_counter()
    with out.open("w", encoding="utf-8") as f:
        for name, run in corpus():
            verdict = run()
            replay = None if verdict.witness is None else verdict.replay()
            outcomes[verdict.outcome] += 1
            if verdict.falsified and not replay["violated"]:
                unreplayed.append(name)
            record = {"name": name, "verdict": verdict.to_dict(), "replay": replay}
            f.write(json.dumps(record, sort_keys=True) + "\n")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    counts = ", ".join(f"{outcome} {count}" for outcome, count in sorted(outcomes.items()))
    print(f"{sum(outcomes.values())} verdicts in {time.perf_counter() - started:.1f}s: {counts}")
    for name in unreplayed:
        print(f"  falsified witness does not replay: {name}")
    print(f"sha256 {digest}  {out}")
    return 1 if unreplayed else 0


if __name__ == "__main__":
    sys.exit(main())
