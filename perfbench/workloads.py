"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs in ``__init__`` (timed as set-up) and runs
one round of operations in ``round``.  An operation is one call into the
public API: a ``bsdelab.cli.reproduce`` preset or one certification
verdict.  ``kernel`` names the reference kernel (reference.py) shaped like
the workload's work; with ``scale_by_kernel`` each operation's time is
scaled by it.  Every operation's output is checked; a failed check or an
exception counts the operation as failed and never stops the run.
README.md says why each workload exists.
"""

from __future__ import annotations

import numpy as np

# checkers are called through their module, so a traced run sees the wrapped entries
from bsdelab import conditions
from bsdelab.generators import AffineGen, ProjectionDriftGen, ScaledJumpGen
from bsdelab.geometry import PsdCone
from bsdelab.stochastic import FiniteMarkMeasure

DEFAULT_SEED = 7
UNIT_MARKS = FiniteMarkMeasure([[1.0]], [1.0])
# sup over the sampled viability inequality of ProjectionDriftGen: 4 for any body
EXACT_DRIFT_CONSTANT = 4.0
DRIFT_CONSTANT_CAP = 4.01


def sub_seed(pinned: int, seed: int) -> int:
    """Seed of one input: ``pinned`` at the default workload seed, distinct otherwise."""
    return pinned + 1000 * ((seed - DEFAULT_SEED) % 100_000)


def _rows(manifest) -> dict:
    return {row["check"]: row for row in manifest.verdicts}


def _manifest_problems(manifest) -> list[str]:
    return [
        f"{row['check']}: {row['outcome']} ({row['detail']})"
        for row in manifest.verdicts
        if not row["passed"]
    ]


def _verdict_problems(verdict, expect: str) -> list[str]:
    if verdict.outcome != expect:
        return [f"outcome {verdict.outcome}, expected {expect} ({verdict.detail})"]
    if verdict.falsified and not verdict.replay()["violated"]:
        return ["falsified witness does not replay to a violation"]
    return []


class BallDrift:
    """``reproduce("example28")``: disc viability verdict plus the projected-drift solve."""

    name = "ball_drift"
    kernel = "mixed"
    scale_by_kernel = True

    def __init__(self, seed: int, tiny: bool):
        # 6000 paths, not the preset's 100k: many short rounds a run, each
        # short enough that the kernels on either side see the host's speed
        self.paths, self.steps = (2_000, 10) if tiny else (6_000, 50)
        self.seed = sub_seed(7, seed)

    def round(self, runner) -> None:
        runner.reproduce(
            "example28", paths=self.paths, steps=self.steps, seed=self.seed, solves=1,
            check=self._check,
        )

    @staticmethod
    def _check(manifest, runner) -> list[str]:
        rows = _rows(manifest)
        runner.note("max_mean_dist", rows["viability-empirical"]["value"])
        runner.note("cert_const_err", abs(rows["viability"]["value"] - EXACT_DRIFT_CONSTANT))
        return _manifest_problems(manifest)


class JumpSolve:
    """``reproduce("remark34b")`` then ``reproduce("thm25-demo")``: solver and simulator, no projection."""

    name = "jump_solve"
    kernel = "large_arrays"
    # a round is two long operations; a kernel timed at their edges samples the
    # host at the wrong moments, and slow phases barely touch large-array work
    scale_by_kernel = False

    def __init__(self, seed: int, tiny: bool):
        # remark34b keeps its pinned seed and full size: its |Y0 + 1| <= 0.02
        # acceptance is tuned to that bundle (README.md, "Seeds")
        self.r34b_paths = 40_000 if tiny else 200_000
        self.r34b_seed = 2024
        self.thm25_seed = sub_seed(11, seed)

    def round(self, runner) -> None:
        runner.reproduce(
            "remark34b", paths=self.r34b_paths, steps=50, seed=self.r34b_seed, solves=3,
            check=self._check_remark34b,
        )
        runner.reproduce(
            "thm25-demo", paths=20_000, steps=20, seed=self.thm25_seed, solves=1,
            check=lambda manifest, _runner: _manifest_problems(manifest),
        )

    @staticmethod
    def _check_remark34b(manifest, runner) -> list[str]:
        # closed form Y0 = 1 - c at scale c = 2
        runner.note("y0_abs_err", abs(_rows(manifest)["solve"]["value"] + 1.0))
        return _manifest_problems(manifest)


def random_affine_pair(rng: np.random.Generator, sound: bool) -> tuple[AffineGen, AffineGen]:
    """Criterion-10 driver pair: sound pairs are ordered, unsound ones break one coupling.

    Draws in the same order as the acceptance test, so the default seed
    gives criterion 10's first pairs.
    """
    m = 2
    a = rng.uniform(-1.0, 1.0, (m, m))
    a[0, 1] = abs(a[0, 1])
    a[1, 0] = abs(a[1, 0])
    b = np.zeros((m, m, 1))
    b[0, 0, 0] = rng.uniform(-1, 1)
    b[1, 1, 0] = rng.uniform(-1, 1)
    c = np.zeros((1, m, m))
    c[0, 0, 0] = rng.uniform(-0.95, 1.0)
    c[0, 1, 1] = rng.uniform(-0.95, 1.0)
    shift = rng.uniform(0.0, 1.0, m)
    reference = AffineGen(a, b, c, np.zeros(m), 1, UNIT_MARKS)
    if sound:
        return AffineGen(a, b, c, shift, 1, UNIT_MARKS), reference
    kind = int(rng.integers(3))
    a2, b2, c2 = a.copy(), b.copy(), c.copy()
    if kind == 0:
        a2[0, 1] = -2.0
    elif kind == 1:
        b2[0, 1, 0] = 1.5
    else:
        c2[0, 0, 0] = -2.5
    return AffineGen(a2, b2, c2, shift, 1, UNIT_MARKS), reference


class CertifySweep:
    """Certification verdicts only: criterion-10 pairs, projected drift on the PSD cone, criterion-3 scales."""

    name = "certify_sweep"
    kernel = "mixed"
    scale_by_kernel = True
    M1_SCALES = (0.0, 0.5, 1.0, 1.5, 2.0)

    def __init__(self, seed: int, tiny: bool):
        n_pairs = 1 if tiny else 4
        rng = np.random.default_rng(sub_seed(7, seed))
        self.pairs = []
        for i in range(n_pairs):
            sound = i % 2 == 0
            f1, f2 = random_affine_pair(rng, sound)
            stacked, orthant = conditions.stacked_reduction(f1, f2)
            self.pairs.append((i, sound, f1, f2, stacked, orthant))
        self.seed = seed
        self.m1 = [(c, ScaledJumpGen(c)) for c in self.M1_SCALES]
        # criteria 3 and 4 sample at seed 0
        self.sampler_seed = sub_seed(0, seed)
        # the criterion-6 polygon is left out: README.md, "Workloads"
        self.cone = PsdCone(2)
        self.drift = ProjectionDriftGen(self.cone, 1, UNIT_MARKS)

    def round(self, runner) -> None:
        for c, gen in self.m1:
            expect = "certified" if c <= 1.0 else "falsified"
            runner.verdict(
                f"m1-c{c}", lambda gen=gen: conditions.check_comparison_m1(gen, gen, n_samples=1500, seed=self.sampler_seed),
                lambda v, _runner, expect=expect: _verdict_problems(v, expect),
            )
        runner.verdict(
            "drift-psd",
            lambda: conditions.check_viability_condition(
                self.drift, self.cone, n_samples=500, seed=self.sampler_seed
            ),
            self._check_drift,
        )
        for i, sound, f1, f2, stacked, orthant in self.pairs:
            expect = "certified" if sound else "falsified"
            direct = runner.verdict(
                f"pair{i}-direct",
                lambda f1=f1, f2=f2, i=i: conditions.check_comparison_multidim(
                    f1, f2, n_samples=1500, seed=sub_seed(100 + i, self.seed), c_max=500.0
                ),
                lambda v, _runner, expect=expect: _verdict_problems(v, expect),
            )
            runner.verdict(
                f"pair{i}-stacked",
                lambda stacked=stacked, orthant=orthant, i=i: conditions.check_viability_condition(
                    stacked, orthant, n_samples=2000, seed=sub_seed(200 + i, self.seed), c_max=500.0
                ),
                lambda v, _runner, expect=expect, direct=direct: _verdict_problems(v, expect)
                + ([] if direct is None or direct.outcome == v.outcome else ["routes disagree"]),
            )

    @staticmethod
    def _check_drift(verdict, runner) -> list[str]:
        problems = _verdict_problems(verdict, "certified")
        if not problems:
            runner.note("cert_const_err", abs(verdict.constant - EXACT_DRIFT_CONSTANT))
            if verdict.constant > DRIFT_CONSTANT_CAP:
                problems.append(f"constant {verdict.constant} above {DRIFT_CONSTANT_CAP}")
        return problems


WORKLOADS = {w.name: w for w in (BallDrift, JumpSolve, CertifySweep)}
