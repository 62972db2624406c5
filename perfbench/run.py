#!/usr/bin/env python3
"""bsdelab benchmark: one workload, one process, one operation at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ball_drift --seed 7 --seconds 35 --trace 0

The run builds its inputs from ``--seed``, times that set-up in fresh child
processes, then repeats the workload's round of operations in a closed loop
until ``--seconds`` would be exceeded; a round is never cut, and at least
one runs.  A fixed reference kernel timed next to every operation and set-up
measures the host's speed, and scales the times of set-up and of the
workloads that ask for it (reference.py).  Every operation's
output is checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count operations,
and ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  The lines before it
record the environment and every figure of the run.  README.md explains
the workloads and how to read a trace.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = "1"
# BLAS reads these when numpy loads, so they are set before any import of it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# results never depend on it, and the default single worker is what is measured
os.environ.pop("BSDELAB_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
SETUP_KERNEL = "imports"  # set-up is almost all library import

# per-layer metrics that some workload exercises; README.md, "Reading a trace"
GEOMETRY_CALLS = (
    ("Ball", ("project", "dist2", "hess_dist2", "dist_batch")),
    ("OrthantProduct", ("project", "dist2", "hess_dist2")),
    ("PsdCone", ("project", "dist2", "hess_dist2")),
    ("FinitePointSet", ("dist_batch",)),
)
# certifiers that evaluate their inequality through the *_lhs_rhs functions
LHS_RHS_CERTIFIERS = ("check_viability_condition", "check_comparison_multidim")
CERTIFIERS = LHS_RHS_CERTIFIERS + ("check_comparison_m1",)
CHECKERS = CERTIFIERS + ("check_viability_empirical", "empirical_comparison")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7, the pinned one)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first operation's output before it is checked")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of this process and exit (child runs)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bsdelab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "bsdelab_workers": os.environ.get("BSDELAB_WORKERS", "unset"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def measure_setup(args, reference) -> tuple[float, list[float]]:
    """Median set-up time over fresh child processes, each at nominal host speed."""
    kernel = reference.KERNELS[SETUP_KERNEL]
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    raw, scaled = [], []
    before = kernel()
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        elapsed = json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]
        after = kernel()
        raw.append(elapsed)
        scaled.append(reference.scaled(elapsed, SETUP_KERNEL, before, after))
        before = after
    return statistics.median(scaled), raw


def corrupt(result):
    """A wrong output for the fault-injection self-test."""
    from bsdelab.cli import RunManifest

    if isinstance(result, RunManifest):
        result.verdicts[0] = dict(result.verdicts[0], passed=False)
    else:
        result.outcome = "inconclusive"
    return result


class Runner:
    """Runs operations, times them, checks their outputs and counts failures."""

    def __init__(self, tracer, work_dir: Path, digests: dict, inject: bool, reference, kernel: str,
                 scale: bool):
        self.tracer = tracer
        self.reference = reference
        self.kernel_name = kernel
        self.kernel = reference.KERNELS[kernel]
        self.scale = scale
        self.ref_s: list[float] = []  # kernel before each operation, and after the last
        self.ops: list[tuple[str, float]] = []  # (name, seconds) of each operation
        self.work_dir = work_dir
        self.digests = digests  # operation -> digest of its output, per seed
        self.inject = inject
        self.attempted = self.failed = 0
        self.round_s: list[float] = []
        self.path_steps = self.verdicts = 0  # per round
        self.notes: dict[str, float] = {}
        self.op_s: dict[str, float] = {}  # operation -> seconds over the run
        self._current = 0.0

    def note(self, name: str, value: float) -> None:
        """Keep the worst (largest) value of an accuracy figure."""
        self.notes[name] = max(self.notes.get(name, 0.0), float(value))

    def begin_round(self) -> None:
        self._current = 0.0
        self.path_steps = self.verdicts = 0

    def end_round(self) -> None:
        self.round_s.append(self._current)

    def wall_s(self) -> tuple[float, float]:
        """A round's time, scaled to nominal host speed and as measured.

        Each is the sum over the round's operations of the operation's median
        over the rounds, so a slow moment costs one operation, not a round.
        Times the kernel once more, after the last operation.
        """
        self.ref_s.append(self.kernel())
        raw: dict[str, list[float]] = {}
        scaled: dict[str, list[float]] = {}
        for k, (name, elapsed) in enumerate(self.ops):
            raw.setdefault(name, []).append(elapsed)
            scaled.setdefault(name, []).append(self.reference.scaled(
                elapsed, self.kernel_name, self.ref_s[k], self.ref_s[k + 1]
            ) if self.scale else elapsed)
        return tuple(sum(statistics.median(v) for v in times.values()) for times in (scaled, raw))

    def _run(self, name: str, call, check, digest_of):
        self.attempted += 1
        self.ref_s.append(self.kernel())
        with self.tracer.operation(name):
            self.tracer.active = self.tracer.installed
            start = time.perf_counter()
            try:
                result = call()
                error = None
            except Exception:  # an operation that raises is a failed operation
                result, error = None, traceback.format_exc()
            finally:
                elapsed = time.perf_counter() - start
                self.tracer.active = False
                self._current += elapsed
                self.ops.append((name, elapsed))
                self.op_s[name] = self.op_s.get(name, 0.0) + elapsed
        if error is None:
            try:
                problems = self._digest_problems(name, digest_of(result))
                if self.inject:
                    self.inject = False
                    result = corrupt(result)
                problems += check(result, self)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            print(f"FAILED {name}: " + "; ".join(p.strip() for p in problems), file=sys.stderr)
            return None
        return result

    def _digest_problems(self, name: str, digest) -> list[str]:
        seen = self.digests.setdefault(name, digest)
        return [] if seen == digest else [f"output differs from an earlier run of this seed: {name}"]

    def reproduce(self, preset: str, *, paths: int, steps: int, seed: int, solves: int, check):
        # looked up per call, so a traced run sees the wrapped entry
        from bsdelab.cli import reproduce

        self.path_steps += solves * paths * steps
        return self._run(
            preset,
            lambda: reproduce(preset, self.work_dir / preset, paths=paths, steps=steps, seed=seed),
            check,
            lambda manifest: {f["path"]: f["sha256"] for f in manifest.files},
        )

    def verdict(self, name: str, call, check):
        self.verdicts += 1
        return self._run(
            name, call, check,
            lambda v: hashlib.sha256(json.dumps(v.to_dict(), sort_keys=True).encode()).hexdigest(),
        )


class _NoTracer:
    installed = False
    active = False

    def operation(self, name):
        return contextlib.nullcontext()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, rounds: int, round_mean: float, calib_s: float) -> dict:
    def per_round(x):
        return x / rounds

    out = {}

    def entry(key: str, *fields: str):
        calls, total, own, work = tracer.get(key)
        values = {"calls": (calls, "count"), "s": (total, "s"), "self_s": (own, "s")}
        for f in fields:
            v, unit = values[f]
            out[f"{key}.{f}"] = metric(per_round(v), unit)
        return work, total

    draws, sim_s = entry("stochastic.simulate_paths", "s", "calls")
    out["stochastic.draws_per_s"] = metric(draws / sim_s if sim_s else 0.0, "1/s")

    entry("solver.solve_backward", "s", "calls", "self_s")
    cells, _ = entry("solver.design_matrix", "s")
    out["solver.design_matrix.cells"] = metric(per_round(cells), "count")

    rows, _ = entry("generators.call", "s", "calls")
    out["generators.call.rows"] = metric(per_round(rows), "count")
    entry("generators.evaluate", "s", "calls")

    for body, methods in GEOMETRY_CALLS:
        for method in methods:
            entry(f"geometry.{body}.{method}", "calls", "s")
    entry("geometry.jump_defect", "calls", "s")
    out["geometry.self_s"] = metric(per_round(tracer.total("geometry.", 2)), "s")

    for name in CHECKERS:
        entry(f"conditions.{name}", "s", "calls")
    entry("conditions.sampler", "s")
    entry("conditions.lhs_rhs", "calls", "s")
    verdicts = sum(tracer.get(f"conditions.{n}")[0] for n in LHS_RHS_CERTIFIERS)
    evals = tracer.get("conditions.lhs_rhs")[0]
    out["conditions.evals_per_verdict"] = metric(evals / verdicts if verdicts else 0.0, "evals/verdict")
    engine_self = sum(tracer.get(f"conditions.{n}")[2] for n in CERTIFIERS)
    out["conditions.engine.self_s"] = metric(per_round(engine_self), "s")

    entry("cli.reproduce", "s")
    out["cli.self_s"] = metric(per_round(tracer.get("cli.reproduce")[2]), "s")

    attributed = per_round(tracer.total("", 2))
    out["env.calib_s"] = metric(calib_s, "s")
    out["trace.round_s"] = metric(round_mean, "s")
    out["trace.unattributed_s"] = metric(round_mean - attributed, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bsdelab" / "__init__.py").is_file():
        print(f"error: bsdelab sources not found under {SRC}", file=sys.stderr)
        return 2

    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import scipy
    import workloads
    import_s = time.perf_counter() - import_start

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    build_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": import_s + build_s}))
        return 0

    import reference

    setup_s, setup_raw_s = measure_setup(args, reference)
    env = environment(np, scipy)

    OUT.mkdir(exist_ok=True)
    # outputs are compared only while both the program and the inputs are unchanged
    code = env["source_sha256"] + (BENCH_DIR / "workloads.py").read_text()
    code_key = hashlib.sha256(code.encode()).hexdigest()[:16]
    digest_file = OUT / "digests" / code_key / f"{args.workload}-{args.size}-seed{args.seed}.json"
    digests = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
    work_dir = OUT / f"work-{os.getpid()}"

    if args.trace:
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    else:
        tracer = _NoTracer()
    runner = Runner(tracer, work_dir, digests, args.inject_fault, reference, workload.kernel,
                    workload.scale_by_kernel)
    loop_start = time.perf_counter()
    try:
        while True:
            runner.begin_round()
            workload.round(runner)
            runner.end_round()
            elapsed = time.perf_counter() - loop_start
            per_round = elapsed / len(runner.round_s)
            if elapsed + per_round > args.seconds:
                break
    finally:
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    if not args.inject_fault and runner.failed == 0:
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    rounds = len(runner.round_s)
    wall_s, wall_raw_s = runner.wall_s()
    calib_s = statistics.median(runner.ref_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "wall_s": metric(wall_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    if runner.path_steps:
        report["path_steps_per_s"] = metric(runner.path_steps / wall_s, "1/s")
    if runner.verdicts:
        report["verdicts_per_s"] = metric(runner.verdicts / wall_s, "1/s")
    for name, value in sorted(runner.notes.items()):  # accuracy figures, dimensionless
        report[name] = metric(value, "1")
    report["ops_failed"] = metric(runner.failed, "count")
    report["ops_total"] = metric(runner.attempted, "count")
    report["wall_raw_s"] = metric(wall_raw_s, "s")
    report["setup_raw_s"] = metric(statistics.median(setup_raw_s), "s")
    report["env.calib_s"] = metric(calib_s, "s")

    print("# env " + json.dumps(env, sort_keys=True))
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "rounds": rounds, "round_s": runner.round_s, "op_s": runner.op_s,
        "kernel": workload.kernel, "ref_s": runner.ref_s, "setup_raw_s": setup_raw_s,
        "report": report,
    }))

    if args.trace:
        metrics = layer_metrics(tracer, rounds, statistics.fmean(runner.round_s), calib_s)
        trace_file = OUT / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "report": report, "metrics": metrics,
            "aggregates": {k: dict(zip(("calls", "s", "self_s", "work"), v))
                           for k, v in sorted(tracer.stats.items())},
            "spans": tracer.spans,
        }, indent=1) + "\n")
        print(f"# trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {k: report[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
