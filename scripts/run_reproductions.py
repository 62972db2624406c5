#!/usr/bin/env python3
"""Run the pinned reproduction presets and summarize their verdicts.

Each preset is executed with its full workload by default, writing
tables, plots, and a manifest under ``runs/<name>``.  Use ``--paths``
or ``--steps`` to downscale every preset for a quick smoke run, and
``--only`` to restrict to a subset.  Each preset's summary line ends
with its table digest: the SHA-256 over the manifest's sorted
``(path, sha256)`` file records, ``manifest.json`` itself excluded, so
two runs wrote the same bytes exactly when their digests agree.  Under
its verdicts, a ``seconds`` line gives the manifest's wall-clock seconds
of the bundle draw, the backward pass (then every key of its split: the
worker's design and regression seconds, the main thread's wait for them
and its fit and driver seconds, the node reductions' seconds and the
seconds rebuilding the bundle's nodes between stored ones, ``redraw``)
and each check.
The tables do not depend on the BLAS thread count.  As in the ``bsdelab``
command, BLAS runs on one thread, where the backward pass is fastest,
unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` is set, and the summary prints the count used.  The
summary line also gives the peak resident memory (``ru_maxrss``) of the
whole process, so with one ``--only NAME`` it is that preset's own peak.
The exit code is 0 only when every check of every executed preset passed.
"""

import argparse
import hashlib
import os
import resource
import sys
import time
from pathlib import Path

# the checkout's own package comes first, so the script runs from a plain
# checkout as well as with the package installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bsdelab.__main__ import BLAS_VARS  # noqa: E402

# BLAS reads these when numpy loads, so they are set before any import of it
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

from bsdelab.cli import PRESET_NAMES, reproduce  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", action="append", choices=PRESET_NAMES, metavar="NAME",
        help="run only this preset (repeatable; default: all)",
    )
    parser.add_argument("--out", default="runs", help="root output directory (default runs/)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=None, help="override every preset seed")
    parser.add_argument("--paths", type=int, default=None, help="override every path count")
    parser.add_argument("--steps", type=int, default=None, help="override every step count")
    return parser.parse_args(argv)


def table_digest(manifest) -> str:
    records = sorted((rec["path"], rec["sha256"]) for rec in manifest.files)
    text = "".join(f"{sha}  {path}\n" for path, sha in records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seconds_line(seconds: dict) -> str:
    """The manifest's seconds: the draw and the backward pass when they ran,
    the pass's split, then each check without them."""
    parts = [(name, seconds[name]) for name in ("draw", "backward") if name in seconds]
    split = seconds.get("backward_split", {})
    parts += [(f"backward {name}", value) for name, value in split.items()]
    parts += [(entry["check"], entry["seconds"]) for entry in seconds["checks"]]
    return ", ".join(f"{name} {value:.3f}" for name, value in parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = args.only or list(PRESET_NAMES)
    failures = 0
    started = time.perf_counter()
    for name in names:
        out_dir = Path(args.out) / name
        manifest = reproduce(
            name, out_dir, fmt=args.fmt,
            seed=args.seed, paths=args.paths, steps=args.steps,
        )
        print(
            f"{name}  (seed {manifest.seed}, {manifest.wall_clock_seconds:.1f}s, {out_dir})"
            f"  tables {table_digest(manifest)}"
        )
        for row in manifest.verdicts:
            status = "PASS" if row["passed"] else "FAIL"
            print(f"  [{status}] {row['check']}: {row['detail']}")
        print("  seconds: " + seconds_line(manifest.seconds))
        failures += 0 if manifest.all_passed else 1
    elapsed = time.perf_counter() - started
    verdict = "all passed" if failures == 0 else f"{failures} preset(s) failed"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"\n{len(names)} preset(s) in {elapsed:.1f}s, peak RSS {peak_mb:.1f} MB: {verdict}")
    print("BLAS threads: " + ", ".join(f"{var}={os.environ[var]}" for var in BLAS_VARS))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
