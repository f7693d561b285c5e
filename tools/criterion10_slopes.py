"""Spread of criterion 10's slope over fresh processes.

Usage, from the root of a checkout:

    python tools/criterion10_slopes.py [--runs N] [CHECKOUT ...]

Each run is one ``python -m semismi`` with ARGV (the benchmark at sizes
100 to 800, seed 0) in a new process, on the ``src`` of a checkout: this
one when none is named.  With several checkouts the runs alternate between them
(run 1 on each, then run 2 on each, ...), so a change in load on the
machine falls on all of them alike.  For each checkout it prints every
slope, their median and quartiles, and how many fall below FLOOR.  The
slope varies from process to process, so one run says little; compare
the printed spreads.  Below them, one line per size gives the median
over runs of the per-iteration seconds each run kept (its
``benchmark.csv``), and then one line per run gives its slope next to
the per-iteration seconds it kept at each size, so a shift in the slope
can be traced to the sizes, and the runs, that moved.  Before those,
three lines give each run's voluntary and involuntary context switches
and its CPU/wall ratio, in the order of the slopes, from
``resource.getrusage(RUSAGE_CHILDREN)`` before and after the process,
so low slopes can be set against a process that waited or was
preempted more than the others.

ARGV and FLOOR define criterion 10: ``tests/test_acceptance.py::
test_criterion_10_iteration_cost_scales_quadratically`` runs ARGV and
requires a slope of at least FLOOR.
"""

from __future__ import annotations

import argparse
import csv
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["benchmark", "--sizes", "100,200,400,800", "--seed", "0"]
FLOOR = 1.6


def run(checkout: Path) -> tuple[float, dict, tuple]:
    """The slope one fresh ``semismi benchmark`` process reports on ``checkout``,
    the per-iteration seconds it kept for each size, and the process's
    (voluntary switches, involuntary switches, CPU/wall ratio)."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as out:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "semismi", *ARGV, "--out", out], env=env, check=True
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        usage = (after.ru_nvcsw - before.ru_nvcsw, after.ru_nivcsw - before.ru_nivcsw, cpu / wall)
        rows = csv.DictReader((Path(out) / "benchmark.csv").read_text().splitlines())
        seconds = {int(row["size"]): float(row["per_iteration_seconds"]) for row in rows}
        for line in (Path(out) / "result.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            if key == "slope":
                return float(value), seconds, usage
    raise RuntimeError("benchmark wrote no slope")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per checkout")
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    runs = {checkout: [] for checkout in args.checkouts}
    for _ in range(args.runs):
        for checkout in args.checkouts:
            runs[checkout].append(run(checkout))
    for checkout, results in runs.items():
        values = [value for value, _, _ in results]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        below = sum(value < FLOOR for value in values)
        voluntary, involuntary, ratios = zip(*(usage for _, _, usage in results))
        print(f"{checkout}")
        print("  slopes: " + " ".join(f"{value:.3f}" for value in values))
        print(f"  median {median:.3f}, quartiles {q1:.3f} {q3:.3f}")
        print(f"  below {FLOOR}: {below} of {len(values)}")
        print("  voluntary switches: " + " ".join(map(str, voluntary)))
        print("  involuntary switches: " + " ".join(map(str, involuntary)))
        print("  cpu/wall: " + " ".join(f"{ratio:.2f}" for ratio in ratios))
        for size in results[0][1]:
            seconds = np.median([per_size[size] for _, per_size, _ in results])
            print(f"  size {size}: median per-iteration {seconds:.3e} s")
        for k, (value, per_size, _) in enumerate(results, start=1):
            sizes = ", ".join(f"{size} {seconds:.3e}" for size, seconds in per_size.items())
            print(f"  run {k}: slope {value:.3f}; per-iteration s at {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
