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
the printed spreads.

ARGV and FLOOR define criterion 10: ``tests/test_acceptance.py::
test_criterion_10_iteration_cost_scales_quadratically`` runs ARGV and
requires a slope of at least FLOOR.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["benchmark", "--sizes", "100,200,400,800", "--seed", "0"]
FLOOR = 1.6


def slope(checkout: Path) -> float:
    """The slope one fresh ``semismi benchmark`` process reports on ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, "-m", "semismi", *ARGV, "--out", out], env=env, check=True
        )
        for line in (Path(out) / "result.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            if key == "slope":
                return float(value)
    raise RuntimeError("benchmark wrote no slope")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per checkout")
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    slopes = {checkout: [] for checkout in args.checkouts}
    for _ in range(args.runs):
        for checkout in args.checkouts:
            slopes[checkout].append(slope(checkout))
    for checkout, values in slopes.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        below = sum(value < FLOOR for value in values)
        print(f"{checkout}")
        print("  slopes: " + " ".join(f"{value:.3f}" for value in values))
        print(f"  median {median:.3f}, quartiles {q1:.3f} {q3:.3f}")
        print(f"  below {FLOOR}: {below} of {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
