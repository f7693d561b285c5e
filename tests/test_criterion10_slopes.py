"""``tools/criterion10_slopes.py`` runs the benchmark in a fresh process
and prints the slopes with their summary, the run's process figures and
each run's per-size seconds."""

import os
import re
import subprocess
import sys
from pathlib import Path

from criterion10_slopes import ARGV, FLOOR

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "criterion10_slopes.py"


def test_one_run_prints_its_slope_and_summary():
    # as a user runs it: from the checkout, with no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    printed = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert printed.returncode == 0, printed.stdout + printed.stderr
    lines = printed.stdout.splitlines()
    assert len(lines) == 12
    assert Path(lines[0]) == ROOT
    (slope,) = re.fullmatch(r"  slopes: (\S+)", lines[1]).groups()
    # one run: the median and both quartiles are that slope
    assert lines[2] == f"  median {slope}, quartiles {slope} {slope}"
    assert lines[3] == f"  below {FLOOR}: {int(float(slope) < FLOOR)} of 1"
    assert 0.5 < float(slope) < 3.0
    # the run's context switches and CPU/wall ratio
    assert re.fullmatch(r"  voluntary switches: \d+", lines[4])
    assert re.fullmatch(r"  involuntary switches: \d+", lines[5])
    (ratio,) = re.fullmatch(r"  cpu/wall: (\S+)", lines[6]).groups()
    assert 0.0 < float(ratio) <= os.cpu_count() + 0.01
    # then each size's per-iteration seconds, in ARGV's order
    sizes = ARGV[ARGV.index("--sizes") + 1].split(",")
    for line, size in zip(lines[7:11], sizes):
        (seconds,) = re.fullmatch(rf"  size {size}: median per-iteration (\S+) s", line).groups()
        assert 0.0 < float(seconds) < 1.0
    # and each run's slope beside its own per-size seconds, which with
    # one run are the medians above
    medians = [line.split()[-2] for line in lines[7:11]]
    per_run = ", ".join(f"{size} {seconds}" for size, seconds in zip(sizes, medians))
    assert lines[11] == f"  run 1: slope {slope}; per-iteration s at {per_run}"
