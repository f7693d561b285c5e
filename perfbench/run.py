"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cv_estimate --seed 1 --seconds 30 --trace 0

Each workload runs in its own worker process (``worker.py``), so peak
RSS belongs to that workload alone.  Set-up time is measured from the
spawn of a worker to its ``ready`` line, over several workers: all but
the last stop after set-up, the last goes on to measure.  The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The full result, with the
environment, every operation and (when traced) every span, is written
under ``.perfbench/results/`` in the repository root.

Exits non-zero without a result line when any worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

#: Workers timed for set-up per run; the median is reported.
SETUP_SAMPLES = 3
#: A run that has not finished by then is killed and reports nothing.
DEADLINE_S = 170.0

WORKLOADS = ("cv_estimate", "large_fit", "cli_match")

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, workdir: Path, result: Path | None, deadline: float):
    """Spawn a worker; return (process, set-up seconds, kill timer)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--result", str(result)] if result else ["--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    for line in proc.stdout:
        if line.strip() == "ready":
            return proc, time.perf_counter() - start, timer
    finish_worker(proc, timer)
    raise WorkerFailed(f"worker exited with code {proc.returncode} before set-up finished")


def finish_worker(proc, timer) -> None:
    try:
        proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORKDIR / f"work-{os.getpid()}"
    results = WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    setups = []
    try:
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            shutil.rmtree(workdir, ignore_errors=True)
            proc, setup_s, timer = start_worker(args, workdir, result_path if last else None, deadline)
            setups.append(setup_s)
            finish_worker(proc, timer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_samples_s"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    result["path"] = str(result_path.relative_to(ROOT))
    return result


def report(args, result: dict) -> dict:
    env = result["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    e2e = result["end_to_end"]
    print(f"workload {result['workload']} seed {result['seed']}: {result['attempted']} operations, "
          f"{result['failed']} failed (error_rate {result['failed'] / result['attempted']:.4g}), "
          f"op_s is the median of {e2e['op_count']}")
    for rec in result["operations"]:
        if rec["failed"]:
            print(f"failed operation on input {rec['key']}: {'; '.join(rec['problems'])}")
    for problem in result["problems"]:
        print(f"trace problem: {problem}")
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"full result: {result['path']}")
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one semismi benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (WorkerFailed, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = report(args, result)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
