"""Check every input of perfbench's workloads against its recorded reference.

Usage, from the root of a checkout:

    python tools/check_references.py [WORKLOAD ...]

For each named workload (all of them when none is named), it runs the
workload's own operation on every input of its pool and checks the
outputs with the workload's own check against
``perfbench/references.json``, as a timed perfbench run does for the
few inputs its seed picks.  It only reads the references, never writes
them.  It prints each failing input with its problems, then a count for
each workload, and exits 1 on any problem.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402

worker.import_semismi()

import workloads  # noqa: E402


def problems(workload, items) -> dict:
    """The problems of each input of ``items`` that fails, by its key."""
    refs = workloads.load_references().get(workload.name, {})
    failing = {}
    for op_id, item in enumerate(items):
        record = worker.run_one(workload, item, refs, op_id)
        if record["failed"]:
            failing[item["key"]] = record["problems"]
    return failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workloads", nargs="*", metavar="WORKLOAD",
        help=f"one of {', '.join(workloads.WORKLOADS)} (default: all)",
    )
    names = parser.parse_args(argv).workloads or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}")
    failed = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as workdir:
            items = workload.all_items(Path(workdir))
            failing = problems(workload, items)
        for key, found in failing.items():
            print(f"{name} {key}: {'; '.join(found)}")
        print(f"{name}: {len(failing)} of {len(items)} inputs fail", flush=True)
        failed += len(failing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
