"""Check every input of perfbench's workloads against its recorded reference.

Usage, from the root of a checkout:

    python tools/check_references.py [WORKLOAD ...]

For each named workload (all of them when none is named), it runs the
workload's own operation on every input of its pool and checks the
outputs with the workload's own check against
``perfbench/references.json``, as a timed perfbench run does for the
few inputs its seed picks.  It only reads the references, never writes
them.  It prints each failing input with its problems, then for each
workload a count of failing inputs and the largest relative deviation
of an SMI from its reference among the inputs that pass, so a change
that moves outputs on purpose can say how far they moved, not only
whether they failed.  Exits 1 on any problem.
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


class _Recording:
    """``workload`` whose check also keeps the SMI of the outputs it checks."""

    def __init__(self, workload):
        self.workload = workload
        self.smi = {}

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def check(self, item, outputs, ref):
        self.smi[item["key"]] = self.workload.reference(outputs)["smi"]
        return self.workload.check(item, outputs, ref)


def problems(workload, items, deviations: dict | None = None) -> dict:
    """The problems of each input of ``items`` that fails, by its key.

    When ``deviations`` is a dict, it receives |SMI - reference| / reference
    for every input whose outputs were checked against a reference.
    """
    refs = workloads.load_references().get(workload.name, {})
    recording = _Recording(workload)
    failing = {}
    for op_id, item in enumerate(items):
        record = worker.run_one(recording, item, refs, op_id)
        if record["failed"]:
            failing[item["key"]] = record["problems"]
    if deviations is not None:
        for key, smi in recording.smi.items():
            ref = refs[key]["smi"]
            deviations[key] = abs(smi - ref) / ref if ref else abs(smi - ref)
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
            deviations = {}
            failing = problems(workload, items, deviations)
        for key, found in failing.items():
            print(f"{name} {key}: {'; '.join(found)}")
        passing = [dev for key, dev in deviations.items() if key not in failing]
        largest = f"{max(passing):.3e}" if passing else "none"
        print(
            f"{name}: {len(failing)} of {len(items)} inputs fail; largest relative SMI "
            f"deviation of a passing input {largest}",
            flush=True,
        )
        failed += len(failing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
