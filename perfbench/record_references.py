"""Record the reference outputs every benchmark operation is checked against.

Runs each workload's operation once on every input of its pool and
writes ``references.json`` next to this file.  The references belong to
the commit that defined the benchmark; re-recording them at a later
commit would hide exactly the output changes they exist to catch.

Usage, from the root of the repository:

    python3 perfbench/record_references.py [workload ...]
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from worker import ROOT, import_semismi


def main(names) -> int:
    import_semismi()
    import workloads

    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    workdir = ROOT / ".perfbench" / "references"
    try:
        for name in names or workloads.WORKLOADS:
            workload = workloads.WORKLOADS[name]
            refs[name] = {}
            for item in workload.all_items(workdir):
                start = time.perf_counter()
                outputs = workload.run(item)
                refs[name][item["key"]] = workload.reference(outputs)
                problems = workload.check(item, outputs, refs[name][item["key"]])
                workload.cleanup(item, outputs)
                print(f"{name} {item['key']}: {refs[name][item['key']]} "
                      f"({time.perf_counter() - start:.2f} s)", flush=True)
                if problems:
                    print(f"{name} {item['key']} fails its checks: {problems}", file=sys.stderr)
                    return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
