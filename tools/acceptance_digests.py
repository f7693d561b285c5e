"""Run the seven acceptance command lines and print each output's digest.

Usage, from the root of a checkout:

    python tools/acceptance_digests.py

The command lines cover the CLI commands whose outputs are deterministic:

1. ``estimate`` on synthetic linear data, with CV and ``--save-plan``;
2. ``estimate`` from 24-row tables with 6 known pairs, pinned;
3. ``match`` from the same tables with truth and labels, with CV;
4. ``match`` on synthetic nonlinear data, pinned, Hungarian rounding;
5. ``summarize --grid 3x4`` with 5 anchors, with CV;
6. ``summarize --grid 3x4`` without anchors, pinned;
7. ``generate --synthetic pca``.

The input tables of 2, 3, 5 and 6 are built from fixed seeds in a
temporary directory, so every checkout runs the same inputs.  Each
command runs in-process through ``semismi.cli.main`` on the checkout's
own ``src``.  One line is printed per output file,
``<number> <file> <first 12 hex digits of its sha256>``, followed by a
``(nondeterministic)`` mark for outputs the manifest does not promise
to reproduce.  Comparing the printouts of two checkouts shows which
outputs moved.  ``tools/acceptance_digests.txt`` holds the printout that
``tests/test_acceptance_digests.py`` expects; a change that moves an
output on purpose updates it.  Exits 1 when any command line exits
non-zero.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def _table(path: Path, array) -> str:
    np.savetxt(path, np.asarray(array), delimiter=",", fmt="%.17e")
    return str(path)


def _inputs(folder: Path) -> dict:
    """The tables argv 2, 3, 5 and 6 read, from fixed seeds."""
    rng = np.random.default_rng(20)
    base = rng.standard_normal((24, 1))
    x = np.hstack([base, base + 0.3 * rng.standard_normal((24, 1))])
    y = base + 0.3 * rng.standard_normal((24, 1))
    labels = "".join("pos\n" if v > 0 else "neg\n" for v in base[:, 0])
    (folder / "lx.txt").write_text(labels)
    (folder / "ly.txt").write_text(labels)
    return {
        "x": _table(folder / "x.csv", x),
        "y": _table(folder / "y.csv", y),
        "paired": _table(folder / "paired.csv", [[i, i] for i in range(6)]),
        "truth": _table(folder / "truth.csv", [[i, i] for i in range(6, 24)]),
        "lx": str(folder / "lx.txt"),
        "ly": str(folder / "ly.txt"),
        "items": _table(folder / "items.csv", np.random.default_rng(21).standard_normal((12, 3))),
        "anchors": _table(folder / "anchors.csv", [[0, 0], [3, 3], [5, 8], [7, 11], [9, 5]]),
    }


def command_lines(folder: Path) -> list[list[str]]:
    """The seven argv, without ``--out``, reading tables built in ``folder``."""
    t = _inputs(folder)
    tables = ["--x", t["x"], "--y", t["y"], "--paired", t["paired"]]
    return [
        ["estimate", "--synthetic", "linear", "--n", "12", "--nx", "40", "--ny", "40",
         "--b", "16", "--seed", "3", "--save-plan"],
        ["estimate", *tables, "--lambda", "0.01", "--beta", "0.5", "--save-plan"],
        ["match", *tables, "--truth", t["truth"], "--labels-x", t["lx"], "--labels-y", t["ly"],
         "--b", "12", "--save-plan"],
        ["match", "--synthetic", "nonlinear", "--n", "6", "--nx", "20", "--ny", "20",
         "--b", "10", "--lambda", "0.01", "--beta", "0.5"],
        ["summarize", "--items", t["items"], "--grid", "3x4", "--anchors", t["anchors"],
         "--b", "8"],
        ["summarize", "--items", t["items"], "--grid", "3x4", "--b", "8",
         "--lambda", "0.01", "--beta", "0.0"],
        ["generate", "--synthetic", "pca", "--n", "5", "--nx", "9", "--ny", "7"],
    ]


def run_all(workdir: Path) -> list[tuple[int, dict]]:
    """Run every command line under ``workdir``.

    Returns one (exit code, outputs) pair per command line, where
    outputs maps each file the manifest lists to (sha256, deterministic).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from semismi.cli import main

    folder = workdir / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    runs = []
    for k, argv in enumerate(command_lines(folder), start=1):
        out = workdir / f"argv{k}"
        code = main([*argv, "--out", str(out)])
        outputs = {}
        if code == 0:
            manifest = json.loads((out / "manifest.json").read_text())
            for name, rec in sorted(manifest["outputs"].items()):
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                outputs[name] = (digest, rec["deterministic"])
        runs.append((code, outputs))
    return runs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_all(Path(tmp))
    failed = False
    for k, (code, outputs) in enumerate(runs, start=1):
        if code != 0:
            print(f"{k} exited with code {code}")
            failed = True
        for name, (digest, deterministic) in outputs.items():
            print(f"{k} {name} {digest[:12]}" + ("" if deterministic else " (nondeterministic)"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
