"""``tools/acceptance_digests.py`` runs every acceptance command line cleanly
and prints digests that a second run reproduces."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "acceptance_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("acceptance_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_acceptance_digests_run_every_command_line_and_repeat(tmp_path):
    # as a user runs it: from the checkout, with no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    printed = subprocess.run(
        [sys.executable, str(TOOL)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert printed.returncode == 0, printed.stdout + printed.stderr
    lines = printed.stdout.splitlines()

    runs = _load_tool().run_all(tmp_path)
    assert [code for code, _ in runs] == [0] * 7
    assert all(outputs for _, outputs in runs)
    # every deterministic output has the digest the other process printed
    expected = {
        f"{k} {name} {digest[:12]}"
        for k, (_, outputs) in enumerate(runs, start=1)
        for name, (digest, deterministic) in outputs.items()
        if deterministic
    }
    assert expected <= set(lines)
    assert len(lines) == sum(len(outputs) for _, outputs in runs)
