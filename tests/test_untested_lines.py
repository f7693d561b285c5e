"""``tools/untested_lines.py`` lists the statements a test run did not execute."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "untested_lines.py"
KERNELS = ROOT / "src" / "semismi" / "kernels.py"

SMALL_TEST = '''
import numpy as np

from semismi.kernels import as_points


def test_a_vector_becomes_a_column():
    assert as_points(np.zeros(3)).shape == (3, 1)
'''


def _line_of(source_lines, text):
    (number,) = [k for k, line in enumerate(source_lines, start=1) if line.strip() == text]
    return number


def test_untested_lines_lists_what_a_small_test_file_leaves_out(tmp_path):
    test_file = tmp_path / "test_small.py"
    test_file.write_text(SMALL_TEST)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    printed = subprocess.run(
        [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", str(test_file)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert printed.returncode == 0, printed.stdout + printed.stderr
    listed = [line for line in printed.stdout.splitlines() if line.startswith("src/")]

    kernels = KERNELS.read_text().splitlines()
    reshape = _line_of(kernels, "pts = pts.reshape(-1, 1)")
    rejected = _line_of(kernels, 'raise ValueError(f"{name} must be 1-D or 2-D, got shape {pts.shape}")')
    assert f"src/semismi/kernels.py:{rejected}: {kernels[rejected - 1].strip()}" in listed
    assert not any(line.startswith(f"src/semismi/kernels.py:{reshape}:") for line in listed)
    # neither the def line of as_points, its docstring, nor an import is listed
    assert not any(re.search(r":\d+: (def |class |import |from |\"\"\")", line) for line in listed)

    # one count per module, matching the statements listed for it
    counts = [line for line in listed if re.fullmatch(r"src/semismi/\w+\.py: \d+ untested statements", line)]
    modules = sorted(KERNELS.parent.glob("*.py"))
    assert len(counts) == len(modules)
    for module in modules:
        name = f"src/semismi/{module.name}"
        n = sum(line.startswith(f"{name}:") and line not in counts for line in listed)
        assert f"{name}: {n} untested statements" in counts
    # importing the package runs no solve
    first_statement = ": n_x, n_y = blocks.K.shape[1], blocks.L.shape[1]"
    assert any(line.endswith(first_statement) for line in listed)
