"""scipy loads only where a plan is rounded to an assignment.

The pytest process itself has scipy loaded (tests use it as an oracle),
so the check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import sys
from pathlib import Path

import semismi
import semismi.cli
from semismi import (CvGrid, EstimatorConfig, SyntheticSpec, cross_validate, fit, generate,
                     smi_estimate)


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out = Path(sys.argv[1])
data = generate(SyntheticSpec(kind="linear", n=8, n_x=30, n_y=30, seed=1))
config = EstimatorConfig(n_basis=10, seed=1)
result = fit(data, config)
smi_estimate(result.model, data)
cross_validate(data, config, CvGrid(seed=1))
for argv in (
    ["estimate", "--synthetic", "linear", "--n", "8", "--nx", "30", "--ny", "30",
     "--b", "10", "--save-plan"],
    ["generate", "--synthetic", "pca", "--n", "5", "--nx", "9", "--ny", "7"],
    ["benchmark", "--sizes", "20,40", "--repeats", "1"],
):
    assert semismi.cli.main([*argv, "--out", str(out / argv[0])]) == 0, argv
assert not loaded(), loaded()[:10]

argv = ["match", "--synthetic", "nonlinear", "--n", "6", "--nx", "20", "--ny", "20",
        "--b", "10", "--lambda", "0.01", "--beta", "0.5"]
assert semismi.cli.main([*argv, "--out", str(out / "match")]) == 0
assert "scipy.optimize" in sys.modules, loaded()[:10]
print("ok")
"""


def test_only_rounding_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
