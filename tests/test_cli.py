"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` so exit codes and file outputs
are exercised exactly as a shell user would see them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semismi
from semismi.cli import main


def _write_table(path, array):
    np.savetxt(path, np.asarray(array), delimiter=",", fmt="%.17e")
    return str(path)


def _read_record(path):
    record = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        record[key] = value
    return record


PIPELINE_TIMINGS = {"load_seconds", "cv_seconds", "fit_seconds", "write_seconds"}


def _timing_keys(out):
    return set(json.loads((out / "manifest.json").read_text())["timings"])


def test_python_dash_m_runs_the_cli_without_install():
    # only the source tree on the path, as in a fresh checkout
    src = str(Path(semismi.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "semismi", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "benchmark" in proc.stdout


# ----------------------------------------------------------------- estimate


def test_estimate_synthetic_pinned(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "estimate", "--out", str(out), "--synthetic", "linear",
            "--n", "10", "--nx", "30", "--ny", "30", "--b", "16",
            "--lambda", "0.01", "--beta", "0.8", "--seed", "1",
        ]
    )
    assert code == 0
    record = _read_record(out / "result.txt")
    assert float(record["smi"]) >= 0.0
    assert record["cv"] == "false"
    assert not (out / "cv.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert "result.txt" in manifest["outputs"]
    assert set(manifest["timings"]) == PIPELINE_TIMINGS


def test_estimate_runs_cv_when_params_omitted(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "estimate", "--out", str(out), "--synthetic", "linear",
            "--n", "10", "--nx", "25", "--ny", "25", "--b", "12",
            "--seed", "0",
        ]
    )
    assert code == 0
    record = _read_record(out / "result.txt")
    assert record["cv"] == "true"
    assert float(record["lambda"]) in (0.1, 0.01, 0.001, 0.0001)
    assert float(record["beta"]) in (0.2, 0.4, 0.6, 0.8, 1.0)
    cv_lines = (out / "cv.csv").read_text().splitlines()
    assert cv_lines[0] == "lambda,beta,score"
    assert len(cv_lines) == 1 + 4 * 5


def test_estimate_saves_feasible_plan(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "estimate", "--out", str(out), "--synthetic", "random",
            "--n", "6", "--nx", "14", "--ny", "9", "--b", "8",
            "--lambda", "0.01", "--beta", "0.5", "--save-plan",
        ]
    )
    assert code == 0
    plan = np.loadtxt(out / "plan.csv", delimiter=",")
    assert plan.shape == (14, 9)
    np.testing.assert_allclose(plan.sum(axis=1), 1 / 14, atol=1e-6)
    np.testing.assert_allclose(plan.sum(axis=0), 1 / 9, atol=1e-6)


def test_estimate_from_files_with_pair_index(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal((20, 1))
    x_path = _write_table(tmp_path / "x.csv", x)
    y_path = _write_table(tmp_path / "y.csv", y)
    pairs = _write_table(tmp_path / "pairs.csv", [[0, 1], [2, 3], [4, 5], [6, 7]])
    out = tmp_path / "run"
    code = main(
        [
            "estimate", "--out", str(out), "--x", x_path, "--y", y_path,
            "--paired", pairs, "--b", "8", "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 0
    record = _read_record(out / "result.txt")
    assert record["n"] == "4"
    assert record["n_x"] == "16"
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["inputs"]) == 3


def test_estimate_input_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["estimate", "--out", str(out), "--synthetic", "linear", "--x", "x.csv"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["estimate", "--out", str(out), "--x", "missing.csv"])
    assert code == 2


@pytest.mark.parametrize(
    "rows",
    [[[0, 0], [0, 1]], [[1.7, 1.2]]],
    ids=["repeated-row", "fractional"],
)
def test_estimate_rejects_bad_pair_index(tmp_path, rows):
    x_path = _write_table(tmp_path / "x.csv", np.arange(5.0))
    y_path = _write_table(tmp_path / "y.csv", np.arange(5.0))
    pairs = _write_table(tmp_path / "pairs.csv", rows)
    code = main(
        ["estimate", "--out", str(tmp_path / "o"), "--x", x_path, "--y", y_path,
         "--paired", pairs, "--lambda", "0.01", "--beta", "1.0"]
    )
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lambda", "inf"), ("--epsilon", "inf")])
def test_estimate_rejects_non_finite_weights(tmp_path, capsys, flag, value):
    argv = ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "12", "--nx", "30", "--ny", "30", "--b", "10",
            "--lambda", "0.01", "--beta", "0.5", flag, value]
    assert main(argv) == 2
    field = {"--lambda": "lam", "--epsilon": "epsilon"}[flag]
    assert f"error: {field} must be" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("ridge system remained singular after jitter; increase lam")

    monkeypatch.setattr("semismi.cli.fit", singular)
    argv = ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "6", "--nx", "10", "--ny", "10", "--b", "4",
            "--lambda", "0.01", "--beta", "0.5"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ridge system")


def test_result_objective_trace_is_a_list_of_numbers(tmp_path):
    # written as plain floats at full precision, not as numpy scalar reprs
    out = tmp_path / "run"
    argv = ["estimate", "--out", str(out), "--synthetic", "linear",
            "--n", "10", "--nx", "30", "--ny", "30", "--b", "16",
            "--lambda", "0.01", "--beta", "0.8", "--seed", "1"]
    assert main(argv) == 0
    from semismi import EstimatorConfig, SyntheticSpec, fit, generate

    data = generate(SyntheticSpec("linear", 10, 30, 30, seed=1))
    result = fit(data, EstimatorConfig(n_basis=16, lam=0.01, beta=0.8, seed=1))
    written = [float(v) for v in _read_record(out / "result.txt")["objective_trace"].split(",")]
    assert written == result.objective_trace.tolist()


def test_estimate_names_the_table_with_a_nan(tmp_path, capsys):
    x = np.arange(6.0)
    x[4] = np.nan
    x_path = _write_table(tmp_path / "x.csv", x)
    y_path = _write_table(tmp_path / "y.csv", np.arange(6.0))
    pairs = _write_table(tmp_path / "pairs.csv", [[0, 0], [1, 1]])
    code = main(
        ["estimate", "--out", str(tmp_path / "o"), "--x", x_path, "--y", y_path,
         "--paired", pairs, "--lambda", "0.01", "--beta", "0.5"]
    )
    assert code == 2
    assert f"error: {x_path}: non-finite entry (NaN or inf) in data row 5" in capsys.readouterr().err


# -------------------------------------------------------------------- match


def test_match_writes_assignment(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "match", "--out", str(out), "--synthetic", "linear",
            "--n", "6", "--nx", "12", "--ny", "12", "--b", "10",
            "--lambda", "0.01", "--beta", "0.5", "--method", "greedy",
        ]
    )
    assert code == 0
    lines = (out / "assignment.csv").read_text().splitlines()
    assert lines[0] == "x_row,y_row"
    assert len(lines) == 13
    xs = [int(line.split(",")[0]) for line in lines[1:]]
    assert len(set(xs)) == 12
    assert _timing_keys(out) == PIPELINE_TIMINGS


def test_match_scores_truth_and_labels(tmp_path):
    rng = np.random.default_rng(1)
    base = rng.standard_normal((16, 1))
    x = np.hstack([base, base])          # 2-d x features
    y = base.copy()                      # y aligned row-for-row
    x_path = _write_table(tmp_path / "x.csv", x)
    y_path = _write_table(tmp_path / "y.csv", y)
    pairs = _write_table(tmp_path / "pairs.csv", [[0, 0], [1, 1], [2, 2], [3, 3]])
    truth = _write_table(tmp_path / "truth.csv", [[i, i] for i in range(4, 16)])
    labels = "\n".join("pos" if v > 0 else "neg" for v in base[:, 0]) + "\n"
    (tmp_path / "lx.txt").write_text(labels)
    (tmp_path / "ly.txt").write_text(labels)
    out = tmp_path / "run"
    code = main(
        [
            "match", "--out", str(out), "--x", x_path, "--y", y_path,
            "--paired", pairs, "--truth", truth,
            "--labels-x", str(tmp_path / "lx.txt"),
            "--labels-y", str(tmp_path / "ly.txt"),
            "--b", "12", "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 0
    record = _read_record(out / "result.txt")
    assert 0.0 <= float(record["top1_accuracy"]) <= 1.0
    assert float(record["top2_accuracy"]) >= float(record["top1_accuracy"])
    assert 0.0 <= float(record["class_accuracy"]) <= 1.0
    assert record["plan_feasible"] == "true"
    # assignment refers to original table rows, all unpaired
    lines = (out / "assignment.csv").read_text().splitlines()[1:]
    rows = {int(line.split(",")[0]) for line in lines}
    assert rows.isdisjoint({0, 1, 2, 3})


def test_match_rejects_short_label_file(tmp_path, capsys):
    x_path = _write_table(tmp_path / "x.csv", np.arange(8.0))
    y_path = _write_table(tmp_path / "y.csv", np.arange(8.0))
    pairs = _write_table(tmp_path / "pairs.csv", [[0, 0], [1, 1]])
    (tmp_path / "lx.txt").write_text("a\n" * 8)
    (tmp_path / "ly.txt").write_text("a\n" * 5)
    code = main(
        [
            "match", "--out", str(tmp_path / "o"), "--x", x_path, "--y", y_path,
            "--paired", pairs,
            "--labels-x", str(tmp_path / "lx.txt"),
            "--labels-y", str(tmp_path / "ly.txt"),
            "--b", "4", "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 2
    assert "--labels-y" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label_args, message",
    [
        (["--labels-x", "lx.txt", "--labels-y", "ly.txt"], "--labels-y has 5 labels for a table of 8 rows"),
        (["--labels-x", "lx.txt"], "--labels-x and --labels-y must be given together"),
    ],
    ids=["short-file", "one-sided"],
)
def test_match_checks_label_files_before_fitting(tmp_path, capsys, label_args, message):
    # no --paired: the fit itself would fail, so only a load-time check
    # can name the label flags
    x_path = _write_table(tmp_path / "x.csv", np.arange(8.0))
    y_path = _write_table(tmp_path / "y.csv", np.arange(8.0))
    (tmp_path / "lx.txt").write_text("a\n" * 8)
    (tmp_path / "ly.txt").write_text("a\n" * 5)
    label_args = [str(tmp_path / arg) if arg.endswith(".txt") else arg for arg in label_args]
    code = main(
        ["match", "--out", str(tmp_path / "o"), "--x", x_path, "--y", y_path, "--b", "4"]
        + label_args
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_match_checks_truth_file_before_fitting(tmp_path, capsys):
    x_path = _write_table(tmp_path / "x.csv", np.arange(8.0))
    y_path = _write_table(tmp_path / "y.csv", np.arange(8.0))
    truth = _write_table(tmp_path / "truth.csv", [[0, 0, 0], [1, 1, 1]])
    code = main(
        [
            "match", "--out", str(tmp_path / "o"), "--x", x_path, "--y", y_path,
            "--truth", truth, "--b", "4",
        ]
    )
    assert code == 2
    assert "--truth file must have two columns" in capsys.readouterr().err


# ---------------------------------------------------------------- summarize


def test_summarize_grid_layout(tmp_path):
    rng = np.random.default_rng(2)
    items = _write_table(tmp_path / "items.csv", rng.standard_normal((6, 3)))
    anchors = _write_table(tmp_path / "anchors.csv", [[0, 0]])
    out = tmp_path / "run"
    code = main(
        [
            "summarize", "--out", str(out), "--items", items,
            "--grid", "2x3", "--anchors", anchors,
            "--b", "6", "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 0
    lines = (out / "placements.csv").read_text().splitlines()
    assert lines[0] == "position_index,item_index"
    assert lines[1] == "0,0"  # the anchor stayed put
    assert len(lines) == 7
    record = _read_record(out / "result.txt")
    assert record["placed"] == "6"
    assert record["unplaced"] == "0"
    assert (out / "unplaced.csv").read_text() == "item_index\n"
    assert _timing_keys(out) == PIPELINE_TIMINGS


def test_summarize_cv_rejects_bad_anchor_item(tmp_path, capsys):
    items = _write_table(tmp_path / "items.csv", np.zeros((12, 2)))
    anchors = _write_table(tmp_path / "anchors.csv", [[0, 0], [1, 1], [2, 2], [40, 3]])
    code = main(
        ["summarize", "--out", str(tmp_path / "o"), "--items", items,
         "--grid", "3x4", "--anchors", anchors, "--b", "4"]
    )
    assert code == 2
    assert "anchor item index 40" in capsys.readouterr().err


def test_summarize_surplus_items_reported(tmp_path):
    rng = np.random.default_rng(3)
    items = _write_table(tmp_path / "items.csv", rng.standard_normal((5, 2)))
    out = tmp_path / "run"
    code = main(
        [
            "summarize", "--out", str(out), "--items", items, "--grid", "2x2",
            "--b", "4", "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 0
    unplaced = (out / "unplaced.csv").read_text().splitlines()
    assert unplaced[0] == "item_index"
    assert len(unplaced) == 2


def test_summarize_grid_argument_errors(tmp_path, capsys):
    items = _write_table(tmp_path / "items.csv", np.zeros((3, 2)))
    base = ["summarize", "--out", str(tmp_path / "o"), "--items", items,
            "--lambda", "0.01", "--beta", "0.5"]
    assert main(base) == 2                       # neither --grid nor --grid-file
    assert main(base + ["--grid", "4"]) == 2     # malformed shape
    assert main(base + ["--grid", "0x3"]) == 2   # empty side
    capsys.readouterr()
    # both flags: the conflict is reported before the grid file is read
    assert main(base + ["--grid", "3x4", "--grid-file", str(tmp_path / "missing.csv")]) == 2
    assert "summarize needs exactly one of --grid RxC or --grid-file" in capsys.readouterr().err


# ----------------------------------------------------------------- generate


def test_generate_round_trips_exactly(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["generate", "--out", str(out), "--synthetic", "nonlinear",
         "--n", "5", "--nx", "8", "--ny", "7", "--seed", "9"]
    )
    assert code == 0
    from semismi import SyntheticSpec, generate

    data = generate(SyntheticSpec("nonlinear", 5, 8, 7, seed=9))
    for name, block in (
        ("paired_x.csv", data.paired_x),
        ("paired_y.csv", data.paired_y),
        ("unpaired_x.csv", data.unpaired_x),
        ("unpaired_y.csv", data.unpaired_y),
    ):
        loaded = np.loadtxt(out / name, delimiter=",", ndmin=2)
        np.testing.assert_array_equal(loaded, block)
    assert _timing_keys(out) == {"generate_seconds", "write_seconds"}


def test_generate_requires_kind(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------- benchmark


def test_benchmark_writes_sweep_and_slope(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["benchmark", "--out", str(out), "--sizes", "30,60", "--n", "5",
         "--b", "20", "--lambda", "0.01", "--beta", "0.5", "--iters", "3",
         "--repeats", "2"]
    )
    assert code == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    assert lines[0].startswith("size,iterations,")
    assert len(lines) == 3
    record = _read_record(out / "result.txt")
    assert record["repeats"] == "2"
    assert np.isfinite(float(record["slope"]))
    assert _timing_keys(out) == {"sweep_seconds", "write_seconds"}


def test_benchmark_needs_two_sizes(tmp_path):
    assert main(["benchmark", "--out", str(tmp_path / "o"), "--sizes", "100"]) == 2


def test_benchmark_rejects_zero_repeats(tmp_path):
    argv = ["benchmark", "--out", str(tmp_path / "o"), "--sizes", "30,60",
            "--repeats", "0"]
    assert main(argv) == 2


# ------------------------------------------------------------------- replay


def _estimate_argv(out):
    return [
        "estimate", "--out", str(out), "--synthetic", "linear",
        "--n", "8", "--nx", "20", "--ny", "20", "--b", "10",
        "--lambda", "0.01", "--beta", "0.8", "--seed", "5", "--save-plan",
    ]


def _match_argv(out):
    rng = np.random.default_rng(4)
    base = rng.standard_normal((16, 1))
    inputs = out.parent
    x_path = _write_table(inputs / "x.csv", np.hstack([base, base]))
    y_path = _write_table(inputs / "y.csv", base)
    pairs = _write_table(inputs / "pairs.csv", [[i, i] for i in range(6)])
    truth = _write_table(inputs / "truth.csv", [[i, i] for i in range(6, 16)])
    return [
        "match", "--out", str(out), "--x", x_path, "--y", y_path,
        "--paired", pairs, "--truth", truth, "--b", "8", "--save-plan",
    ]


def _summarize_argv(out):
    rng = np.random.default_rng(5)
    inputs = out.parent
    items = _write_table(inputs / "items.csv", rng.standard_normal((12, 3)))
    anchors = _write_table(inputs / "anchors.csv", [[0, 0], [3, 3], [5, 8], [7, 11], [9, 5]])
    return [
        "summarize", "--out", str(out), "--items", items, "--grid", "3x4",
        "--anchors", anchors, "--b", "8",
    ]


@pytest.mark.parametrize(
    "make_argv, expected",
    [
        (_estimate_argv, {"result.txt", "plan.csv"}),
        (_match_argv, {"result.txt", "cv.csv", "plan.csv", "assignment.csv"}),
        (_summarize_argv, {"result.txt", "cv.csv", "placements.csv", "unplaced.csv"}),
    ],
    ids=["estimate", "match", "summarize"],
)
def test_replay_reproduces_outputs(tmp_path, capsys, make_argv, expected):
    first = tmp_path / "first"
    assert main(make_argv(first)) == 0
    assert set(json.loads((first / "manifest.json").read_text())["outputs"]) == expected
    second = tmp_path / "second"
    code = main(["replay", str(first / "manifest.json"), "--out", str(second)])
    assert code == 0
    out = capsys.readouterr().out
    for name in expected:
        assert f"{name}: ok" in out
    assert (second / "result.txt").read_text() == (first / "result.txt").read_text()


def test_replay_detects_tampering(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(_estimate_argv(first)) == 0
    manifest_path = first / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["result.txt"]["sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    code = main(["replay", str(manifest_path), "--out", str(tmp_path / "second")])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "manifest, missing",
    [
        ({"outputs": {}}, "'argv'"),
        ({"argv": "estimate --out o", "outputs": {}}, "'argv'"),
        ({"argv": ["replay", "manifest.json", "--out", "o"], "outputs": {}}, "'argv'"),
        ({"argv": ["estimate", "--out", "o"]}, "'outputs'"),
        ({"argv": ["estimate", "--out", "o"], "outputs": {"result.txt": {}}}, "'sha256'"),
        ({"argv": ["estimate", "--out"], "outputs": {}}, "--out"),
    ],
    ids=["no-argv", "argv-not-a-list", "argv-is-a-replay", "no-outputs", "output-without-sha256",
         "out-without-value"],
)
def test_replay_rejects_malformed_manifest(tmp_path, capsys, manifest, missing):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path), "--out", str(tmp_path / "second")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err
