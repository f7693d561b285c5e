"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` so exit codes and file outputs
are exercised exactly as a shell user would see them.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import semismi
from conftest import savetxt_bytes
from semismi.cli import _build_parser, main


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


IO = {"--out", "--seed"}
CONFIG = {"--b", "--epsilon", "--lambda", "--beta", "--iters"}
SYNTHETIC = {"--synthetic", "--n", "--nx", "--ny"}
FILES = {"--x", "--y", "--paired"}
SUBCOMMAND_FLAGS = {
    "estimate": IO | CONFIG | SYNTHETIC | FILES | {"--save-plan"},
    "match": IO | CONFIG | SYNTHETIC | FILES
    | {"--truth", "--labels-x", "--labels-y", "--save-plan"},
    "summarize": IO | CONFIG | {"--items", "--grid", "--anchors"},
    "generate": IO | SYNTHETIC,
    "benchmark": IO | {"--sizes", "--repeats"},
    "replay": {"--out"},
}


def _flags() -> dict:
    """Each subcommand's option strings, without help."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for command, parser in sub.choices.items()
    }


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_subcommand_flags_are_pinned(command):
    # a new flag is a new promise: adding or retiring one changes this table
    assert _flags()[command] == SUBCOMMAND_FLAGS[command]


@pytest.mark.parametrize("flag", ["--lambda", "--beta"])
@pytest.mark.parametrize("command", ["estimate", "match", "summarize"])
def test_a_lone_lambda_or_beta_exits_2(tmp_path, capsys, command, flag):
    # one alone is ambiguous: CV would overrule it, or a default would complete it
    out = tmp_path / "run"
    if command == "summarize":
        items = _write_table(tmp_path / "items.csv", np.random.default_rng(0).standard_normal((6, 3)))
        data_args = ["--items", items, "--grid", "2x3"]
    else:
        data_args = ["--synthetic", "linear", "--n", "12", "--nx", "30", "--ny", "30"]
    argv = [command, "--out", str(out), *data_args, "--b", "8", flag, "0.05"]
    assert main(argv) == 2
    assert "error: --lambda and --beta must be given together" in capsys.readouterr().err
    assert not (out / "result.txt").exists()


def test_readme_cli_section_names_every_long_option():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text[text.index("## CLI"):text.index("## Tests")]
    named = set(re.findall(r"--[a-z][\w-]*", section))
    missing = set().union(*_flags().values()) - named
    assert not missing, f"README's CLI section does not document {sorted(missing)}"


def test_negative_seed_is_rejected_naming_the_seed(tmp_path, capsys):
    from semismi import CvGrid, EstimatorConfig, SyntheticSpec

    for make in (
        lambda: EstimatorConfig(seed=-1),
        lambda: SyntheticSpec("linear", 10, 20, 20, seed=-1),
        lambda: CvGrid(seed=-1),
    ):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            make()
    argv = ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "10", "--nx", "20", "--ny", "20", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


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
    # the same fit in-process: plan.csv is np.savetxt's text of its plan
    data = semismi.generate(semismi.SyntheticSpec("random", 6, 14, 9, seed=0))
    config = semismi.EstimatorConfig(n_basis=8, lam=0.01, beta=0.5, seed=0)
    assert (out / "plan.csv").read_bytes() == savetxt_bytes(semismi.fit(data, config).plan.pi)


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


@pytest.mark.parametrize("command", ["estimate", "match"])
def test_paired_with_synthetic_exits_2(tmp_path, capsys, command):
    # generated data brings its own pairs: a --paired file would be
    # neither read nor recorded among the manifest's inputs
    pairs = _write_table(tmp_path / "pairs.csv", [[0, 0]])
    argv = [command, "--synthetic", "linear", "--n", "10", "--nx", "30", "--ny", "30",
            "--lambda", "1e-3", "--beta", "0.5", "--paired", pairs, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "--paired" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [([[0, 0], [0, 1]], "--paired repeats a x row"), ([[0, 1], [2, 1]], "--paired repeats a y row"),
     ([[1.7, 1.2]], "--paired file has an entry that is not a whole number: 1.7")],
    ids=["repeated-row", "repeated-y-row", "fractional"],
)
def test_estimate_rejects_bad_pair_index(tmp_path, capsys, rows, message):
    x_path = _write_table(tmp_path / "x.csv", np.arange(5.0))
    y_path = _write_table(tmp_path / "y.csv", np.arange(5.0))
    pairs = _write_table(tmp_path / "pairs.csv", rows)
    code = main(
        ["estimate", "--out", str(tmp_path / "o"), "--x", x_path, "--y", y_path,
         "--paired", pairs, "--lambda", "0.01", "--beta", "1.0"]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lambda", "inf"), ("--epsilon", "inf")])
def test_estimate_rejects_non_finite_weights(tmp_path, capsys, flag, value):
    argv = ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "12", "--nx", "30", "--ny", "30", "--b", "10",
            "--lambda", "0.01", "--beta", "0.5", flag, value]
    assert main(argv) == 2
    field = {"--lambda": "lam", "--epsilon": "epsilon"}[flag]
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("nx, ny, side", [("1", "5", "x"), ("5", "1", "y")])
def test_estimate_names_the_side_with_too_few_samples(tmp_path, capsys, nx, ny, side):
    argv = ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "0", "--nx", nx, "--ny", ny, "--lambda", "1e-3", "--beta", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {side} side has 1 sample: insufficient samples")


def _tiny_epsilon_argv(tmp_path, epsilon):
    return ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "10", "--nx", "30", "--ny", "30", "--lambda", "1e-3", "--beta", "0.5",
            "--epsilon", epsilon]


def test_estimate_names_the_overflowing_solve_when_epsilon_is_too_small(tmp_path, capsys):
    # the first solve runs to its sweep cap with finite scalings, but its
    # plan's entropy overflows: that solve ends the run, naming its beta
    # and epsilon, with no numpy or sweep-cap warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_tiny_epsilon_argv(tmp_path, "1e-20")) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: Sinkhorn plan left the range of doubles at the sweep cap (1000) "
        "(beta=0.5, epsilon=1e-20)\n"
    )


@pytest.mark.parametrize("epsilon", ["1e-6", "1e-10", "1e-15"])
def test_estimate_at_a_small_but_finite_epsilon_exits_3(tmp_path, capsys, epsilon):
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        assert main(_tiny_epsilon_argv(tmp_path, epsilon)) == 3
    assert capsys.readouterr().err.startswith("infeasible plan: marginal error ")


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("ridge system remained singular after jitter; increase lam")

    monkeypatch.setattr("semismi.cli.fit", singular)
    argv = ["estimate", "--out", str(tmp_path / "o"), "--synthetic", "linear",
            "--n", "6", "--nx", "10", "--ny", "10", "--b", "4",
            "--lambda", "0.01", "--beta", "0.5"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ridge system")


@pytest.mark.parametrize("command, extra", [("estimate", "result.txt"), ("match", "assignment.csv")])
def test_infeasible_final_plan_exits_3_after_writing_outputs(tmp_path, capsys, command, extra):
    # at epsilon = 1e-4 every inner solve stops at its sweep cap: the run
    # writes all its outputs and the manifest, then exits 3 naming the
    # final plan's marginal error
    out = tmp_path / "run"
    argv = [command, "--out", str(out), "--synthetic", "linear",
            "--n", "8", "--nx", "15", "--ny", "12", "--b", "6", "--epsilon", "1e-4",
            "--lambda", "1e-3", "--beta", "0.8", "--seed", "1"]
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        assert main(argv) == 3
    assert _read_record(out / "result.txt")["plan_feasible"] == "false"
    manifest = json.loads((out / "manifest.json").read_text())
    assert {"result.txt", extra} <= set(manifest["outputs"])
    err = capsys.readouterr().err
    assert err.startswith("infeasible plan: marginal error ")
    assert float(err.split()[-1]) > 1e-11


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
            "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 0
    lines = (out / "assignment.csv").read_text().splitlines()
    assert lines[0] == "x_row,y_row"
    assert len(lines) == 13
    xs = [int(line.split(",")[0]) for line in lines[1:]]
    assert len(set(xs)) == 12
    assert _timing_keys(out) == PIPELINE_TIMINGS


def test_match_forms_each_gram_once(tmp_path, monkeypatch):
    # the SMI comes from the fit's own features, so with lambda and beta
    # given (no CV) each side's gram is formed once
    grams = []
    gram = semismi.kernels.gaussian_gram

    def counting_gram(centers, points, *rest):
        grams.append((np.shape(centers), np.shape(points)))
        return gram(centers, points, *rest)

    monkeypatch.setattr(semismi.kernels, "gaussian_gram", counting_gram)
    code = main(
        [
            "match", "--out", str(tmp_path / "run"), "--synthetic", "linear",
            "--n", "6", "--nx", "12", "--ny", "14", "--b", "10",
            "--lambda", "0.01", "--beta", "0.5",
        ]
    )
    assert code == 0
    assert sorted(grams) == [((10, 1), (18, 1)), ((10, 1), (20, 1))]


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


@pytest.mark.parametrize(
    "source, pair",
    [("files", [100, 100]), ("files", [3, 16]), ("files", [-1, 3]), ("synthetic", [12, 0])],
    ids=["both-past-the-end", "y-past-the-end", "negative", "synthetic-past-the-pool"],
)
def test_match_rejects_truth_rows_outside_the_tables(tmp_path, capsys, source, pair):
    # files: 16-row tables, of which rows 0-3 are paired; synthetic: pools of 12
    if source == "files":
        x_path = _write_table(tmp_path / "x.csv", np.arange(16.0))
        y_path = _write_table(tmp_path / "y.csv", np.arange(16.0))
        pairs = _write_table(tmp_path / "pairs.csv", [[i, i] for i in range(4)])
        data_args = ["--x", x_path, "--y", y_path, "--paired", pairs]
    else:
        data_args = ["--synthetic", "linear", "--n", "4", "--nx", "12", "--ny", "12"]
    truth = _write_table(tmp_path / "truth.csv", [[5, 5], pair])
    code = main(
        ["match", "--out", str(tmp_path / "o"), *data_args, "--truth", truth,
         "--b", "4", "--lambda", "0.01", "--beta", "0.5"]
    )
    assert code == 2
    assert "--truth row index out of range" in capsys.readouterr().err


def test_match_skips_truth_pairs_on_paired_rows(tmp_path):
    # rows 0-3 are paired: their truth pairs are skipped, the rest scored
    x_path = _write_table(tmp_path / "x.csv", np.arange(16.0))
    y_path = _write_table(tmp_path / "y.csv", np.arange(16.0))
    pairs = _write_table(tmp_path / "pairs.csv", [[i, i] for i in range(4)])
    truth = _write_table(tmp_path / "truth.csv", [[0, 0], [15, 15]])
    out = tmp_path / "o"
    code = main(
        ["match", "--out", str(out), "--x", x_path, "--y", y_path, "--paired", pairs,
         "--truth", truth, "--b", "4", "--lambda", "0.01", "--beta", "0.5"]
    )
    assert code == 0
    assert "top1_accuracy" in _read_record(out / "result.txt")


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


def test_summarize_builds_its_sample_set_once(tmp_path, monkeypatch):
    # CV and the fit share one problem of the grid layout
    built = []
    original = semismi.matching.grid_sample_set

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(semismi.matching, "grid_sample_set", counting)
    monkeypatch.setattr(semismi.cli, "grid_sample_set", counting)
    rng = np.random.default_rng(2)
    items = _write_table(tmp_path / "items.csv", rng.standard_normal((8, 2)))
    anchors = _write_table(tmp_path / "anchors.csv", [[i, i] for i in range(4)])
    argv = ["summarize", "--out", str(tmp_path / "o"), "--items", items, "--grid", "2x4",
            "--anchors", anchors, "--b", "4"]
    assert main(argv) == 0
    assert len(built) == 1
    assert "cv.csv" in os.listdir(tmp_path / "o")


def test_summarize_infeasible_final_plan_exits_3_after_writing_outputs(tmp_path, capsys):
    # at epsilon = 1e-4 every inner solve stops at its sweep cap, so the
    # final plan misses its marginals; summarize says so as estimate does
    rng = np.random.default_rng(0)
    items = _write_table(tmp_path / "items.csv", rng.standard_normal((12, 3)))
    anchors = _write_table(tmp_path / "anchors.csv", [[i, i] for i in range(5)])
    out = tmp_path / "run"
    argv = ["summarize", "--out", str(out), "--items", items, "--grid", "3x4",
            "--anchors", anchors, "--b", "6", "--epsilon", "1e-4", "--lambda", "1e-3",
            "--beta", "0.8"]
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        assert main(argv) == 3
    record = _read_record(out / "result.txt")
    assert (record["converged"], record["plan_feasible"]) == ("false", "false")
    manifest = json.loads((out / "manifest.json").read_text())
    assert {"placements.csv", "unplaced.csv", "result.txt"} <= set(manifest["outputs"])
    assert capsys.readouterr().err.startswith("infeasible plan: marginal error ")


def test_summarize_cv_rejects_bad_anchor_item(tmp_path, capsys):
    items = _write_table(tmp_path / "items.csv", np.zeros((12, 2)))
    anchors = _write_table(tmp_path / "anchors.csv", [[0, 0], [1, 1], [2, 2], [40, 3]])
    code = main(
        ["summarize", "--out", str(tmp_path / "o"), "--items", items,
         "--grid", "3x4", "--anchors", anchors, "--b", "4"]
    )
    assert code == 2
    assert "anchor item index 40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pin, anchors, beta",
    [([], False, "0.0"), (["--lambda", "0.01", "--beta", "0.7"], False, "0.0"),
     (["--lambda", "0.01", "--beta", "0.7"], True, "0.7")],
    ids=["default", "pinned", "pinned-with-anchors"],
)
def test_summarize_records_the_beta_its_fit_used(tmp_path, pin, anchors, beta):
    # without anchors nothing is paired, and the fit runs at beta = 0
    items = _write_table(tmp_path / "items.csv", np.random.default_rng(6).standard_normal((12, 3)))
    argv = ["summarize", "--out", str(tmp_path / "o"), "--items", items, "--grid", "3x4",
            "--b", "8", *pin]
    if anchors:
        argv += ["--anchors", _write_table(tmp_path / "anchors.csv", [[0, 0], [1, 5]])]
    assert main(argv) == 0
    assert _read_record(tmp_path / "o" / "result.txt")["beta"] == beta


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


@pytest.mark.parametrize(
    "n_items, grid, placed, unplaced",
    [(6, "2x2", 4, 2), (4, "3x3", 4, 0)],
    ids=["no-free-position", "no-free-item"],
)
def test_summarize_with_nothing_free_skips_cv(tmp_path, n_items, grid, placed, unplaced):
    # four anchors are enough for CV, but with no free item or position
    # there is no fit to tune: the anchors are the layout
    items = _write_table(
        tmp_path / "items.csv", np.random.default_rng(4).standard_normal((n_items, 3))
    )
    anchors = _write_table(tmp_path / "anchors.csv", [[i, i] for i in range(4)])
    out = tmp_path / "run"
    argv = ["summarize", "--out", str(out), "--items", items, "--grid", grid,
            "--anchors", anchors, "--b", "4"]
    assert main(argv) == 0
    record = _read_record(out / "result.txt")
    assert (record["placed"], record["unplaced"]) == (str(placed), str(unplaced))
    assert not (out / "cv.csv").exists()
    lines = (out / "placements.csv").read_text().splitlines()
    assert lines[1:] == [f"{i},{i}" for i in range(4)]


def test_summarize_names_the_grid_positions_when_too_few(tmp_path, capsys):
    items = _write_table(tmp_path / "items.csv", np.random.default_rng(5).standard_normal((5, 2)))
    argv = ["summarize", "--out", str(tmp_path / "o"), "--items", items, "--grid", "1x1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: y side (grid positions) has 1 sample: insufficient samples"
    )


@pytest.mark.parametrize("n_anchors", [3, 4], ids=["fit-first", "cv-first"])
def test_summarize_names_the_items_without_a_bandwidth(tmp_path, capsys, n_anchors):
    # identical items have no median distance; with four anchors CV
    # samples the basis before the fit does, and must name them alike
    items = _write_table(tmp_path / "items.csv", np.zeros((12, 2)))
    anchors = _write_table(tmp_path / "anchors.csv", [[i, i] for i in range(n_anchors)])
    argv = ["summarize", "--out", str(tmp_path / "o"), "--items", items, "--grid", "3x4",
            "--anchors", anchors, "--b", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: x side (items) has 12 samples: degenerate bandwidth"
    )


def test_summarize_grid_argument_errors(tmp_path, capsys):
    items = _write_table(tmp_path / "items.csv", np.zeros((3, 2)))
    base = ["summarize", "--out", str(tmp_path / "o"), "--items", items,
            "--lambda", "0.01", "--beta", "0.5"]
    assert main(base) == 2                       # no --grid
    assert "summarize needs --grid RxC" in capsys.readouterr().err
    assert main(base + ["--grid", "4"]) == 2     # malformed shape
    assert main(base + ["--grid", "0x3"]) == 2   # empty side


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
        assert (out / name).read_bytes() == savetxt_bytes(block)
    assert _timing_keys(out) == {"generate_seconds", "write_seconds"}


def test_generate_requires_kind(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------- benchmark


def test_benchmark_writes_sweep_and_slope(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["benchmark", "--out", str(out), "--sizes", "30,60", "--repeats", "2"]
    )
    assert code == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    assert lines[0].startswith("size,iterations,")
    assert len(lines) == 3
    record = _read_record(out / "result.txt")
    assert record["repeats"] == "2"
    assert np.isfinite(float(record["slope"]))
    assert _timing_keys(out) == {"sweep_seconds", "write_seconds"}


def test_benchmark_fits_every_size_once_per_round(tmp_path, monkeypatch):
    # rounds cycle through the sizes rather than run one size's repeats back to back
    real_fit, sizes = semismi.cli.fit, []

    def recording_fit(data, config):
        sizes.append(data.n_x)
        return real_fit(data, config)

    monkeypatch.setattr("semismi.cli.fit", recording_fit)
    argv = ["benchmark", "--out", str(tmp_path / "o"), "--sizes", "30,60", "--repeats", "2"]
    assert main(argv) == 0
    assert sizes == [30, 60, 30, 60]


def test_benchmark_records_the_basis_each_size_fitted(tmp_path):
    # n = 10 pairs plus a pool of 30 or 60 leave fewer than 100 points to draw from
    out = tmp_path / "run"
    assert main(["benchmark", "--out", str(out), "--sizes", "30,60", "--repeats", "1"]) == 0
    assert _read_record(out / "result.txt")["b"] == "40,70"


@pytest.mark.parametrize("sizes", ["100", "100,100", "abc,100", "0,100"])
def test_benchmark_needs_two_sizes(tmp_path, capsys, sizes):
    assert main(["benchmark", "--out", str(tmp_path / "o"), "--sizes", sizes]) == 2
    assert "--sizes" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "spelling",
    [lambda d: ["--out=" + d], lambda d: ["--ou", d]],
    ids=["out-equals", "abbreviated"],
)
def test_replay_redirects_any_spelling_of_out(tmp_path, capsys, spelling):
    first = tmp_path / "first"
    argv = _estimate_argv(first)
    at = argv.index("--out")
    argv[at:at + 2] = spelling(str(first))
    assert main(argv) == 0
    second = tmp_path / "second"
    assert main(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
    assert "result.txt: ok" in capsys.readouterr().out
    assert (second / "plan.csv").read_bytes() == (first / "plan.csv").read_bytes()


def test_replay_stops_at_a_failed_rerun(tmp_path, capsys):
    # the infeasible estimate run of test_infeasible_final_plan_exits_3_after_writing_outputs
    first = tmp_path / "first"
    argv = ["estimate", "--out", str(first), "--synthetic", "linear",
            "--n", "8", "--nx", "15", "--ny", "12", "--b", "6", "--epsilon", "1e-4",
            "--lambda", "1e-3", "--beta", "0.8", "--seed", "1"]
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        assert main(argv) == 3
        capsys.readouterr()
        assert main(["replay", str(first / "manifest.json"), "--out", str(tmp_path / "second")]) == 3
    captured = capsys.readouterr()
    assert captured.err.endswith("replay: re-run failed with exit code 3\n")
    assert "ok" not in captured.out


def test_replay_skips_timing_outputs(tmp_path, capsys):
    first = tmp_path / "first"
    argv = ["benchmark", "--out", str(first), "--sizes", "30,60", "--repeats", "1"]
    assert main(argv) == 0
    assert main(["replay", str(first / "manifest.json"), "--out", str(tmp_path / "second")]) == 0
    out = capsys.readouterr().out
    for name in ("benchmark.csv", "result.txt"):
        assert f"replay: {name}: skipped (timing-dependent)" in out


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
        ({"argv": ["estimate", 5], "outputs": {}}, "'argv'"),
        ({"argv": [], "outputs": {}}, "'argv'"),
        ({"argv": ["replay", "manifest.json", "--out", "o"], "outputs": {}}, "'argv'"),
        ({"argv": ["estimate", "--out", "o"]}, "'outputs'"),
        ({"argv": ["estimate", "--out", "o"], "outputs": {"result.txt": {}}}, "'sha256'"),
        ({"argv": ["estimate", "--out"], "outputs": {}}, "--out"),
        (["estimate", "--out", "o"], "'argv'"),
    ],
    ids=["no-argv", "argv-not-a-list", "argv-not-strings", "argv-empty", "argv-is-a-replay", "no-outputs", "output-without-sha256",
         "out-without-value", "not-an-object"],
)
def test_replay_rejects_malformed_manifest(tmp_path, capsys, manifest, missing):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path), "--out", str(tmp_path / "second")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err
