"""``tools/check_references.py`` runs perfbench inputs through their
workload's own check against the recorded references, and reports how far
the SMIs of the passing inputs moved."""

import pytest
from check_references import main, problems, workloads


def test_a_large_fit_input_passes_its_reference_check(tmp_path):
    workload = workloads.WORKLOADS["large_fit"]
    items = workload.all_items(tmp_path)[:1]
    assert problems(workload, items) == {}


def test_a_cli_match_input_passes_its_reference_check(tmp_path):
    # 32-d tables: the bandwidths and grams come from the GEMM side of kernels
    workload = workloads.WORKLOADS["cli_match"]
    items = workload.setup(0, tmp_path)[:1]
    assert problems(workload, items) == {}


def test_the_largest_smi_deviation_counts_only_the_passing_inputs(tmp_path, monkeypatch, capsys):
    # two large_fit inputs; the reference of the second is moved far off,
    # so it fails and its deviation is left out of the printed largest
    workload = workloads.WORKLOADS["large_fit"]
    monkeypatch.setattr(workload, "all_items", lambda workdir: workload._items([0, 1]))
    references = workloads.load_references()
    tampered = {**references, "large_fit": {**references["large_fit"]}}
    moved = tampered["large_fit"]["1"]
    tampered["large_fit"]["1"] = {**moved, "smi": 2.0 * moved["smi"]}
    monkeypatch.setattr(workloads, "load_references", lambda: tampered)

    deviations = {}
    failing = problems(workload, workload.all_items(tmp_path), deviations)
    assert set(failing) == {"1"}
    assert set(deviations) == {"0", "1"}
    assert deviations["0"] <= workloads.SMI_RTOL
    assert deviations["1"] == pytest.approx(0.5, rel=1e-6)

    assert main(["large_fit"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == (
        f"large_fit: 1 of 2 inputs fail; largest relative SMI deviation of a passing "
        f"input {deviations['0']:.3e}"
    )
