"""``tools/check_references.py`` runs perfbench inputs through their
workload's own check against the recorded references."""

from check_references import problems, workloads


def test_a_large_fit_input_passes_its_reference_check(tmp_path):
    workload = workloads.WORKLOADS["large_fit"]
    items = workload.all_items(tmp_path)[:1]
    assert problems(workload, items) == {}


def test_a_cli_match_input_passes_its_reference_check(tmp_path):
    # 32-d tables: the bandwidths and grams come from the GEMM side of kernels
    workload = workloads.WORKLOADS["cli_match"]
    items = workload.setup(0, tmp_path)[:1]
    assert problems(workload, items) == {}
