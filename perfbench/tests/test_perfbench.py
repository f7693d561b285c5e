"""Self-tests of the benchmark harness: span arithmetic, wrapper lifetime, failure counting.

They use the real workload classes at toy sizes, so they run in seconds:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_semismi()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from semismi import cli, data, estimator, model_selection, transport  # noqa: E402


def _span(name, start, end, parent, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tree = [
        _span(spans.OP, 0.0, 10.0, None),  # 0
        _span("estimator.fit", 1.0, 7.0, 0),  # 1
        _span("transport.sinkhorn_solve", 2.0, 4.0, 1),  # 2
        _span("transport.plan_entropy", 3.0, 5.0, 1),  # 3: overlaps 2 on [3, 4]
        _span("transport.cost_matrix", 6.5, 8.0, 1),  # 4: sticks out of 1 past 7
        _span("data.generate", 8.0, 9.0, 0),  # 5
    ]
    assert spans.covered_length([(2.0, 4.0), (3.0, 5.0), (6.5, 7.0)]) == pytest.approx(3.5)
    own = spans.self_times(tree)
    assert own == pytest.approx([10.0 - 6.0 - 1.0, 6.0 - 3.5, 2.0, 2.0, 1.5, 1.0])

    op = spans.op_breakdown(tree)[0]
    assert op["wall"] == 10.0
    assert op["unattributed"] == pytest.approx(3.0)
    assert op["self"]["estimator.fit"] == pytest.approx(2.5)
    assert op["total"]["transport.sinkhorn_solve"] == 2.0
    assert op["calls"]["data.generate"] == 1


def test_nested_self_times_add_up_to_the_op_wall_time():
    tree = [
        _span(spans.OP, 0.0, 9.0, None),
        _span("model_selection.cross_validate", 0.5, 8.0, 0),
        _span("estimator.fit", 1.0, 4.0, 1),
        _span("transport.sinkhorn_solve", 1.5, 3.0, 2),
        _span("estimator.fit", 4.5, 7.5, 1),
    ]
    op = spans.op_breakdown(tree)[0]
    assert op["unattributed"] + sum(op["self"].values()) == pytest.approx(op["wall"])


def _tiny_large_fit():
    return workloads.LargeFit(n=12, pool=40, indices=2, per_run=2)


def _references(workload, items):
    refs = {}
    for item in items:
        outputs = workload.run(item)
        refs[item["key"]] = workload.reference(outputs)
        workload.cleanup(item, outputs)
    return refs


def _bindings():
    return {
        "estimator.sinkhorn_solve": estimator.sinkhorn_solve,
        "estimator.plan_entropy": estimator.plan_entropy,
        "model_selection.fit": model_selection.fit,
        "cli.fit": cli.fit,
        "cli.load_table": cli.load_table,
        "data.generate": data.generate,
    }


def test_wrappers_exist_only_while_a_traced_operation_runs(tmp_path):
    originals = spans.original_functions()
    assert originals["transport.sinkhorn_solve"] is transport.sinkhorn_solve
    before = _bindings()
    assert spans.wrapped_names() == []

    workload = _tiny_large_fit()
    items = workload.setup(0, tmp_path)
    refs = _references(workload, items)
    tracer = spans.Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(getattr(f, "__perfbench_wrapper__", False) for f in during.values())
        assert during["estimator.sinkhorn_solve"].__wrapped__ is before["estimator.sinkhorn_solve"]
        assert "semismi.cli.main" in spans.wrapped_names()
    assert spans.wrapped_names() == []
    assert _bindings() == before

    records = worker.measure(workload, items, refs, seconds=0.0, tracer=tracer)
    assert [r["traced"] for r in records] == [False, True]
    assert not any(r["failed"] for r in records)
    assert spans.wrapped_names() == []
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {spans.OP, "estimator.fit", "transport.sinkhorn_solve", "estimator.smi_estimate"} <= names
    # The untraced operation ran first and recorded nothing.
    assert all(s.op == 1 for s in tracer.spans)

    metrics, problems = worker.layer_metrics(tracer.spans, records)
    assert problems == []
    assert metrics["estimator.fit_calls"] == 1
    assert metrics["transport.sinkhorn_calls"] == metrics["estimator.outer_iters"]
    layer_selves = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_selves + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.op_wall_s"])


def test_an_untraced_operation_refuses_to_run_through_a_leftover_wrapper(tmp_path):
    workload = _tiny_large_fit()
    items = workload.setup(0, tmp_path)
    refs = _references(workload, items)
    tracer = spans.Tracer()
    tracer.install()
    try:
        record = worker.run_one(workload, items[0], refs, 0)
    finally:
        tracer.uninstall()
    assert record["failed"]
    assert "wrappers still installed" in record["problems"][0]


def test_a_tampered_reference_counts_as_a_failed_operation(tmp_path):
    workload = _tiny_large_fit()
    items = workload.setup(0, tmp_path)
    refs = _references(workload, items)
    tampered = dict(refs)
    tampered[items[0]["key"]] = {**refs[items[0]["key"]], "smi": refs[items[0]["key"]]["smi"] * (1 + 1e-6)}
    tampered[items[1]["key"]] = {**refs[items[1]["key"]], "iterations": -1}

    records = worker.measure(workload, items, tampered, seconds=0.0)
    records += worker.measure(workload, items[1:] + items[:1], refs, seconds=0.0)
    assert [r["failed"] for r in records] == [True, False]
    assert "differs from reference" in records[0]["problems"][0]

    records += worker.measure(workload, items[1:], tampered, seconds=0.0)
    e2e = worker.end_to_end(records)
    assert len(records) == 3
    assert e2e["ok_rate"] == pytest.approx(1 / 3)
    assert e2e["op_count"] == 1  # failed operations stay out of op_s only


def test_a_raising_operation_counts_as_failed(tmp_path):
    workload = _tiny_large_fit()
    items = workload.setup(0, tmp_path)
    broken = [{**items[0], "data": None}]
    records = worker.measure(workload, broken, {}, seconds=0.0)
    assert records[0]["failed"] and records[0]["seconds"] is None
    assert worker.end_to_end(records)["ok_rate"] == 0.0


def test_cli_match_checks_the_manifest_digests(tmp_path):
    workload = workloads.CliMatch(pairs=8, unpaired=30, dim=3, indices=1, per_run=1)
    item = workload.setup(0, tmp_path)[0]
    outputs = workload.run(item)
    ref = workload.reference(outputs)
    assert workload.check(item, outputs, ref) == []
    extras = workload.layer_extras(outputs)
    assert extras["cli.bytes_written"] > 0 and extras["cli.write_s"] > 0
    with open(outputs["out"] / "assignment.csv", "a") as fh:
        fh.write("0,0\n")
    assert workload.check(item, outputs, ref) == ["assignment.csv: sha256 differs from the manifest"]


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(w for w in workloads.WORKLOADS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(worker.PER_LAYER)
    assert set(workloads.load_references()) == set(run.WORKLOADS)
