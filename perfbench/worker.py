"""One workload process: set up, signal readiness, measure, write the result.

``run.py`` starts this file as a child process and times it from the
spawn to the ``ready`` line it prints, which is the workload's set-up
time.  With ``--setup-only`` the process exits right after that line.
Otherwise it runs whole rounds of operations until ``--seconds`` have
passed and writes its result as JSON to ``--result``.

An untraced run (``--trace 0``) times each operation with no wrapper
installed anywhere.  A traced run (``--trace 1``) runs every operation
twice on the same input, first untraced and then traced, so the
traced-minus-untraced time is the tracing overhead on identical work.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per-layer metrics of a traced run: (name, unit, better).  Times and
#: counts are means per traced operation; ratios are over all of them.
PER_LAYER = (
    ("kernels.sample_basis_s", "s", "lower"),
    ("kernels.feature_columns_s", "s", "lower"),
    ("density_ratio.quadratic_term_s", "s", "lower"),
    ("density_ratio.mixed_linear_term_s", "s", "lower"),
    ("density_ratio.solve_alpha_s", "s", "lower"),
    ("density_ratio.solve_alpha_calls", "count", "lower"),
    ("transport.cost_matrix_s", "s", "lower"),
    ("transport.sinkhorn_solve_s", "s", "lower"),
    ("transport.sinkhorn_calls", "count", "lower"),
    ("transport.sweeps", "count", "lower"),
    ("transport.sweeps_per_solve", "count", "lower"),
    ("transport.cap_hits", "count", "lower"),
    ("transport.plan_entropy_s", "s", "lower"),
    ("estimator.fit_s", "s", "lower"),
    ("estimator.fit_self_s", "s", "lower"),
    ("estimator.objective_self_s", "s", "lower"),
    ("estimator.smi_estimate_s", "s", "lower"),
    ("estimator.fit_calls", "count", "lower"),
    ("estimator.outer_iters", "count", "lower"),
    ("estimator.fits_converged", "count", "higher"),
    ("model_selection.cross_validate_s", "s", "lower"),
    ("model_selection.cross_validate_self_s", "s", "lower"),
    ("model_selection.holdout_error_s", "s", "lower"),
    ("model_selection.grid_points", "count", "lower"),
    ("matching.plan_to_assignment_s", "s", "lower"),
    ("matching.topk_accuracy_s", "s", "lower"),
    ("data.generate_s", "s", "lower"),
    ("data.load_table_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("density_ratio.self_s", "s", "lower"),
    ("transport.self_s", "s", "lower"),
    ("estimator.self_s", "s", "lower"),
    ("model_selection.self_s", "s", "lower"),
    ("matching.self_s", "s", "lower"),
    ("data.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.op_wall_s", "s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Largest gap allowed between an op's wall time and the sum of its
#: self times plus the unattributed remainder (float rounding only).
ATTRIBUTION_TOL_S = 1e-6


def import_semismi():
    """Import the checkout's own semismi, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import semismi

    location = Path(semismi.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"semismi imported from {location}, not from {SRC}")
    return semismi


def run_one(workload, item, refs: dict, op_id: int, tracer=None) -> dict:
    """Run and check one operation; any exception or failed check marks it failed."""
    record = {"key": item["key"], "traced": tracer is not None, "seconds": None,
              "problems": [], "extras": {}}
    outputs = None
    try:
        if tracer is None:
            leaked = spans.wrapped_names()
            if leaked:
                raise RuntimeError(f"tracing wrappers still installed: {leaked}")
            start = time.perf_counter()
            outputs = workload.run(item)
            record["seconds"] = time.perf_counter() - start
        else:
            with tracer.installed(), tracer.operation(op_id) as root:
                outputs = workload.run(item)
            record["seconds"] = root.duration
        ref = refs.get(item["key"])
        if ref is None:
            record["problems"].append(f"no reference recorded for input {item['key']}")
        else:
            record["problems"] += workload.check(item, outputs, ref)
        if tracer is not None:
            record["extras"] = workload.layer_extras(outputs)
    except Exception as exc:  # a failed operation is counted, never dropped
        traceback.print_exc()
        record["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if outputs is not None:
            workload.cleanup(item, outputs)
    record["failed"] = bool(record["problems"])
    return record


def measure(workload, items: list, refs: dict, seconds: float, tracer=None) -> list[dict]:
    """Closed loop, one operation at a time, in whole rounds.

    A further round starts only while it would end no more than half a
    round past ``seconds``, judged by the last round, so a run ends near
    ``seconds`` even when one round takes a large part of it.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        round_start = time.perf_counter()
        for _ in range(workload.cycle):
            item = items[i % len(items)]
            records.append(run_one(workload, item, refs, len(records)))
            if tracer is not None:
                records.append(run_one(workload, item, refs, len(records), tracer))
            i += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return records


def op_seconds(records: list[dict]) -> list[float]:
    """Times of the operations that passed; of all timed ones if none did."""
    ok = [r["seconds"] for r in records if not r["failed"] and r["seconds"] is not None]
    return ok or [r["seconds"] for r in records if r["seconds"] is not None]


def end_to_end(records: list[dict]) -> dict:
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    times = op_seconds(records)
    return {
        "op_s": statistics.median(times) if times else float("nan"),
        "op_count": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (attempted - failed) / attempted,
    }


def layer_metrics(span_list, records: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, plus attribution problems found."""
    ops = list(spans.op_breakdown(span_list).values())
    traced = [r for r in records if r["traced"]]
    n = len(ops)

    def mean(fn):
        return sum(fn(o) for o in ops) / n

    def total(name):
        return mean(lambda o: o["total"][name])

    def own(name):
        return mean(lambda o: o["self"][name])

    def calls(name):
        return mean(lambda o: o["calls"][name])

    def count(key):
        return mean(lambda o: o["counts"][key])

    def layer_self(layer):
        return mean(lambda o: sum(v for k, v in o["self"].items() if k.startswith(layer + ".")))

    def extra(key):
        return sum(r["extras"].get(key, 0) for r in traced) / len(traced)

    solves = sum(o["calls"]["transport.sinkhorn_solve"] for o in ops)
    sweeps = sum(o["counts"]["sweeps"] for o in ops)
    pairs = [(u["seconds"], t["seconds"]) for u, t in zip(records[::2], records[1::2])
             if u["seconds"] and t["seconds"]]
    metrics = {
        "kernels.sample_basis_s": total("kernels.sample_basis"),
        "kernels.feature_columns_s": total("kernels.feature_columns"),
        "density_ratio.quadratic_term_s": total("density_ratio.quadratic_term"),
        "density_ratio.mixed_linear_term_s": total("density_ratio.mixed_linear_term"),
        "density_ratio.solve_alpha_s": total("density_ratio.solve_alpha"),
        "density_ratio.solve_alpha_calls": calls("density_ratio.solve_alpha"),
        "transport.cost_matrix_s": total("transport.cost_matrix"),
        "transport.sinkhorn_solve_s": total("transport.sinkhorn_solve"),
        "transport.sinkhorn_calls": calls("transport.sinkhorn_solve"),
        "transport.sweeps": count("sweeps"),
        "transport.sweeps_per_solve": sweeps / solves if solves else 0.0,
        "transport.cap_hits": count("cap_hits"),
        "transport.plan_entropy_s": total("transport.plan_entropy"),
        "estimator.fit_s": total("estimator.fit"),
        "estimator.fit_self_s": own("estimator.fit"),
        "estimator.objective_self_s": own("estimator.objective"),
        "estimator.smi_estimate_s": total("estimator.smi_estimate"),
        "estimator.fit_calls": calls("estimator.fit"),
        "estimator.outer_iters": count("outer_iters"),
        "estimator.fits_converged": count("fits_converged"),
        "model_selection.cross_validate_s": total("model_selection.cross_validate"),
        "model_selection.cross_validate_self_s": own("model_selection.cross_validate"),
        "model_selection.holdout_error_s": total("model_selection.holdout_error"),
        "model_selection.grid_points": count("grid_points"),
        "matching.plan_to_assignment_s": total("matching.plan_to_assignment"),
        "matching.topk_accuracy_s": total("matching.topk_accuracy"),
        "data.generate_s": total("data.generate"),
        "data.load_table_s": total("data.load_table"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.write_s": extra("cli.write_s"),
        "cli.bytes_written": extra("cli.bytes_written"),
        **{f"{layer}.self_s": layer_self(layer) for layer in spans.LAYERS if layer != "cli"},
        "trace.unattributed_s": mean(lambda o: o["unattributed"]),
        "trace.op_wall_s": mean(lambda o: o["wall"]),
        "trace.spans_per_op": mean(lambda o: 1 + sum(o["calls"].values())),
        "trace.op_s": statistics.median(t for _, t in pairs),
        "trace.untraced_op_s": statistics.median(u for u, _ in pairs),
        "trace.overhead_frac": statistics.median(t / u - 1.0 for u, t in pairs),
    }
    problems = []
    for o in ops:
        gap = o["wall"] - o["unattributed"] - sum(o["self"].values())
        if abs(gap) > ATTRIBUTION_TOL_S:
            problems.append(f"self times miss the op wall time by {gap:.3e} s")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_semismi()
    import envinfo
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()[workload.name]
    items = workload.setup(args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    records = measure(workload, items, refs, args.seconds, tracer)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": envinfo.environment(),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "problems": [],
        "end_to_end": end_to_end(records),
        "operations": records,
    }
    if tracer is not None:
        result["per_layer"], result["problems"] = layer_metrics(tracer.spans, records)
        result["spans"] = [vars(s) for s in tracer.spans]
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
