"""Command-line front end.

Subcommands: ``estimate`` (CV + fit + SMI), ``match`` (align two
feature tables), ``summarize`` (items onto a grid), ``generate``
(synthetic datasets to files), ``benchmark`` (size sweep of the fit
loop), and ``replay`` (re-run a recorded manifest and verify outputs).

Every run writes a ``manifest.json`` capturing the argv, resolved
configuration, input/output digests, and phase timings; all randomness
flows from ``--seed``, so re-running a manifest reproduces the
deterministic outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import KINDS, SyntheticSpec, generate, load_table
from .estimator import EstimatorConfig, SampleSet, fit, smi_estimate
from .matching import GridSpec, grid_sample_set, grid_summarize, plan_to_assignment, topk_accuracy
from .model_selection import CvGrid, cross_validate

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Run bookkeeping


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunRecorder:
    """Collects inputs, outputs, and timings; writes the manifest."""

    def __init__(self, command: str, argv: list, out_dir: Path, config: dict):
        self.command = command
        self.argv = list(argv)
        self.out_dir = out_dir
        self.config = config
        self.inputs: dict = {}
        self.outputs: dict = {}
        self.timings: dict = {}

    def note_input(self, path) -> None:
        p = Path(path)
        self.inputs[str(p)] = _sha256(p)

    @contextmanager
    def phase(self, name: str):
        """Record the wall-clock time of the enclosed block as ``name``."""
        start = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - start

    def write(self, name: str, content, deterministic: bool = True) -> None:
        """Write ``content`` to ``name`` in the run directory and record its digest.

        A string is written as is; anything else is a matrix, written as
        a comma-separated table at full double precision.
        """
        path = self.out_dir / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            np.savetxt(path, np.asarray(content), delimiter=",", fmt="%.17e")
        self.outputs[name] = {"sha256": _sha256(path), "deterministic": deterministic}

    def write_manifest(self) -> None:
        manifest = {
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "timings": self.timings,
        }
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # numpy 2 reprs a numpy scalar as np.float64(...); write the number
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _format_record(record: dict) -> str:
    return "".join(f"{key}: {_format_value(value)}\n" for key, value in record.items())


def _write_outputs(recorder: RunRecorder, record: dict, report, plan=None) -> None:
    """Write result.txt, cv.csv when CV ran, and plan.csv when a plan is given."""
    recorder.write("result.txt", _format_record(record))
    if report is not None:
        lines = ["lambda,beta,score"]
        for (lam, beta), score in sorted(report.scores.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            lines.append(f"{lam!r},{beta!r},{score!r}")
        recorder.write("cv.csv", "\n".join(lines) + "\n")
    if plan is not None:
        recorder.write("plan.csv", plan)


# ---------------------------------------------------------------------------
# Shared argument handling


def _add_io_args(parser):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)


_DEFAULTS = EstimatorConfig()


def _add_config_args(parser):
    parser.add_argument(
        "--b", type=int, default=_DEFAULTS.n_basis, help="number of basis functions"
    )
    parser.add_argument("--epsilon", type=float, default=_DEFAULTS.epsilon, help="entropic weight")
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="ridge weight")
    parser.add_argument("--beta", type=float, default=None, help="paired/unpaired mixing weight")
    parser.add_argument(
        "--iters", type=int, default=_DEFAULTS.max_outer_iters, help="max outer iterations"
    )
    parser.add_argument(
        "--cv", action="store_true",
        help="select lambda and beta by cross-validation (implied when either is omitted)",
    )


def _add_synthetic_args(parser):
    parser.add_argument("--synthetic", choices=KINDS, help="generate data instead of reading files")
    parser.add_argument("--n", type=int, default=20, help="paired sample count")
    parser.add_argument("--nx", type=int, default=100, help="unpaired x pool size")
    parser.add_argument("--ny", type=int, default=100, help="unpaired y pool size")
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--noise-sd", dest="noise_sd", type=float, default=None)


def _add_file_args(parser):
    parser.add_argument("--x", help="x feature table")
    parser.add_argument("--y", help="y feature table")
    parser.add_argument("--paired", help="two-column index file: x row, y row of each known pair")


def _resolve_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        n_basis=args.b,
        epsilon=args.epsilon,
        lam=_DEFAULTS.lam if args.lam is None else args.lam,
        beta=_DEFAULTS.beta if args.beta is None else args.beta,
        max_outer_iters=args.iters,
        seed=args.seed,
    )


def _synthetic_spec(args) -> SyntheticSpec:
    return SyntheticSpec(
        kind=args.synthetic,
        n=args.n,
        n_x=args.nx,
        n_y=args.ny,
        dim=args.dim,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )


def _load_index(path, flag: str, recorder: RunRecorder) -> np.ndarray:
    """Read a two-column file of whole-number indices as an (N, 2) int
    array; no file gives no rows."""
    if not path:
        return np.empty((0, 2), dtype=int)
    recorder.note_input(path)
    table = load_table(path)
    if table.shape[1] != 2:
        raise ValueError(f"{flag} file must have two columns")
    if not np.all(np.mod(table, 1.0) == 0.0):
        raise ValueError(f"{flag} file has an entry that is not a whole number")
    return table.astype(int)


def _load_labels(path, flag: str, rows: int, recorder: RunRecorder) -> list:
    recorder.note_input(path)
    labels = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    if len(labels) != rows:
        raise ValueError(f"{flag} has {len(labels)} labels for a table of {rows} rows")
    return labels


def _load_indexed(args, recorder: RunRecorder):
    """Build a SampleSet from --x/--y tables plus an optional pair index.

    Returns (data, x_rows, y_rows) where the row lists map unpaired
    pool positions back to table rows.
    """
    if not args.x or not args.y:
        raise ValueError("file input needs both --x and --y")
    recorder.note_input(args.x)
    recorder.note_input(args.y)
    x = load_table(args.x)
    y = load_table(args.y)
    idx = _load_index(args.paired, "--paired", recorder)
    px, py = idx[:, 0], idx[:, 1]
    pools = []
    for name, ids, limit in (("x", px, x.shape[0]), ("y", py, y.shape[0])):
        taken = set(ids.tolist())
        if len(taken) != len(ids):
            raise ValueError(f"--paired repeats a {name} row")
        if ids.min(initial=0) < 0 or ids.max(initial=-1) >= limit:
            raise ValueError(f"--paired {name} row index out of range")
        pools.append([row for row in range(limit) if row not in taken])
    x_rows, y_rows = pools
    data = SampleSet(x[px], y[py], x[x_rows], y[y_rows])
    return data, x_rows, y_rows


def _resolve_data(args, recorder: RunRecorder):
    if args.synthetic and (args.x or args.y):
        raise ValueError("choose either --synthetic or --x/--y, not both")
    if args.synthetic:
        data = generate(_synthetic_spec(args))
        return data, list(range(data.n_x)), list(range(data.n_y))
    return _load_indexed(args, recorder)


def _tune(args, recorder: RunRecorder, data):
    """The run's config, with lambda and beta chosen by CV on ``data``
    when --cv is given or either is not pinned.  ``data=None`` skips CV.

    Returns (config, report); report is None when CV did not run.
    """
    config = _resolve_config(args)
    if data is None or not (args.cv or args.lam is None or args.beta is None):
        return config, None
    report = cross_validate(data, config, CvGrid(seed=args.seed))
    config = replace(config, lam=report.best_lambda, beta=report.best_beta)
    recorder.config["lam"] = config.lam
    recorder.config["beta"] = config.beta
    return config, report


def _tune_fit(args, recorder: RunRecorder, data):
    """Tune, fit and score loaded data: the pipeline estimate and match share.

    Returns (config, report, result, smi).
    """
    with recorder.phase("cv_seconds"):
        config, report = _tune(args, recorder, data)
    with recorder.phase("fit_seconds"):
        result = fit(data, config)
        smi = smi_estimate(result.model, data)
    return config, report, result, smi


# ---------------------------------------------------------------------------
# Commands


def cmd_estimate(args, recorder: RunRecorder) -> None:
    with recorder.phase("load_seconds"):
        data, _, _ = _resolve_data(args, recorder)
    config, report, result, smi = _tune_fit(args, recorder, data)
    with recorder.phase("write_seconds"):
        record = {
            "command": "estimate",
            "smi": smi,
            "lambda": config.lam,
            "beta": config.beta,
            "epsilon": config.epsilon,
            "b": result.model.basis.b,
            "n": data.n,
            "n_x": data.n_x,
            "n_y": data.n_y,
            "seed": args.seed,
            "cv": report is not None,
            "iterations": result.iterations_run,
            "converged": result.converged,
            "plan_feasible": result.plan.converged,
            "objective_trace": result.objective_trace,
        }
        _write_outputs(recorder, record, report, result.plan.pi if args.save_plan else None)


def cmd_match(args, recorder: RunRecorder) -> None:
    with recorder.phase("load_seconds"):
        data, x_rows, y_rows = _resolve_data(args, recorder)
        # Truth pairs that fall in the pools, as (pool position, pool position).
        local = []
        if args.truth:
            truth = _load_index(args.truth, "--truth", recorder)
            x_pos = {row: i for i, row in enumerate(x_rows)}
            y_pos = {row: j for j, row in enumerate(y_rows)}
            local = [(x_pos[i], y_pos[j]) for i, j in truth.tolist() if i in x_pos and j in y_pos]
        if bool(args.labels_x) != bool(args.labels_y):
            raise ValueError("--labels-x and --labels-y must be given together")
        lx = ly = None
        if args.labels_x:
            # a label file covers its whole table: the paired rows too when
            # the table was read from a file, only the pool when generated
            paired = 0 if args.synthetic else data.n
            lx = _load_labels(args.labels_x, "--labels-x", paired + data.n_x, recorder)
            ly = _load_labels(args.labels_y, "--labels-y", paired + data.n_y, recorder)
    config, report, result, smi = _tune_fit(args, recorder, data)
    assignment = plan_to_assignment(result.plan, method=args.method)
    record = {
        "command": "match",
        "lambda": config.lam,
        "beta": config.beta,
        "matched": len(assignment.pairs),
        "smi": smi,
        "iterations": result.iterations_run,
        "converged": result.converged,
        "plan_feasible": result.plan.converged,
    }
    if local:
        record["top1_accuracy"] = topk_accuracy(result.plan, local, 1)
        record["top2_accuracy"] = topk_accuracy(result.plan, local, 2)
    if lx is not None:
        same = [lx[x_rows[i]] == ly[y_rows[j]] for i, j in assignment.pairs]
        record["class_accuracy"] = float(np.mean(same))

    with recorder.phase("write_seconds"):
        lines = ["x_row,y_row"]
        lines += [f"{x_rows[i]},{y_rows[j]}" for i, j in assignment.pairs]
        recorder.write("assignment.csv", "\n".join(lines) + "\n")
        _write_outputs(recorder, record, report, result.plan.pi if args.save_plan else None)


def _parse_grid(args, recorder: RunRecorder) -> np.ndarray:
    if bool(args.grid) == bool(args.grid_file):
        raise ValueError("summarize needs exactly one of --grid RxC or --grid-file")
    if args.grid:
        try:
            rows, cols = (int(part) for part in args.grid.lower().split("x"))
        except ValueError:
            raise ValueError(f"--grid must look like 16x20, got {args.grid!r}") from None
        if rows < 1 or cols < 1:
            raise ValueError("--grid dimensions must be >= 1")
        return np.array([(r, c) for r in range(rows) for c in range(cols)], dtype=float)
    recorder.note_input(args.grid_file)
    return load_table(args.grid_file)


def cmd_summarize(args, recorder: RunRecorder) -> None:
    with recorder.phase("load_seconds"):
        positions = _parse_grid(args, recorder)
        recorder.note_input(args.items)
        items = load_table(args.items)
        anchors = _load_index(args.anchors, "--anchors", recorder)
        grid = GridSpec(positions, anchors)
    with recorder.phase("cv_seconds"):
        # CV holds out half of the anchors, so it needs a few of them
        cv_data = grid_sample_set(items, grid)[0] if len(grid.anchors) >= 4 else None
        config, report = _tune(args, recorder, cv_data)
    with recorder.phase("fit_seconds"):
        placements = grid_summarize(items, grid, config)
    with recorder.phase("write_seconds"):
        lines = ["position_index,item_index"]
        lines += [f"{p},{i}" for i, p in placements]
        recorder.write("placements.csv", "\n".join(lines) + "\n")
        placed = {i for i, _ in placements}
        unplaced = [i for i in range(items.shape[0]) if i not in placed]
        recorder.write("unplaced.csv", "item_index\n" + "".join(f"{i}\n" for i in unplaced))
        record = {
            "command": "summarize",
            "items": items.shape[0],
            "positions": positions.shape[0],
            "anchors": len(grid.anchors),
            "placed": len(placements),
            "unplaced": len(unplaced),
            "lambda": config.lam,
            "beta": config.beta,
        }
        _write_outputs(recorder, record, report)


def cmd_generate(args, recorder: RunRecorder) -> None:
    if not args.synthetic:
        raise ValueError("generate requires --synthetic KIND")
    with recorder.phase("generate_seconds"):
        data = generate(_synthetic_spec(args))
    with recorder.phase("write_seconds"):
        recorder.write("paired_x.csv", data.paired_x)
        recorder.write("paired_y.csv", data.paired_y)
        recorder.write("unpaired_x.csv", data.unpaired_x)
        recorder.write("unpaired_y.csv", data.unpaired_y)


def cmd_benchmark(args, recorder: RunRecorder) -> None:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if len(sizes) < 2:
        raise ValueError("--sizes needs at least two comma-separated sizes")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    config = _resolve_config(args)
    rows = []
    with recorder.phase("sweep_seconds"):
        for size in sizes:
            spec = SyntheticSpec(kind="linear", n=args.n, n_x=size, n_y=size, seed=args.seed)
            data = generate(spec)
            # minimum across repeats strips scheduler noise, which otherwise
            # drowns the smallest sizes in constant overhead
            best = min(
                (fit(data, config) for _ in range(args.repeats)),
                key=lambda r: r.timings["per_iteration_seconds"],
            )
            rows.append(
                (
                    size,
                    best.iterations_run,
                    best.timings["setup_seconds"],
                    best.timings["iteration_seconds"],
                    best.timings["per_iteration_seconds"],
                )
            )
    slope = float(
        np.polyfit(
            np.log([r[0] for r in rows]), np.log([r[4] for r in rows]), 1
        )[0]
    )
    with recorder.phase("write_seconds"):
        lines = ["size,iterations,setup_seconds,iteration_seconds,per_iteration_seconds"]
        lines += [f"{s},{it},{su!r},{io!r},{pi!r}" for s, it, su, io, pi in rows]
        recorder.write("benchmark.csv", "\n".join(lines) + "\n", deterministic=False)
        record = {
            "command": "benchmark",
            "sizes": sizes,
            "repeats": args.repeats,
            "slope": slope,
            "b": config.n_basis,
            "n": args.n,
        }
        recorder.write("result.txt", _format_record(record), deterministic=False)


def cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        manifest = {}
    argv = manifest.get("argv")
    if not isinstance(argv, list):
        raise ValueError(f"{manifest_path}: manifest has no 'argv' list")
    if argv[:1] == ["replay"]:
        # replay writes no manifest; re-running one would recurse without end
        raise ValueError(f"{manifest_path}: manifest 'argv' is itself a replay")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict):
        raise ValueError(f"{manifest_path}: manifest has no 'outputs' table")
    for name, rec in outputs.items():
        if not isinstance(rec, dict) or "sha256" not in rec:
            raise ValueError(f"{manifest_path}: manifest output {name!r} has no 'sha256'")
    if "--out" not in argv[:-1]:
        raise ValueError("manifest argv has no --out to redirect")
    argv[argv.index("--out") + 1] = args.out
    code = main(argv)
    if code != 0:
        print(f"replay: re-run failed with exit code {code}", file=sys.stderr)
        return code
    failures = 0
    for name, rec in sorted(outputs.items()):
        if not rec.get("deterministic", True):
            print(f"replay: {name}: skipped (timing-dependent)")
            continue
        new_digest = _sha256(Path(args.out) / name)
        if new_digest == rec["sha256"]:
            print(f"replay: {name}: ok")
        else:
            print(f"replay: {name}: MISMATCH")
            failures += 1
    if failures:
        print(f"replay: {failures} file(s) differ", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semismi",
        description="Squared-loss mutual information from few pairs plus unpaired pools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate SMI (CV + fit)")
    _add_io_args(p_est)
    _add_config_args(p_est)
    _add_synthetic_args(p_est)
    _add_file_args(p_est)
    p_est.add_argument("--save-plan", action="store_true", help="write plan.csv")
    p_est.set_defaults(func=cmd_estimate)

    p_match = sub.add_parser("match", help="match two feature tables")
    _add_io_args(p_match)
    _add_config_args(p_match)
    _add_synthetic_args(p_match)
    _add_file_args(p_match)
    p_match.add_argument("--truth", help="two-column file of true (x row, y row) pairs")
    p_match.add_argument("--labels-x", dest="labels_x", help="one label per x row")
    p_match.add_argument("--labels-y", dest="labels_y", help="one label per y row")
    p_match.add_argument("--method", choices=("greedy", "optimal"), default="optimal")
    p_match.add_argument("--save-plan", action="store_true", help="write plan.csv")
    p_match.set_defaults(func=cmd_match)

    p_sum = sub.add_parser("summarize", help="lay items out on a grid")
    _add_io_args(p_sum)
    _add_config_args(p_sum)
    p_sum.add_argument("--items", required=True, help="item feature table")
    p_sum.add_argument("--grid", help="grid shape, e.g. 16x20")
    p_sum.add_argument("--grid-file", dest="grid_file", help="explicit coordinate table")
    p_sum.add_argument("--anchors", help="two-column file of fixed (item, position) pairs")
    p_sum.set_defaults(func=cmd_summarize)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    _add_io_args(p_gen)
    _add_synthetic_args(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("benchmark", help="time the fit loop across sizes")
    _add_io_args(p_bench)
    _add_config_args(p_bench)
    p_bench.add_argument("--sizes", default="100,200,400,800", help="comma-separated pool sizes")
    p_bench.add_argument("--n", type=int, default=10, help="paired count per run")
    p_bench.add_argument("--repeats", type=int, default=5, help="timing repeats per size (min is kept)")
    # A basis small enough that no sweep size clamps it, so every run
    # prices the same number of features.
    p_bench.set_defaults(func=cmd_benchmark, b=100)

    p_replay = sub.add_parser("replay", help="re-run a manifest and verify outputs")
    p_replay.add_argument("manifest", help="path to manifest.json")
    p_replay.add_argument("--out", required=True, help="directory for the re-run")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(raw)
    try:
        if args.command == "replay":
            return cmd_replay(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        config["out"] = str(out_dir)
        recorder = RunRecorder(args.command, raw, out_dir, config)
        args.func(args, recorder)
        recorder.write_manifest()
        return 0
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
