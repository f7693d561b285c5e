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
import io
import json
import math
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager, redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import KINDS, SyntheticSpec, generate, index_pairs, load_table, split_pairs
from .estimator import EstimatorConfig, fit
from .matching import (
    GridSpec,
    _placements,
    grid_sample_set,
    naming_grid_sides,
    plan_to_assignment,
    topk_accuracy,
)
from .model_selection import MIN_PAIRS, CvGrid, cross_validate

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Run bookkeeping


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Matrix text: the bytes of np.savetxt(..., fmt="%.17e", delimiter=","),
# formatted a block of rows at a time with numpy instead of one CPython
# float format per entry.
#
# An entry x with decimal exponent k prints the 18 digits of
# N = round(|x| * 10**(17 - k)), 10**17 <= N < 10**18, rounded half to
# even as CPython does.  The fast path takes zeros and the normal doubles
# below 10**100 (DBL_MIN <= |x|, down to k = -308).  Below 10**-99, where
# the exponent has three digits, 10**(17 - k) is past the largest double,
# so |x| is first scaled by 2**_PRESCALE, which is exact, and the table
# holds 10**(17 - k) / 2**_PRESCALE.  A row holding any other entry
# (NaN, inf, a subnormal), or an entry it cannot certify, is formatted by
# CPython exactly as savetxt formats it.

#: entries formatted per block: bounds the writer's working memory
#: (about 220 bytes an entry at its peak) whatever the matrix size.
_BLOCK_ENTRIES = 1 << 12
_K_MIN, _K_MAX = -308, 99
#: |x| < 10**-99 is scaled by 2**_PRESCALE: then 2**-510 <= |x| < 2**184
#: and the scale lies between 2**-124 and 2**568, so no product of
#: Dekker's halves leaves the normal doubles and the bound below holds.
_PRESCALE = 512
_DBL_MIN = float(np.finfo(np.float64).tiny)
#: the Dekker splitter 2**27 + 1: a*_SPLIT separates a double's high
#: and low 26-bit halves, whose pairwise products are exact.
_SPLIT = 134217729.0


def _ratio(k: int, shift: int = 0) -> tuple[int, int]:
    """10**k / 2**shift as an integer numerator and denominator.

    Integer true division rounds correctly, so n / d is the nearest
    double; integers build the tables faster than Fraction.
    """
    return (10**k, 2**shift) if k >= 0 else (1, 10**-k * 2**shift)


def _ceil_pow10(k: int) -> float:
    """The smallest double >= 10**k."""
    n, d = _ratio(k)
    nearest = n / d
    p, q = nearest.as_integer_ratio()
    return nearest if p * d >= n * q else math.nextafter(nearest, math.inf)


def _scale(k: int):
    """10**(17 - k), over 2**_PRESCALE for k < -99, as a double-double
    hi + lo, and hi's Dekker halves."""
    n, d = _ratio(17 - k, _PRESCALE if k < -99 else 0)
    hi = n / d
    p, q = hi.as_integer_ratio()
    lo = (n * q - p * d) / (d * q)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, lo, hi_h, hi - hi_h


def _table(texts) -> np.ndarray:
    """Four-character ASCII texts, one uint32 each, in native byte order."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


#: entry k - _K_MIN: the smallest double >= 10**k, for k in [-308, 100].
_CEIL10 = np.array([_ceil_pow10(k) for k in range(_K_MIN, _K_MAX + 2)])
#: entry k - _K_MIN of each: the four doubles of _scale(k).
_HI, _LO, _HI_H, _HI_L = np.array([_scale(k) for k in range(_K_MIN, _K_MAX + 1)]).T.copy()
#: An error bound on N.  With u = 2**-53 and s = 17 - k: hi + lo =
#: 10**s * (1 + d), |d| <= u**2; |lo| <= u*hi; v = |x| * 10**s < 10**18
#: < 2**60.  Dekker's product gives |x|*hi = p1 + p2 exactly, |p2| <= 2**6,
#: and the computed N + f = p1 + fl(p2 + fl(|x|*lo)) is off from v by at
#: most v*u**2 (d) + v*u**2 (|x|*lo rounded) + u*(2**6 + 2**7 + 1) (the
#: sum rounded) < 2**-46 + 2**-46 + 2**-45 = 2**-44.  A fraction f that
#: far from .5 rounds the same way as v's; this bound leaves a 16-fold
#: margin.
_TIE_BOUND = 2.0**-40
#: entry 100*negative + N // 10**16: the sign (NUL, not written, for
#: none), the first digit, the point and the second digit.
_HEADS = _table(f"{sign}{i // 10}.{i % 10}" for sign in "\0-" for i in range(100))
#: "0000".."9999", built from digits: 10000 Python strings would raise
#: every command's peak RSS by about 0.6 MB.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
#: entry k - _K_MIN: an exponent's first four characters ("e-30" of e-308)
_EXPONENTS = _table(f"e{k:+03d}"[:4] for k in range(_K_MIN, _K_MAX + 1))


def _digits(x: np.ndarray):
    """The flat entries ``x`` (zeros or DBL_MIN <= |x| < 10**100) as
    %.17e fields.

    Returns (chars, negative, long, certain).  Row i of the (len(x), 28)
    uint8 chars holds the sign or NUL in column 0, the field's other 23
    characters in columns 1-23, then a comma, or where long is True (a
    three-digit exponent) the exponent's last digit and a comma, and
    padding after it.  certain is False where the fast path cannot vouch
    for N.
    """
    ax = np.abs(x)
    zero = ax == 0.0
    ax[zero] = 1.0
    k = np.clip(np.floor(np.log10(ax)), _K_MIN, _K_MAX).astype(np.int64)
    # log10 may be one off next to a power of ten; the table is exact
    k -= ax < _CEIL10[k - _K_MIN]
    k += ax >= _CEIL10[k + 1 - _K_MIN]
    row = k - _K_MIN
    long = k < -99
    some_long = long.any()
    if some_long:
        ax[long] *= 2.0**_PRESCALE
    p1 = ax * _HI[row]
    c = _SPLIT * ax
    ax_h = c - (c - ax)
    ax_l = ax - ax_h
    hi_h, hi_l = _HI_H[row], _HI_L[row]
    p2 = ((ax_h * hi_h - p1) + ax_h * hi_l + ax_l * hi_h) + ax_l * hi_l
    r = p2 + ax * _LO[row]
    whole = np.floor(r)
    frac = r - whole
    certain = np.abs(frac - 0.5) > _TIE_BOUND
    # p1 >= 2**56 is a whole number, so the int conversion is exact
    n = p1.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # a certain N < 10**18: no double in the fast range rounds up to the
    # next power of ten (tested); the clamp keeps uncertain entries' lookups
    # in range
    np.minimum(n, 10**18 - 1, out=n)
    n[zero] = 0
    k[zero] = 0
    negative = np.signbit(x)

    head = n // 10**16
    rest = n - head * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    words = np.empty((x.size, 7), dtype=np.uint32)
    words[:, 0] = _HEADS[head + 100 * negative]
    words[:, 1] = _QUADS[upper // 10**4]
    words[:, 2] = _QUADS[upper % 10**4]
    words[:, 3] = _QUADS[lower // 10**4]
    words[:, 4] = _QUADS[lower % 10**4]
    words[:, 5] = _EXPONENTS[row]
    chars = words.view(np.uint8)
    chars[:, 24] = ord(",")
    if some_long:
        chars[long, 24] = ord("0") + -k[long] % 10
        chars[:, 25] = ord(",")
    return chars, negative, long, certain


def _matrix_rows(block: np.ndarray, row_format: str) -> bytes:
    """The savetxt text of the rows of ``block``, which has columns."""
    ax = np.abs(block)
    eligible = ((ax >= _DBL_MIN) & (ax < _CEIL10[-1]) | (ax == 0.0)).all(axis=1)
    cols = block.shape[1]
    chars, negative, long, certain = _digits(block[eligible].ravel())
    # a row's last field ends in a newline instead of its comma
    last = chars.reshape(-1, cols, 28)[:, -1]
    last[np.arange(last.shape[0]), 24 + long.reshape(-1, cols)[:, -1]] = ord("\n")
    if negative.any() or long.any():
        keep = np.zeros(chars.shape, dtype=bool)
        keep[:, 0] = negative
        keep[:, 1:25] = True
        keep[:, 25] = long
        text = chars[keep].tobytes()
    else:
        text = chars[:, 1:25].tobytes()
    sure = certain.reshape(-1, cols).all(axis=1)
    if eligible.all() and sure.all():
        return text
    # a row for CPython: cut the fast text into its rows
    extra = negative.reshape(-1, cols).sum(axis=1) + long.reshape(-1, cols).sum(axis=1)
    ends = np.cumsum(24 * cols + extra).tolist()
    fast = iter(zip([0] + ends, ends, sure.tolist()))
    pieces = []
    for row, ok in zip(block, eligible.tolist()):
        if ok:
            start, end, ok = next(fast)
        pieces.append(text[start:end] if ok else (row_format % tuple(row.tolist())).encode())
    return b"".join(pieces)


def _matrix_chunks(matrix: np.ndarray) -> Iterator[bytes]:
    """The bytes np.savetxt(path, matrix, fmt="%.17e", delimiter=",")
    writes, a block of rows at a time, for a float64 matrix with at
    least one column."""
    rows, cols = matrix.shape
    row_format = ",".join(["%.17e"] * cols) + "\n"
    step = max(1, _BLOCK_ENTRIES // cols)
    for start in range(0, rows, step):
        yield _matrix_rows(matrix[start : start + step], row_format)


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

        A string is written as is; anything else is a float64 matrix with
        at least one column, written as comma-separated ``%.17e`` values,
        one row per line, byte for byte what
        ``numpy.savetxt(path, content, fmt="%.17e", delimiter=",")``
        writes.  The digest covers the bytes as written.
        """
        chunks = [content.encode()] if isinstance(content, str) else _matrix_chunks(content)
        digest = hashlib.sha256()
        with open(self.out_dir / name, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        self.outputs[name] = {"sha256": digest.hexdigest(), "deterministic": deterministic}

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

#: benchmark's basis; a size below BENCH_BASIS - BENCH_PAIRS clamps it
#: to size + BENCH_PAIRS, and result.txt records each size's basis.
BENCH_BASIS = 100
#: benchmark's paired count per run.
BENCH_PAIRS = 10


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


def _add_synthetic_args(parser):
    parser.add_argument("--synthetic", choices=KINDS, help="generate data instead of reading files")
    parser.add_argument("--n", type=int, default=20, help="paired sample count")
    parser.add_argument("--nx", type=int, default=100, help="unpaired x pool size")
    parser.add_argument("--ny", type=int, default=100, help="unpaired y pool size")


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
        seed=args.seed,
    )


def _load_index(path, flag: str, recorder: RunRecorder, rows=None) -> np.ndarray:
    """Read a two-column file of whole-number indices as an (N, 2) int
    array, columns below ``rows`` (x, y) when given; no file gives no rows."""
    if not path:
        return np.empty((0, 2), dtype=int)
    recorder.note_input(path)
    idx = index_pairs(load_table(path), f"{flag} file")
    if rows is not None and (idx.min() < 0 or (idx >= rows).any()):
        raise ValueError(f"{flag} row index out of range ({rows[0]} x rows, {rows[1]} y rows)")
    return idx


def _load_labels(path, flag: str, rows: int, recorder: RunRecorder) -> list:
    recorder.note_input(path)
    labels = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    if len(labels) != rows:
        raise ValueError(f"{flag} has {len(labels)} labels for a table of {rows} rows")
    return labels


def _resolve_data(args, recorder: RunRecorder):
    """The run's SampleSet, generated or read from --x/--y split by the
    --paired index, and the table row of each x and y pool position."""
    if args.synthetic and (args.x or args.y or args.paired):
        raise ValueError("choose either --synthetic or --x/--y/--paired, not both")
    if args.synthetic:
        data = generate(_synthetic_spec(args))
        return data, list(range(data.n_x)), list(range(data.n_y))
    if not args.x or not args.y:
        raise ValueError("file input needs both --x and --y")
    recorder.note_input(args.x)
    recorder.note_input(args.y)
    x, y = load_table(args.x), load_table(args.y)
    idx = _load_index(args.paired, "--paired", recorder, (x.shape[0], y.shape[0]))
    return split_pairs(x, y, idx, "--paired")


def _tune(args, recorder: RunRecorder, data):
    """The run's config, with lambda and beta chosen by CV on ``data``
    unless --lambda and --beta pin them; one without the other is an
    error.  ``data=None`` skips CV.

    Returns (config, report); report is None when CV did not run.
    """
    if (args.lam is None) != (args.beta is None):
        raise ValueError("--lambda and --beta must be given together")
    config = _resolve_config(args)
    if data is None or args.lam is not None:
        return config, None
    report = cross_validate(data, config, CvGrid(seed=args.seed))
    config = replace(config, lam=report.best_lambda, beta=report.best_beta)
    recorder.config["lam"] = config.lam
    recorder.config["beta"] = config.beta
    return config, report


def _plan_exit_code(plan) -> int:
    """3, naming the violation on stderr, when the final plan missed its marginals."""
    if plan.converged:
        return 0
    print(f"infeasible plan: marginal error {plan.marginal_error:.3e}", file=sys.stderr)
    return 3


def _tune_fit(args, recorder: RunRecorder, data):
    """Tune, fit and score loaded data: the pipeline estimate and match share.

    Returns (config, report, result).
    """
    with recorder.phase("cv_seconds"):
        config, report = _tune(args, recorder, data)
    with recorder.phase("fit_seconds"):
        result = fit(data, config)
    return config, report, result


# ---------------------------------------------------------------------------
# Commands


def cmd_estimate(args, recorder: RunRecorder) -> int:
    with recorder.phase("load_seconds"):
        data, _, _ = _resolve_data(args, recorder)
    config, report, result = _tune_fit(args, recorder, data)
    with recorder.phase("write_seconds"):
        record = {
            "command": "estimate",
            "smi": result.smi,
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
    return _plan_exit_code(result.plan)


def cmd_match(args, recorder: RunRecorder) -> int:
    with recorder.phase("load_seconds"):
        data, x_rows, y_rows = _resolve_data(args, recorder)
        # Truth and label files index whole tables, only the pools when generated.
        paired = 0 if args.synthetic else data.n
        rows_x, rows_y = paired + data.n_x, paired + data.n_y
        truth = _load_index(args.truth, "--truth", recorder, (rows_x, rows_y))
        # Truth pairs that fall in the pools, as (pool position, pool position).
        x_pos, y_pos = ({row: i for i, row in enumerate(rows)} for rows in (x_rows, y_rows))
        local = [(x_pos[i], y_pos[j]) for i, j in truth.tolist() if i in x_pos and j in y_pos]
        if bool(args.labels_x) != bool(args.labels_y):
            raise ValueError("--labels-x and --labels-y must be given together")
        lx = ly = None
        if args.labels_x:
            lx = _load_labels(args.labels_x, "--labels-x", rows_x, recorder)
            ly = _load_labels(args.labels_y, "--labels-y", rows_y, recorder)
    config, report, result = _tune_fit(args, recorder, data)
    assignment = plan_to_assignment(result.plan)
    record = {
        "command": "match",
        "lambda": config.lam,
        "beta": config.beta,
        "matched": len(assignment),
        "smi": result.smi,
        "iterations": result.iterations_run,
        "converged": result.converged,
        "plan_feasible": result.plan.converged,
    }
    if local:
        record["top1_accuracy"] = topk_accuracy(result.plan, local, 1)
        record["top2_accuracy"] = topk_accuracy(result.plan, local, 2)
    if lx is not None:
        same = [lx[x_rows[i]] == ly[y_rows[j]] for i, j in assignment]
        record["class_accuracy"] = float(np.mean(same))

    with recorder.phase("write_seconds"):
        lines = ["x_row,y_row"]
        lines += [f"{x_rows[i]},{y_rows[j]}" for i, j in assignment]
        recorder.write("assignment.csv", "\n".join(lines) + "\n")
        _write_outputs(recorder, record, report, result.plan.pi if args.save_plan else None)
    return _plan_exit_code(result.plan)


def _parse_grid(grid) -> np.ndarray:
    if not grid:
        raise ValueError("summarize needs --grid RxC")
    try:
        rows, cols = (int(part) for part in grid.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid must look like 16x20, got {grid!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError("--grid dimensions must be >= 1")
    return np.array([(r, c) for r in range(rows) for c in range(cols)], dtype=float)


def cmd_summarize(args, recorder: RunRecorder) -> int:
    with recorder.phase("load_seconds"):
        positions = _parse_grid(args.grid)
        recorder.note_input(args.items)
        items = load_table(args.items)
        anchors = _load_index(args.anchors, "--anchors", recorder)
        grid = GridSpec(positions, anchors)
    with recorder.phase("cv_seconds"), naming_grid_sides():
        problem = grid_sample_set(items, grid)
        data = problem[0]
        # CV holds out half of the anchors, so it needs MIN_PAIRS of them, and
        # with no item or no position free there is nothing to fit
        tunable = len(grid.anchors) >= MIN_PAIRS and data.n_x > 0 and data.n_y > 0
        config, report = _tune(args, recorder, data if tunable else None)
    with recorder.phase("fit_seconds"):
        placements, result = _placements(grid, problem, config)
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
            "beta": grid.fit_config(config).beta,
        }
        if result is not None:
            record.update(converged=result.converged, plan_feasible=result.plan.converged)
        _write_outputs(recorder, record, report)
    return 0 if result is None else _plan_exit_code(result.plan)


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
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if len(set(sizes)) < 2 or min(sizes) < 1:
        raise ValueError(f"--sizes needs two or more distinct integers >= 1, got {args.sizes!r}")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    config = EstimatorConfig(n_basis=BENCH_BASIS, seed=args.seed)
    rows = [None] * len(sizes)
    bases = [None] * len(sizes)
    with recorder.phase("sweep_seconds"):
        pools = [generate(SyntheticSpec("linear", BENCH_PAIRS, size, size, seed=args.seed)) for size in sizes]
        # each round fits every size once, so all sizes get as many draws;
        # the minimum strips scheduler noise, which otherwise drowns the
        # smallest sizes in constant overhead
        for _ in range(args.repeats):
            for i, data in enumerate(pools):
                result = fit(data, config)
                bases[i] = result.model.basis.b
                t = result.timings
                if rows[i] is None or t["per_iteration_seconds"] < rows[i][4]:
                    rows[i] = (
                        sizes[i],
                        result.iterations_run,
                        t["setup_seconds"],
                        t["iteration_seconds"],
                        t["per_iteration_seconds"],
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
            "b": bases,
            "n": BENCH_PAIRS,
        }
        recorder.write("result.txt", _format_record(record), deterministic=False)


def cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        manifest = {}
    argv = manifest.get("argv")
    if not isinstance(argv, list) or not argv or not all(isinstance(a, str) for a in argv):
        raise ValueError(f"{manifest_path}: manifest 'argv' must be a non-empty list of strings")
    if argv[:1] == ["replay"]:
        # replay writes no manifest; re-running one would recurse without end
        raise ValueError(f"{manifest_path}: manifest 'argv' is itself a replay")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict):
        raise ValueError(f"{manifest_path}: manifest has no 'outputs' table")
    for name, rec in outputs.items():
        if not isinstance(rec, dict) or "sha256" not in rec:
            raise ValueError(f"{manifest_path}: manifest output {name!r} has no 'sha256'")
    # argparse keeps a flag's last value, so an appended --out redirects the run
    argv = [*argv, "--out", args.out]
    with redirect_stderr(io.StringIO()) as usage:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            cause = " ".join(usage.getvalue().splitlines()[-1:])
            raise ValueError(f"{manifest_path}: manifest argv does not parse: {cause}") from None
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
    p_match.add_argument("--save-plan", action="store_true", help="write plan.csv")
    p_match.set_defaults(func=cmd_match)

    p_sum = sub.add_parser("summarize", help="lay items out on a grid")
    _add_io_args(p_sum)
    _add_config_args(p_sum)
    p_sum.add_argument("--items", required=True, help="item feature table")
    p_sum.add_argument("--grid", help="grid shape, e.g. 16x20")
    p_sum.add_argument("--anchors", help="two-column file of fixed (item, position) pairs")
    p_sum.set_defaults(func=cmd_summarize)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    _add_io_args(p_gen)
    _add_synthetic_args(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("benchmark", help="time the fit loop across sizes")
    _add_io_args(p_bench)
    p_bench.add_argument("--sizes", default="100,200,400,800", help="comma-separated pool sizes")
    p_bench.add_argument("--repeats", type=int, default=5, help="timing repeats per size (min is kept)")
    p_bench.set_defaults(func=cmd_benchmark)

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
        code = args.func(args, recorder) or 0
        recorder.write_manifest()
        return code
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
