"""Dataset construction: synthetic generators and tabular ingestion.

The synthetic kinds cover the standard dependence shapes (independent,
linear, sinusoidal, principal-component projection).  Paired samples
are drawn jointly; unpaired pools are fresh independent draws from the
same marginals, so nothing secretly pairs them.  Tabular data enters as
delimiter-separated numeric files and is split into an (x, y) view by
cross-correlation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimator import SampleSet
from .kernels import as_points

__all__ = [
    "SyntheticSpec",
    "generate",
    "load_table",
    "index_pairs",
    "split_pairs",
    "split_features",
    "make_semi_supervised",
]

KINDS = ("random", "linear", "nonlinear", "pca")

#: y = f(x) + noise of the two functional kinds.
_MAPS = {"linear": lambda v: 0.5 * v, "nonlinear": np.sin}
#: x dimension per kind (1 when absent): pca projects 2-D inputs.
_DIMS = {"pca": 2}
#: noise sd per kind (0 when absent, an exact map): variance 0.01 for linear.
_NOISE_SD = {"linear": 0.1}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset: ``n`` pairs plus pools of
    ``n_x`` and ``n_y``, drawn from ``seed``.

    x is 2-D for pca and 1-D otherwise; linear adds noise of sd 0.1 to
    y, and the other kinds' maps are exact.
    """

    kind: str
    n: int
    n_x: int
    n_y: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 0 or self.n_x < 0 or self.n_y < 0:
            raise ValueError("sample counts must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _top_component(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and first principal axis of a point cloud, sign-fixed."""
    mean = points.mean(axis=0)
    centered = points - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    w = vt[0]
    # Deterministic orientation: largest-magnitude coordinate positive.
    lead = np.argmax(np.abs(w))
    if w[lead] < 0:
        w = -w
    return mean, w


def generate(spec: SyntheticSpec) -> SampleSet:
    """Draw a SampleSet for the requested kind, fully seed-determined.

    Three independent streams (paired, x pool, y pool) guarantee that
    the pools carry no hidden pairing with each other or with the
    paired couples.  The y pool is a hidden sample of the y stream
    mapped like the paired x's (``random`` keeps it as it is).
    """
    dim = _DIMS.get(spec.kind, 1)
    sd = _NOISE_SD.get(spec.kind, 0.0)
    rng_pair, rng_x, rng_y = (
        np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(3)
    )

    paired_x = rng_pair.standard_normal((spec.n, dim))
    unpaired_x = rng_x.standard_normal((spec.n_x, dim))
    hidden = rng_y.standard_normal((spec.n_y, dim))
    if spec.kind == "random":
        paired_y = rng_pair.standard_normal((spec.n, dim))
        unpaired_y = hidden
    elif spec.kind == "pca":
        pool = np.vstack([paired_x, unpaired_x])
        if pool.shape[0] == 0:
            raise ValueError("pca kind needs at least one x sample to fit the axis")
        mean, w = _top_component(pool)
        paired_y = (paired_x - mean) @ w.reshape(-1, 1)
        unpaired_y = (hidden - mean) @ w.reshape(-1, 1)
    else:
        f = _MAPS[spec.kind]
        paired_y = f(paired_x) + sd * rng_pair.standard_normal((spec.n, dim))
        unpaired_y = f(hidden) + sd * rng_y.standard_normal((spec.n_y, dim))

    return SampleSet(paired_x, paired_y, unpaired_x, unpaired_y)


def load_table(path) -> np.ndarray:
    """Read a rectangular numeric table, sniffing delimiter and header.

    Returns an (n_rows, n_cols) float array.  The delimiter is a comma
    when the first line contains one, else whitespace; the first line
    is a header, and skipped, when any of its fields is non-numeric.
    """
    with open(path) as fh:
        first = fh.readline()
    if not first.strip():
        raise ValueError(f"{path}: empty table")
    delimiter = "," if "," in first else None
    has_header = False
    fields = [f for f in first.strip().split(delimiter) if f]
    for f in fields:
        try:
            float(f)
        except ValueError:
            has_header = True
            break
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=delimiter, skiprows=1 if has_header else 0, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: not a rectangular numeric table ({exc})") from exc
    if table.shape[0] == 0:  # numpy only warns; fail here, naming the file
        raise ValueError(f"{path}: no data rows")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite entry (NaN or inf) in data row {bad[0] + 1}")
    return table


def index_pairs(values, label: str) -> np.ndarray:
    """Known (row, row) pairs as an (N, 2) int array.

    ``values`` must be two columns of whole numbers, or empty; errors
    name ``label``.  Ranges are the caller's to check.
    """
    table = np.asarray(values, dtype=float)
    if table.shape[1:] != (2,) and table.shape != (0,):
        raise ValueError(f"{label} must have two columns")
    with np.errstate(invalid="ignore"):
        whole = np.mod(table, 1.0) == 0.0
    if not whole.all():
        raise ValueError(f"{label} has an entry that is not a whole number: {table[~whole][0]}")
    huge = np.abs(table) >= 2.0**63
    if huge.any():  # past int64: the cast would wrap it
        raise ValueError(f"{label} has an entry too large for an index: {table[huge][0]}")
    return table.astype(int).reshape(-1, 2)


def split_pairs(x, y, pairs: np.ndarray, label: str) -> tuple[SampleSet, list, list]:
    """Two tables as their known pairs, in order, plus the other rows as pools.

    ``pairs`` holds in-range (x row, y row) indices from :func:`index_pairs`;
    a row named twice is rejected, naming ``label``.  Returns (data,
    x_rows, y_rows), the lists giving each pool position's table row.
    """
    pools = []
    for side, table, rows in (("x", x, pairs[:, 0]), ("y", y, pairs[:, 1])):
        free = np.ones(len(table), dtype=bool)
        free[rows] = False
        if len(rows) + np.count_nonzero(free) != len(table):
            raise ValueError(f"{label} repeats a {side} row")
        pools.append(np.flatnonzero(free).tolist())
    return SampleSet(x[pairs[:, 0]], y[pairs[:, 1]], x[pools[0]], y[pools[1]]), *pools


def split_features(table, d_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Split columns into an x block and a y block by cross-correlation.

    Greedily takes the most correlated remaining column pair and puts
    its members on opposite sides (lower index to x), so strongly
    related columns end up across the split; once one side is full, or
    no correlation signal remains, the leftover columns fill the open
    side in index order.  Constant columns correlate with nothing and
    are treated as correlation zero, with a warning.
    """
    table = as_points(table, "table")
    n_cols = table.shape[1]
    if n_cols < 2:
        raise ValueError("need at least 2 columns to split")
    if not 1 <= d_x < n_cols:
        raise ValueError(f"d_x must lie in [1, {n_cols - 1}], got {d_x}")

    std = table.std(axis=0)
    if np.any(std == 0.0):
        warnings.warn(
            "constant columns have undefined correlation; treating as 0",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(table, rowvar=False)
    corr = np.abs(np.nan_to_num(corr, nan=0.0))
    np.fill_diagonal(corr, 0.0)

    d_y = n_cols - d_x
    x_side: list[int] = []
    y_side: list[int] = []
    unassigned = set(range(n_cols))
    while len(x_side) < d_x and len(y_side) < d_y:
        free = sorted(unassigned)
        sub = corr[np.ix_(free, free)]
        if len(free) < 2 or sub.max() == 0.0:
            break
        flat = int(np.argmax(sub))  # first max in row-major order: smallest (i, j)
        i, j = divmod(flat, len(free))
        i, j = free[min(i, j)], free[max(i, j)]
        x_side.append(i)
        y_side.append(j)
        unassigned -= {i, j}
    for c in sorted(unassigned):
        if len(x_side) < d_x:
            x_side.append(c)
        else:
            y_side.append(c)
    x_side.sort()
    y_side.sort()
    return table[:, x_side], table[:, y_side]


def make_semi_supervised(
    x, y, n: int, n_x: int, n_y: int, seed: int = 0
) -> SampleSet:
    """Carve paired couples and unpaired pools out of aligned rows.

    A seeded shuffle reserves the first ``n`` rows as pairs.  Both
    pools come from the remaining rows only — never from a paired row —
    and the y pool re-selects rows under an independent shuffle, which
    severs any positional pairing between the two pools.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    rows = x.shape[0]
    if y.shape[0] != rows:
        raise ValueError("x and y must have the same number of rows")
    if min(n, n_x, n_y) < 0:
        raise ValueError("sample counts must be non-negative")
    if n + max(n_x, n_y) > rows:
        raise ValueError(
            f"insufficient rows: need n + max(n_x, n_y) = {n + max(n_x, n_y)}, have {rows}"
        )
    rng_split, rng_y = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    perm = rng_split.permutation(rows)
    paired = perm[:n]
    remainder = perm[n:]
    x_rows = remainder[:n_x]
    y_rows = rng_y.permutation(remainder)[:n_y]
    return SampleSet(x[paired], y[paired], x[x_rows], y[y_rows])
