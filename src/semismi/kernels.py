"""Gaussian kernel features for the density-ratio model.

A pair (x, y) is scored by b basis functions, each the product of a
Gaussian bump centred at a sampled x point and one centred at a sampled
y point.  This module owns bandwidth selection, basis sampling, and the
kernel feature matrices everything else is built from.

Squared distances are formed with numpy alone, one row block at a
time, in one of two ways set by the number of coordinates d:

- Below ``GEMM_MIN_DIM`` = 4 coordinates, (a_k - b_k)^2 is added over
  k = 0..d-1 in order.  That is the order of scipy's
  ``cdist``/``pdist`` loop, so the kernels and bandwidths carry the
  same bits as theirs.
- Otherwise each block is one BLAS GEMM on the points centred by m, the
  mean of the first point set (the pool for a bandwidth, the centres
  for a gram):
  e = (|a - m|^2 + |b - m|^2) - 2 (a - m).(b - m).  An entry at most
  4 d u (|a - m|^2 + |b - m|^2), u = 2**-53, is set to 0: that covers
  every rounding error of a coincident pair, so coincident points are
  exactly 0 apart, and no entry is negative.  Every entry then meets
  |e - d^2| <= 8 d u (|a - m|^2 + |b - m|^2) against the exact squared
  distance d^2 (rounding of the centring, the norms, the GEMM and two
  additions; for d u << 1).

The GEMM is the faster form from 4 coordinates up and the slower at
d = 1: a 1050-point bandwidth takes 5 ms against the loop's 7 ms at
d = 4, 6 against 33 ms at d = 32, and 5.5 against 5.0 ms at d = 1 (a
2-core box with OpenBLAS).  A fit loads no scipy either way.
The bandwidth's median is selected from the blocks as they stream past,
so no array of all pairwise distances is ever held.  Every entry point
rejects a point with a NaN or infinite coordinate, so both forms see
finite points only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSet",
    "median_heuristic",
    "gaussian_gram",
    "sample_basis",
    "feature_columns",
]

#: Pool size above which median_heuristic subsamples its points.
MAX_POINTS = 2000

#: Entries per row block of a squared-distance pass; a block and its
#: scratch (512 KiB each) stay in cache across the d coordinate passes.
BLOCK_ENTRIES = 1 << 16

#: Half-width of median_heuristic's first bracket, in standard errors of
#: a sampled rank.  A bracket misses with probability about 6e-5 per
#: side; a miss costs one more pass with a bracket 8 times as wide.
BRACKET_SIGMAS = 4.0

#: Coordinates from which a block of squared distances is one GEMM on
#: centred points rather than d passes with cdist's bits.
GEMM_MIN_DIM = 4


def as_points(samples, name: str = "samples") -> np.ndarray:
    """Coerce to an (N, d) float array; 1-D input becomes a column."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {pts.shape}")
    if pts.shape[0] and not pts.shape[1]:
        raise ValueError(f"{name} has no columns: shape {pts.shape}")
    return pts


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"bandwidth must be positive and finite, got {sigma}")
    return sigma


def _add_squares(out, a, bT, scratch) -> None:
    """out[r, c] = sum_k (a[r, k] - bT[k, c])^2, added over k in order.

    That is scipy's order, so each entry has cdist's bits.  ``scratch``
    is a flat buffer of at least out.size entries; one coordinate needs
    none.
    """
    np.subtract(a[:, :1], bT[0], out=out)
    np.multiply(out, out, out=out)
    if a.shape[1] > 1:
        tmp = scratch[: out.size].reshape(out.shape)
    for k in range(1, a.shape[1]):
        np.subtract(a[:, k : k + 1], bT[k], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)


def _gemm_squares(out, a, qa, bT, qb, scratch) -> None:
    """out[r, c] = (qa[r] + qb[c]) - 2 a[r] . bT[:, c], by one GEMM.

    a and bT hold centred points and qa, qb their rows' squared norms.
    An entry at most 4 d u (qa[r] + qb[c]), u = 2**-53, is set to 0:
    that covers every rounding error of a coincident pair, so its
    distance is exactly 0, and no negative value is left.  ``scratch``
    is as for :func:`_add_squares`.
    """
    norms = scratch[: out.size].reshape(out.shape)
    np.add(qa[:, None], qb, out=norms)
    np.matmul(a, bT, out=out)
    out *= -2.0
    out += norms
    norms *= 4.0 * a.shape[1] * 2.0**-53
    np.copyto(out, 0.0, where=out <= norms)


def _scratch(entries: int, d: int) -> np.ndarray:
    """The flat scratch of :func:`_add_squares` or :func:`_gemm_squares`."""
    return np.empty(entries if d > 1 else 0)


def _block_filler(a, b, entries: int):
    """A function fill(out, rows, start) that sets ``out`` to the squared
    distances of a[rows] against b[start:], blocks of at most ``entries``.

    Below ``GEMM_MIN_DIM`` coordinates it adds squares over a contiguous
    copy of b's transpose; from there on both sides are centred by a's
    mean and each block is one GEMM.  The points are finite.
    """
    scratch = _scratch(entries, a.shape[1])
    if a.shape[1] < GEMM_MIN_DIM:
        bT = np.ascontiguousarray(b.T)
        return lambda out, rows, start: _add_squares(out, a[rows], bT[:, start:], scratch)
    mean = a.sum(axis=0) / max(a.shape[0], 1)
    ca = a - mean
    cb = ca if b is a else b - mean
    qa, qb = (np.einsum("ij,ij->i", p, p) for p in (ca, cb))
    return lambda out, rows, start: _gemm_squares(
        out, ca[rows], qa[rows], cb[start:].T, qb[start:], scratch
    )


def _squared_distances(a, b) -> np.ndarray:
    """The (len(a), len(b)) matrix of squared distances.

    It is filled in row blocks of about ``BLOCK_ENTRIES`` entries.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, BLOCK_ENTRIES // max(b.shape[0], 1))
    fill = _block_filler(a, b, min(step, a.shape[0]) * b.shape[0])
    for i in range(0, a.shape[0], step):
        fill(out[i : i + step], slice(i, i + step), 0)
    return out


def _upper_blocks(pts: np.ndarray):
    """Yield pts's pairwise squared distances, one row block at a time.

    A block holds rows i..stop-1 against the points after row i, about
    ``BLOCK_ENTRIES`` entries, and is a view of one buffer that the next
    block overwrites.  Its entries that pair a row's point with itself
    or an earlier point are not pairs of the upper triangle; they are
    NaN, so no comparison counts them.
    """
    n = pts.shape[0]
    buffer = np.empty(max(BLOCK_ENTRIES, n - 1))
    fill = _block_filler(pts, pts, buffer.size)
    i = 0
    while i < n - 1:
        stop = min(n - 1, i + max(1, BLOCK_ENTRIES // (n - 1 - i)))
        rows = stop - i
        block = buffer[: rows * (n - 1 - i)].reshape(rows, n - 1 - i)
        fill(block, slice(i, stop), i + 1)
        block[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.nan
        yield block
        i = stop


def _bracket_pass(pts: np.ndarray, lo: float, hi: float):
    """Stream the pair values once against the bracket [lo, hi].

    Returns the counts of values < lo, <= lo, < hi and <= hi, and the
    values strictly between lo and hi, as a list of pieces.  Values
    equal to a bound are counted, not kept, so ties at a bound cost no
    memory.
    """
    counts = [0, 0, 0, 0]
    kept = []
    for block in _upper_blocks(pts):
        lower = block < lo
        counts[0] += np.count_nonzero(lower)
        np.less_equal(block, lo, out=lower)
        counts[1] += np.count_nonzero(lower)
        upper = block < hi
        counts[2] += np.count_nonzero(upper)
        kept.append(block[np.greater(upper, lower, out=lower)])
        np.less_equal(block, hi, out=upper)
        counts[3] += np.count_nonzero(upper)
    return counts, kept


def _bracket_levels(pts: np.ndarray, rng, ranks: list) -> list:
    """Brackets around the pair values at ``ranks``, narrowest first.

    The bounds are order statistics of m pairs drawn uniformly with
    replacement, m chosen so that the first bracket holds about
    ``BLOCK_ENTRIES`` pair values.  Each further level is 8 times as
    wide, and the last is (-inf, inf), which holds every pair.  A pool
    with at most ``BLOCK_ENTRIES`` pairs gets that last level only.
    """
    n, d = pts.shape
    count = n * (n - 1) // 2
    if count <= BLOCK_ENTRIES:
        return [(-np.inf, np.inf)]
    m = min(count, math.ceil((BRACKET_SIGMAS * count / BLOCK_ENTRIES) ** 2))
    # pair p of the upper triangle, in row order, is (row, col) with
    # starts[row] <= p < starts[row + 1]
    first = np.arange(n - 1)
    starts = first * (2 * n - first - 1) // 2
    picks = rng.integers(count, size=m)
    rows = np.searchsorted(starts, picks, side="right") - 1
    cols = picks - starts[rows] + rows + 1
    sample = np.empty(m)
    # the sampled points come in chunks of BLOCK_ENTRIES / 8 coordinates
    step = max(1, BLOCK_ENTRIES // (8 * d))
    for s in range(0, m, step):
        diff = pts[rows[s : s + step]] - pts[cols[s : s + step]]
        sample[s : s + step] = np.einsum("ij,ij->i", diff, diff)
    # a sampled rank near the middle has standard error sqrt(m) / 2
    spread = BRACKET_SIGMAS * math.sqrt(m) / 2.0
    bounds = [
        (math.floor(ranks[0] * m / count - width), math.ceil(ranks[-1] * m / count + width))
        for width in (spread, 8.0 * spread, 64.0 * spread)
    ]
    sample.partition(sorted({k for pair in bounds for k in pair if 0 <= k < m}))
    levels = [
        (sample[lo] if lo >= 0 else -np.inf, sample[hi] if hi < m else np.inf)
        for lo, hi in bounds
    ]
    return levels + [(-np.inf, np.inf)]


def median_heuristic(samples, seed: int = 0) -> float:
    """Kernel bandwidth: median pairwise Euclidean distance over sqrt(2).

    The median runs over unordered distinct pairs only; self-distances
    would bias it toward zero.  Pools with more than ``MAX_POINTS``
    points are reduced to a seeded uniform subsample first, since the
    O(N^2) distance computation dominates otherwise.

    The middle one or two of the N(N-1)/2 squared distances are found
    without storing them all (Floyd and Rivest's selection, CACM 18(3),
    1975): a seeded sample of pairs brackets the middle ranks, one pass
    over the distance blocks counts the values below the bracket and
    keeps those inside it, and a wider bracket streams again only when
    the first one missed.  Memory is one distance block plus the kept
    values, about ``BLOCK_ENTRIES`` of them, and from ``GEMM_MIN_DIM``
    coordinates a centred copy of the pool.  The selected values are
    square-rooted and averaged as ``np.median`` does; order statistics
    are exact, and square roots are monotone and correctly rounded, so
    this equals, bit for bit, the median of the distances the module
    forms: ``pdist``'s median below ``GEMM_MIN_DIM`` coordinates, and
    from there the median of distances within the module docstring's
    bound, in which coincident points are exactly 0 apart.

    Raises
    ------
    ValueError
        If fewer than two samples are given, a sample is not finite, or
        all samples coincide (median distance zero gives a degenerate
        bandwidth).
    """
    pts = as_points(samples)
    if pts.shape[0] < 2:
        raise ValueError("insufficient samples for the median heuristic (need >= 2)")
    if not np.isfinite(pts).all():
        raise ValueError("samples have a non-finite entry (NaN or inf)")
    rng = np.random.default_rng(seed)
    if pts.shape[0] > MAX_POINTS:
        pts = pts[rng.choice(pts.shape[0], size=MAX_POINTS, replace=False)]
    count = pts.shape[0] * (pts.shape[0] - 1) // 2
    half = count // 2
    ranks = [half - 1, half] if count % 2 == 0 else [half]
    levels = _bracket_levels(pts, rng, ranks)
    low = high = 0
    while True:
        lo, hi = levels[low][0], levels[high][1]
        (below, upto_lo, below_hi, upto_hi), kept = _bracket_pass(pts, lo, hi)
        missed_low, missed_high = ranks[0] < below, ranks[-1] >= upto_hi
        if not (missed_low or missed_high):
            break
        low += missed_low
        high += missed_high
    # ranks below upto_lo hold lo, ranks from below_hi on hold hi, and
    # those between are the kept values, in order once partitioned
    inside = np.concatenate(kept)
    kth = [k - upto_lo for k in ranks if upto_lo <= k < below_hi]
    if kth:
        inside.partition(kth)
    middle = np.array(
        [lo if k < upto_lo else hi if k >= below_hi else inside[k - upto_lo] for k in ranks]
    )
    med = float(np.mean(np.sqrt(middle)))
    if med <= 0.0:
        raise ValueError("degenerate bandwidth: median pairwise distance is zero")
    return med / float(np.sqrt(2.0))


def gaussian_gram(centers, points, sigma: float, name: str = "points") -> np.ndarray:
    """Kernel matrix G[l, i] = exp(-||c_l - p_i||^2 / (2 sigma^2)).

    A NaN or infinite coordinate is a ``ValueError`` naming its
    argument: "centers", or ``name`` for the points.
    """
    c = as_points(centers, "centers")
    p = as_points(points, name)
    for pts, label in ((c, "centers"), (p, name)):
        if not np.isfinite(pts).all():
            raise ValueError(f"{label} has a non-finite entry (NaN or inf)")
    if c.shape[1] != p.shape[1]:
        raise ValueError(
            f"dimension mismatch: centers have d={c.shape[1]}, {name} d={p.shape[1]}"
        )
    sigma = _check_sigma(sigma)
    G = _squared_distances(c, p)
    np.negative(G, out=G)
    G /= 2.0 * sigma * sigma
    return np.exp(G, out=G)


@dataclass
class BasisSet:
    """Paired kernel centres and per-side bandwidths of the ratio model."""

    x_basis: np.ndarray
    y_basis: np.ndarray
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        self.x_basis = as_points(self.x_basis, "x_basis")
        self.y_basis = as_points(self.y_basis, "y_basis")
        if self.x_basis.shape[0] != self.y_basis.shape[0]:
            raise ValueError("x_basis and y_basis must have equal length")
        if self.x_basis.shape[0] < 1:
            raise ValueError("basis must contain at least one point")
        self.sigma_x = _check_sigma(self.sigma_x)
        self.sigma_y = _check_sigma(self.sigma_y)

    @property
    def b(self) -> int:
        return self.x_basis.shape[0]


def sample_basis(pool_x, pool_y, b: int, seed: int = 0) -> BasisSet:
    """Draw b basis centres per side, uniformly without replacement.

    The two sides are sampled independently from their pools.  If b
    exceeds a pool size it is clamped to the smaller pool so the two
    basis lists stay aligned.  Each side's bandwidth is the median
    pairwise distance of its full pool, so the kernel value at the
    median distance is e^{-1/2}; narrower widths leave visible ripple
    in the fitted ratio when the true ratio is nearly flat.  When a
    pool has no bandwidth, the error names its side ("x side has 12
    samples: ...") and gives its sample count.
    Deterministic for a fixed seed.
    """
    px = as_points(pool_x, "pool_x")
    py = as_points(pool_y, "pool_y")
    if px.shape[0] == 0 or py.shape[0] == 0:
        raise ValueError("basis sampling pool is empty")
    if b < 1:
        raise ValueError(f"basis count must be >= 1, got {b}")
    b_eff = min(b, px.shape[0], py.shape[0])
    rng = np.random.default_rng(seed)
    idx_x = rng.choice(px.shape[0], size=b_eff, replace=False)
    idx_y = rng.choice(py.shape[0], size=b_eff, replace=False)
    root2 = float(np.sqrt(2.0))
    sigmas = []
    for pool, side in zip((px, py), ("x side", "y side")):
        try:
            sigmas.append(root2 * median_heuristic(pool, seed=seed))
        except ValueError as exc:
            count = pool.shape[0]
            noun = "sample" if count == 1 else "samples"
            raise ValueError(f"{side} has {count} {noun}: {exc}") from None
    return BasisSet(px[idx_x], py[idx_y], *sigmas)


def feature_columns(basis: BasisSet, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample kernel columns (K, L) with K[l, i] = K(x_basis_l, xs_i).

    The joint feature of a pair (xs_i, ys_j) is the Hadamard product of
    column i of K with column j of L.  A non-finite point names its side.
    """
    K = gaussian_gram(basis.x_basis, xs, basis.sigma_x, "xs")
    L = gaussian_gram(basis.y_basis, ys, basis.sigma_y, "ys")
    return K, L
