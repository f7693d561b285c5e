"""Gaussian kernel features for the density-ratio model.

A pair (x, y) is scored by b basis functions, each the product of a
Gaussian bump centred at a sampled x point and one centred at a sampled
y point.  This module owns bandwidth selection, basis sampling, and the
kernel feature matrices everything else is built from.

Squared distances are formed with numpy alone, adding (a_k - b_k)^2
over the coordinates k = 0..d-1 in order, one row block at a time.
That is the order of scipy's ``cdist``/``pdist`` loop, so the kernels
and bandwidths carry the same bits as theirs, and a fit loads no scipy.
"""

from __future__ import annotations

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


def _squared_distances(a, b) -> np.ndarray:
    """The (len(a), len(b)) matrix of squared distances, with cdist's bits.

    Each block of about ``BLOCK_ENTRIES`` entries adds (a_k - b_k)^2 over
    the coordinates k in order, from a contiguous copy of b's transpose.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, BLOCK_ENTRIES // max(b.shape[0], 1))
    scratch = np.empty((min(step, a.shape[0]), b.shape[0]))
    bT = np.ascontiguousarray(b.T)
    for i in range(0, a.shape[0], step):
        rows = out[i : i + step]
        tmp = scratch[: rows.shape[0]]
        np.subtract(a[i : i + step, :1], bT[0], out=rows)
        np.multiply(rows, rows, out=rows)
        for k in range(1, a.shape[1]):
            np.subtract(a[i : i + step, k : k + 1], bT[k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(rows, tmp, out=rows)
    return out


def median_heuristic(samples, seed: int = 0) -> float:
    """Kernel bandwidth: median pairwise Euclidean distance over sqrt(2).

    The median runs over unordered distinct pairs only; self-distances
    would bias it toward zero.  Pools with more than ``MAX_POINTS``
    points are reduced to a seeded uniform subsample first, since the
    O(N^2) distance computation dominates otherwise.

    The N(N-1)/2 squared distances fill one buffer, which is partitioned
    in place; only its middle one or two values are square-rooted and
    averaged as ``np.median`` does.  Square roots are monotone and
    correctly rounded, so this equals the median of the distances bit
    for bit, without a second copy of them.

    Raises
    ------
    ValueError
        If fewer than two samples are given, or all samples coincide
        (median distance zero gives a degenerate bandwidth).
    """
    pts = as_points(samples)
    if pts.shape[0] < 2:
        raise ValueError("insufficient samples for the median heuristic (need >= 2)")
    if pts.shape[0] > MAX_POINTS:
        rng = np.random.default_rng(seed)
        pts = pts[rng.choice(pts.shape[0], size=MAX_POINTS, replace=False)]
    n = pts.shape[0]
    pairs = np.empty(n * (n - 1) // 2)
    start = i = 0
    while i < n - 1:
        # a block of rows against the points after its first row; row r keeps j > r
        stop = min(n - 1, i + max(1, BLOCK_ENTRIES // (n - 1 - i)))
        for r, row in enumerate(_squared_distances(pts[i:stop], pts[i + 1 :])):
            pairs[start : start + row.size - r] = row[r:]
            start += row.size - r
        i = stop
    half = pairs.size // 2
    kth = [half - 1, half] if pairs.size % 2 == 0 else [half]
    pairs.partition(kth)
    med = float(np.mean(np.sqrt(pairs[kth])))
    if med <= 0.0:
        raise ValueError("degenerate bandwidth: median pairwise distance is zero")
    return med / float(np.sqrt(2.0))


def gaussian_gram(centers, points, sigma: float) -> np.ndarray:
    """Kernel matrix G[l, i] = exp(-||c_l - p_i||^2 / (2 sigma^2))."""
    c = as_points(centers, "centers")
    p = as_points(points, "points")
    if c.shape[1] != p.shape[1]:
        raise ValueError(
            f"dimension mismatch: centers have d={c.shape[1]}, points d={p.shape[1]}"
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
    column i of K with column j of L.
    """
    K = gaussian_gram(basis.x_basis, xs, basis.sigma_x)
    L = gaussian_gram(basis.y_basis, ys, basis.sigma_y)
    return K, L
