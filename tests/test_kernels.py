"""Tests for bandwidth selection, basis sampling, and kernel features."""

import tracemalloc

import numpy as np
import pytest

# scipy is the oracle here only; the package forms distances with numpy
from scipy.spatial.distance import cdist, pdist

from semismi import kernels
from semismi.kernels import (
    BLOCK_ENTRIES,
    MAX_POINTS,
    BasisSet,
    _squared_distances,
    feature_columns,
    gaussian_gram,
    median_heuristic,
    sample_basis,
)

DIMS = [1, 2, 7, 8, 32, 64, 512]


def test_median_heuristic_single_pair():
    # one pair at distance 2 forces sigma = 2 / sqrt(2)
    assert median_heuristic([[0.0], [2.0]]) == pytest.approx(np.sqrt(2.0))


def test_median_heuristic_three_points():
    # distances {1, 2, 3}, median 2
    assert median_heuristic([[0.0], [1.0], [3.0]]) == pytest.approx(np.sqrt(2.0))


def test_median_heuristic_even_pair_count_averages():
    # points 0,1,2,3 -> distances {1,1,1,2,2,3}, central pair (1, 2)
    sigma = median_heuristic([[0.0], [1.0], [2.0], [3.0]])
    assert sigma == pytest.approx(1.5 / np.sqrt(2.0))


def test_median_heuristic_standard_normal_range():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sigma = median_heuristic(rng.standard_normal((100, 2)))
        assert 0.7 <= sigma <= 1.7


def test_median_heuristic_matches_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((40, 3))
    dists = [
        np.linalg.norm(pts[i] - pts[j])
        for i in range(40)
        for j in range(i + 1, 40)
    ]
    expected = np.median(dists) / np.sqrt(2.0)
    assert median_heuristic(pts) == pytest.approx(expected, rel=1e-12)


def test_median_heuristic_translation_and_scale():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((30, 2))
    base = median_heuristic(pts)
    assert median_heuristic(pts + 5.0) == pytest.approx(base)
    assert median_heuristic(3.0 * pts) == pytest.approx(3.0 * base)


def test_median_heuristic_order_invariant():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((25, 2))
    perm = rng.permutation(25)
    assert median_heuristic(pts[perm]) == pytest.approx(median_heuristic(pts))


def test_median_heuristic_errors():
    with pytest.raises(ValueError, match="insufficient samples"):
        median_heuristic([[1.0]])
    with pytest.raises(ValueError, match="degenerate bandwidth"):
        median_heuristic([[1.0], [1.0], [1.0]])


def test_median_heuristic_subsamples_large_pools():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((3000, 1))
    sub = median_heuristic(pts)
    full = np.median(
        [abs(a - b) for i, a in enumerate(pts[:, 0]) for b in pts[i + 1 :, 0]]
    ) / np.sqrt(2.0)
    assert sub == pytest.approx(full, rel=0.1)


def _scipy_median_heuristic(pts, seed=0):
    pts = np.asarray(pts)
    if pts.shape[0] > MAX_POINTS:
        rng = np.random.default_rng(seed)
        pts = pts[rng.choice(pts.shape[0], size=MAX_POINTS, replace=False)]
    return float(np.median(pdist(pts))) / float(np.sqrt(2.0))


def _module_pairs(pts, seed=0):
    """The pool median_heuristic selects from, and its pair values as the
    module forms them, in pdist's order."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[0] > MAX_POINTS:
        rng = np.random.default_rng(seed)
        pts = pts[rng.choice(pts.shape[0], size=MAX_POINTS, replace=False)]
    values = np.concatenate([block[~np.isnan(block)] for block in kernels._upper_blocks(pts)])
    return pts, values


def assert_within_the_bound(values, a, b, rows, cols):
    """|values - d^2| <= 8 d u (|a_r - m|^2 + |b_c - m|^2) for each pair
    (r, c) of ``rows`` and ``cols``, the bound the kernels docstring
    states for the GEMM side, with m the mean of a; exact zeros stay
    exact.  d^2 is summed in np.longdouble from the uncentred points."""
    mean = a.mean(axis=0)
    bound = 8.0 * a.shape[1] * 2.0**-53
    step = max(1, (1 << 20) // a.shape[1])
    for s in range(0, rows.size, step):
        r, c = rows[s : s + step], cols[s : s + step]
        diff = a[r].astype(np.longdouble) - b[c]
        exact = np.einsum("ij,ij->i", diff, diff)
        norms = ((a[r] - mean) ** 2).sum(axis=1) + ((b[c] - mean) ** 2).sum(axis=1)
        excess = np.abs(values[s : s + step] - exact) - bound * norms
        assert excess.max() <= 0.0, f"bound exceeded by {float(excess.max()):.3e}"
        assert (values[s : s + step][exact == 0.0] == 0.0).all()


@pytest.mark.parametrize("offset", [0.0, 1e8], ids=["centred", "offset-1e8"])
@pytest.mark.parametrize("d", DIMS)
def test_gaussian_gram_has_cdists_bits(d, offset):
    # 2100 points span several row blocks; one point repeats a centre.
    # From GEMM_MIN_DIM coordinates the distances meet the stated bound
    # instead of cdist's bits, and the gram is formed from them.
    rng = np.random.default_rng(d)
    centers = rng.standard_normal((60, d)) + offset
    points = rng.standard_normal((2100, d)) + offset
    points[17] = centers[3]
    sigma = 0.9 * np.sqrt(d)
    if d < kernels.GEMM_MIN_DIM:
        d2 = cdist(centers, points, "sqeuclidean")
        assert (_squared_distances(centers, points) == d2).all()
    else:
        d2 = _squared_distances(centers, points)
        # at d = 512 every fourth centre keeps the longdouble sums short
        stride = 4 if d > 64 else 1
        rows, cols = np.indices(d2[::stride].shape).reshape(2, -1)
        rows *= stride
        assert_within_the_bound(d2[rows, cols], centers, points, rows, cols)
        assert d2[3, 17] == 0.0
    assert (gaussian_gram(centers, points, sigma) == np.exp(-d2 / (2.0 * sigma * sigma))).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gaussian_gram_rejects_a_non_finite_point_naming_its_argument(bad):
    rng = np.random.default_rng(11)
    centers, points = rng.standard_normal((5, 8)), rng.standard_normal((7, 8))
    for name, pts in (("points", points), ("centers", centers)):
        pts[2, 3] = bad
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry \(NaN or inf\)$"):
            gaussian_gram(centers, points, 1.0)


def _pairs_to_check(pts, limit=50_000):
    """Every pair (i < j) of the pool, or a seeded sample of ``limit``
    of them plus every pair of coincident points."""
    n = pts.shape[0]
    count = n * (n - 1) // 2
    if count <= limit:
        return np.triu_indices(n, k=1)
    rows, cols = np.random.default_rng(n).integers(n, size=(2, limit))
    _, group = np.unique(pts, axis=0, return_inverse=True)
    same = np.flatnonzero(np.bincount(group)[group] > 1)
    rows = np.concatenate([rows, np.repeat(same, same.size)])
    cols = np.concatenate([cols, np.tile(same, same.size)])
    keep = (rows < cols) & ((group[rows] == group[cols]) | (np.arange(rows.size) < limit))
    return rows[keep], cols[keep]


def _triangle_index(rows, cols, n):
    """Position of pair (rows, cols), rows < cols, in pdist's order."""
    return rows * (2 * n - rows - 1) // 2 + cols - rows - 1


@pytest.mark.parametrize("offset", [0.0, 1e8], ids=["centred", "offset-1e8"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize(
    "n", [2, 3, 4, 6, 101, 102, 2500], ids=lambda n: f"n{n}"
)  # pair counts 1, 3, 6, 15, 5050, 5151; 2500 > MAX_POINTS subsamples to 2000
def test_median_heuristic_has_pdists_bits(n, d, offset):
    # From GEMM_MIN_DIM coordinates the pair values meet the stated bound
    # and the bandwidth is, bit for bit, the median of the module's own
    # pair values
    rng = np.random.default_rng(1000 * d + n)
    pts = rng.standard_normal((n, d)) + offset
    if n > 10:
        pts[n // 2 :: 7] = pts[1]  # duplicates: zero distances
    if d < kernels.GEMM_MIN_DIM:
        assert median_heuristic(pts, seed=5) == _scipy_median_heuristic(pts, seed=5)
        return
    pool, values = _module_pairs(pts, seed=5)
    expected = float(np.median(np.sqrt(values))) / float(np.sqrt(2.0))
    assert median_heuristic(pts, seed=5) == expected
    rows, cols = _pairs_to_check(pool)
    picked = values[_triangle_index(rows, cols, pool.shape[0])]
    assert_within_the_bound(picked, pool, pool, rows, cols)


@pytest.mark.parametrize("d", [4, 5, 8, 17, 64])
def test_a_duplicate_pair_among_distinct_points_is_exactly_zero(d):
    # the GEMM form leaves rounding error on a coincident pair; it must
    # come out exactly 0 in the gram's distances and in the median's
    for trial in range(8):
        rng = np.random.default_rng(100 * d + trial)
        offset = [0.0, 1.0, 1e4, 1e8][trial % 4]
        pts = rng.standard_normal((300, d)) * rng.uniform(0.1, 10.0) + offset
        i, j = sorted(rng.choice(300, size=2, replace=False))
        pts[j] = pts[i]
        d2 = _squared_distances(pts[::3], pts)
        rows, cols = np.nonzero(d2 == 0.0)
        assert sorted(zip(3 * rows, cols)) == sorted(
            {(r, r) for r in range(0, 300, 3)} | {(a, b) for a in (i, j) for b in (i, j) if a % 3 == 0}
        )
        assert (gaussian_gram(pts[::3], pts, 1.0)[d2 == 0.0] == 1.0).all()
        _, values = _module_pairs(pts)
        assert np.flatnonzero(values == 0.0).tolist() == [_triangle_index(i, j, 300)]


def test_squared_distances_switch_to_one_gemm_at_four_coordinates(monkeypatch):
    # the same pool in 3 and in 4 coordinates (a constant fourth): d = 3
    # keeps cdist's bits, d = 4 is formed by the GEMM within the bound
    assert kernels.GEMM_MIN_DIM == 4
    pts3 = np.random.default_rng(34).standard_normal((400, 3)) + 1e3
    pts4 = np.column_stack([pts3, np.full(400, 7.0)])
    calls = []
    for name in ("_add_squares", "_gemm_squares"):
        fill = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *args, _name=name, _fill=fill: calls.append(_name) or _fill(*args)
        )
    d3 = _squared_distances(pts3[:50], pts3)
    assert set(calls) == {"_add_squares"}
    assert (d3 == cdist(pts3[:50], pts3, "sqeuclidean")).all()
    assert median_heuristic(pts3) == _scipy_median_heuristic(pts3)
    calls.clear()
    d4 = _squared_distances(pts4[:50], pts4)
    assert set(calls) == {"_gemm_squares"}
    rows, cols = np.indices(d4.shape).reshape(2, -1)
    assert_within_the_bound(d4.ravel(), pts4[:50], pts4, rows, cols)
    pool, values = _module_pairs(pts4)
    assert median_heuristic(pts4) == float(np.median(np.sqrt(values))) / float(np.sqrt(2.0))
    assert median_heuristic(pts4) == pytest.approx(median_heuristic(pts3), rel=1e-12)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [101, 400, 2500], ids=lambda n: f"n{n}")
def test_median_heuristic_of_sorted_pools_has_pdists_bits(n, d):
    # sorted pools put every small distance near the diagonal of the
    # pair triangle, so each distance block holds a narrow value range
    pts = np.random.default_rng(n + d).standard_normal((n, d))
    pts = pts[np.argsort(pts[:, 0])]
    assert median_heuristic(pts, seed=3) == _scipy_median_heuristic(pts, seed=3)
    assert median_heuristic(pts[::-1], seed=3) == _scipy_median_heuristic(pts[::-1], seed=3)


@pytest.mark.parametrize("extra", [0, 5, 20])
@pytest.mark.parametrize("n", [200, 600, 2400], ids=lambda n: f"n{n}")
def test_median_heuristic_with_most_pairs_tied_at_the_median_has_pdists_bits(n, extra):
    # one-hot points in 3-d: points on different axes are at squared
    # distance exactly 2, which is two thirds of their pairs and the
    # median; a few other points put distinct values on both sides of it
    rng = np.random.default_rng(n + extra)
    pts = np.eye(3)[rng.integers(3, size=n)]
    pts[:extra] = rng.standard_normal((extra, 3))
    tied = 2.0 == pdist(pts[: min(n, MAX_POINTS)], "sqeuclidean")
    assert tied.mean() > 0.5
    assert median_heuristic(pts, seed=1) == _scipy_median_heuristic(pts, seed=1)


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("n", [120, 501], ids=lambda n: f"n{n}")
def test_median_heuristic_stays_exact_when_its_bracket_misses(monkeypatch, n, side):
    # a first bracket wholly above the middle ranks misses them low, one
    # wholly below misses them high; the next pass must still select
    # exactly pdist's median
    pts = np.random.default_rng(n).standard_normal((n, 2))
    values = np.sort(pdist(pts, "sqeuclidean"))
    wrong = values[values.size * 3 // 4] if side == "low" else values[values.size // 4]
    levels = kernels._bracket_levels
    monkeypatch.setattr(kernels, "_bracket_levels", lambda *args: [(wrong, wrong)] + levels(*args))
    passes = []
    bracket_pass = kernels._bracket_pass

    def recording_pass(pts, lo, hi):
        counts, kept = bracket_pass(pts, lo, hi)
        passes.append(counts)
        return counts, kept

    monkeypatch.setattr(kernels, "_bracket_pass", recording_pass)
    assert median_heuristic(pts) == _scipy_median_heuristic(pts)
    middle = values.size // 2
    below, _, _, upto_hi = passes[0]
    assert (middle < below) if side == "low" else (middle >= upto_hi)
    assert len(passes) == 2


def test_median_heuristic_rejects_non_finite_samples():
    with pytest.raises(ValueError, match="non-finite"):
        median_heuristic([[0.0], [np.nan], [1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        median_heuristic([[0.0], [np.inf], [1.0]])


def test_median_heuristic_holds_one_pair_buffer():
    # the subsample's 1,999,000 squared distances take 16 MB; pdist plus
    # np.median's copy of them would take two such buffers, and the
    # streamed selection holds one distance block and the values inside
    # its bracket, about BLOCK_ENTRIES of each
    pts = np.random.default_rng(0).standard_normal((MAX_POINTS + 1, 1))
    buffer_bytes = 8 * (MAX_POINTS * (MAX_POINTS - 1) // 2)
    tracemalloc.start()
    try:
        median_heuristic(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * buffer_bytes
    assert peak < 4 * 8 * BLOCK_ENTRIES


def _scalar_kernel(x, x2, sigma):
    """exp(-||x - x2||^2 / (2 sigma^2)) for one pair of points: the reference."""
    diff = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    return float(np.exp(-float(diff @ diff) / (2.0 * sigma * sigma)))


def test_gaussian_kernel_values():
    assert gaussian_gram([[0.0]], [[0.0]], 1.0)[0, 0] == 1.0
    assert gaussian_gram([[0.0]], [[2.0]], np.sqrt(2.0))[0, 0] == pytest.approx(np.exp(-1.0))
    # symmetry
    a, b = [[0.3, -1.2]], [[1.0, 0.5]]
    assert gaussian_gram(a, b, 0.7)[0, 0] == pytest.approx(gaussian_gram(b, a, 0.7)[0, 0])


def test_gaussian_kernel_bad_inputs():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gaussian_gram([[0.0]], [[0.0, 1.0]], 1.0)
    with pytest.raises(ValueError, match="bandwidth"):
        gaussian_gram([[0.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        gaussian_gram([[0.0]], [[1.0]], -2.0)


def test_gaussian_gram_matches_scalar_kernel():
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((4, 2))
    points = rng.standard_normal((6, 2))
    G = gaussian_gram(centers, points, 0.9)
    assert G.shape == (4, 6)
    for l in range(4):
        for i in range(6):
            assert G[l, i] == pytest.approx(
                _scalar_kernel(centers[l], points[i], 0.9)
            )


def test_gaussian_gram_self_diagonal_is_one():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((5, 3))
    G = gaussian_gram(pts, pts, 1.3)
    np.testing.assert_allclose(np.diag(G), 1.0)


def test_sample_basis_within_capacity():
    rng = np.random.default_rng(0)
    basis = sample_basis(
        rng.standard_normal((500, 2)), rng.standard_normal((500, 1)), 200, seed=4
    )
    assert basis.b == 200
    # points are actual pool members, no duplicates per side
    assert len(np.unique(basis.x_basis, axis=0)) == 200
    assert len(np.unique(basis.y_basis, axis=0)) == 200


def test_sample_basis_clamps_to_smaller_pool():
    rng = np.random.default_rng(1)
    basis = sample_basis(
        rng.standard_normal((50, 2)), rng.standard_normal((80, 1)), 200, seed=0
    )
    assert basis.b == 50
    assert basis.x_basis.shape == (50, 2)
    assert basis.y_basis.shape == (50, 1)


def test_sample_basis_points_come_from_pools():
    rng = np.random.default_rng(2)
    pool_x = rng.standard_normal((30, 2))
    pool_y = rng.standard_normal((40, 1))
    basis = sample_basis(pool_x, pool_y, 10, seed=3)
    for row in basis.x_basis:
        assert any(np.array_equal(row, p) for p in pool_x)
    for row in basis.y_basis:
        assert any(np.array_equal(row, p) for p in pool_y)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize(
    "pool, count, cause",
    [
        ([[1.0]], "1 sample", "insufficient samples"),
        ([[2.0], [2.0]], "2 samples", "degenerate bandwidth"),
        ([[0.1, 0.2, 0.3, 0.7]] * 3, "3 samples", "degenerate bandwidth"),
        ([[1e8 / 3.0] * 32] * 5, "5 samples", "degenerate bandwidth"),
    ],
    ids=["one-sample", "coincident", "coincident-4d", "coincident-32d"],
)
def test_sample_basis_names_the_side_without_a_bandwidth(side, pool, count, cause):
    good = [[0.0], [1.0], [3.0]]
    pools = (pool, good) if side == "x" else (good, pool)
    with pytest.raises(ValueError, match=f"^{side} side has {count}: {cause}"):
        sample_basis(*pools, 2)


def test_sample_basis_needs_points_and_a_positive_count():
    with pytest.raises(ValueError, match="^basis sampling pool is empty$"):
        sample_basis(np.zeros((0, 2)), [[0.0], [1.0]], 2)
    with pytest.raises(ValueError, match="^basis count must be >= 1, got 0$"):
        sample_basis([[0.0], [1.0]], [[0.0], [1.0]], 0)


def test_sample_basis_deterministic():
    rng = np.random.default_rng(3)
    pool_x = rng.standard_normal((60, 2))
    pool_y = rng.standard_normal((60, 1))
    b1 = sample_basis(pool_x, pool_y, 20, seed=11)
    b2 = sample_basis(pool_x, pool_y, 20, seed=11)
    np.testing.assert_array_equal(b1.x_basis, b2.x_basis)
    np.testing.assert_array_equal(b1.y_basis, b2.y_basis)
    assert b1.sigma_x == b2.sigma_x and b1.sigma_y == b2.sigma_y


def test_basis_set_validation():
    with pytest.raises(ValueError, match="equal length"):
        BasisSet(np.zeros((3, 1)), np.zeros((2, 1)), 1.0, 1.0)
    with pytest.raises(ValueError, match="bandwidth"):
        BasisSet(np.zeros((2, 1)), np.ones((2, 1)), -1.0, 1.0)
    with pytest.raises(ValueError, match="^basis must contain at least one point$"):
        BasisSet(np.zeros((0, 1)), np.zeros((0, 1)), 1.0, 1.0)


def test_feature_columns_identity_at_basis_points():
    rng = np.random.default_rng(4)
    pool = rng.standard_normal((10, 2))
    basis = sample_basis(pool, pool, 5, seed=0)
    K, L = feature_columns(basis, basis.x_basis, basis.y_basis)
    np.testing.assert_allclose(np.diag(K), 1.0)
    np.testing.assert_allclose(np.diag(L), 1.0)
    assert K.shape == (5, 5) and L.shape == (5, 5)


def test_feature_columns_shapes():
    rng = np.random.default_rng(8)
    basis = sample_basis(
        rng.standard_normal((20, 3)), rng.standard_normal((20, 1)), 7, seed=1
    )
    K, L = feature_columns(basis, rng.standard_normal((13, 3)), rng.standard_normal((9, 1)))
    assert K.shape == (7, 13)
    assert L.shape == (7, 9)
    assert np.all((K > 0) & (K <= 1)) and np.all((L > 0) & (L <= 1))
