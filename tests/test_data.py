"""Tests for synthetic generators and tabular ingestion."""

import warnings

import numpy as np
import pytest

from semismi import (
    SyntheticSpec,
    generate,
    load_table,
    make_semi_supervised,
    split_features,
)
from semismi.data import index_pairs, split_pairs


# ------------------------------------------------------------- SyntheticSpec


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        SyntheticSpec("sinusoid", 5, 5, 5)
    with pytest.raises(ValueError, match="non-negative"):
        SyntheticSpec("random", -1, 5, 5)


@pytest.mark.parametrize("kind", ["random", "linear", "nonlinear", "pca"])
def test_generate_shapes(kind):
    data = generate(SyntheticSpec(kind, n=7, n_x=11, n_y=13, seed=1))
    dim = 2 if kind == "pca" else 1
    y_dim = 1
    assert data.paired_x.shape == (7, dim)
    assert data.paired_y.shape == (7, y_dim)
    assert data.unpaired_x.shape == (11, dim)
    assert data.unpaired_y.shape == (13, y_dim)


def test_generate_deterministic_and_seed_sensitive():
    spec = SyntheticSpec("linear", 5, 8, 9, seed=4)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.paired_x, b.paired_x)
    np.testing.assert_array_equal(a.unpaired_y, b.unpaired_y)
    c = generate(SyntheticSpec("linear", 5, 8, 9, seed=5))
    assert not np.array_equal(a.paired_x, c.paired_x)


def test_generate_streams_are_independent():
    # resizing one pool must not disturb the other draws
    small = generate(SyntheticSpec("random", 6, 10, 5, seed=2))
    large = generate(SyntheticSpec("random", 6, 10, 500, seed=2))
    np.testing.assert_array_equal(small.paired_x, large.paired_x)
    np.testing.assert_array_equal(small.paired_y, large.paired_y)
    np.testing.assert_array_equal(small.unpaired_x, large.unpaired_x)
    np.testing.assert_array_equal(small.unpaired_y, large.unpaired_y[:5])


def test_generate_linear_map():
    data = generate(SyntheticSpec("linear", 400, 10, 400, seed=0))
    # y = 0.5 x plus noise of sd 0.1
    noise = data.paired_y - 0.5 * data.paired_x
    assert abs(noise.mean()) < 0.02
    assert noise.std() == pytest.approx(0.1, rel=0.1)
    # the unpaired y pool follows the same marginal, sd 0.5
    assert data.unpaired_y.std() == pytest.approx(0.5, rel=0.2)


def test_generate_nonlinear_map():
    data = generate(SyntheticSpec("nonlinear", 20, 5, 5, seed=3))
    np.testing.assert_allclose(data.paired_y, np.sin(data.paired_x))


def test_generate_pca_projects_onto_leading_axis():
    data = generate(SyntheticSpec("pca", 30, 40, 25, seed=6))
    pool = np.vstack([data.paired_x, data.unpaired_x])
    mean = pool.mean(axis=0)
    _, _, vt = np.linalg.svd(pool - mean, full_matrices=False)
    w = vt[0]
    expected = (data.paired_x - mean) @ w
    # sign of the axis is fixed by the implementation; compare up to it
    sign = np.sign(expected @ data.paired_y[:, 0])
    np.testing.assert_allclose(data.paired_y[:, 0], sign * expected, atol=1e-10)


def test_generate_pca_needs_x_samples():
    with pytest.raises(ValueError, match="pca"):
        generate(SyntheticSpec("pca", 0, 0, 5))


# ------------------------------------------------------------------ tables


def test_load_table_sniffs_csv_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    table = load_table(path)
    np.testing.assert_array_equal(table, [[1, 2, 3], [4, 5, 6]])


def test_load_table_whitespace_no_header(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 2\n3 4\n5 6\n")
    np.testing.assert_array_equal(load_table(path), [[1, 2], [3, 4], [5, 6]])


def test_load_table_numeric_first_line_kept(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n")
    assert load_table(path).shape == (2, 2)


def test_load_table_single_row_stays_2d(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2,3\n")
    assert load_table(path).shape == (1, 3)


def test_load_table_rejects_bad_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        load_table(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="rectangular"):
        load_table(ragged)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("a,b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's own "no data" warning would be a miss
        with pytest.raises(ValueError, match=r"header_only\.csv: no data rows"):
            load_table(header_only)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_table_rejects_non_finite_entries(tmp_path, bad):
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n1,2\n3,{bad}\n5,6\n")
    with pytest.raises(ValueError, match=r"t\.csv: non-finite entry .* data row 2$"):
        load_table(path)


# ------------------------------------------------------------ split_features


def test_split_features_separates_correlated_pairs():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(200)
    v = rng.standard_normal(200)
    table = np.column_stack([u, v, u + 0.01 * rng.standard_normal(200), v * -1.0])
    xs, ys = split_features(table, d_x=2)
    # columns 0/2 and 1/3 are the correlated pairs; lower index goes left
    np.testing.assert_array_equal(xs, table[:, [0, 1]])
    np.testing.assert_array_equal(ys, table[:, [2, 3]])


def test_split_features_leftovers_fill_in_index_order():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(300)
    junk = rng.standard_normal(300)
    table = np.column_stack([u, u + 0.01 * rng.standard_normal(300), junk])
    xs, ys = split_features(table, d_x=1)
    np.testing.assert_array_equal(xs, table[:, [0]])
    np.testing.assert_array_equal(ys, table[:, [1, 2]])


def test_split_features_constant_columns_warn():
    table = np.ones((10, 4))
    table[:, 0] = np.arange(10)
    with pytest.warns(RuntimeWarning, match="constant"):
        xs, ys = split_features(table, d_x=2)
    np.testing.assert_array_equal(xs, table[:, [0, 1]])
    np.testing.assert_array_equal(ys, table[:, [2, 3]])


def test_split_features_validation():
    with pytest.raises(ValueError, match="at least 2 columns"):
        split_features(np.ones((5, 1)), d_x=1)
    with pytest.raises(ValueError, match="d_x"):
        split_features(np.ones((5, 3)), d_x=3)
    with pytest.raises(ValueError, match="d_x"):
        split_features(np.ones((5, 3)), d_x=0)


def test_split_features_partitions_columns():
    rng = np.random.default_rng(2)
    table = rng.standard_normal((50, 6))
    xs, ys = split_features(table, d_x=2)
    assert xs.shape == (50, 2) and ys.shape == (50, 4)
    combined = {tuple(c) for c in np.vstack([xs.T, ys.T])}
    assert combined == {tuple(c) for c in table.T}


# ------------------------------------------------------ index pairs


def test_index_pairs_gives_int_pairs():
    pairs = index_pairs([(1.0, 3.0), (np.int64(0), 2)], "anchors")
    assert pairs.dtype.kind == "i"
    assert pairs.tolist() == [[1, 3], [0, 2]]
    assert index_pairs([], "anchors").shape == (0, 2)
    assert index_pairs(np.empty((0, 2)), "anchors").shape == (0, 2)


@pytest.mark.parametrize("values", [[0, 1], [(0, 1, 2)], np.zeros((1, 2, 1)), np.zeros((2, 0))])
def test_index_pairs_rejects_anything_but_two_columns(values):
    with pytest.raises(ValueError, match="^truth must have two columns$"):
        index_pairs(values, "truth")


@pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, np.inf])
def test_index_pairs_names_the_entry_that_is_not_a_whole_number(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"truth has an entry that is not a whole number: {bad}$"):
            index_pairs([(0, 1), (2, bad)], "truth")


@pytest.mark.parametrize("huge", [1e20, -(2.0**63)])
def test_index_pairs_rejects_an_entry_past_int64(huge):
    # casting it to int would wrap it, silently or with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^truth has an entry too large for an index: "):
            index_pairs([(0, 1), (huge, 2)], "truth")


def test_split_pairs_keeps_pairs_in_order_and_pools_in_table_order():
    x = np.arange(5.0)[:, None]
    y = np.arange(4.0)[:, None] * 10.0
    data, x_rows, y_rows = split_pairs(x, y, index_pairs([(3, 0), (1, 2)], "p"), "p")
    assert data.paired_x[:, 0].tolist() == [3.0, 1.0]
    assert data.paired_y[:, 0].tolist() == [0.0, 20.0]
    assert (x_rows, y_rows) == ([0, 2, 4], [1, 3])
    np.testing.assert_array_equal(data.unpaired_x, x[x_rows])
    np.testing.assert_array_equal(data.unpaired_y, y[y_rows])
    data, x_rows, y_rows = split_pairs(x, y, index_pairs([], "p"), "p")
    assert (data.n, x_rows, y_rows) == (0, [0, 1, 2, 3, 4], [0, 1, 2, 3])


@pytest.mark.parametrize("pairs, side", [([(0, 0), (0, 1)], "x"), ([(0, 1), (2, 1)], "y")])
def test_split_pairs_rejects_a_row_named_twice(pairs, side):
    table = np.arange(4.0)[:, None]
    with pytest.raises(ValueError, match=f"^--paired repeats a {side} row$"):
        split_pairs(table, table, index_pairs(pairs, "--paired"), "--paired")


# ------------------------------------------------------ make_semi_supervised


def _aligned(rows):
    x = np.arange(rows, dtype=float).reshape(-1, 1)
    return x, x * 10.0


def test_make_semi_supervised_counts_and_alignment():
    x, y = _aligned(40)
    data = make_semi_supervised(x, y, n=6, n_x=20, n_y=15, seed=1)
    assert (data.n, data.n_x, data.n_y) == (6, 20, 15)
    # each paired couple is a true aligned row
    np.testing.assert_allclose(data.paired_y, data.paired_x * 10.0)


def test_make_semi_supervised_pools_avoid_paired_rows():
    x, y = _aligned(30)
    data = make_semi_supervised(x, y, n=5, n_x=25, n_y=25, seed=3)
    paired_vals = set(data.paired_x[:, 0])
    assert paired_vals.isdisjoint(data.unpaired_x[:, 0])
    assert {v * 10.0 for v in paired_vals}.isdisjoint(data.unpaired_y[:, 0])


def test_make_semi_supervised_pools_are_not_positionally_paired():
    x, y = _aligned(30)
    data = make_semi_supervised(x, y, n=4, n_x=26, n_y=26, seed=0)
    # both pools hold the same 26 leftover rows, but in unrelated orders
    assert set(data.unpaired_x[:, 0]) == set(data.unpaired_y[:, 0] / 10.0)
    assert not np.allclose(data.unpaired_y, data.unpaired_x * 10.0)


def test_make_semi_supervised_fully_paired():
    x, y = _aligned(12)
    data = make_semi_supervised(x, y, n=12, n_x=0, n_y=0, seed=2)
    assert data.n == 12 and data.n_x == 0 and data.n_y == 0
    assert set(data.paired_x[:, 0]) == set(x[:, 0])
    np.testing.assert_allclose(data.paired_y, data.paired_x * 10.0)


def test_make_semi_supervised_validation():
    x, y = _aligned(10)
    with pytest.raises(ValueError, match="insufficient rows"):
        make_semi_supervised(x, y, n=5, n_x=6, n_y=2)
    with pytest.raises(ValueError, match="same number of rows"):
        make_semi_supervised(x, y[:-1], n=2, n_x=2, n_y=2)


@pytest.mark.parametrize("counts", [(-1, 5, 5), (2, -3, 1), (2, 1, -3)])
def test_make_semi_supervised_rejects_negative_counts(counts):
    # n = -1 used to return 9 pairs and 1-point pools, and n_x = -3 a slice
    x, y = _aligned(10)
    with pytest.raises(ValueError, match="^sample counts must be non-negative$"):
        make_semi_supervised(x, y, *counts)


def test_make_semi_supervised_deterministic():
    x, y = _aligned(25)
    a = make_semi_supervised(x, y, n=5, n_x=10, n_y=10, seed=7)
    b = make_semi_supervised(x, y, n=5, n_x=10, n_y=10, seed=7)
    np.testing.assert_array_equal(a.paired_x, b.paired_x)
    np.testing.assert_array_equal(a.unpaired_y, b.unpaired_y)
    c = make_semi_supervised(x, y, n=5, n_x=10, n_y=10, seed=8)
    assert not np.array_equal(a.paired_x, c.paired_x)
