"""Tests for plan rounding, ranking accuracy, and grid layout."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semismi import EstimatorConfig, GridSpec, grid_summarize, plan_to_assignment, topk_accuracy
from semismi.matching import normalize_positions

from conftest import independent_coupling


def _mass(assignment, pi):
    """Plan mass an assignment captures."""
    return float(sum(pi[i, j] for i, j in assignment))


# ------------------------------------------------------- plan_to_assignment


def test_round_small_plan():
    pi = np.array([[0.1, 0.4], [0.3, 0.2]])
    pairs = plan_to_assignment(pi)
    assert pairs == [(0, 1), (1, 0)]
    # plain ints, as the CLI writes them
    assert all(type(index) is int for pair in pairs for index in pair)


def test_optimal_beats_greedy_when_greedy_is_myopic():
    # taking the single largest entry first (mass 11) forfeits the better matching
    pi = np.array([[10.0, 9.0], [9.0, 1.0]])
    assert _mass(plan_to_assignment(pi), pi) == pytest.approx(18.0)


def test_optimal_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pi = rng.random((5, 5))
        best = max(
            sum(pi[i, p[i]] for i in range(5))
            for p in itertools.permutations(range(5))
        )
        a = plan_to_assignment(pi)
        assert _mass(a, pi) == pytest.approx(best, rel=1e-12)


def test_rectangular_plan_covers_smaller_side():
    rng = np.random.default_rng(1)
    pi = rng.random((2, 5))
    a = plan_to_assignment(pi)
    assert len(a) == 2
    assert len({i for i, _ in a}) == len({j for _, j in a}) == 2
    pi = rng.random((5, 2))
    assert len(plan_to_assignment(pi)) == 2


def test_round_rejects_bad_shape():
    with pytest.raises(ValueError, match="matrix"):
        plan_to_assignment(np.ones(4))


# ------------------------------------------------------------ topk_accuracy


def test_topk_on_concentrated_plan():
    pi = np.full((4, 4), 0.01)
    np.fill_diagonal(pi, 0.22)
    truth = [(i, i) for i in range(4)]
    assert topk_accuracy(pi, truth, k=1) == 1.0


def test_topk_uniform_plan_credits_leftmost_columns():
    # every row is tied, so column j ranks j-th; identity truth only
    # hits where the true column index is below k
    pi = independent_coupling(100, 100)
    truth = [(i, i) for i in range(100)]
    assert topk_accuracy(pi, truth, k=1) == pytest.approx(0.01)
    assert topk_accuracy(pi, truth, k=2) == pytest.approx(0.02)


def test_topk_rank_counts_ties_by_column_order():
    pi = np.array([[0.5, 0.5]])
    assert topk_accuracy(pi, [(0, 1)], k=1) == 0.0
    assert topk_accuracy(pi, [(0, 1)], k=2) == 1.0
    assert topk_accuracy(pi, [(0, 0)], k=1) == 1.0


@pytest.mark.parametrize("pair", [(-1, 2), (2, -1), (3, 0), (0, 3)])
def test_topk_rejects_out_of_range_truth_pair(pair):
    # a negative index used to wrap to the last row or column silently
    with pytest.raises(ValueError, match=rf"truth pair \({pair[0]}, {pair[1]}\)"):
        topk_accuracy(np.eye(3) / 3, [(0, 0), pair])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_topk_ranks_rows_as_a_stable_sort_does(data):
    # few distinct values make ties and uniform rows common; a stable
    # sort by value, high first, orders equal entries by column
    n_x, n_y = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    pi = data.draw(arrays(np.float64, (n_x, n_y), elements=st.sampled_from([0.0, 0.1, 0.25, 0.5])))
    pairs = st.tuples(st.integers(0, n_x - 1), st.integers(0, n_y - 1))
    truth = data.draw(st.lists(pairs, min_size=1, max_size=12))
    k = data.draw(st.integers(1, n_y + 1))
    ranks = [np.lexsort((np.arange(n_y), -pi[i])).tolist().index(j) for i, j in truth]
    assert topk_accuracy(pi, truth, k) == sum(r < k for r in ranks) / len(truth)


def test_topk_monotone_in_k():
    rng = np.random.default_rng(2)
    pi = rng.random((10, 10))
    truth = [(i, (i * 3) % 10) for i in range(10)]
    accs = [topk_accuracy(pi, truth, k=k) for k in range(1, 11)]
    assert all(a <= b for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0


def test_topk_rejects_a_truth_index_that_is_not_a_whole_number():
    # int() used to truncate 0.9 and 1.5 to a true pair of a 2x2 plan
    with pytest.raises(ValueError, match="truth has an entry that is not a whole number: 0.9"):
        topk_accuracy(np.eye(2) / 2, [(0.9, 0.2), (1.5, 1.0)], 1)


def test_topk_validation():
    with pytest.raises(ValueError, match="k must be"):
        topk_accuracy(np.eye(2), [(0, 0)], k=0)
    with pytest.raises(ValueError, match="empty"):
        topk_accuracy(np.eye(2), [], k=1)


# ----------------------------------------------------------------- GridSpec


def _square_grid(side):
    return np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)


def test_grid_spec_validation():
    positions = _square_grid(2)
    spec = GridSpec(positions, [(np.int64(1), np.int64(3))])
    assert spec.anchors == [(1, 3)]
    with pytest.raises(ValueError, match="distinct"):
        GridSpec(np.zeros((2, 2)), [])
    with pytest.raises(ValueError, match="conflicting anchors"):
        GridSpec(positions, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="conflicting anchors"):
        GridSpec(positions, [(0, 1), (2, 1)])
    with pytest.raises(ValueError, match="out of range"):
        GridSpec(positions, [(0, 4)])


def test_grid_spec_rejects_an_anchor_that_is_not_a_whole_number():
    # int() used to truncate 1.7 to item 1
    with pytest.raises(ValueError, match="anchors has an entry that is not a whole number: 1.7"):
        GridSpec(_square_grid(2), [(1.7, 0.0), (2.0, 3.0)])
    with pytest.raises(ValueError, match="anchors must have two columns"):
        GridSpec(_square_grid(2), [(0, 1, 2)])


def test_grid_fits_without_anchors_at_beta_zero():
    # a fit with beta > 0 needs paired samples, and only anchors give them
    config = EstimatorConfig(beta=0.7)
    assert GridSpec(_square_grid(2), []).fit_config(config) == EstimatorConfig(beta=0.0)
    assert GridSpec(_square_grid(2), [(0, 1)]).fit_config(config) is config


def test_normalize_positions_standardizes_each_axis():
    out = normalize_positions(_square_grid(3))
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)


def test_normalize_positions_leaves_flat_axis_finite():
    positions = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    out = normalize_positions(positions)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[:, 1], 0.0, atol=1e-12)


# ------------------------------------------------------------ grid_summarize


def _layout_config(seed=0):
    return EstimatorConfig(n_basis=8, seed=seed, max_outer_iters=5)


def test_grid_summarize_places_every_item_once():
    rng = np.random.default_rng(3)
    items = rng.standard_normal((4, 3))
    grid = GridSpec(_square_grid(2), [])
    placements, _ = grid_summarize(items, grid, _layout_config())
    assert sorted(i for i, _ in placements) == [0, 1, 2, 3]
    assert [p for _, p in placements] == [0, 1, 2, 3]  # sorted by position


def test_grid_summarize_keeps_anchors_in_place():
    rng = np.random.default_rng(4)
    items = rng.standard_normal((4, 3))
    grid = GridSpec(_square_grid(2), [(2, 0), (0, 3)])
    placements, _ = grid_summarize(items, grid, _layout_config())
    assert (2, 0) in placements and (0, 3) in placements
    assert sorted(i for i, _ in placements) == [0, 1, 2, 3]
    assert [p for _, p in placements] == [0, 1, 2, 3]


def test_grid_summarize_surplus_items_are_dropped():
    rng = np.random.default_rng(5)
    items = rng.standard_normal((6, 2))
    grid = GridSpec(_square_grid(2), [(5, 1)])
    placements, _ = grid_summarize(items, grid, _layout_config())
    assert len(placements) == 4
    assert (5, 1) in placements
    assert len({i for i, _ in placements}) == 4


def test_grid_summarize_rejects_bad_anchor_item():
    grid = GridSpec(_square_grid(2), [(7, 0)])
    with pytest.raises(ValueError, match="anchor item"):
        grid_summarize(np.zeros((3, 2)), grid, _layout_config())


def test_grid_summarize_deterministic():
    rng = np.random.default_rng(6)
    items = rng.standard_normal((5, 2))
    grid = GridSpec(_square_grid(3), [(0, 4)])
    first, _ = grid_summarize(items, grid, _layout_config(seed=1))
    second, _ = grid_summarize(items, grid, _layout_config(seed=1))
    assert first == second


def test_grid_summarize_groups_similar_items():
    # two tight clusters in feature space should land on nearby grid
    # positions more often than a random layout would
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 2)) * 0.05 + np.array([3.0, 0.0])
    b = rng.standard_normal((8, 2)) * 0.05 - np.array([3.0, 0.0])
    items = np.vstack([a, b])
    grid = GridSpec(_square_grid(4), [(0, 0), (8, 15)])
    placements, _ = grid_summarize(items, grid, EstimatorConfig(n_basis=16, seed=0))
    coords = _square_grid(4)
    spot = {i: coords[p] for i, p in placements}
    within_a = np.mean(
        [np.linalg.norm(spot[i] - spot[j]) for i in range(8) for j in range(i + 1, 8)]
    )
    across = np.mean(
        [np.linalg.norm(spot[i] - spot[j]) for i in range(8) for j in range(8, 16)]
    )
    assert within_a < across
