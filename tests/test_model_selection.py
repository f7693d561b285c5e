"""Tests for hold-out cross-validation over (lambda, beta)."""

from dataclasses import replace

import numpy as np
import pytest

from semismi import (
    CvGrid, EstimatorConfig, SampleSet, cross_validate, estimator, model_selection,
)
from semismi.kernels import sample_basis
from semismi.model_selection import holdout_error, select_best

from conftest import make_dataset
from test_estimator import constant_ratio_setup


def _grid(monkeypatch, lambdas, betas):
    monkeypatch.setattr(model_selection, "LAMBDAS", lambdas)
    monkeypatch.setattr(model_selection, "BETAS", betas)


def test_grid_defaults():
    assert model_selection.LAMBDAS == (0.1, 0.01, 0.001, 0.0001)
    assert model_selection.BETAS == (0.2, 0.4, 0.6, 0.8, 1.0)
    assert model_selection.MIN_PAIRS == 4
    assert CvGrid().seed == 0


def test_holdout_error_constant_ratios():
    tx, ty = np.zeros((6, 1)), np.zeros((6, 1))
    model1, _ = constant_ratio_setup(1.0)
    assert holdout_error(model1, tx, ty) == pytest.approx(-0.5, abs=1e-12)

    model0, _ = constant_ratio_setup(0.0)
    assert holdout_error(model0, tx, ty) == pytest.approx(0.0, abs=1e-12)

    # r = c scores c^2/2 - c, minimized at the true constant c = 1
    for c in (0.5, 2.0):
        model_c, _ = constant_ratio_setup(c)
        score = holdout_error(model_c, tx, ty)
        assert score == pytest.approx(c * c / 2.0 - c, abs=1e-12)
        assert holdout_error(model1, tx, ty) < score


def test_holdout_error_matches_double_loop(small_data, small_basis):
    rng = np.random.default_rng(0)
    from semismi import RatioModel

    model = RatioModel(small_basis, rng.standard_normal(small_basis.b))
    tx = rng.standard_normal((7, 2))
    ty = rng.standard_normal((7, 1))
    R = model.cross(tx, ty)
    m = 7
    expected = (R**2).sum() / (2.0 * m * m) - np.mean(np.diag(R))
    assert holdout_error(model, tx, ty) == pytest.approx(expected, abs=1e-12)


def test_holdout_error_needs_two_pairs(small_basis):
    from semismi import RatioModel

    model = RatioModel(small_basis, np.zeros(small_basis.b))
    with pytest.raises(ValueError):
        holdout_error(model, np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="^test_x and test_y must have equal length$"):
        holdout_error(model, np.zeros((3, 2)), np.zeros((2, 1)))


def test_select_best_argmin_and_tiebreaks():
    scores = {(0.1, 0.2): -0.40, (0.01, 0.4): -0.45}
    assert select_best(scores) == (0.01, 0.4)
    # exact tie prefers the larger lambda, then the larger beta
    scores = {(0.1, 0.2): -0.45, (0.01, 0.4): -0.45}
    assert select_best(scores) == (0.1, 0.2)
    scores = {(0.1, 0.2): -0.45, (0.1, 0.8): -0.45}
    assert select_best(scores) == (0.1, 0.8)


def test_cross_validate_single_point_grid(monkeypatch):
    data = make_dataset(seed=0, n=8, n_x=20, n_y=20, d_x=1, d_y=1)
    _grid(monkeypatch, (0.01,), (0.5,))
    report = cross_validate(data, EstimatorConfig(n_basis=8), CvGrid())
    assert (report.best_lambda, report.best_beta) == (0.01, 0.5)
    assert set(report.scores) == {(0.01, 0.5)}


def test_cross_validate_full_grid_consistency(monkeypatch):
    data = make_dataset(seed=1, n=10, n_x=25, n_y=25, d_x=1, d_y=1, linked=True)
    _grid(monkeypatch, (0.1, 0.001), (0.4, 1.0))
    report = cross_validate(data, EstimatorConfig(n_basis=8, seed=1), CvGrid(seed=2))
    assert len(report.scores) == 4
    # the reported best re-derives from the score table
    assert select_best(report.scores) == (report.best_lambda, report.best_beta)
    assert report.scores[(report.best_lambda, report.best_beta)] == min(
        report.scores.values()
    )


def test_cross_validate_requires_four_pairs():
    data = make_dataset(seed=2, n=3, n_x=10, n_y=10)
    with pytest.raises(ValueError, match="insufficient paired samples"):
        cross_validate(data, EstimatorConfig(n_basis=4), CvGrid())


def test_cross_validate_deterministic(monkeypatch):
    data = make_dataset(seed=3, n=12, n_x=30, n_y=30, d_x=1, d_y=1)
    _grid(monkeypatch, (0.1, 0.01), (0.5, 1.0))
    grid = CvGrid(seed=7)
    cfg = EstimatorConfig(n_basis=8, seed=3)
    r1 = cross_validate(data, cfg, grid)
    r2 = cross_validate(data, cfg, grid)
    assert r1.scores == r2.scores
    assert (r1.best_lambda, r1.best_beta) == (r2.best_lambda, r2.best_beta)


def test_cross_validate_split_depends_on_grid_seed(monkeypatch):
    data = make_dataset(seed=4, n=12, n_x=30, n_y=30, d_x=1, d_y=1, linked=True)
    cfg = EstimatorConfig(n_basis=8, seed=4)
    _grid(monkeypatch, (0.01,), (0.5,))
    r1 = cross_validate(data, cfg, CvGrid(seed=0))
    r2 = cross_validate(data, cfg, CvGrid(seed=99))
    # different hold-out splits score differently in general
    assert r1.scores != r2.scores


def test_cross_validate_builds_its_training_problem_once(monkeypatch):
    # the 20 grid fits share the training features, H and one eigh; the
    # held-out features are formed once too
    data = make_dataset(seed=5, n=12, n_x=30, n_y=30, d_x=1, d_y=1, linked=True)
    n_train = data.n - int(round(data.n * model_selection.HOLDOUT_FRACTION))
    pooled_sizes = []
    eighs = []
    feature_columns, eigh = estimator.feature_columns, np.linalg.eigh

    def counting_features(basis, xs, ys):
        pooled_sizes.append((len(xs), len(ys)))
        return feature_columns(basis, xs, ys)

    def counting_eigh(H):
        eighs.append(H.shape)
        return eigh(H)

    monkeypatch.setattr(estimator, "feature_columns", counting_features)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report = cross_validate(data, EstimatorConfig(n_basis=8, seed=5), CvGrid(seed=1))
    assert len(report.scores) == 20
    assert pooled_sizes == [(n_train + data.n_x, n_train + data.n_y)]
    assert eighs == [(8, 8)]


def test_cross_validate_scores_as_separate_fits_and_holdout_error_do(monkeypatch):
    # one shared problem and held-out features formed once give each grid
    # point the bits of its own fit scored by holdout_error
    data = make_dataset(seed=6, n=10, n_x=25, n_y=20, d_x=2, d_y=1, linked=True)
    _grid(monkeypatch, (0.1, 0.001), (0.2, 1.0))
    config = EstimatorConfig(n_basis=8, seed=6)
    report = cross_validate(data, config, CvGrid(seed=3))
    perm = np.random.default_rng(3).permutation(data.n)
    test_idx, train_idx = perm[:5], perm[5:]
    train = SampleSet(
        data.paired_x[train_idx], data.paired_y[train_idx], data.unpaired_x, data.unpaired_y
    )
    basis = sample_basis(data.pooled_x, data.pooled_y, 8, 6)
    for (lam, beta), score in report.scores.items():
        result = estimator._Problem(train, basis).fit(replace(config, lam=lam, beta=beta))
        expected = holdout_error(result.model, data.paired_x[test_idx], data.paired_y[test_idx])
        assert score == expected
