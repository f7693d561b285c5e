"""Tests for the alternating estimator and the SMI plug-in values."""

import numpy as np
import pytest

from semismi import EstimatorConfig, SampleSet, fit, smi_estimate
from semismi.density_ratio import RidgeSystem, mixed_linear_term, quadratic_term, solve_alpha
from semismi.estimator import objective, smi_estimate_paired
from semismi.kernels import BasisSet, feature_columns, sample_basis
from semismi.transport import uniform_plan

from conftest import assert_valid_plan, make_dataset


def constant_ratio_setup(value, n=3, n_x=4, n_y=5):
    """Degenerate dataset where every sample coincides, so r is constant."""
    data = SampleSet(
        np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n_x, 1)), np.zeros((n_y, 1))
    )
    basis = BasisSet(np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 1.0)
    from semismi import RatioModel

    return RatioModel(basis, np.array([value])), data


# ---------------------------------------------------------------- SampleSet


def test_sample_set_counts_and_pools(small_data):
    assert small_data.n == 8
    assert small_data.n_x == 15
    assert small_data.n_y == 12
    assert small_data.pooled_x.shape == (23, 2)
    assert small_data.pooled_y.shape == (20, 1)
    # paired samples come first in the pools
    np.testing.assert_array_equal(small_data.pooled_x[:8], small_data.paired_x)


def test_sample_set_dimension_mismatch():
    with pytest.raises(ValueError):
        SampleSet(
            np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((5, 3)), np.zeros((5, 1))
        )
    with pytest.raises(ValueError):
        SampleSet(
            np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((5, 2)), np.zeros((5, 1))
        )


def test_sample_set_requires_samples_somewhere():
    with pytest.raises(ValueError, match="at least one sample"):
        SampleSet(
            np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((5, 1))
        )


def test_sample_set_allows_empty_pools():
    data = SampleSet(
        np.ones((4, 2)), np.ones((4, 1)), np.zeros((0, 2)), np.zeros((0, 1))
    )
    assert data.n == 4 and data.n_x == 0 and data.n_y == 0
    assert data.pooled_x.shape == (4, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["paired_x", "paired_y", "unpaired_x", "unpaired_y"])
def test_sample_set_rejects_non_finite_entries(name, bad):
    arrays = {
        "paired_x": np.zeros((3, 2)),
        "paired_y": np.zeros((3, 1)),
        "unpaired_x": np.zeros((5, 2)),
        "unpaired_y": np.zeros((4, 1)),
    }
    arrays[name][1, 0] = bad
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
        SampleSet(**arrays)


# ------------------------------------------------------------------- config


def test_config_defaults():
    cfg = EstimatorConfig()
    assert cfg.n_basis == 200
    assert cfg.epsilon == 0.3
    assert cfg.max_outer_iters == 20
    assert cfg.outer_tol == 1e-9
    assert cfg.sinkhorn.epsilon == 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(beta=1.5)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(max_outer_iters=0)
    with pytest.raises(ValueError):
        EstimatorConfig(outer_tol=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(lam=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^lam must"):
            EstimatorConfig(lam=bad)
        with pytest.raises(ValueError, match="^epsilon must"):
            EstimatorConfig(epsilon=bad)


# ---------------------------------------------------------------- objective


def test_objective_entropy_only():
    # alpha = 0 and a uniform 2x2 plan leave only the entropy term
    plan = uniform_plan(2, 2)
    H = np.eye(1)
    h = np.zeros(1)
    val = objective(H, h, np.zeros(1), plan, lam=0.0, epsilon=0.3)
    assert val == pytest.approx(0.3 * (-np.log(4.0) - 1.0), abs=1e-12)
    assert val == pytest.approx(-0.715888, abs=1e-6)


def test_objective_at_quadratic_optimum():
    # with lam = 0 and eps = 0 the optimum value is -alpha.h / 2
    rng = np.random.default_rng(0)
    b = 6
    A = rng.standard_normal((b, b))
    H = A @ A.T / b + 0.1 * np.eye(b)
    h = rng.standard_normal(b)
    alpha = solve_alpha(H, h, 0.0)
    plan = uniform_plan(3, 3)
    val = objective(H, h, alpha, plan, lam=0.0, epsilon=0.0)
    assert val == pytest.approx(-0.5 * float(alpha @ h), abs=1e-10)


def test_objective_matches_term_oracle(small_data, small_basis):
    rng = np.random.default_rng(1)
    K_all, L_all = feature_columns(
        small_basis, small_data.pooled_x, small_data.pooled_y
    )
    H = quadratic_term(K_all, L_all)
    n = small_data.n
    plan_mat = rng.random((small_data.n_x, small_data.n_y))
    plan_mat /= plan_mat.sum()
    from semismi import TransportPlan

    plan = TransportPlan(plan_mat, np.zeros(small_data.n_x), np.zeros(small_data.n_y))
    beta, lam, eps = 0.4, 0.01, 0.3
    h = mixed_linear_term(
        K_all[:, :n], L_all[:, :n], K_all[:, n:], L_all[:, n:], plan_mat, beta
    )
    alpha = rng.standard_normal(small_basis.b)
    expected = (
        0.5 * alpha @ H @ alpha
        - alpha @ h
        + eps * np.sum(plan_mat * (np.log(plan_mat) - 1.0))
        + 0.5 * lam * alpha @ alpha
    )
    got = objective(H, h, alpha, plan, lam=lam, epsilon=eps)
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------- fit


def test_fit_beta_one_single_iteration(small_data):
    res = fit(small_data, EstimatorConfig(n_basis=6, beta=1.0, seed=0))
    assert res.iterations_run == 1
    assert res.converged
    # plan never moves away from uniform
    np.testing.assert_allclose(
        res.plan.pi, 1.0 / (small_data.n_x * small_data.n_y), atol=1e-12
    )


def test_fit_beta_one_matches_paired_only_solve(small_data):
    cfg = EstimatorConfig(n_basis=6, beta=1.0, lam=0.01, seed=0)
    res = fit(small_data, cfg)
    basis = sample_basis(
        small_data.pooled_x, small_data.pooled_y, 6, seed=0
    )
    K_all, L_all = feature_columns(basis, small_data.pooled_x, small_data.pooled_y)
    H = quadratic_term(K_all, L_all)
    n = small_data.n
    h = (K_all[:, :n] * L_all[:, :n]).mean(axis=1)
    alpha_direct = solve_alpha(H, h, 0.01)
    np.testing.assert_allclose(res.model.alpha, alpha_direct, atol=1e-10)


def test_fit_trace_monotone_and_recorded(small_data):
    res = fit(small_data, EstimatorConfig(n_basis=6, beta=0.5, seed=1))
    tr = np.array(res.objective_trace)
    assert len(tr) == res.iterations_run + 1
    assert np.all(np.diff(tr) <= 1e-9)


def test_fit_returns_valid_plan(small_data):
    res = fit(small_data, EstimatorConfig(n_basis=6, beta=0.3, seed=2))
    assert_valid_plan(res.plan, small_data.n_x, small_data.n_y)


def test_fit_with_an_infeasible_final_plan_is_not_converged(small_data):
    # at epsilon = 1e-4 every inner solve stops at its sweep cap short of
    # marginal_tol; the plan gap may still settle, but the fit must not
    # call itself converged around a plan that misses its marginals
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        res = fit(small_data, EstimatorConfig(n_basis=6, epsilon=1e-4, seed=1))
    assert not res.plan.converged
    assert not res.converged


def test_fit_deterministic(small_data):
    cfg = EstimatorConfig(n_basis=6, beta=0.5, seed=3)
    r1 = fit(small_data, cfg)
    r2 = fit(small_data, cfg)
    np.testing.assert_array_equal(r1.model.alpha, r2.model.alpha)
    np.testing.assert_array_equal(r1.plan.pi, r2.plan.pi)
    np.testing.assert_array_equal(r1.objective_trace, r2.objective_trace)


def test_fit_permutation_of_unpaired_x(small_data):
    # with a frozen basis, permuting the unpaired x pool permutes plan
    # rows and leaves the SMI value untouched
    basis = sample_basis(small_data.pooled_x, small_data.pooled_y, 6, seed=4)
    cfg = EstimatorConfig(n_basis=6, beta=0.5, seed=4)
    base = fit(small_data, cfg, basis=basis)

    rng = np.random.default_rng(0)
    perm = rng.permutation(small_data.n_x)
    permuted = SampleSet(
        small_data.paired_x,
        small_data.paired_y,
        small_data.unpaired_x[perm],
        small_data.unpaired_y,
    )
    other = fit(permuted, cfg, basis=basis)
    np.testing.assert_allclose(other.plan.pi, base.plan.pi[perm], atol=1e-10)
    assert smi_estimate(other.model, permuted) == pytest.approx(
        smi_estimate(base.model, small_data), abs=1e-10
    )


def test_fit_requires_pairs_when_beta_positive():
    data = SampleSet(
        np.zeros((0, 1)),
        np.zeros((0, 1)),
        np.random.default_rng(0).standard_normal((10, 1)),
        np.random.default_rng(1).standard_normal((10, 1)),
    )
    with pytest.raises(ValueError, match="paired sample"):
        fit(data, EstimatorConfig(n_basis=4, beta=0.5))
    # beta = 0 works without any pairs
    res = fit(data, EstimatorConfig(n_basis=4, beta=0.0))
    assert res.model.alpha.shape == (4,)


def test_fit_requires_unpaired_pools():
    rng = np.random.default_rng(2)
    data = SampleSet(
        rng.standard_normal((6, 1)),
        rng.standard_normal((6, 1)),
        np.zeros((0, 1)),
        np.zeros((0, 1)),
    )
    with pytest.raises(ValueError, match="unpaired pools"):
        fit(data, EstimatorConfig(n_basis=4, beta=0.5))


def test_fit_timings_present(small_data):
    res = fit(small_data, EstimatorConfig(n_basis=6, seed=5))
    for key in ("setup_seconds", "iteration_seconds", "per_iteration_seconds"):
        assert key in res.timings
        assert res.timings[key] >= 0.0


def test_ridge_system_jitter_matches_solve_alpha():
    # the rank-1 system of the solve_alpha jitter test, decomposed once
    # as fit does: at lam = 0, H + lam I is not positive definite, so
    # every solve must take the jittered ridge and agree with a direct
    # solve_alpha
    v = np.array([1.0, 0.0])
    H = np.outer(v, v)
    system = RidgeSystem(H, 0.0)
    for h in (np.array([0.0, 1.0]), np.array([2.0, -1.0])):
        alpha = system.solve(h)
        assert np.all(np.isfinite(alpha))
        np.testing.assert_allclose(alpha, solve_alpha(H, h, 0.0), rtol=1e-12)
    # a negative-definite H fails with and without jitter
    unsalvageable = RidgeSystem(-np.eye(3), 0.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        unsalvageable.solve(np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ridge_system_rejects_non_finite_h(bad):
    system = RidgeSystem(np.eye(3), 0.1)
    np.testing.assert_allclose(system.solve(np.ones(3)), np.ones(3) / 1.1, rtol=1e-15)
    with pytest.raises(ValueError, match="non-finite"):
        system.solve(np.array([1.0, bad, 0.0]))


def test_fit_singular_ridge_system_takes_jitter_path(small_data):
    # duplicated basis centres make H rank-deficient, so at lam = 0 the
    # ridge is unusable and the fit must go through the jitter retry;
    # beta = 1 keeps h fixed, so alpha is one direct solve
    base = sample_basis(small_data.pooled_x, small_data.pooled_y, 3, seed=0)
    basis = BasisSet(
        np.repeat(base.x_basis, 2, axis=0),
        np.repeat(base.y_basis, 2, axis=0),
        base.sigma_x,
        base.sigma_y,
    )
    K_all, L_all = feature_columns(basis, small_data.pooled_x, small_data.pooled_y)
    H = quadratic_term(K_all, L_all)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(H)
    res = fit(small_data, EstimatorConfig(n_basis=6, beta=1.0, lam=0.0, seed=0), basis=basis)
    n = small_data.n
    h = mixed_linear_term(
        K_all[:, :n], L_all[:, :n], K_all[:, n:], L_all[:, n:],
        uniform_plan(small_data.n_x, small_data.n_y).pi, 1.0,
    )
    assert np.all(np.isfinite(res.model.alpha))
    np.testing.assert_allclose(res.model.alpha, solve_alpha(H, h, 0.0), rtol=1e-12)


def test_fit_respects_explicit_basis(small_data, small_basis):
    res = fit(small_data, EstimatorConfig(n_basis=6, seed=6), basis=small_basis)
    assert res.model.basis is small_basis


# --------------------------------------------------------------------- smi


def test_smi_zero_ratio_is_half(small_data, small_basis):
    from semismi import RatioModel

    model = RatioModel(small_basis, np.zeros(small_basis.b))
    assert smi_estimate(model, small_data) == pytest.approx(0.5, abs=1e-12)


def test_smi_constant_unit_ratio_is_zero():
    model, data = constant_ratio_setup(1.0)
    assert smi_estimate(model, data) == pytest.approx(0.0, abs=1e-12)


def test_smi_matches_double_loop(small_data, small_basis):
    rng = np.random.default_rng(3)
    from semismi import RatioModel

    model = RatioModel(small_basis, rng.standard_normal(small_basis.b))
    R = model.cross(small_data.pooled_x, small_data.pooled_y)
    N_x, N_y = R.shape
    expected = 0.0
    for i in range(N_x):
        for j in range(N_y):
            expected += (R[i, j] - 1.0) ** 2
    expected /= 2.0 * N_x * N_y
    assert smi_estimate(model, small_data) == pytest.approx(expected, abs=1e-10)


def test_smi_never_negative(small_data, small_basis):
    rng = np.random.default_rng(4)
    from semismi import RatioModel

    for _ in range(5):
        model = RatioModel(small_basis, 0.01 * rng.standard_normal(small_basis.b))
        assert smi_estimate(model, small_data) >= 0.0


def test_smi_paired_constant_unit_ratio():
    model, data = constant_ratio_setup(1.0)
    plan = uniform_plan(data.n_x, data.n_y)
    for beta in (0.0, 0.3, 1.0):
        assert smi_estimate_paired(model, plan, data, beta) == pytest.approx(
            0.0, abs=1e-12
        )


def test_smi_paired_beta_one_formula():
    model, data = constant_ratio_setup(2.0)
    plan = uniform_plan(data.n_x, data.n_y)
    # (beta / 2n) sum r - 1/2 with r = 2 everywhere gives 1 - 1/2
    assert smi_estimate_paired(model, plan, data, 1.0) == pytest.approx(0.5)


def test_smi_paired_matches_double_loop(small_data, small_basis):
    rng = np.random.default_rng(5)
    from semismi import RatioModel, TransportPlan

    model = RatioModel(small_basis, rng.standard_normal(small_basis.b))
    plan_mat = rng.random((small_data.n_x, small_data.n_y))
    plan_mat /= plan_mat.sum()
    plan = TransportPlan(
        plan_mat, np.zeros(small_data.n_x), np.zeros(small_data.n_y)
    )
    beta = 0.6
    r_pairs = model.pairs(small_data.paired_x, small_data.paired_y)
    R = model.cross(small_data.unpaired_x, small_data.unpaired_y)
    expected = (
        beta / (2.0 * small_data.n) * r_pairs.sum()
        + 0.5 * (1.0 - beta) * np.sum(plan_mat * R)
        - 0.5
    )
    got = smi_estimate_paired(model, plan, small_data, beta)
    assert got == pytest.approx(expected, abs=1e-12)


def test_smi_paired_requires_pairs_for_positive_beta(small_basis):
    data = SampleSet(
        np.zeros((0, 2)),
        np.zeros((0, 1)),
        np.random.default_rng(0).standard_normal((5, 2)),
        np.random.default_rng(1).standard_normal((4, 1)),
    )
    from semismi import RatioModel

    model = RatioModel(small_basis, np.zeros(small_basis.b))
    plan = uniform_plan(5, 4)
    with pytest.raises(ValueError, match="paired"):
        smi_estimate_paired(model, plan, data, 0.5)


def test_fit_rectangular_pools():
    data = make_dataset(seed=9, n=6, n_x=25, n_y=10)
    res = fit(data, EstimatorConfig(n_basis=8, beta=0.5, seed=7))
    assert res.plan.pi.shape == (25, 10)
    assert_valid_plan(res.plan, 25, 10)
    assert smi_estimate(res.model, data) >= 0.0
