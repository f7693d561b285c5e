"""Tests for the alternating estimator and the SMI plug-in values."""

import tracemalloc

import numpy as np
import pytest

from semismi import (
    EstimatorConfig,
    SampleSet,
    SyntheticSpec,
    estimator,
    fit,
    generate,
    smi_estimate,
    transport,
)
from semismi.density_ratio import RidgeSystem, mixed_linear_term, quadratic_term, solve_alpha
from semismi.estimator import objective
from semismi.kernels import BasisSet, feature_columns, sample_basis

from conftest import assert_valid_plan, entrywise_entropy, independent_coupling, make_dataset


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
    with pytest.raises(ValueError, match="^y dimension differs between paired and unpaired"):
        SampleSet(
            np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((5, 2)), np.zeros((5, 2))
        )


def test_sample_set_takes_1d_arrays_as_one_column():
    data = SampleSet(np.arange(3.0), np.arange(3.0), np.arange(5.0), np.arange(4.0))
    assert data.pooled_x.shape == (8, 1) and data.pooled_y.shape == (7, 1)
    np.testing.assert_array_equal(data.unpaired_x[:, 0], np.arange(5.0))


@pytest.mark.parametrize("name", ["paired_x", "paired_y", "unpaired_x", "unpaired_y"])
def test_sample_set_rejects_a_3d_array(name):
    arrays = {
        "paired_x": np.zeros((3, 2)),
        "paired_y": np.zeros((3, 1)),
        "unpaired_x": np.zeros((5, 2)),
        "unpaired_y": np.zeros((4, 1)),
    }
    arrays[name] = arrays[name][:, :, None]
    with pytest.raises(ValueError, match=rf"^{name} must be 1-D or 2-D, got shape \(\d, \d, 1\)$"):
        SampleSet(**arrays)


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
    assert data.pooled_y is data.paired_y


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


@pytest.mark.parametrize("name", ["paired_x", "paired_y", "unpaired_x", "unpaired_y"])
def test_sample_set_rejects_an_array_without_columns(name):
    arrays = {
        "paired_x": np.zeros((3, 2)),
        "paired_y": np.zeros((3, 1)),
        "unpaired_x": np.zeros((5, 2)),
        "unpaired_y": np.zeros((4, 1)),
    }
    rows = arrays[name].shape[0]
    arrays[name] = np.zeros((rows, 0))
    with pytest.raises(ValueError, match=rf"^{name} has no columns: shape \({rows}, 0\)$"):
        SampleSet(**arrays)


@pytest.mark.parametrize("side", ["x", "y"])
def test_sample_set_rejects_a_side_without_columns(side):
    # this used to pass and fail only in fit, as "x side has 25 samples:
    # degenerate bandwidth: median pairwise distance is zero"
    rng = np.random.default_rng(0)
    arrays = {
        "paired_x": rng.standard_normal((5, 2)),
        "paired_y": rng.standard_normal((5, 1)),
        "unpaired_x": rng.standard_normal((20, 2)),
        "unpaired_y": rng.standard_normal((20, 1)),
    }
    arrays[f"paired_{side}"] = np.zeros((5, 0))
    arrays[f"unpaired_{side}"] = np.zeros((20, 0))
    with pytest.raises(ValueError, match=rf"^paired_{side} has no columns: shape \(5, 0\)$"):
        SampleSet(**arrays)


# ------------------------------------------------------------------- config


def test_config_defaults():
    cfg = EstimatorConfig()
    assert cfg.n_basis == 200
    assert cfg.epsilon == 0.3
    assert cfg.max_outer_iters == 20


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(beta=1.5)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            EstimatorConfig(epsilon=bad)
    with pytest.raises(ValueError):
        EstimatorConfig(max_outer_iters=0)
    with pytest.raises(ValueError, match="^n_basis must be >= 1$"):
        EstimatorConfig(n_basis=0)
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
    entropy = entrywise_entropy(independent_coupling(2, 2))
    H = np.eye(1)
    h = np.zeros(1)
    val = objective(H @ np.zeros(1), h, np.zeros(1), entropy, lam=0.0, epsilon=0.3)
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
    val = objective(H @ alpha, h, alpha, -np.log(9.0) - 1.0, lam=0.0, epsilon=0.0)
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
    got = objective(H @ alpha, h, alpha, entrywise_entropy(plan_mat), lam=lam, epsilon=eps)
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
    # MARGINAL_TOL; the plan gap may still settle, but the fit must not
    # call itself converged around a plan that misses its marginals
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        res = fit(small_data, EstimatorConfig(n_basis=6, epsilon=1e-4, seed=1))
    assert not res.plan.converged
    assert not res.converged


@pytest.mark.parametrize(
    "kind, epsilon", [("linear", 1e-2), ("random", 1e-2), ("random", 1e-3)]
)
def test_small_epsilon_fits_on_500_pools_report_honestly(kind, epsilon):
    # at small epsilon the inner solves are slow; whatever the fit ends
    # with, converged must imply a feasible plan, and marginal_error must
    # be the returned plan's own violation (linear at 1e-3, with 11 capped
    # inner solves and about 13 s, is left to manual runs)
    data = generate(SyntheticSpec(kind=kind, n=100, n_x=500, n_y=500, seed=1))
    config = EstimatorConfig(epsilon=epsilon, seed=1)
    res = fit(data, config)
    assert res.plan.converged or not res.converged
    pi = res.plan.pi
    actual = max(np.max(np.abs(pi.sum(axis=1) - 1 / 500)), np.max(np.abs(pi.sum(axis=0) - 1 / 500)))
    # equal up to the rounding of the sums (about 1e-18 here)
    assert res.plan.marginal_error == pytest.approx(actual, rel=1e-6, abs=1e-17)
    if res.plan.converged:
        assert actual <= transport.MARGINAL_TOL + 1e-17


def _fit_peak(n_basis):
    """A fit's traced peak at 1000 x 1000 pools, in plan sizes."""
    data = generate(SyntheticSpec(kind="linear", n=20, n_x=1000, n_y=1000, seed=1))
    config = EstimatorConfig(n_basis=n_basis, seed=1)
    tracemalloc.start()
    try:
        res = fit(data, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations_run > 1
    return peak / (1000 * 1000 * 8)


def test_fit_holds_at_most_two_plan_sized_arrays():
    # the reward reaches the solve as its factors, so a fit holds the old
    # plan and the solve's buffer, never a dense reward beside them (at
    # the dense-reward design this peaked at 3.13 plan sizes); the
    # bandwidths' medians keep no pair buffer, the first gap's array is
    # the second solve's buffer, and a solve's only temporaries are b x n
    # products (2.18 plan sizes here, 2.29 with a pair buffer and a
    # per-solve finiteness mask)
    assert _fit_peak(50) < 2.25


def test_fit_with_200_features_holds_two_plans_and_one_feature_product():
    # at b = 200 the features K and L take 0.41 plan sizes and one b x n
    # product 0.2; the rest is the two plan buffers (2.71 plan sizes
    # here, 2.91 while K * scale * alpha lived through each solve beside
    # K pi and its product with L)
    assert _fit_peak(200) < 2.8


def test_fit_forms_no_plan_sized_array_before_its_first_solve(monkeypatch):
    # the first solve starts from the independent coupling in closed
    # form, so when it is called the fit holds only features and H
    # (a dense uniform plan put 8 MB here)
    data = generate(SyntheticSpec(kind="linear", n=20, n_x=1000, n_y=1000, seed=1))

    class FirstSolve(Exception):
        pass

    held = []

    def first_solve(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        raise FirstSolve

    monkeypatch.setattr(estimator, "sinkhorn_solve", first_solve)
    tracemalloc.start()
    try:
        with pytest.raises(FirstSolve):
            fit(data, EstimatorConfig(seed=1))
    finally:
        tracemalloc.stop()
    assert held[0] < 1000 * 1000 * 8


def test_fit_solves_in_two_plan_buffers(monkeypatch):
    # after the first two solves each one reuses the buffer of the plan
    # two solves back, so a fit holds two plan-sized buffers in all
    data = generate(SyntheticSpec(kind="linear", n=10, n_x=30, n_y=25, seed=2))
    buffers = []

    def recording_solve(*args):
        plan = transport.sinkhorn_solve(*args)
        buffers.append(plan.pi)
        return plan

    monkeypatch.setattr(estimator, "sinkhorn_solve", recording_solve)
    res = fit(data, EstimatorConfig(n_basis=10, seed=2))
    assert res.iterations_run >= 4
    assert len({id(pi) for pi in buffers}) == 2
    assert all(a is b for a, b in zip(buffers, buffers[2:]))
    assert res.plan.pi is buffers[-1]


def test_fit_starts_from_the_independent_coupling(small_data):
    # the first round takes the constant plan's feature mass and entropy
    # in closed form; they must agree with mixed_linear_term and the
    # entry-wise entropy of that plan
    config = EstimatorConfig(n_basis=6, beta=0.4, seed=2, max_outer_iters=1)
    res = fit(small_data, config)
    basis = res.model.basis
    n, n_x, n_y = small_data.n, small_data.n_x, small_data.n_y
    K, L = feature_columns(basis, small_data.pooled_x, small_data.pooled_y)
    H = quadratic_term(K, L)
    pi = independent_coupling(n_x, n_y)
    h = mixed_linear_term(K[:, :n], L[:, :n], K[:, n:], L[:, n:], pi, config.beta)
    alpha, H_alpha = RidgeSystem(H).solve(h, config.lam)
    np.testing.assert_allclose(res.model.alpha, alpha, rtol=1e-12)
    expected = objective(H_alpha, h, alpha, entrywise_entropy(pi), config.lam, config.epsilon)
    assert res.objective_trace[0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_fit_linear_term_is_mixed_linear_term_of_its_plan(small_data):
    # fit builds h from the plan's feature mass; it must be the same bits
    # as mixed_linear_term on that plan, so alpha solves that h
    config = EstimatorConfig(n_basis=6, beta=0.4, seed=2, max_outer_iters=3)
    res = fit(small_data, config)
    basis = res.model.basis
    n = small_data.n
    K, L = feature_columns(basis, small_data.pooled_x, small_data.pooled_y)
    H = quadratic_term(K, L)
    # the last alpha was solved against the plan before the final solve;
    # the recorded objective after it uses the final plan's h
    h = mixed_linear_term(K[:, :n], L[:, :n], K[:, n:], L[:, n:], res.plan.pi, config.beta)
    alpha = res.model.alpha
    expected = objective(H @ alpha, h, alpha, res.plan.entropy, config.lam, config.epsilon)
    assert res.objective_trace[-1] == expected


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
    base = estimator._Problem(small_data, basis).fit(cfg)

    rng = np.random.default_rng(0)
    perm = rng.permutation(small_data.n_x)
    permuted = SampleSet(
        small_data.paired_x,
        small_data.paired_y,
        small_data.unpaired_x[perm],
        small_data.unpaired_y,
    )
    other = estimator._Problem(permuted, basis).fit(cfg)
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
    system = RidgeSystem(H)
    for h in (np.array([0.0, 1.0]), np.array([2.0, -1.0])):
        alpha, H_alpha = system.solve(h, 0.0)
        assert np.all(np.isfinite(alpha))
        np.testing.assert_array_equal(H_alpha, H @ alpha)
        np.testing.assert_allclose(alpha, solve_alpha(H, h, 0.0), rtol=1e-12)
    # a negative-definite H fails with and without jitter
    unsalvageable = RidgeSystem(-np.eye(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        unsalvageable.solve(np.ones(3), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ridge_system_rejects_non_finite_h(bad):
    system = RidgeSystem(np.eye(3))
    np.testing.assert_allclose(system.solve(np.ones(3), 0.1)[0], np.ones(3) / 1.1, rtol=1e-15)
    with pytest.raises(ValueError, match="non-finite"):
        system.solve(np.array([1.0, bad, 0.0]), 0.1)


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
    config = EstimatorConfig(n_basis=6, beta=1.0, lam=0.0, seed=0)
    res = estimator._Problem(small_data, basis).fit(config)
    n = small_data.n
    h = mixed_linear_term(
        K_all[:, :n], L_all[:, :n], K_all[:, n:], L_all[:, n:],
        independent_coupling(small_data.n_x, small_data.n_y), 1.0,
    )
    assert np.all(np.isfinite(res.model.alpha))
    np.testing.assert_allclose(res.model.alpha, solve_alpha(H, h, 0.0), rtol=1e-12)


def test_fit_samples_its_basis_from_the_pools_by_the_config(small_data):
    res = fit(small_data, EstimatorConfig(n_basis=6, seed=6))
    expected = sample_basis(small_data.pooled_x, small_data.pooled_y, 6, seed=6)
    for name in ("x_basis", "y_basis", "sigma_x", "sigma_y"):
        np.testing.assert_array_equal(getattr(res.model.basis, name), getattr(expected, name))


# --------------------------------------------------------------------- smi


@pytest.mark.parametrize(
    "kind, beta, seed", [("linear", 0.8, 1), ("nonlinear", 0.5, 2), ("random", 0.2, 3)]
)
def test_fit_records_the_smi_of_its_own_data(kind, beta, seed):
    # the fit's features and H alpha give its SMI with smi_estimate's bits
    data = generate(SyntheticSpec(kind=kind, n=15, n_x=60, n_y=50, seed=seed))
    res = fit(data, EstimatorConfig(n_basis=20, beta=beta, seed=seed))
    assert res.smi == smi_estimate(res.model, data)


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


def test_fit_rectangular_pools():
    data = make_dataset(seed=9, n=6, n_x=25, n_y=10)
    res = fit(data, EstimatorConfig(n_basis=8, beta=0.5, seed=7))
    assert res.plan.pi.shape == (25, 10)
    assert_valid_plan(res.plan, 25, 10)
    assert smi_estimate(res.model, data) >= 0.0
