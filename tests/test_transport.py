"""Tests for the entropic transport-plan solver."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from semismi import transport
from semismi.density_ratio import mixed_linear_term, weighted_feature_sum
from semismi.transport import (
    SinkhornParams,
    cost_matrix,
    plan_entropy,
    sinkhorn_solve,
    uniform_plan,
)

from conftest import assert_valid_plan, dense, entrywise_entropy


def test_uniform_plan_basics():
    plan = uniform_plan(4, 6)
    assert_valid_plan(plan, 4, 6, tol=1e-15)
    np.testing.assert_allclose(plan.pi, 1.0 / 24.0)
    assert plan.converged


def test_params_validation():
    with pytest.raises(ValueError):
        SinkhornParams(epsilon=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            SinkhornParams(epsilon=bad)
    with pytest.raises(ValueError):
        SinkhornParams(max_inner_iters=0)
    with pytest.raises(ValueError):
        SinkhornParams(marginal_tol=-1.0)


def test_zero_cost_gives_uniform_plan():
    plan = sinkhorn_solve(dense(np.zeros((5, 7))), beta=0.5, params=SinkhornParams())
    np.testing.assert_allclose(plan.pi, 1.0 / 35.0, atol=1e-12)
    assert plan.converged


def test_beta_one_gives_uniform_plan():
    rng = np.random.default_rng(0)
    cost = rng.standard_normal((6, 4))
    plan = sinkhorn_solve(dense(cost), beta=1.0, params=SinkhornParams())
    np.testing.assert_allclose(plan.pi, 1.0 / 24.0, atol=1e-12)


def test_two_by_two_closed_form():
    # (1-beta) C / eps = I, whose balanced Gibbs plan is known exactly
    eps, beta = 0.3, 0.5
    cost = np.eye(2) * eps / (1.0 - beta)
    plan = sinkhorn_solve(dense(cost), beta=beta, params=SinkhornParams(epsilon=eps))
    e = np.e
    on_diag = e / (2.0 * (1.0 + e))
    off_diag = 1.0 / (2.0 * (1.0 + e))
    np.testing.assert_allclose(
        plan.pi, [[on_diag, off_diag], [off_diag, on_diag]], atol=1e-9
    )
    assert on_diag == pytest.approx(0.365529, abs=1e-6)


def test_marginals_within_tolerance():
    rng = np.random.default_rng(1)
    params = SinkhornParams()
    for shape in [(10, 10), (25, 13), (3, 40)]:
        cost = rng.standard_normal(shape)
        plan = sinkhorn_solve(dense(cost), beta=0.3, params=params)
        assert plan.converged
        assert_valid_plan(plan, *shape, tol=1e-6)
        assert plan.marginal_error <= params.marginal_tol


def test_higher_reward_attracts_mass():
    # one strongly preferred cell should end above the uniform level
    cost = np.zeros((3, 3))
    cost[1, 2] = 2.0
    plan = sinkhorn_solve(dense(cost), beta=0.2, params=SinkhornParams())
    assert plan.pi[1, 2] > 1.0 / 9.0
    assert plan.pi[1, 2] == plan.pi.max()


def test_gibbs_fixed_point_structure():
    # the returned plan must factor as diag(u) exp(S) diag(v)
    rng = np.random.default_rng(2)
    eps, beta = 0.4, 0.3
    cost = rng.standard_normal((8, 5))
    plan = sinkhorn_solve(dense(cost), beta=beta, params=SinkhornParams(epsilon=eps))
    S = (1.0 - beta) * cost / eps
    log_pi = np.log(plan.pi)
    residual = log_pi - S
    # residual must be a rank-one sum phi_i + psi_j
    centered = residual - residual[:, :1] - residual[:1, :] + residual[0, 0]
    np.testing.assert_allclose(centered, 0.0, atol=1e-7)


def test_row_permutation_equivariance():
    rng = np.random.default_rng(3)
    cost = rng.standard_normal((9, 6))
    perm = rng.permutation(9)
    base = sinkhorn_solve(dense(cost), beta=0.4, params=SinkhornParams())
    permuted = sinkhorn_solve(dense(cost[perm]), beta=0.4, params=SinkhornParams())
    np.testing.assert_allclose(permuted.pi, base.pi[perm], atol=1e-9)


def test_determinism():
    rng = np.random.default_rng(4)
    cost = rng.standard_normal((12, 12))
    p1 = sinkhorn_solve(dense(cost), beta=0.6, params=SinkhornParams())
    p2 = sinkhorn_solve(dense(cost), beta=0.6, params=SinkhornParams())
    np.testing.assert_array_equal(p1.pi, p2.pi)


def test_warm_start_reaches_same_plan():
    rng = np.random.default_rng(5)
    cost = rng.standard_normal((10, 8))
    params = SinkhornParams()
    cold = sinkhorn_solve(dense(cost), beta=0.3, params=params)
    warm = sinkhorn_solve(dense(cost), beta=0.3, params=params, init=cold)
    np.testing.assert_allclose(warm.pi, cold.pi, atol=1e-10)
    # warm start from the solution should converge almost immediately
    assert warm.iterations <= cold.iterations


@pytest.mark.parametrize("shift", [0.0, 2000.0])
def test_cold_solve_is_the_solve_from_the_uniform_plan(shift):
    # without init the potentials start from the uniform plan's, so a cold
    # solve is bit for bit the warm one from uniform_plan; a shift of 2000
    # overflows that kernel and takes both through the log-domain pass
    cost = np.random.default_rng(12).standard_normal((9, 7)) + shift
    params = SinkhornParams()
    cold = sinkhorn_solve(dense(cost), beta=0.3, params=params)
    warm = sinkhorn_solve(dense(cost), beta=0.3, params=params, init=uniform_plan(9, 7))
    assert cold.converged and warm.converged
    np.testing.assert_array_equal(cold.pi, warm.pi)
    np.testing.assert_array_equal(cold.row_potential, warm.row_potential)
    np.testing.assert_array_equal(cold.col_potential, warm.col_potential)
    assert (cold.iterations, cold.entropy, cold.marginal_error) == (
        warm.iterations, warm.entropy, warm.marginal_error
    )


@pytest.mark.parametrize("shift", [800.0, -800.0])
def test_unusable_warm_start_falls_back_to_log_domain(shift):
    # +800 overflows exp on the warm kernel and -800 underflows every
    # row to zero; either way the solve must notice before sweeping,
    # redo the log-domain pass, and return the cold plan without
    # floating-point warnings
    rng = np.random.default_rng(5)
    cost = rng.standard_normal((10, 8))
    params = SinkhornParams()
    cold = sinkhorn_solve(dense(cost), beta=0.3, params=params)
    init = replace(
        cold, row_potential=cold.row_potential + shift, col_potential=cold.col_potential + shift
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sinkhorn_solve(dense(cost), beta=0.3, params=params, init=init)
    assert warm.converged
    assert_valid_plan(warm, 10, 8, tol=1e-10)
    np.testing.assert_allclose(warm.pi, cold.pi, atol=1e-10)


def test_single_row_plan_is_uniform():
    cost = np.array([[3.0, -1.0, 0.5]])
    plan = sinkhorn_solve(dense(cost), beta=0.2, params=SinkhornParams())
    np.testing.assert_allclose(plan.pi, 1.0 / 3.0, atol=1e-12)
    assert_valid_plan(plan, 1, 3, tol=1e-12)


def test_iteration_cap_warns_and_flags():
    rng = np.random.default_rng(6)
    cost = 50.0 * rng.standard_normal((20, 20))
    params = SinkhornParams(max_inner_iters=2, marginal_tol=1e-14)
    with pytest.warns(RuntimeWarning):
        plan = sinkhorn_solve(dense(cost), beta=0.0, params=params)
    assert not plan.converged
    assert plan.marginal_error > params.marginal_tol


def test_rejects_bad_inputs():
    params = SinkhornParams()
    with pytest.raises(ValueError):
        sinkhorn_solve(dense(np.array([[np.nan, 0.0]])), beta=0.5, params=params)
    with pytest.raises(ValueError):
        sinkhorn_solve(dense(np.zeros((2, 2))), beta=1.5, params=params)
    with pytest.raises(ValueError):
        sinkhorn_solve(dense(np.zeros((2, 2))), beta=-0.1, params=params)


def test_plan_entropy_uniform():
    plan = uniform_plan(2, 2)
    expected = np.log(0.25) - 1.0
    assert plan_entropy(plan) == pytest.approx(expected, abs=1e-12)


def test_entrywise_entropy_oracle_takes_0_log_0_as_0():
    pi = np.array([[0.5, 0.0], [0.0, 0.5]])
    expected = 2 * 0.5 * (np.log(0.5) - 1.0)
    assert entrywise_entropy(pi) == pytest.approx(expected, abs=1e-12)


def _cap_hit_plan():
    rng = np.random.default_rng(6)
    params = SinkhornParams(max_inner_iters=2, marginal_tol=1e-14)
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        plan = sinkhorn_solve(
            dense(50.0 * rng.standard_normal((20, 20))), beta=0.0, params=params
        )
    assert not plan.converged
    return plan


def _fallback_init(reward, beta, shift=800.0):
    cold = sinkhorn_solve(reward, beta=beta, params=SinkhornParams())
    return replace(
        cold, row_potential=cold.row_potential + shift, col_potential=cold.col_potential + shift
    )


FALLBACK_COST = np.random.default_rng(5).standard_normal((10, 8))


def _fallback_plan():
    reward = dense(FALLBACK_COST)
    init = _fallback_init(reward, 0.3)
    return sinkhorn_solve(reward, beta=0.3, params=SinkhornParams(), init=init)


def _factors(seed, b=5, n_x=30, n_y=20, scale=3.0):
    rng = np.random.default_rng(seed)
    return rng.random((b, n_x)), scale * rng.standard_normal(b), rng.random((b, n_y))


DUAL_ENTROPY_PLANS = {
    "converged": lambda: sinkhorn_solve(
        dense(np.random.default_rng(1).standard_normal((25, 13))), beta=0.3, params=SinkhornParams()
    ),
    "cap-hit": _cap_hit_plan,
    "beta-one": lambda: sinkhorn_solve(
        dense(np.random.default_rng(0).standard_normal((6, 4))), beta=1.0, params=SinkhornParams()
    ),
    "single-row": lambda: sinkhorn_solve(
        dense(np.array([[3.0, -1.0, 0.5]])), beta=0.2, params=SinkhornParams()
    ),
    "warm-start-fallback": _fallback_plan,
    "uniform": lambda: uniform_plan(4, 6),
    "factored": lambda: sinkhorn_solve(_factors(13), beta=0.2, params=SinkhornParams()),
}


@pytest.mark.parametrize("make_plan", DUAL_ENTROPY_PLANS.values(), ids=DUAL_ENTROPY_PLANS.keys())
def test_recorded_entropy_matches_entrywise_sum(make_plan):
    # the solver's entropy comes from the potentials and the marginals;
    # summing pi (log pi - 1) over the bare matrix must agree
    plan = make_plan()
    assert plan_entropy(plan) == plan.entropy
    assert plan.entropy == pytest.approx(entrywise_entropy(plan.pi), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shift", [40.0, -40.0])
def test_scalings_past_threshold_are_absorbed(shift):
    # shifting both potentials by 40 scales the warm kernel by e^(+-80):
    # still finite, so no log-domain rebuild, but the first row scalings
    # land near e^(-+80), far past e^(+-ABSORB_THRESHOLD)
    rng = np.random.default_rng(5)
    cost = rng.standard_normal((10, 8))
    params = SinkhornParams()
    cold = sinkhorn_solve(dense(cost), beta=0.3, params=params)
    phi, psi = cold.row_potential + shift, cold.col_potential + shift
    kernel = np.exp(phi[:, None] + 0.7 * cost / params.epsilon + psi[None, :])
    assert np.all(np.isfinite(kernel))
    first_row_scalings = (1.0 / 10) / kernel.sum(axis=1)
    assert np.all(np.abs(np.log(first_row_scalings)) > transport.ABSORB_THRESHOLD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sinkhorn_solve(
            dense(cost),
            beta=0.3,
            params=params,
            init=replace(cold, row_potential=phi, col_potential=psi),
        )
    assert warm.converged
    assert_valid_plan(warm, 10, 8, tol=1e-10)
    np.testing.assert_allclose(warm.pi, cold.pi, atol=1e-10)


def test_drifting_scalings_are_absorbed_before_they_overflow():
    # at epsilon = 0.01 the scalings drift by orders of magnitude per
    # sweep; only absorbing them past the threshold keeps u * M * v in
    # range, so the one warning is the honest sweep-cap report
    rng = np.random.default_rng(2)
    cost = 10.0 * rng.standard_normal((15, 15))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = sinkhorn_solve(dense(cost), beta=0.0, params=SinkhornParams(epsilon=0.01))
    assert [str(w.message).split(" (")[0] for w in caught] == ["sinkhorn_solve hit the sweep cap"]
    assert np.all(np.isfinite(plan.pi))
    row_err = np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 15.0))
    col_err = np.max(np.abs(plan.pi.sum(axis=0) - 1.0 / 15.0))
    assert plan.marginal_error == pytest.approx(max(row_err, col_err), rel=1e-12)


def test_cost_matrix_is_cross_ratio():
    rng = np.random.default_rng(7)
    b, nx, ny = 4, 6, 5
    alpha = rng.standard_normal(b)
    K = rng.random((b, nx))
    L = rng.random((b, ny))
    C = cost_matrix(alpha, K, L)
    assert C.shape == (nx, ny)
    for i, j in [(0, 0), (3, 2), (5, 4)]:
        assert C[i, j] == pytest.approx(np.sum(alpha * K[:, i] * L[:, j]))


def test_cost_matrix_rejects_non_finite():
    # the reward's finiteness is checked once, where the solve consumes it
    C = cost_matrix(np.array([np.inf]), np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        sinkhorn_solve(dense(C), beta=0.5, params=SinkhornParams())


def test_factored_and_dense_rewards_give_the_same_plan():
    # (K, alpha, L) and the matrix cost_matrix builds from them are one
    # reward: the plans agree to marginal_tol per entry in the same sweeps
    K, alpha, L = _factors(14)
    params = SinkhornParams()
    factored = sinkhorn_solve((K, alpha, L), beta=0.2, params=params)
    matrix = sinkhorn_solve(dense(cost_matrix(alpha, K, L)), beta=0.2, params=params)
    assert factored.converged and matrix.converged
    assert factored.iterations == matrix.iterations
    np.testing.assert_allclose(factored.pi, matrix.pi, rtol=0.0, atol=params.marginal_tol)
    assert factored.entropy == pytest.approx(matrix.entropy, rel=1e-12)
    # the dense form's factors are (I, 1, C): its mass is the row sums of pi * C
    C = cost_matrix(alpha, K, L)
    np.testing.assert_allclose(matrix.feature_mass, (matrix.pi * C).sum(axis=1), rtol=1e-12)


def test_feature_mass_is_the_unpaired_linear_term_bit_for_bit():
    K, alpha, L = _factors(15)
    plan = sinkhorn_solve((K, alpha, L), beta=0.3, params=SinkhornParams())
    np.testing.assert_array_equal(plan.feature_mass, weighted_feature_sum(K, L, plan.pi))
    # beta = 0 with no pairs leaves only the unpaired part
    no_pairs = np.zeros((K.shape[0], 0))
    h = mixed_linear_term(no_pairs, no_pairs, K, L, plan.pi, 0.0)
    np.testing.assert_array_equal(plan.feature_mass, h)
    assert alpha @ plan.feature_mass == pytest.approx(np.vdot(plan.pi, cost_matrix(alpha, K, L)))


@pytest.mark.parametrize("n_x, n_y", [(1, 7), (7, 1)])
def test_single_row_or_column_plans_carry_the_mass(n_x, n_y):
    K, alpha, L = _factors(16, n_x=n_x, n_y=n_y)
    plan = sinkhorn_solve((K, alpha, L), beta=0.5, params=SinkhornParams())
    np.testing.assert_allclose(plan.pi, 1.0 / 7.0, atol=1e-15)
    np.testing.assert_array_equal(plan.feature_mass, weighted_feature_sum(K, L, plan.pi))


def test_rejects_bad_factors():
    K, alpha, L = _factors(17)
    params = SinkhornParams()
    with pytest.raises(ValueError, match="factors"):
        sinkhorn_solve((K, alpha[:-1], L), beta=0.5, params=params)
    with pytest.raises(ValueError, match="factors"):
        sinkhorn_solve((K, alpha, L[:-1]), beta=0.5, params=params)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            sinkhorn_solve((K, np.where(np.arange(5) == 2, bad, alpha), L), beta=0.5, params=params)
    # finite factors whose product overflows are a non-finite reward too
    with pytest.raises(ValueError, match="non-finite"):
        sinkhorn_solve((K, np.full(5, 1e308), L), beta=0.5, params=params)


def test_log_domain_survives_extreme_costs():
    # exponents far beyond float range must not overflow thanks to the
    # log-domain absorption; balancing a near-degenerate kernel like
    # this stalls, so the contract here is a finite plan, the warning,
    # and an honest violation report -- not feasibility
    rng = np.random.default_rng(8)
    cost = 500.0 * rng.standard_normal((15, 15))
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        plan = sinkhorn_solve(dense(cost), beta=0.0, params=SinkhornParams(epsilon=0.3))
    assert np.all(np.isfinite(plan.pi))
    assert np.all(plan.pi >= 0.0)
    assert not plan.converged
    row_err = np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 15.0))
    col_err = np.max(np.abs(plan.pi.sum(axis=0) - 1.0 / 15.0))
    assert plan.marginal_error == pytest.approx(max(row_err, col_err), rel=1e-12)


def test_large_constant_shift_absorbed():
    # a shift this size overflows exp((1 - beta) C / eps) if taken
    # naively, yet only moves the dual potentials: the plan must match
    # the unshifted solve and still balance exactly
    rng = np.random.default_rng(9)
    cost = rng.standard_normal((10, 7))
    params = SinkhornParams()
    base = sinkhorn_solve(dense(cost), beta=0.0, params=params)
    shifted = sinkhorn_solve(dense(cost + 2000.0), beta=0.0, params=params)
    assert shifted.converged
    assert_valid_plan(shifted, 10, 7, tol=1e-8)
    np.testing.assert_allclose(shifted.pi, base.pi, atol=1e-8)


def _plain_sinkhorn(cost, beta, params, init):
    """Reference omega = 1 scaling from warm potentials, with the
    solver's own operations in its order; returns (plan, sweeps, converged)."""
    n_x, n_y = cost.shape
    a, b = 1.0 / n_x, 1.0 / n_y
    M = cost * ((1.0 - beta) / params.epsilon)
    M += init.row_potential[:, None]
    M += init.col_potential[None, :]
    np.exp(M, out=M)
    u, v = np.ones(n_x), np.ones(n_y)
    for sweep in range(1, params.max_inner_iters + 1):
        u = a / M.dot(v)
        col_weights = M.T.dot(u)
        dev = v * col_weights
        if max(dev.max() - b, b - dev.min()) <= params.marginal_tol:
            return M * u[:, None] * v, sweep, True
        v = b / col_weights
    return M * u[:, None] * v, params.max_inner_iters, False


# Rewards whose plain sweeps shrink the violation by 0.86 to 0.99 per
# sweep (slow) and by 0.33, under RELAX_RATE_FLOOR (fast).
SLOW = dict(cost=np.random.default_rng(10).standard_normal((60, 50)), beta=0.0, epsilon=0.05)
FAST = dict(cost=np.random.default_rng(11).standard_normal((60, 50)), beta=0.5, epsilon=0.3)


def _solve_both(case, **overrides):
    params = SinkhornParams(epsilon=case["epsilon"], **overrides)
    init = uniform_plan(*case["cost"].shape)
    plan = sinkhorn_solve(dense(case["cost"]), beta=case["beta"], params=params, init=init)
    return plan, _plain_sinkhorn(case["cost"], case["beta"], params, init), params


def test_slow_solves_relax_to_the_same_plan_in_fewer_sweeps():
    plan, (ref, ref_sweeps, ref_converged), params = _solve_both(SLOW)
    assert ref_converged and ref_sweeps > 200
    assert plan.converged
    assert plan.iterations <= 0.7 * ref_sweeps
    assert plan.marginal_error <= params.marginal_tol
    assert_valid_plan(plan, 60, 50, tol=params.marginal_tol)
    # a relaxed solve ends on an exact row half-step, as plain ones do
    assert np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 60)) < 1e-15
    # both plans meet the marginals to marginal_tol around one unique
    # optimum, so they agree entry by entry on that scale (1.1 times
    # marginal_tol here; ten times is allowed)
    np.testing.assert_allclose(plan.pi, ref, rtol=0.0, atol=10 * params.marginal_tol)


def test_fast_solves_keep_the_plain_sweeps_bit_for_bit():
    plan, (ref, ref_sweeps, ref_converged), _ = _solve_both(FAST)
    assert ref_converged
    assert plan.iterations == ref_sweeps
    np.testing.assert_array_equal(plan.pi, ref)


def test_sweep_cap_while_relaxing_reports_the_actual_violation():
    cap = 40
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        plan, (ref, _, ref_converged), _ = _solve_both(SLOW, max_inner_iters=cap)
    assert not plan.converged and not ref_converged
    assert plan.iterations == cap
    # relaxed sweeps leave both marginals inexact; the report must say
    # by how much the returned plan misses them
    row_err = np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 60))
    col_err = np.max(np.abs(plan.pi.sum(axis=0) - 1.0 / 50))
    assert row_err > 0.0
    assert plan.marginal_error == pytest.approx(max(row_err, col_err), rel=1e-12)
    # and the sweeps did relax: 40 plain ones leave a far larger violation
    ref_err = np.max(np.abs(ref.sum(axis=1) - 1.0 / 60))
    assert plan.marginal_error < 0.1 * ref_err


def test_relaxed_solve_capped_at_its_convergence_sweep_reports_its_own_marginals():
    # The uncapped solve meets the column tolerance relaxed on its
    # next-to-last sweep and ends on a plain one.  Capped at that sweep,
    # the plain sweep does not run: the rows stay inexact, and the plan's
    # own marginals decide the report (here within tolerance, no warning).
    full, _, _ = _solve_both(SLOW)
    assert np.max(np.abs(full.pi.sum(axis=1) - 1.0 / 60)) < 1e-15
    cap = full.iterations - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan, _, params = _solve_both(SLOW, max_inner_iters=cap)
    assert plan.iterations == cap
    row_err = np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 60))
    col_err = np.max(np.abs(plan.pi.sum(axis=0) - 1.0 / 50))
    assert row_err > 1e-13
    assert plan.marginal_error == pytest.approx(max(row_err, col_err), rel=1e-12)
    assert plan.marginal_error <= params.marginal_tol
    assert plan.converged


# (reward, beta, params, init) of solves that end every way a solve can
POTENTIAL_CASES = {
    "1x12": lambda: (_factors(18, n_x=1, n_y=12), 0.5, SinkhornParams(), None),
    "12x1": lambda: (_factors(18, n_x=12, n_y=1), 0.5, SinkhornParams(), None),
    "converged": lambda: (_factors(13), 0.2, SinkhornParams(), None),
    "relaxed": lambda: (
        dense(SLOW["cost"]), SLOW["beta"], SinkhornParams(epsilon=SLOW["epsilon"]), None
    ),
    "capped": lambda: (
        dense(50.0 * np.random.default_rng(6).standard_normal((20, 20))),
        0.0,
        SinkhornParams(max_inner_iters=2, marginal_tol=1e-14),
        None,
    ),
    "warm-start-fallback": lambda: (
        dense(FALLBACK_COST), 0.3, SinkhornParams(), _fallback_init(dense(FALLBACK_COST), 0.3)
    ),
}


@pytest.mark.parametrize("case", POTENTIAL_CASES.values(), ids=POTENTIAL_CASES.keys())
def test_plans_are_their_potentials_and_reward(case):
    # log pi = phi + S + psi holds for every plan, which the recorded
    # entropy and the next warm start both rely on
    reward, beta, params, init = case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the capped solve's report
        plan = sinkhorn_solve(reward, beta=beta, params=params, init=init)
    K, alpha, L = reward
    S = (1.0 - beta) / params.epsilon * cost_matrix(alpha, K, L)
    gibbs = np.exp(plan.row_potential[:, None] + S + plan.col_potential[None, :])
    # relative to 1e-12 wherever pi is a normal float (the capped plan has
    # subnormal entries, which carry fewer significant bits)
    np.testing.assert_allclose(gibbs, plan.pi, rtol=1e-12, atol=np.finfo(float).tiny)
