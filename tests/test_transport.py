"""Tests for the entropic transport-plan solver."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from semismi import SampleSet, transport
from semismi.density_ratio import mixed_linear_term, weighted_feature_sum
from semismi.kernels import feature_columns, sample_basis
from semismi.transport import TransportPlan, cost_matrix, plan_entropy, sinkhorn_solve

from conftest import (
    assert_valid_plan,
    dense,
    entrywise_entropy,
    independent_coupling,
    plain,
    uniform_potentials,
)


def _cold(reward, beta, epsilon=0.3):
    """A solve from the independent coupling's potentials, where every fit starts."""
    blocks, alpha = reward
    start = uniform_potentials(blocks.K.shape[1], blocks.L.shape[1])
    return sinkhorn_solve(blocks, alpha, beta, epsilon, start)


def _potentials(plan, shift=0.0):
    """A plan's (row, column) potentials, both shifted by ``shift``: a warm start."""
    return plan.row_potential + shift, plan.col_potential + shift


def test_zero_cost_gives_uniform_plan():
    plan = _cold(dense(np.zeros((5, 7))), 0.5)
    np.testing.assert_allclose(plan.pi, 1.0 / 35.0, atol=1e-12)
    assert plan.converged


def test_beta_one_gives_uniform_plan():
    rng = np.random.default_rng(0)
    cost = rng.standard_normal((6, 4))
    plan = _cold(dense(cost), 1.0)
    np.testing.assert_allclose(plan.pi, 1.0 / 24.0, atol=1e-12)


def test_two_by_two_closed_form():
    # (1-beta) C / eps = I, whose balanced Gibbs plan is known exactly
    eps, beta = 0.3, 0.5
    cost = np.eye(2) * eps / (1.0 - beta)
    plan = _cold(dense(cost), beta, eps)
    e = np.e
    on_diag = e / (2.0 * (1.0 + e))
    off_diag = 1.0 / (2.0 * (1.0 + e))
    np.testing.assert_allclose(
        plan.pi, [[on_diag, off_diag], [off_diag, on_diag]], atol=1e-9
    )
    assert on_diag == pytest.approx(0.365529, abs=1e-6)


def test_marginals_within_tolerance():
    rng = np.random.default_rng(1)
    for shape in [(10, 10), (25, 13), (3, 40)]:
        cost = rng.standard_normal(shape)
        plan = _cold(dense(cost), 0.3)
        assert plan.converged
        assert_valid_plan(plan, *shape, tol=1e-6)
        assert plan.marginal_error <= transport.MARGINAL_TOL


def test_higher_reward_attracts_mass():
    # one strongly preferred cell should end above the uniform level
    cost = np.zeros((3, 3))
    cost[1, 2] = 2.0
    plan = _cold(dense(cost), 0.2)
    assert plan.pi[1, 2] > 1.0 / 9.0
    assert plan.pi[1, 2] == plan.pi.max()


def test_gibbs_fixed_point_structure():
    # the returned plan must factor as diag(u) exp(S) diag(v)
    rng = np.random.default_rng(2)
    eps, beta = 0.4, 0.3
    cost = rng.standard_normal((8, 5))
    plan = _cold(dense(cost), beta, eps)
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
    base = _cold(dense(cost), 0.4)
    permuted = _cold(dense(cost[perm]), 0.4)
    np.testing.assert_allclose(permuted.pi, base.pi[perm], atol=1e-9)


def test_determinism():
    rng = np.random.default_rng(4)
    cost = rng.standard_normal((12, 12))
    p1 = _cold(dense(cost), 0.6)
    p2 = _cold(dense(cost), 0.6)
    np.testing.assert_array_equal(p1.pi, p2.pi)


def test_warm_start_reaches_same_plan():
    rng = np.random.default_rng(5)
    cost = rng.standard_normal((10, 8))
    cold = _cold(dense(cost), 0.3)
    warm = sinkhorn_solve(*dense(cost), 0.3, 0.3, _potentials(cold))
    np.testing.assert_allclose(warm.pi, cold.pi, atol=1e-10)
    # warm start from the solution should converge almost immediately
    assert warm.iterations <= cold.iterations


@pytest.mark.parametrize("shift", [800.0, -800.0])
def test_unusable_warm_start_falls_back_to_log_domain(shift):
    # +800 overflows exp on the warm kernel and -800 underflows every
    # row to zero; either way the solve must notice before sweeping,
    # redo the log-domain pass, and return the cold plan without
    # floating-point warnings
    rng = np.random.default_rng(5)
    cost = rng.standard_normal((10, 8))
    cold = _cold(dense(cost), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sinkhorn_solve(*dense(cost), 0.3, 0.3, _potentials(cold, shift))
    assert warm.converged
    assert_valid_plan(warm, 10, 8, tol=1e-10)
    np.testing.assert_allclose(warm.pi, cold.pi, atol=1e-10)


def test_single_row_plan_is_uniform():
    cost = np.array([[3.0, -1.0, 0.5]])
    plan = _cold(dense(cost), 0.2)
    np.testing.assert_allclose(plan.pi, 1.0 / 3.0, atol=1e-12)
    assert_valid_plan(plan, 1, 3, tol=1e-12)


def test_iteration_cap_warns_and_flags(monkeypatch):
    rng = np.random.default_rng(6)
    cost = 50.0 * rng.standard_normal((20, 20))
    monkeypatch.setattr(transport, "MAX_SWEEPS", 2)
    monkeypatch.setattr(transport, "MARGINAL_TOL", 1e-14)
    with pytest.warns(RuntimeWarning, match=r"sweep cap \(2\)"):
        plan = _cold(dense(cost), 0.0)
    assert not plan.converged
    assert plan.marginal_error > transport.MARGINAL_TOL


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _cold(dense(np.array([[np.nan, 0.0]])), 0.5)


def test_plan_entropy_uniform():
    plan = _cold(dense(np.zeros((2, 2))), 0.5)
    expected = np.log(0.25) - 1.0
    assert plan_entropy(plan) == pytest.approx(expected, abs=1e-12)


def test_entrywise_entropy_oracle_takes_0_log_0_as_0():
    pi = np.array([[0.5, 0.0], [0.0, 0.5]])
    expected = 2 * 0.5 * (np.log(0.5) - 1.0)
    assert entrywise_entropy(pi) == pytest.approx(expected, abs=1e-12)


def _cap_hit_plan():
    rng = np.random.default_rng(6)
    with pytest.MonkeyPatch.context() as mp, pytest.warns(RuntimeWarning, match="sweep cap"):
        mp.setattr(transport, "MAX_SWEEPS", 2)
        mp.setattr(transport, "MARGINAL_TOL", 1e-14)
        plan = _cold(dense(50.0 * rng.standard_normal((20, 20))), 0.0)
    assert not plan.converged
    return plan


def _fallback_init(reward, beta, shift=800.0):
    return _potentials(_cold(reward, beta), shift)


FALLBACK_COST = np.random.default_rng(5).standard_normal((10, 8))


def _fallback_plan():
    reward = dense(FALLBACK_COST)
    init = _fallback_init(reward, 0.3)
    return sinkhorn_solve(*reward, 0.3, 0.3, init)


def _factors(seed, b=5, n_x=30, n_y=20, scale=3.0):
    rng = np.random.default_rng(seed)
    return rng.random((b, n_x)), scale * rng.standard_normal(b), rng.random((b, n_y))


def _independent_coupling_plan(n_x, n_y):
    """The constant plan ``fit`` starts from, with the closed-form entropy
    -log(n_x n_y) - 1 that ``fit`` records for it."""
    return TransportPlan(
        independent_coupling(n_x, n_y), *uniform_potentials(n_x, n_y),
        float(-np.log(n_x * n_y) - 1.0), True, 0.0, 0, np.zeros(0),
    )


DUAL_ENTROPY_PLANS = {
    "converged": lambda: _cold(dense(np.random.default_rng(1).standard_normal((25, 13))), 0.3),
    "cap-hit": _cap_hit_plan,
    "beta-one": lambda: _cold(dense(np.random.default_rng(0).standard_normal((6, 4))), 1.0),
    "single-row": lambda: _cold(dense(np.array([[3.0, -1.0, 0.5]])), 0.2),
    "warm-start-fallback": _fallback_plan,
    "uniform": lambda: _independent_coupling_plan(4, 6),
    "factored": lambda: _cold(plain(*_factors(13)), 0.2),
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
    cold = _cold(dense(cost), 0.3)
    phi, psi = cold.row_potential + shift, cold.col_potential + shift
    kernel = np.exp(phi[:, None] + 0.7 * cost / 0.3 + psi[None, :])
    assert np.all(np.isfinite(kernel))
    first_row_scalings = (1.0 / 10) / kernel.sum(axis=1)
    assert np.all(np.abs(np.log(first_row_scalings)) > transport.ABSORB_THRESHOLD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sinkhorn_solve(*dense(cost), 0.3, 0.3, (phi, psi))
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
        plan = _cold(dense(cost), 0.0, 0.01)
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
        _cold(dense(C), 0.5)


def test_factored_and_dense_rewards_give_the_same_plan():
    # (K, alpha, L) and the matrix cost_matrix builds from them are one
    # reward: the plans agree to MARGINAL_TOL per entry in the same sweeps
    K, alpha, L = _factors(14)
    factored = _cold(plain(K, alpha, L), 0.2)
    matrix = _cold(dense(cost_matrix(alpha, K, L)), 0.2)
    assert factored.converged and matrix.converged
    assert factored.iterations == matrix.iterations
    np.testing.assert_allclose(factored.pi, matrix.pi, rtol=0.0, atol=transport.MARGINAL_TOL)
    assert factored.entropy == pytest.approx(matrix.entropy, rel=1e-12)
    # the dense form's factors are (I, 1, C): its mass is the row sums of pi * C
    C = cost_matrix(alpha, K, L)
    np.testing.assert_allclose(matrix.feature_mass, (matrix.pi * C).sum(axis=1), rtol=1e-12)


def test_feature_mass_is_the_unpaired_linear_term_bit_for_bit():
    K, alpha, L = _factors(15)
    plan = _cold(plain(K, alpha, L), 0.3)
    np.testing.assert_array_equal(plan.feature_mass, weighted_feature_sum(K, L, plan.pi))
    # beta = 0 with no pairs leaves only the unpaired part
    no_pairs = np.zeros((K.shape[0], 0))
    h = mixed_linear_term(no_pairs, no_pairs, K, L, plan.pi, 0.0)
    np.testing.assert_array_equal(plan.feature_mass, h)
    assert alpha @ plan.feature_mass == pytest.approx(np.vdot(plan.pi, cost_matrix(alpha, K, L)))


@pytest.mark.parametrize("n_x, n_y", [(1, 7), (7, 1)])
def test_single_row_or_column_plans_carry_the_mass(n_x, n_y):
    K, alpha, L = _factors(16, n_x=n_x, n_y=n_y)
    plan = _cold(plain(K, alpha, L), 0.5)
    np.testing.assert_allclose(plan.pi, 1.0 / 7.0, atol=1e-15)
    np.testing.assert_array_equal(plan.feature_mass, weighted_feature_sum(K, L, plan.pi))


def test_rejects_bad_factors():
    K, alpha, L = _factors(17)
    with pytest.raises(ValueError, match="factors"):
        _cold(plain(K, alpha, L[:-1]), 0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _cold(plain(K, np.where(np.arange(5) == 2, bad, alpha), L), 0.5)
    # finite factors whose product overflows are a non-finite reward too
    with pytest.raises(ValueError, match="non-finite"):
        _cold(plain(K, np.full(5, 1e308), L), 0.5)


def test_a_non_finite_reward_is_reported_without_a_numpy_warning():
    K, alpha, L = _factors(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                _cold(plain(K, np.where(np.arange(5) == 2, bad, alpha), L), 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            _cold(plain(K, np.full(5, 1e308), L), 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            _cold(plain(K, alpha, L), 0.5, epsilon=1e-320)


def test_a_non_finite_reward_is_reported_from_a_converged_plans_potentials():
    # a NaN or +inf entry, or a row that is all -inf, leaves the warm
    # kernel unusable, so the entry-wise check runs and reports it
    K, alpha, L = _factors(17)
    warm = _potentials(_cold(plain(K, alpha, L), 0.5))
    k = alpha.argmax()
    assert alpha[k] > 0.0 and L[k].min() > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            bad_K = K.copy()
            bad_K[k, 3] = bad  # row 3 of S becomes bad
            with pytest.raises(ValueError, match="non-finite"):
                sinkhorn_solve(*plain(bad_K, alpha, L), 0.5, 0.3, warm)


@pytest.mark.parametrize("shift", [0.0, 800.0])
def test_an_isolated_minus_inf_reward_entry_gives_a_zero_plan_entry(shift):
    # S[0, 0] overflows to -inf and the rest of S is finite: that pair
    # gets no mass, whether the kernel is usable (shift 0) or overflows
    # and the log-domain pass forms it (shift 800)
    rng = np.random.default_rng(18)
    K = np.vstack([[1e200, 1e-200, 1e-200], rng.random(3)])
    L = np.vstack([[1e200, 1e-200, 1e-200, 1e-200], rng.random(4)])
    reward = plain(K, np.array([-1.0, 1.0]), L)
    cold = _cold(reward, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = sinkhorn_solve(*reward, 0.5, 0.3, _potentials(cold, shift))
    assert plan.converged
    assert plan.pi[0, 0] == 0.0
    assert_valid_plan(plan, 3, 4, tol=1e-10)
    np.testing.assert_allclose(plan.pi, cold.pi, atol=1e-10)


@pytest.mark.parametrize("n_x, n_y", [(0, 4), (4, 0)])
def test_a_reward_with_an_empty_side_is_rejected_naming_the_shapes(n_x, n_y):
    # the blocks are checked once, where a fit builds them, not by each solve
    K, _, L = _factors(18, n_x=n_x, n_y=n_y)
    shapes = rf"b, n_x, n_y >= 1; got \(5, {n_x}\), \(5, {n_y}\)$"
    for build in (transport._FeatureBlocks, transport._FeatureBlocks.factored):
        with pytest.raises(ValueError, match=shapes):
            build(K, L)


@pytest.mark.parametrize(
    "K_shape, L_shape",
    [((5, 3), (4, 3)), ((0, 3), (0, 4)), ((5,), (5, 4)), ((5, 3), (5, 4, 1))],
    ids=["b-mismatch", "no-basis", "vector", "three-axes"],
)
def test_feature_blocks_reject_mismatched_or_empty_blocks_naming_the_shapes(K_shape, L_shape):
    K, L = np.ones(K_shape), np.ones(L_shape)
    shapes = re.escape(f"{K_shape}, {L_shape}")
    message = rf"must have shapes \(b, n_x\), \(b, n_y\) .*; got {shapes}$"
    for build in (transport._FeatureBlocks, transport._FeatureBlocks.factored):
        with pytest.raises(ValueError, match=message):
            build(K, L)


def test_a_reward_bound_past_the_largest_double_falls_back_to_the_exact_check():
    # the kernel of S = diag(alpha) overflows, but S is finite, so the
    # solve goes on through the log-domain pass, with no warning
    reward = plain(np.eye(2), np.full(2, 6e307), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = sinkhorn_solve(*reward, 0.0, 1.0, uniform_potentials(2, 2))
    assert plan.converged
    np.testing.assert_array_equal(plan.pi, np.eye(2) / 2)


def test_a_solve_forms_no_plan_sized_temporary():
    # with its buffer given, a solve's only temporaries are b x n products
    # and vectors: no finiteness mask of the reward, which took 1/8 of a
    # plan, and never two b x n products at once
    rng = np.random.default_rng(4)
    n, b = 1000, 20
    reward = plain(rng.random((b, n)), rng.standard_normal(b), rng.random((b, n)))
    out = np.empty((n, n))
    tracemalloc.start()
    try:
        plan = sinkhorn_solve(*reward, 0.5, 0.3, uniform_potentials(n, n), out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.converged and plan.pi is out
    assert peak < 0.06 * out.nbytes


def test_feature_mass_keeps_the_bits_of_the_product_expression():
    # rowsum((K pi) * L) multiplied in place is the same arithmetic
    rng = np.random.default_rng(8)
    for b, n_x, n_y in ((1, 1, 1), (3, 40, 1), (7, 33, 65), (200, 50, 700)):
        K, L = rng.random((b, n_x)), rng.random((b, n_y))
        pi = rng.random((n_x, n_y))
        expected = np.sum((K @ pi) * L, axis=1)
        assert np.array_equal(weighted_feature_sum(K, L, pi), expected)


def test_log_domain_survives_extreme_costs():
    # exponents far beyond float range must not overflow thanks to the
    # log-domain absorption; balancing a near-degenerate kernel like
    # this stalls, so the contract here is a finite plan, the warning,
    # and an honest violation report -- not feasibility
    rng = np.random.default_rng(8)
    cost = 500.0 * rng.standard_normal((15, 15))
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        plan = _cold(dense(cost), 0.0, 0.3)
    assert np.all(np.isfinite(plan.pi))
    assert np.all(plan.pi >= 0.0)
    assert not plan.converged
    row_err = np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 15.0))
    col_err = np.max(np.abs(plan.pi.sum(axis=0) - 1.0 / 15.0))
    assert plan.marginal_error == pytest.approx(max(row_err, col_err), rel=1e-12)


def _wide_reward(seed):
    """A small dense reward too wide for doubles to balance at tiny epsilon."""
    rng = np.random.default_rng(seed)
    n_x, n_y = rng.integers(2, 12, size=2)
    return rng.standard_normal((n_x, n_y)) * 10.0 ** rng.integers(0, 3)


WIDE_REWARDS = {
    **{
        f"seed{seed}-eps{epsilon:g}": (lambda seed=seed: _wide_reward(seed), epsilon)
        for seed in (2, 7, 8)
        for epsilon in (1e-30, 1e-100)
    },
    "200x200-eps1e-30": (lambda: np.random.default_rng(2).standard_normal((200, 200)) * 100, 1e-30),
}


@pytest.mark.parametrize("case", WIDE_REWARDS.values(), ids=WIDE_REWARDS.keys())
def test_scalings_that_leave_the_doubles_raise_naming_beta_and_epsilon(case):
    # no plan of doubles balances these rewards, so the first sweep whose
    # column violation is not finite ends the solve, before the sweep cap
    # and with neither a numpy nor a sweep-cap warning
    make_cost, epsilon = case
    message = rf"range of doubles at sweep \d+ \(beta=0\.0, epsilon={re.escape(repr(epsilon))}\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            _cold(dense(make_cost()), 0.0, epsilon)


def test_large_constant_shift_absorbed():
    # a shift this size overflows exp((1 - beta) C / eps) if taken
    # naively, yet only moves the dual potentials: the plan must match
    # the unshifted solve and still balance exactly
    rng = np.random.default_rng(9)
    cost = rng.standard_normal((10, 7))
    base = _cold(dense(cost), 0.0)
    shifted = _cold(dense(cost + 2000.0), 0.0)
    assert shifted.converged
    assert_valid_plan(shifted, 10, 7, tol=1e-8)
    np.testing.assert_allclose(shifted.pi, base.pi, atol=1e-8)


def _plain_sinkhorn(cost, beta, epsilon, init):
    """Reference omega = 1 scaling from warm potentials, with the
    solver's own operations in its order; returns (plan, sweeps, converged)."""
    n_x, n_y = cost.shape
    a, b = 1.0 / n_x, 1.0 / n_y
    M = cost * ((1.0 - beta) / epsilon)
    phi, psi = init
    M += phi[:, None]
    M += psi[None, :]
    np.exp(M, out=M)
    u, v = np.ones(n_x), np.ones(n_y)
    for sweep in range(1, transport.MAX_SWEEPS + 1):
        u = a / M.dot(v)
        col_weights = M.T.dot(u)
        dev = v * col_weights
        if max(dev.max() - b, b - dev.min()) <= transport.MARGINAL_TOL:
            return M * u[:, None] * v, sweep, True
        v = b / col_weights
    return M * u[:, None] * v, transport.MAX_SWEEPS, False


# Rewards whose plain sweeps shrink the violation by 0.86 to 0.99 per
# sweep (slow) and by 0.33, under RELAX_RATE_FLOOR (fast).
SLOW = dict(cost=np.random.default_rng(10).standard_normal((60, 50)), beta=0.0, epsilon=0.05)
FAST = dict(cost=np.random.default_rng(11).standard_normal((60, 50)), beta=0.5, epsilon=0.3)


def _solve_both(case):
    init = uniform_potentials(*case["cost"].shape)
    plan = sinkhorn_solve(*dense(case["cost"]), case["beta"], case["epsilon"], init)
    return plan, _plain_sinkhorn(case["cost"], case["beta"], case["epsilon"], init)


def test_slow_solves_relax_to_the_same_plan_in_fewer_sweeps():
    plan, (ref, ref_sweeps, ref_converged) = _solve_both(SLOW)
    assert ref_converged and ref_sweeps > 200
    assert plan.converged
    assert plan.iterations <= 0.7 * ref_sweeps
    assert plan.marginal_error <= transport.MARGINAL_TOL
    assert_valid_plan(plan, 60, 50, tol=transport.MARGINAL_TOL)
    # a relaxed solve ends on an exact row half-step, as plain ones do
    assert np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 60)) < 1e-15
    # both plans meet the marginals to MARGINAL_TOL around one unique
    # optimum, so they agree entry by entry on that scale (1.1 times
    # MARGINAL_TOL here; ten times is allowed)
    np.testing.assert_allclose(plan.pi, ref, rtol=0.0, atol=10 * transport.MARGINAL_TOL)


def test_fast_solves_keep_the_plain_sweeps_bit_for_bit():
    plan, (ref, ref_sweeps, ref_converged) = _solve_both(FAST)
    assert ref_converged
    assert plan.iterations == ref_sweeps
    np.testing.assert_array_equal(plan.pi, ref)


def test_sweep_cap_while_relaxing_reports_the_actual_violation(monkeypatch):
    cap = 40
    monkeypatch.setattr(transport, "MAX_SWEEPS", cap)
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        plan, (ref, _, ref_converged) = _solve_both(SLOW)
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


def test_relaxed_solve_capped_at_its_convergence_sweep_reports_its_own_marginals(monkeypatch):
    # The uncapped solve meets the column tolerance relaxed on its
    # next-to-last sweep and ends on a plain one.  Capped at that sweep,
    # the plain sweep does not run: the rows stay inexact, and the plan's
    # own marginals decide the report (here within tolerance, no warning).
    full, _ = _solve_both(SLOW)
    assert np.max(np.abs(full.pi.sum(axis=1) - 1.0 / 60)) < 1e-15
    cap = full.iterations - 1
    monkeypatch.setattr(transport, "MAX_SWEEPS", cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan, _ = _solve_both(SLOW)
    assert plan.iterations == cap
    row_err = np.max(np.abs(plan.pi.sum(axis=1) - 1.0 / 60))
    col_err = np.max(np.abs(plan.pi.sum(axis=0) - 1.0 / 50))
    assert row_err > 1e-13
    assert plan.marginal_error == pytest.approx(max(row_err, col_err), rel=1e-12)
    assert plan.marginal_error <= transport.MARGINAL_TOL
    assert plan.converged


# (reward, beta, epsilon, init, transport constants to override) of
# solves that end every way a solve can; init None is the independent
# coupling's potentials
POTENTIAL_CASES = {
    "1x12": lambda: (plain(*_factors(18, n_x=1, n_y=12)), 0.5, 0.3, None, {}),
    "12x1": lambda: (plain(*_factors(18, n_x=12, n_y=1)), 0.5, 0.3, None, {}),
    "converged": lambda: (plain(*_factors(13)), 0.2, 0.3, None, {}),
    "relaxed": lambda: (dense(SLOW["cost"]), SLOW["beta"], SLOW["epsilon"], None, {}),
    "capped": lambda: (
        dense(50.0 * np.random.default_rng(6).standard_normal((20, 20))),
        0.0,
        0.3,
        None,
        {"MAX_SWEEPS": 2, "MARGINAL_TOL": 1e-14},
    ),
    "warm-start-fallback": lambda: (
        dense(FALLBACK_COST), 0.3, 0.3, _fallback_init(dense(FALLBACK_COST), 0.3), {}
    ),
}


@pytest.mark.parametrize("case", POTENTIAL_CASES.values(), ids=POTENTIAL_CASES.keys())
def test_plans_are_their_potentials_and_reward(case, monkeypatch):
    # log pi = phi + S + psi holds for every plan, which the recorded
    # entropy and the next warm start both rely on
    reward, beta, epsilon, init, overrides = case()
    blocks, alpha = reward
    K, L = blocks.K, blocks.L
    if init is None:
        init = uniform_potentials(K.shape[1], L.shape[1])
    for name, value in overrides.items():
        monkeypatch.setattr(transport, name, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the capped solve's report
        plan = sinkhorn_solve(*reward, beta, epsilon, init)
    S = (1.0 - beta) / epsilon * cost_matrix(alpha, K, L)
    gibbs = np.exp(plan.row_potential[:, None] + S + plan.col_potential[None, :])
    # relative to 1e-12 wherever pi is a normal float (the capped plan has
    # subnormal entries, which carry fewer significant bits)
    np.testing.assert_allclose(gibbs, plan.pi, rtol=1e-12, atol=np.finfo(float).tiny)


def test_solve_in_a_given_buffer_gives_the_same_plan():
    rng = np.random.default_rng(12)
    K, L = rng.random((4, 9)), rng.random((4, 7))
    reward = plain(K, rng.standard_normal(4), L)
    fresh = _cold(reward, 0.3)
    out = np.full((9, 7), np.nan)
    plan = sinkhorn_solve(*reward, 0.3, 0.3, uniform_potentials(9, 7), out)
    assert plan.pi is out
    assert np.array_equal(plan.pi, fresh.pi)
    assert plan.entropy == fresh.entropy and plan.iterations == fresh.iterations


# ------------------------------------------------------- factored feature blocks


def _unpaired_features(d, seed, n=20, n_x=300, n_y=250, n_basis=200):
    rng = np.random.default_rng(seed)
    data = SampleSet(*(rng.standard_normal((size, d)) for size in (n, n, n_x, n_y)))
    basis = sample_basis(data.pooled_x, data.pooled_y, n_basis, seed)
    K, L = feature_columns(basis, data.pooled_x, data.pooled_y)
    return K[:, n:], L[:, n:]


@pytest.mark.parametrize("seed", [0, 1])
def test_factored_blocks_of_one_coordinate_meet_a_longdouble_oracle(seed):
    # at d = 1 the 200 Gaussian features span about 23 directions above
    # eps * sigma_1, so each solve forms S and the mass at that inner
    # dimension.  Against sums in long double, each entry stays within
    # 8 u times the norms it is made of, with u = 2^-53 (the worst of
    # four seeds used 0.7% of the bound for S and 4% for the mass); a cut
    # at 1e-8 * sigma_1 instead moves S by about 1e-8 * sigma_1.
    K, L = _unpaired_features(1, seed)
    blocks = transport._FeatureBlocks.factored(K, L)
    P_K, F_K, P_L, F_L = blocks.factors
    b = K.shape[0]
    assert 0 < P_K.shape[1] < b // 2 and 0 < P_L.shape[1] < b // 2
    np.testing.assert_allclose(P_K.T @ P_K, np.eye(P_K.shape[1]), atol=1e-14)
    np.testing.assert_allclose(P_L.T @ P_L, np.eye(P_L.shape[1]), atol=1e-14)
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(seed)
    scaled_alpha = 3.0 * rng.standard_normal(b)
    S = np.empty((K.shape[1], L.shape[1]))
    blocks.scaled_reward(scaled_alpha, S)
    K_ld, L_ld = K.astype(np.longdouble), L.astype(np.longdouble)
    oracle = (K_ld * scaled_alpha.astype(np.longdouble)[:, None]).T @ L_ld
    sigma_K, sigma_L = np.linalg.norm(K, 2), np.linalg.norm(L, 2)
    bound = 8 * u * np.abs(scaled_alpha).max() * (
        sigma_K * np.linalg.norm(L, axis=0)[None, :] + np.linalg.norm(K, axis=0)[:, None] * sigma_L
    )
    assert np.all(np.abs(S - oracle).astype(float) <= bound)
    pi = rng.random(S.shape)
    pi /= pi.sum()
    oracle_mass = ((K_ld @ pi.astype(np.longdouble)) * L_ld).sum(axis=1)
    mass_bound = 8 * u * np.linalg.norm(pi, 2) * sigma_K * sigma_L
    assert np.all(np.abs(blocks.feature_mass(pi) - oracle_mass).astype(float) <= mass_bound)


def test_full_rank_blocks_keep_the_plain_factors_and_their_bits():
    # 32 coordinates give 200 features of full numerical rank, where a
    # factored S costs more than the plain GEMM: the solve keeps the rank-b
    # arithmetic to the bit
    K, L = _unpaired_features(32, 3, n_x=260, n_y=240)
    blocks = transport._FeatureBlocks.factored(K, L)
    assert blocks.factors is None
    alpha = np.random.default_rng(3).standard_normal(K.shape[0])
    start = uniform_potentials(K.shape[1], L.shape[1])
    via_blocks = sinkhorn_solve(blocks, alpha, 0.5, 0.3, start)
    unfactored = sinkhorn_solve(*plain(K, alpha, L), 0.5, 0.3, start)
    np.testing.assert_array_equal(via_blocks.pi, unfactored.pi)
    np.testing.assert_array_equal(via_blocks.feature_mass, unfactored.feature_mass)


def test_a_rank_that_only_the_qr_resolves_decides_too():
    # singular values from 1 down to 1e-15: the Gram resolves only the 18
    # of 40 above about 3e-7, but all 40 lie above eps * sigma_1, so the
    # QR and SVD find full rank and the blocks stay plain
    rng = np.random.default_rng(5)
    b, n = 40, 300
    U = np.linalg.qr(rng.standard_normal((b, b)))[0]
    V = np.linalg.qr(rng.standard_normal((n, b)))[0]
    B = (U * np.logspace(0, -15, b)) @ V.T
    assert transport._gram_rank(B) <= b // 2
    assert transport._range_basis(B).shape[1] == b
    assert transport._FeatureBlocks.factored(B, B).factors is None


def test_a_solve_on_factored_blocks_matches_the_plain_one():
    # the same reward at two inner dimensions: one plan to the solve's
    # tolerance, whose mass agrees to rounding
    K, L = _unpaired_features(1, 4, n_x=120, n_y=110)
    blocks = transport._FeatureBlocks.factored(K, L)
    assert blocks.factors is not None
    alpha = np.random.default_rng(4).standard_normal(K.shape[0])
    start = uniform_potentials(K.shape[1], L.shape[1])
    factored = sinkhorn_solve(blocks, alpha, 0.5, 0.3, start)
    unfactored = sinkhorn_solve(*plain(K, alpha, L), 0.5, 0.3, start)
    assert factored.converged and unfactored.converged
    np.testing.assert_allclose(factored.pi, unfactored.pi, rtol=0.0, atol=transport.MARGINAL_TOL)
    np.testing.assert_allclose(factored.feature_mass, unfactored.feature_mass, rtol=1e-10)
    assert factored.entropy == pytest.approx(unfactored.entropy, rel=1e-12)
