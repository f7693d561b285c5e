"""Tests for the closed-form ridge fit of the density-ratio weights."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import semismi
from semismi import RatioModel
from semismi.density_ratio import (
    JITTER_SCALE,
    SOLVE_RTOL,
    RidgeSystem,
    mixed_linear_term,
    paired_linear_term,
    quadratic_term,
    ratio_cross,
    ratio_pairs,
    solve_alpha,
)
from semismi.kernels import feature_columns, sample_basis
from semismi.model_selection import LAMBDAS

from conftest import independent_coupling, make_dataset


def _features(seed=0, b=4, n=5, n_x=7, n_y=6):
    data = make_dataset(seed=seed, n=n, n_x=n_x, n_y=n_y)
    basis = sample_basis(data.pooled_x, data.pooled_y, b, seed=seed)
    K_all, L_all = feature_columns(basis, data.pooled_x, data.pooled_y)
    return data, basis, K_all, L_all


def test_quadratic_term_matches_double_loop():
    _, _, K_all, L_all = _features(seed=1)
    b, N_x = K_all.shape
    N_y = L_all.shape[1]
    expected = np.zeros((b, b))
    for i in range(N_x):
        for j in range(N_y):
            phi = K_all[:, i] * L_all[:, j]
            expected += np.outer(phi, phi)
    expected /= N_x * N_y
    np.testing.assert_allclose(quadratic_term(K_all, L_all), expected, atol=1e-10)


def test_quadratic_term_is_spd():
    _, _, K_all, L_all = _features(seed=2, b=6)
    H = quadratic_term(K_all, L_all)
    np.testing.assert_allclose(H, H.T, atol=1e-14)
    eig = np.linalg.eigvalsh(H)
    assert eig.min() > -1e-12


def test_mixed_linear_term_matches_double_loop():
    data, basis, K_all, L_all = _features(seed=3)
    n, n_x, n_y = data.n, data.n_x, data.n_y
    K_p, L_p = K_all[:, :n], L_all[:, :n]
    K_u, L_u = K_all[:, n:], L_all[:, n:]
    rng = np.random.default_rng(0)
    plan = rng.random((n_x, n_y))
    plan /= plan.sum()
    beta = 0.37
    expected = np.zeros(K_all.shape[0])
    for i in range(n):
        expected += (beta / n) * K_p[:, i] * L_p[:, i]
    for i in range(n_x):
        for j in range(n_y):
            expected += (1 - beta) * plan[i, j] * K_u[:, i] * L_u[:, j]
    got = mixed_linear_term(K_p, L_p, K_u, L_u, plan, beta)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_mixed_linear_term_beta_extremes():
    data, basis, K_all, L_all = _features(seed=4)
    n = data.n
    K_p, L_p = K_all[:, :n], L_all[:, :n]
    K_u, L_u = K_all[:, n:], L_all[:, n:]
    plan = np.full((data.n_x, data.n_y), 1.0 / (data.n_x * data.n_y))
    # beta=1 ignores the plan entirely
    h1 = mixed_linear_term(K_p, L_p, K_u, L_u, np.zeros_like(plan), 1.0)
    np.testing.assert_allclose(h1, (K_p * L_p).mean(axis=1))
    # beta=0 ignores the pairs (works even with an empty paired block)
    h0 = mixed_linear_term(K_p[:, :0], L_p[:, :0], K_u, L_u, plan, 0.0)
    np.testing.assert_allclose(h0, np.sum((K_u @ plan) * L_u, axis=1))


def test_mixed_linear_term_validation():
    data, basis, K_all, L_all = _features(seed=5)
    n = data.n
    K_p, L_p = K_all[:, :n], L_all[:, :n]
    K_u, L_u = K_all[:, n:], L_all[:, n:]
    plan = np.full((data.n_x, data.n_y), 1.0 / (data.n_x * data.n_y))
    with pytest.raises(ValueError, match="beta"):
        mixed_linear_term(K_p, L_p, K_u, L_u, plan, 1.5)
    with pytest.raises(ValueError, match="at least one paired sample"):
        mixed_linear_term(K_p[:, :0], L_p[:, :0], K_u, L_u, plan, 0.5)
    with pytest.raises(ValueError, match="plan shape"):
        mixed_linear_term(K_p, L_p, K_u, L_u, plan.T, 0.5)


def test_solve_alpha_recovers_known_solution():
    rng = np.random.default_rng(6)
    b = 8
    A = rng.standard_normal((b, b))
    H = A @ A.T / b
    alpha_true = rng.standard_normal(b)
    lam = 0.05
    h = (H + lam * np.eye(b)) @ alpha_true
    np.testing.assert_allclose(solve_alpha(H, h, lam), alpha_true, atol=1e-8)


def test_solve_alpha_residual_is_tiny():
    rng = np.random.default_rng(7)
    b = 30
    A = rng.standard_normal((b, 2 * b))
    H = A @ A.T / (2 * b)
    h = rng.standard_normal(b)
    lam = 1e-3
    alpha = solve_alpha(H, h, lam)
    resid = np.linalg.norm((H + lam * np.eye(b)) @ alpha - h)
    assert resid <= 1e-8 * np.linalg.norm(h)


def test_solve_alpha_zero_rhs():
    H = np.eye(3)
    np.testing.assert_array_equal(solve_alpha(H, np.zeros(3), 0.1), np.zeros(3))


def test_solve_alpha_jitter_rescues_singular_system():
    # rank-1 H is singular at lam=0; the trace-scaled jitter retry keeps
    # the solve alive and its residual is still exact for this system
    v = np.array([1.0, 0.0])
    H = np.outer(v, v)
    h = np.array([0.0, 1.0])
    alpha = solve_alpha(H, h, 0.0)
    assert np.all(np.isfinite(alpha))
    # a positive ridge gives the plain regularized solution
    alpha = solve_alpha(H, h, 0.1)
    np.testing.assert_allclose((H + 0.1 * np.eye(2)) @ alpha, h, atol=1e-10)


def test_jitter_rescues_a_solve_whose_alpha_overflows():
    # at a subnormal lam, 1 / (w + lam) overflows on H's zero eigenvalue;
    # that alpha is not finite, so the jittered ridge solves instead
    jitter = JITTER_SCALE * 0.5  # trace(H) / b
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, _ = RidgeSystem(np.diag([1.0, 0.0])).solve([1.0, 1.0], 5e-324)
    np.testing.assert_allclose(alpha, [1.0 / (1.0 + jitter), 1.0 / jitter], rtol=1e-12)


SHAPE_ERRORS = {
    "basis-rows": (lambda: quadratic_term(np.ones((2, 3)), np.ones((3, 3))), "same number of basis rows"),
    "empty-side": (lambda: quadratic_term(np.ones((2, 0)), np.ones((2, 3))), "at least one sample per side"),
    "paired-blocks": (lambda: paired_linear_term(np.ones((2, 3)), np.ones((2, 4)), 0.5), "share shape"),
    "non-square-H": (lambda: RidgeSystem(np.ones((2, 3))), r"square matrix, got shape \(2, 3\)"),
    "h-length": (lambda: RidgeSystem(np.eye(2)).solve(np.ones(3), 0.1), "^h has length 3, expected 2$"),
}


@pytest.mark.parametrize("call, message", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_mismatched_shapes_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_solve_alpha_unsalvageable_system_raises():
    # a negative-definite H is never positive definite, jitter or not
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_alpha(-np.eye(3), np.ones(3), 0.0)


def test_solve_alpha_rejects_negative_ridge():
    with pytest.raises(ValueError, match="non-negative"):
        solve_alpha(np.eye(2), np.ones(2), -0.1)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be non-negative and finite"):
            solve_alpha(np.eye(2), np.ones(2), lam)


@pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
def test_ridge_system_solve_rejects_a_bad_ridge(lam):
    # the check is the solve's own, so a reused system rejects it too
    system = RidgeSystem(np.eye(2))
    system.solve(np.ones(2), 0.1)
    with pytest.raises(ValueError, match="lam must be non-negative and finite"):
        system.solve(np.ones(2), lam)


def test_ridge_system_rejects_non_finite_H():
    with pytest.raises(ValueError, match="H has non-finite"):
        RidgeSystem(np.diag([1.0, np.nan]))


def _gaussian_system():
    """The b = 200 H a default fit builds, and h at the independent coupling."""
    data, _, K_all, L_all = _features(seed=4, b=200, n=100, n_x=300, n_y=300)
    n = data.n
    h = mixed_linear_term(
        K_all[:, :n], L_all[:, :n], K_all[:, n:], L_all[:, n:],
        independent_coupling(data.n_x, data.n_y), 0.5,
    )
    return quadratic_term(K_all, L_all), h


def test_ridge_system_matches_dense_solve_on_gaussian_features():
    # at every lambda of the CV grid; H is singular to rounding, so at
    # lam = 1e-4 H + lam I has condition ~3e5
    H, h = _gaussian_system()
    for lam in LAMBDAS:
        expected = np.linalg.solve(H + lam * np.eye(200), h)
        got, _ = RidgeSystem(H).solve(h, lam)
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


def test_one_ridge_system_solves_every_lambda_as_a_fresh_one():
    # a fit problem keeps one decomposition for every lam of the CV grid,
    # in whatever order the grid visits them; no solve may leave state
    # that moves the next one's bits
    H, h = _gaussian_system()
    shared = RidgeSystem(H)
    for lam in LAMBDAS + LAMBDAS[::-1]:
        alpha, H_alpha = shared.solve(h, lam)
        fresh_alpha, fresh_H_alpha = RidgeSystem(H).solve(h, lam)
        assert np.array_equal(alpha, fresh_alpha) and np.array_equal(H_alpha, fresh_H_alpha)


def _cholesky_solves(H, h, lam):
    """Whether a Cholesky solve with the same jitter retry and checks succeeds."""
    b = H.shape[0]
    for ridge in (lam, lam + JITTER_SCALE * np.trace(H) / b):
        A = H + ridge * np.eye(b)
        try:
            factor = scipy.linalg.cho_factor(A)
        except np.linalg.LinAlgError:
            continue
        alpha = scipy.linalg.cho_solve(factor, h)
        if np.isfinite(alpha).all() and (
            np.linalg.norm(A @ alpha - h) <= SOLVE_RTOL * np.linalg.norm(h)
        ):
            return True
    return False


def _spectral_system(seed):
    """Symmetric H with a chosen spectrum, and h inside or across its range.

    Every third seed zeroes some eigenvalues, every third makes some
    negative (-3e-6 to -3, well clear of the ridges tried), and the
    rest are positive definite.  Odd seeds keep h inside the span of
    the untouched eigenvectors.
    """
    rng = np.random.default_rng(seed)
    b = int(rng.integers(3, 13))
    Q, _ = np.linalg.qr(rng.standard_normal((b, b)))
    w = 10.0 ** rng.uniform(-2, 0, b)
    k = int(rng.integers(1, b))
    if seed % 3 == 0:
        w[:k] = 0.0
    elif seed % 3 == 1:
        w[:k] = -3.0 * 10.0 ** rng.integers(-6, 1, k)
    H = (Q * w) @ Q.T
    H = (H + H.T) / 2
    h = Q[:, k:] @ rng.standard_normal(b - k) if seed % 2 else rng.standard_normal(b)
    return H, h


def test_ridge_system_solves_exactly_when_cholesky_does():
    # scipy is the reference here only; the package solves with numpy
    outcomes = set()
    for seed in range(150):
        H, h = _spectral_system(seed)
        for lam in (0.0, 1e-4, 1e-2, 1.0):
            expected = _cholesky_solves(H, h, lam)
            try:
                RidgeSystem(H).solve(h, lam)
                solved = True
            except np.linalg.LinAlgError:
                solved = False
            assert solved == expected, (seed, lam)
            outcomes.add((seed % 3, expected))
    # rank-deficient and indefinite systems each both solve and raise
    assert {(0, True), (0, False), (1, True), (1, False), (2, True)} <= outcomes


def test_fit_modules_make_no_scipy_linalg_call():
    # numpy and scipy each bundle their own OpenBLAS thread pool; a fit
    # that switches between them stalls (see RidgeSystem)
    package = Path(semismi.__file__).parent
    for module in ("kernels", "density_ratio", "transport", "estimator", "model_selection"):
        tree = ast.parse((package / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                assert not name.startswith("scipy.linalg"), f"{module}.py imports {name}"


def test_ratio_pairs_and_cross_consistent():
    rng = np.random.default_rng(8)
    b, nx, ny = 5, 6, 6
    alpha = rng.standard_normal(b)
    K = rng.random((b, nx))
    L = rng.random((b, ny))
    R = ratio_cross(alpha, K, L)
    assert R.shape == (nx, ny)
    np.testing.assert_allclose(np.diag(R), ratio_pairs(alpha, K, L), atol=1e-12)
    # brute force a few entries
    for i, j in [(0, 0), (2, 4), (5, 1)]:
        assert R[i, j] == pytest.approx(np.sum(alpha * K[:, i] * L[:, j]))


def test_ratio_model_evaluates_at_basis_points():
    data, basis, _, _ = _features(seed=9, b=1)
    model = RatioModel(basis, np.array([2.0]))
    r = model.pairs(basis.x_basis, basis.y_basis)
    assert r[0] == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["pairs", "cross"])
def test_ratio_model_rejects_a_non_finite_point_naming_its_argument(method, bad):
    data, basis, _, _ = _features(seed=9, b=3)
    model = RatioModel(basis, np.ones(3))
    for side, name in enumerate(("xs", "ys")):
        xs, ys = data.unpaired_x[:6].copy(), data.unpaired_y[:6].copy()
        (xs, ys)[side][1, 0] = bad
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry \(NaN or inf\)$"):
            getattr(model, method)(xs, ys)


def test_ratio_model_alpha_length_checked():
    _, basis, _, _ = _features(seed=10, b=3)
    with pytest.raises(ValueError, match="alpha has length"):
        RatioModel(basis, np.ones(4))
