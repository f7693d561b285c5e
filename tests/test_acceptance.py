"""Release acceptance checks.

One test per shipped guarantee; each prints a single pass/fail line
(visible with ``pytest -s``) and asserts the thresholds it names.
Every transport plan a criterion touches is checked for marginal
feasibility within 1e-6, which is itself one of the guarantees.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from semismi import (
    CvGrid,
    EstimatorConfig,
    RatioModel,
    SampleSet,
    SyntheticSpec,
    cross_validate,
    fit,
    generate,
    smi_estimate,
    topk_accuracy,
)
from semismi import transport
from semismi.cli import main
from semismi.density_ratio import mixed_linear_term, quadratic_term, solve_alpha
from semismi.kernels import feature_columns, sample_basis
from semismi.transport import sinkhorn_solve

from conftest import assert_valid_plan, dense, uniform_potentials
from criterion10_slopes import ARGV as CRITERION_10_ARGV, FLOOR as CRITERION_10_FLOOR

PLAN_TOL = 1e-6


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")


def _cv_then_fit(data, seed):
    """The tuned protocol: grid-score on a hold-out split, refit on all."""
    config = EstimatorConfig(seed=seed)
    report = cross_validate(data, config, CvGrid(seed=seed))
    tuned = replace(config, lam=report.best_lambda, beta=report.best_beta)
    return fit(data, tuned)


def _paired_only_smi(xs, ys, lam=1e-3, b=200, seed=0):
    """SMI from true pairs alone (no pools, no plan)."""
    basis = sample_basis(xs, ys, b, seed=seed)
    K, L = feature_columns(basis, xs, ys)
    H = quadratic_term(K, L)
    h = mixed_linear_term(
        K, L, np.zeros((basis.b, 0)), np.zeros((basis.b, 0)), np.zeros((0, 0)), 1.0
    )
    model = RatioModel(basis, solve_alpha(H, h, lam))
    data = SampleSet(xs, ys, np.zeros((0, xs.shape[1])), np.zeros((0, ys.shape[1])))
    return smi_estimate(model, data)


# ---------------------------------------------------------------------------


def test_criterion_01_objective_never_increases():
    """Alternating fits only ever lower the objective (slack 1e-9)."""
    start = time.perf_counter()
    worst = -np.inf
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        n = int(rng.integers(5, 51))
        n_x, n_y = (int(rng.integers(20, 201)) for _ in range(2))
        d_x, d_y = (int(rng.integers(1, 6)) for _ in range(2))
        data = SampleSet(
            rng.standard_normal((n, d_x)),
            rng.standard_normal((n, d_y)),
            rng.standard_normal((n_x, d_x)),
            rng.standard_normal((n_y, d_y)),
        )
        result = fit(data, EstimatorConfig(seed=trial))
        assert_valid_plan(result.plan, n_x, n_y, tol=PLAN_TOL)
        worst = max(worst, float(np.max(np.diff(result.objective_trace))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 120
    _report(1, "monotone objective", ok,
            f"worst increase {worst:.2e} over 50 datasets, {elapsed:.0f}s")
    assert worst <= 1e-9
    assert elapsed < 120


def test_criterion_02_converges_within_five_iterations():
    """Linear data at defaults settles below 1e-6 relative change fast."""
    start = time.perf_counter()
    quick = 0
    for seed in range(10):
        data = generate(SyntheticSpec("linear", 50, 500, 500, seed=seed))
        result = fit(data, EstimatorConfig(seed=seed))
        assert_valid_plan(result.plan, 500, 500, tol=PLAN_TOL)
        trace = np.asarray(result.objective_trace)
        rel = np.abs(np.diff(trace)) / np.maximum(np.abs(trace[:-1]), 1e-12)
        settled = np.flatnonzero(rel < 1e-6)
        quick += settled.size > 0 and settled[0] + 1 <= 5
    elapsed = time.perf_counter() - start
    ok = quick >= 9 and elapsed < 60
    _report(2, "fast convergence", ok, f"{quick}/10 seeds within 5 iterations, {elapsed:.0f}s")
    assert quick >= 9
    assert elapsed < 60


def _transport_oracle(C, beta, epsilon):
    """Generic quasi-Newton minimization of the plan sub-problem's dual.

    The sub-problem min -(1-beta)<P,C> + eps*sum p(log p - 1) over the
    polytope has the smooth unconstrained dual below; BFGS on it shares
    no machinery with the scaling loop under test.
    """
    n_x, n_y = C.shape
    lin = -(1.0 - beta) * C

    def plan(z):
        return np.exp((z[:n_x, None] + z[None, n_x:] - lin) / epsilon)

    def f(z):
        return float(
            epsilon * plan(z).sum() - z[:n_x].sum() / n_x - z[n_x:].sum() / n_y
        )

    def jac(z):
        P = plan(z)
        return np.concatenate([P.sum(axis=1) - 1.0 / n_x, P.sum(axis=0) - 1.0 / n_y])

    res = minimize(f, np.zeros(n_x + n_y), jac=jac, method="BFGS",
                   options={"gtol": 1e-13, "maxiter": 2000})
    # the gradient is the marginal residual, so this bounds the oracle's
    # own error well below the 1e-6 comparison tolerance
    assert np.max(np.abs(jac(res.x))) < 1e-8
    return plan(res.x)


def test_criterion_03_subsolvers_match_oracles(monkeypatch):
    """Ridge solve, scaling loop, and factored sums vs independent oracles."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    worst_solve = 0.0
    for _ in range(100):
        b = int(rng.integers(2, 41))
        A = rng.standard_normal((b, b + 3))
        H = A @ A.T / (b + 3)
        h = rng.standard_normal(b)
        lam = float(10.0 ** rng.uniform(-4, -1))
        got = solve_alpha(H, h, lam)
        ref = np.linalg.solve(H + lam * np.eye(b), h)
        worst_solve = max(
            worst_solve, float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        )

    worst_plan = 0.0
    monkeypatch.setattr(transport, "MARGINAL_TOL", 1e-12)
    for _ in range(8):
        C = rng.standard_normal((3, 3))
        beta = float(rng.uniform(0.0, 0.9))
        got = sinkhorn_solve(*dense(C), beta, 0.3, uniform_potentials(3, 3)).pi
        ref = _transport_oracle(C, beta, 0.3)
        worst_plan = max(worst_plan, float(np.max(np.abs(got - ref))))

    worst_terms = 0.0
    for _ in range(5):
        b = int(rng.integers(1, 6))
        n, n_x, n_y = (int(rng.integers(1, 17)) for _ in range(3))
        K_all = rng.random((b, n + n_x))
        L_all = rng.random((b, n + n_y))
        H = quadratic_term(K_all, L_all)
        H_ref = np.zeros((b, b))
        for l, m in itertools.product(range(b), repeat=2):
            for p in range(n + n_x):
                for q in range(n + n_y):
                    H_ref[l, m] += K_all[l, p] * K_all[m, p] * L_all[l, q] * L_all[m, q]
        H_ref /= (n + n_x) * (n + n_y)
        worst_terms = max(worst_terms, float(np.max(np.abs(H - H_ref))))

        plan = rng.random((n_x, n_y))
        plan /= plan.sum()
        beta = float(rng.uniform(0.0, 1.0))
        K_p, L_p = rng.random((b, n)), rng.random((b, n))
        K_u, L_u = K_all[:, n:], L_all[:, n:]
        h = mixed_linear_term(K_p, L_p, K_u, L_u, plan, beta)
        h_ref = np.zeros(b)
        for l in range(b):
            for i in range(n):
                h_ref[l] += beta / n * K_p[l, i] * L_p[l, i]
            for i in range(n_x):
                for j in range(n_y):
                    h_ref[l] += (1 - beta) * plan[i, j] * K_u[l, i] * L_u[l, j]
        worst_terms = max(worst_terms, float(np.max(np.abs(h - h_ref))))

    elapsed = time.perf_counter() - start
    ok = worst_solve <= 1e-8 and worst_plan <= 1e-6 and worst_terms <= 1e-10
    ok = ok and elapsed < 60
    _report(3, "sub-solver oracles", ok,
            f"ridge {worst_solve:.1e} (tol 1e-8), plan {worst_plan:.1e} (tol 1e-6), "
            f"sums {worst_terms:.1e} (tol 1e-10), {elapsed:.0f}s")
    assert worst_solve <= 1e-8
    assert worst_plan <= 1e-6
    assert worst_terms <= 1e-10
    assert elapsed < 60


def test_criterion_04_plans_always_feasible():
    """Returned plans meet both uniform marginals within 1e-6.

    The other criteria assert this on their own runs; this sweep adds
    deliberately awkward shapes and the mixing-weight extremes.
    """
    shapes = [(10, 10), (25, 13), (3, 40), (40, 3), (1, 12), (12, 1), (100, 50)]
    checked = 0
    for idx, (n_x, n_y) in enumerate(shapes):
        for beta in (0.0, 0.5, 1.0):
            rng = np.random.default_rng(100 * idx + int(10 * beta))
            data = SampleSet(
                rng.standard_normal((4, 2)),
                rng.standard_normal((4, 1)),
                rng.standard_normal((n_x, 2)),
                rng.standard_normal((n_y, 1)),
            )
            result = fit(data, EstimatorConfig(n_basis=30, beta=beta, seed=idx))
            assert_valid_plan(result.plan, n_x, n_y, tol=PLAN_TOL)
            assert result.plan.marginal_error <= PLAN_TOL
            checked += 1
    _report(4, "marginal feasibility", True,
            f"{checked} plans across {len(shapes)} shapes and 3 mixing weights within 1e-6")


@pytest.mark.filterwarnings("ignore:sinkhorn_solve hit the sweep cap")
def test_criterion_05_independent_data_scores_near_zero():
    """Tuned estimates: ~0 under independence, >=5x larger under dependence."""
    start = time.perf_counter()
    independent, dependent = [], []
    for seed in range(10):
        d_ind = generate(SyntheticSpec("random", 100, 500, 500, seed=seed))
        d_dep = generate(SyntheticSpec("linear", 100, 500, 500, seed=seed))
        r_ind = _cv_then_fit(d_ind, seed)
        r_dep = _cv_then_fit(d_dep, seed)
        assert_valid_plan(r_ind.plan, 500, 500, tol=PLAN_TOL)
        assert_valid_plan(r_dep.plan, 500, 500, tol=PLAN_TOL)
        independent.append(smi_estimate(r_ind.model, d_ind))
        dependent.append(smi_estimate(r_dep.model, d_dep))
    independent = np.asarray(independent)
    dependent = np.asarray(dependent)
    near_zero = int(np.sum(independent <= 0.05))
    min_ratio = float(np.min(dependent / independent))
    elapsed = time.perf_counter() - start
    ok = near_zero >= 9 and min_ratio >= 5.0 and elapsed < 300
    _report(5, "independence baseline", ok,
            f"{near_zero}/10 independent runs <= 0.05 (max {independent.max():.3f}), "
            f"dependent/independent ratio >= {min_ratio:.1f}, {elapsed:.0f}s")
    assert near_zero >= 9
    assert min_ratio >= 5.0
    assert elapsed < 300


def test_criterion_06_pools_tighten_the_estimate():
    """With 20 pairs + pools, SMI lands nearer a 10k-pair reference than
    the 20 pairs alone do, in most trials."""
    start = time.perf_counter()
    wins = 0
    for seed in range(10):
        data = generate(SyntheticSpec("linear", 20, 500, 500, seed=seed))
        result = fit(data, EstimatorConfig(seed=seed))
        assert_valid_plan(result.plan, 500, 500, tol=PLAN_TOL)
        smi_pooled = smi_estimate(result.model, data)
        smi_pairs = _paired_only_smi(data.paired_x, data.paired_y, seed=seed)
        reference = generate(SyntheticSpec("linear", 10_000, 0, 0, seed=10_000 + seed))
        smi_ref = _paired_only_smi(reference.paired_x, reference.paired_y, seed=seed)
        wins += abs(smi_pooled - smi_ref) <= abs(smi_pairs - smi_ref)
    elapsed = time.perf_counter() - start
    ok = wins >= 7 and elapsed < 600
    _report(6, "pools help", ok, f"{wins}/10 closer to the 10k-pair reference, {elapsed:.0f}s")
    assert wins >= 7
    assert elapsed < 600


@pytest.mark.filterwarnings("ignore:sinkhorn_solve hit the sweep cap")
def test_criterion_07_plan_concentrates_on_true_pairs():
    """When the pools hide a true matching, the plan piles mass on it."""
    start = time.perf_counter()
    hits = 0
    ratios = []
    for seed in range(10):
        joint = generate(SyntheticSpec("linear", 120, 0, 0, seed=seed))
        shuffle = np.random.default_rng(900 + seed).permutation(100)
        data = SampleSet(
            joint.paired_x[:20],
            joint.paired_y[:20],
            joint.paired_x[20:],
            joint.paired_y[20:][shuffle],
        )
        true_col = np.empty(100, dtype=int)
        true_col[shuffle] = np.arange(100)
        result = _cv_then_fit(data, seed)
        assert_valid_plan(result.plan, 100, 100, tol=PLAN_TOL)
        mass = 0.0  # brute-force recount, one entry at a time
        for i in range(100):
            mass += float(result.plan.pi[i, true_col[i]])
        assert mass == pytest.approx(
            float(result.plan.pi[np.arange(100), true_col].sum()), abs=1e-15
        )
        ratio = mass / (1.0 / 100)
        ratios.append(ratio)
        hits += ratio >= 3.0
    elapsed = time.perf_counter() - start
    ok = hits >= 8
    _report(7, "plan concentration", ok,
            f"{hits}/10 seeds with true-pair mass >= 3x uniform "
            f"(median {np.median(ratios):.1f}x), {elapsed:.0f}s")
    assert hits >= 8


def test_criterion_08_split_feature_matching():
    """20 known pairs align two 32-d halves of correlated 64-d vectors."""
    start = time.perf_counter()
    config = EstimatorConfig(epsilon=0.02)
    good = 0
    top1s = []
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        mix_x = rng.standard_normal((4, 32)) / 2.0
        mix_y = rng.standard_normal((4, 32)) / 2.0
        latent = rng.standard_normal((120, 4))
        x = latent @ mix_x + 0.05 * rng.standard_normal((120, 32))
        y = latent @ mix_y + 0.05 * rng.standard_normal((120, 32))
        data = SampleSet(x[:20], y[:20], x[20:], y[20:])
        result = fit(data, replace(config, seed=seed))
        assert_valid_plan(result.plan, 100, 100, tol=PLAN_TOL)
        truth = [(i, i) for i in range(100)]
        top1 = topk_accuracy(result.plan, truth, k=1)
        top2 = topk_accuracy(result.plan, truth, k=2)
        top1s.append(top1)
        good += top1 >= 0.9 and top2 >= top1
    elapsed = time.perf_counter() - start
    ok = good >= 8 and elapsed < 120
    _report(8, "matching accuracy", ok,
            f"{good}/10 seeds with top-1 >= 0.9 (median {np.median(top1s):.2f}), {elapsed:.0f}s")
    assert good >= 8
    assert elapsed < 120


def test_criterion_09_rectangular_pools():
    """A 1000x500 pool imbalance neither breaks the fit nor moves SMI much."""
    start = time.perf_counter()
    square = generate(SyntheticSpec("linear", 50, 500, 500, seed=0))
    wide = generate(SyntheticSpec("linear", 50, 1000, 500, seed=0))
    estimates = {}
    for name, data in (("square", square), ("wide", wide)):
        result = fit(data, EstimatorConfig(seed=0))
        assert_valid_plan(result.plan, data.n_x, data.n_y, tol=PLAN_TOL)
        assert float(np.max(np.diff(result.objective_trace))) <= 1e-9
        smi = smi_estimate(result.model, data)
        assert smi >= 0.0
        estimates[name] = smi
    ratio = max(estimates.values()) / min(estimates.values())
    elapsed = time.perf_counter() - start
    ok = ratio <= 2.0 and elapsed < 120
    _report(9, "rectangular pools", ok,
            f"square {estimates['square']:.3f} vs 1000x500 {estimates['wide']:.3f} "
            f"(ratio {ratio:.2f} <= 2), {elapsed:.0f}s")
    assert ratio <= 2.0
    assert elapsed < 120


def test_criterion_10_iteration_cost_scales_quadratically(tmp_path):
    """Per-iteration time grows ~quadratically with matched pool sizes."""
    start = time.perf_counter()
    out = tmp_path / "bench"
    code = main([*CRITERION_10_ARGV, "--out", str(out)])
    assert code == 0
    record = dict(
        line.split(": ", 1) for line in (out / "result.txt").read_text().splitlines()
    )
    slope = float(record["slope"])
    elapsed = time.perf_counter() - start
    ok = CRITERION_10_FLOOR <= slope <= 2.4 and elapsed < 180
    _report(10, "quadratic scaling", ok,
            f"log-log slope {slope:.2f} in [{CRITERION_10_FLOOR}, 2.4] over sizes 100..800, "
            f"{elapsed:.0f}s")
    assert CRITERION_10_FLOOR <= slope <= 2.4
    assert elapsed < 180
