"""Alternating estimation of squared-loss mutual information.

Few paired samples fix the scale of the dependence; large unpaired
pools supply the geometry.  Each outer iteration solves the ridge
system for the ratio weights at the current plan, then rebalances the
plan against the reward matrix those weights induce.  Both half-steps
are exact minimizations of the same objective, so its value can only
go down — the recorded trace makes that checkable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .density_ratio import RatioModel, RidgeSystem, mixed_linear_term, quadratic_term
from .kernels import BasisSet, as_points, feature_columns, sample_basis
from .transport import (
    SinkhornParams,
    TransportPlan,
    cost_matrix,
    plan_entropy,
    sinkhorn_solve,
    uniform_plan,
)

__all__ = [
    "SampleSet",
    "EstimatorConfig",
    "FitResult",
    "objective",
    "fit",
    "smi_estimate",
    "smi_estimate_paired",
]


@dataclass
class SampleSet:
    """n paired couples plus unpaired pools for each variable.

    The two sides may have different dimensions.  Pools may be empty
    (e.g. a fully paired reference set); fitting a plan requires them,
    and enforces that itself.
    """

    paired_x: np.ndarray
    paired_y: np.ndarray
    unpaired_x: np.ndarray
    unpaired_y: np.ndarray

    def __post_init__(self):
        for name in ("paired_x", "paired_y", "unpaired_x", "unpaired_y"):
            points = as_points(getattr(self, name), name)
            if not np.isfinite(points).all():
                raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
            setattr(self, name, points)
        if self.paired_x.shape[0] != self.paired_y.shape[0]:
            raise ValueError("paired_x and paired_y must have equal length")
        if (
            self.paired_x.shape[0]
            and self.unpaired_x.shape[0]
            and self.paired_x.shape[1] != self.unpaired_x.shape[1]
        ):
            raise ValueError("x dimension differs between paired and unpaired samples")
        if (
            self.paired_y.shape[0]
            and self.unpaired_y.shape[0]
            and self.paired_y.shape[1] != self.unpaired_y.shape[1]
        ):
            raise ValueError("y dimension differs between paired and unpaired samples")
        if self.n + self.n_x == 0 or self.n + self.n_y == 0:
            raise ValueError("each side needs at least one sample")

    @property
    def n(self) -> int:
        return self.paired_x.shape[0]

    @property
    def n_x(self) -> int:
        return self.unpaired_x.shape[0]

    @property
    def n_y(self) -> int:
        return self.unpaired_y.shape[0]

    @property
    def pooled_x(self) -> np.ndarray:
        """Paired x's followed by the unpaired x pool."""
        if self.n_x == 0:
            return self.paired_x
        if self.n == 0:
            return self.unpaired_x
        return np.vstack([self.paired_x, self.unpaired_x])

    @property
    def pooled_y(self) -> np.ndarray:
        if self.n_y == 0:
            return self.paired_y
        if self.n == 0:
            return self.unpaired_y
        return np.vstack([self.paired_y, self.unpaired_y])


@dataclass(frozen=True)
class EstimatorConfig:
    """Hyperparameters of one fit.

    ``lam`` and ``beta`` are normally chosen by cross-validation; the
    defaults here are mid-grid values for direct use.
    """

    n_basis: int = 200
    epsilon: float = 0.3
    lam: float = 1e-3
    beta: float = 0.8
    max_outer_iters: int = 20
    outer_tol: float = 1e-9
    seed: int = 0
    max_inner_iters: int = 1000
    marginal_tol: float = 1e-11

    def __post_init__(self):
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        # Delegates epsilon/inner-loop validation.
        self.sinkhorn

    @property
    def sinkhorn(self) -> SinkhornParams:
        return SinkhornParams(
            epsilon=self.epsilon,
            max_inner_iters=self.max_inner_iters,
            marginal_tol=self.marginal_tol,
        )


@dataclass(eq=False)
class FitResult:
    model: RatioModel
    plan: TransportPlan
    objective_trace: np.ndarray
    iterations_run: int
    converged: bool
    timings: dict = field(default_factory=dict)


def objective(H, h, alpha, plan, lam: float, epsilon: float) -> float:
    """Joint objective: ridge quadratic in alpha plus plan entropy.

    J = 1/2 a^T H a - a^T h + epsilon * entropy(plan) + lam/2 ||a||^2.

    A plan from :func:`sinkhorn_solve` or :func:`uniform_plan` carries
    its entropy, so this is O(b^2); other plans are summed entry by entry.
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    h = np.asarray(h, dtype=float).ravel()
    return float(
        0.5 * (alpha @ (H @ alpha))
        - alpha @ h
        + epsilon * plan_entropy(plan)
        + 0.5 * lam * (alpha @ alpha)
    )


def fit(data: SampleSet, config: EstimatorConfig, basis: BasisSet | None = None) -> FitResult:
    """Alternate ratio-weight solves with plan rebalancing.

    Starts from the uniform plan, runs at most ``max_outer_iters``
    rounds of (weights, plan) updates, and stops once the plan moves by
    at most ``outer_tol`` in Frobenius norm.  ``converged`` also
    requires the final plan to meet its marginals (``plan.converged``),
    so a fit whose last Sinkhorn solve hit its sweep cap says so.  The
    objective value is recorded once after the first weight solve
    (index 0) and then after every completed round, so consecutive
    trace entries are directly comparable.

    ``basis`` overrides the internally sampled basis; callers that
    compare fits (cross-validation, invariance checks) pass one
    explicitly so every fit scores the same feature set.
    """
    n, n_x, n_y = data.n, data.n_x, data.n_y
    if config.beta > 0.0 and n == 0:
        raise ValueError("beta > 0 requires at least one paired sample")
    if n_x == 0 or n_y == 0:
        raise ValueError("fit requires non-empty unpaired pools on both sides")

    t0 = time.perf_counter()
    pooled_x = data.pooled_x
    pooled_y = data.pooled_y
    if basis is None:
        basis = sample_basis(pooled_x, pooled_y, config.n_basis, config.seed)
    K_all, L_all = feature_columns(basis, pooled_x, pooled_y)
    K_pair, L_pair = K_all[:, :n], L_all[:, :n]
    K_unpair, L_unpair = K_all[:, n:], L_all[:, n:]
    H = quadratic_term(K_all, L_all)
    # H and lam are fixed for the whole fit: decompose once, solve per round.
    ridge = RidgeSystem(H, config.lam)
    params = config.sinkhorn
    plan = uniform_plan(n_x, n_y)
    setup_s = time.perf_counter() - t0

    trace: list[float] = []
    converged = False
    iterations = 0
    t1 = time.perf_counter()
    h = mixed_linear_term(K_pair, L_pair, K_unpair, L_unpair, plan.pi, config.beta)
    for t in range(1, config.max_outer_iters + 1):
        alpha = ridge.solve(h)
        if t == 1:
            trace.append(objective(H, h, alpha, plan, config.lam, config.epsilon))
        # No n_x x n_y array outlives its use: the reward matrix is freed
        # once the plan is solved, and the old plan, whose buffer takes
        # the difference, once the gap is known.
        new_plan = sinkhorn_solve(
            cost_matrix(alpha, K_unpair, L_unpair), config.beta, params, init=plan
        )
        plan.pi -= new_plan.pi
        gap = float(np.linalg.norm(plan.pi))
        plan = new_plan
        h = mixed_linear_term(K_pair, L_pair, K_unpair, L_unpair, plan.pi, config.beta)
        trace.append(objective(H, h, alpha, plan, config.lam, config.epsilon))
        iterations = t
        if gap <= config.outer_tol:
            converged = plan.converged
            break
    iter_s = time.perf_counter() - t1

    model = RatioModel(basis, alpha)
    timings = {
        "setup_seconds": setup_s,
        "iteration_seconds": iter_s,
        "per_iteration_seconds": iter_s / iterations,
    }
    return FitResult(model, plan, np.asarray(trace), iterations, converged, timings)


def smi_estimate(model: RatioModel, data: SampleSet) -> float:
    """Plug-in SMI: mean of (r - 1)^2 / 2 over all pooled cross pairs.

    With N_x = n + n_x pooled x's and N_y = n + n_y pooled y's the
    double sum expands to squared, linear, and constant pieces that the
    factored features collapse exactly:

        sum_ij r_ij^2 = N_x N_y a^T H a,   sum_ij r_ij = a^T (u * w)

    with u, w the per-basis column sums — no N_x x N_y matrix is ever
    formed, so ground-truth-sized baselines stay cheap.
    """
    pooled_x = data.pooled_x
    pooled_y = data.pooled_y
    K_all, L_all = feature_columns(model.basis, pooled_x, pooled_y)
    N_x = K_all.shape[1]
    N_y = L_all.shape[1]
    H = quadratic_term(K_all, L_all)
    alpha = model.alpha
    mean_sq = float(alpha @ (H @ alpha))
    mean_lin = float(alpha @ (K_all.sum(axis=1) * L_all.sum(axis=1))) / (N_x * N_y)
    # Algebraically (1/2) * mean of (r - 1)^2 >= 0; guard the rounding.
    return max(0.5 * mean_sq - mean_lin + 0.5, 0.0)


def smi_estimate_paired(
    model: RatioModel, plan: TransportPlan, data: SampleSet, beta: float
) -> float:
    """Plan-weighted SMI diagnostic: the LSMI plug-in alpha^T h / 2 - 1/2.

    h is the fit's linear term at ``plan`` (see :func:`mixed_linear_term`),
    so this is beta/(2n) sum_i r(x_i, y_i) + (1-beta)/2 sum_ij pi_ij
    r(x'_i, y'_j) - 1/2.  Unlike :func:`smi_estimate` this reuses the
    fitted plan as the joint weights, so it reflects how much dependence
    the plan itself captured.
    """
    n = data.n
    K_all, L_all = feature_columns(model.basis, data.pooled_x, data.pooled_y)
    h = mixed_linear_term(K_all[:, :n], L_all[:, :n], K_all[:, n:], L_all[:, n:], plan.pi, beta)
    return 0.5 * float(model.alpha @ h) - 0.5
