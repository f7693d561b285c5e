"""Alternating estimation of squared-loss mutual information.

Few paired samples fix the scale of the dependence; large unpaired
pools supply the geometry.  Each outer iteration solves the ridge
system for the ratio weights at the current plan, then rebalances the
plan against the reward matrix those weights induce.  Both half-steps
minimize the same objective, so its recorded trace is non-increasing
while every Sinkhorn solve meets ``MARGINAL_TOL``.  A solve that hits
its sweep cap returns a plan that is not its sub-problem's minimizer,
and the trace can then rise; when that solve is the last, the fit
reports ``converged=False``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .density_ratio import RatioModel, RidgeSystem, paired_linear_term, quadratic_term
from .kernels import BasisSet, as_points, feature_columns, sample_basis
from .transport import TransportPlan, plan_entropy, sinkhorn_solve

__all__ = [
    "SampleSet",
    "EstimatorConfig",
    "FitResult",
    "objective",
    "fit",
    "smi_estimate",
]

#: ``fit`` stops once a round moves the plan by at most this (Frobenius).
OUTER_TOL = 1e-9


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
    defaults here are mid-grid values for direct use.  The Sinkhorn
    step's sweep cap and tolerance are the constants
    :data:`~semismi.transport.MAX_SWEEPS` and
    :data:`~semismi.transport.MARGINAL_TOL`.
    """

    n_basis: int = 200
    epsilon: float = 0.3
    lam: float = 1e-3
    beta: float = 0.8
    max_outer_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class FitResult:
    """A fit's model and final plan, its objective trace, and the SMI
    of its own data, which equals ``smi_estimate(model, data)``."""

    model: RatioModel
    plan: TransportPlan
    objective_trace: np.ndarray
    iterations_run: int
    converged: bool
    smi: float
    timings: dict = field(default_factory=dict)


def objective(H_alpha, h, alpha, entropy: float, lam: float, epsilon: float) -> float:
    """Joint objective: ridge quadratic in alpha plus plan entropy.

    J = 1/2 a^T H a - a^T h + epsilon * entropy + lam/2 ||a||^2, where
    ``H_alpha`` is the product H a, as :meth:`RidgeSystem.solve` returns
    it, and ``entropy`` is the plan's sum_ij pi_ij (log pi_ij - 1); every
    ``TransportPlan`` records it, so this is O(b).
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    h = np.asarray(h, dtype=float).ravel()
    return float(
        0.5 * (alpha @ H_alpha)
        - alpha @ h
        + epsilon * entropy
        + 0.5 * lam * (alpha @ alpha)
    )


def fit(data: SampleSet, config: EstimatorConfig, basis: BasisSet | None = None) -> FitResult:
    """Alternate ratio-weight solves with plan rebalancing.

    Starts from the independent coupling pi_ij = 1/(n_x n_y), taken in
    closed form (its potentials, feature mass and entropy), runs at most
    ``max_outer_iters`` rounds of (weights, plan) updates, and stops once
    the plan moves by at most ``OUTER_TOL`` in Frobenius norm.
    ``converged`` also requires the final plan to meet its marginals
    (``plan.converged``), so a fit whose last Sinkhorn solve hit its
    sweep cap says so.  The
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
    setup_s = time.perf_counter() - t0

    trace: list[float] = []
    converged = False
    iterations = 0
    t1 = time.perf_counter()
    # h = paired part + (1 - beta) * the plan's feature mass.  Each solve
    # returns the mass of its plan, which gives the bits of
    # mixed_linear_term.  The first plan is the independent coupling, all
    # of whose entries equal pi: its potentials, mass and entropy are
    # closed forms (the mass equal to mixed_linear_term's up to rounding).
    h_paired = paired_linear_term(K_pair, L_pair, config.beta)
    pi = 1.0 / (n_x * n_y)
    potentials = (np.full(n_x, -np.log(n_x)), np.full(n_y, -np.log(n_y)))
    mass = K_unpair.sum(axis=1) * L_unpair.sum(axis=1) / (n_x * n_y)
    entropy = float(-np.log(n_x * n_y) - 1.0)
    h = h_paired + (1.0 - config.beta) * mass
    spare = None
    for t in range(1, config.max_outer_iters + 1):
        alpha, H_alpha = ridge.solve(h)
        if t == 1:
            trace.append(objective(H_alpha, h, alpha, entropy, config.lam, config.epsilon))
        # Two n_x x n_y buffers per fit: the solve forms the reward from
        # its factors in the new plan's buffer, and the old plan's buffer
        # takes the difference and is then the next solve's.  The
        # constant first plan has no buffer, so its difference is the
        # second one.
        plan = sinkhorn_solve(
            (K_unpair, alpha, L_unpair), config.beta, config.epsilon, potentials, spare
        )
        spare = np.subtract(pi, plan.pi, out=None if t == 1 else pi)
        gap = float(np.linalg.norm(spare))
        pi = plan.pi
        potentials = (plan.row_potential, plan.col_potential)
        h = h_paired + (1.0 - config.beta) * plan.feature_mass
        trace.append(objective(H_alpha, h, alpha, plan_entropy(plan), config.lam, config.epsilon))
        iterations = t
        if gap <= OUTER_TOL:
            converged = plan.converged
            break
    iter_s = time.perf_counter() - t1

    model = RatioModel(basis, alpha)
    smi = _smi(model.alpha, H_alpha, K_all, L_all)
    timings = {
        "setup_seconds": setup_s,
        "iteration_seconds": iter_s,
        "per_iteration_seconds": iter_s / iterations,
    }
    return FitResult(model, plan, np.asarray(trace), iterations, converged, smi, timings)


def _smi(alpha, H_alpha, K_all, L_all) -> float:
    """The plug-in SMI of :func:`smi_estimate` from the pooled features."""
    mean_sq = float(alpha @ H_alpha)
    mean_lin = float(alpha @ (K_all.sum(axis=1) * L_all.sum(axis=1))) / (
        K_all.shape[1] * L_all.shape[1]
    )
    # Algebraically (1/2) * mean of (r - 1)^2 >= 0; guard the rounding.
    return max(0.5 * mean_sq - mean_lin + 0.5, 0.0)


def smi_estimate(model: RatioModel, data: SampleSet) -> float:
    """Plug-in SMI: mean of (r - 1)^2 / 2 over all pooled cross pairs.

    With N_x = n + n_x pooled x's and N_y = n + n_y pooled y's the
    double sum expands to squared, linear, and constant pieces that the
    factored features collapse exactly:

        sum_ij r_ij^2 = N_x N_y a^T H a,   sum_ij r_ij = a^T (u * w)

    with u, w the per-basis column sums — no N_x x N_y matrix is ever
    formed, so ground-truth-sized baselines stay cheap.  A fit's own
    data need no second pass: ``FitResult.smi`` holds its value.
    """
    K_all, L_all = feature_columns(model.basis, data.pooled_x, data.pooled_y)
    H = quadratic_term(K_all, L_all)
    return _smi(model.alpha, H @ model.alpha, K_all, L_all)

