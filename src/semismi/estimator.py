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

Everything a fit computes from its data and basis alone is built once,
in a private problem object: the pooled features, split into paired and
unpaired blocks, the unpaired blocks' factors at their numerical rank
(see :mod:`~semismi.transport`: each solve forms its reward and feature
mass at rank r, not b, when r is at most half of b), H, and one
eigendecomposition of H that serves every lam.  A fit is a loop over
one round function, (weights, plan) from the linear term, plus the stop
rule; cross-validation runs all its grid fits on one problem.  Each
input is checked once, where it enters: the points by ``SampleSet``
through :func:`~semismi.kernels.as_points`, the hyperparameters by
``EstimatorConfig``, the unpaired blocks' shapes by ``_FeatureBlocks``
and H by ``RidgeSystem``, whose every solve also checks its scalar lam
for callers that build the system directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .density_ratio import RatioModel, RidgeSystem, paired_linear_term, quadratic_term
from .kernels import BasisSet, as_points, feature_columns, sample_basis
from .transport import TransportPlan, _FeatureBlocks, plan_entropy, sinkhorn_solve

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
            setattr(self, name, as_points(getattr(self, name), name))
        if self.paired_x.shape[0] != self.paired_y.shape[0]:
            raise ValueError("paired_x and paired_y must have equal length")
        for side in "xy":
            paired, pool = getattr(self, f"paired_{side}"), getattr(self, f"unpaired_{side}")
            if paired.shape[0] and pool.shape[0] and paired.shape[1] != pool.shape[1]:
                raise ValueError(f"{side} dimension differs between paired and unpaired samples")
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
        return _pooled(self.paired_x, self.unpaired_x)

    @property
    def pooled_y(self) -> np.ndarray:
        return _pooled(self.paired_y, self.unpaired_y)


def _pooled(paired: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The pairs followed by the pool; either array itself when the other is empty."""
    if pool.shape[0] == 0:
        return paired
    if paired.shape[0] == 0:
        return pool
    return np.vstack([paired, pool])


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


def fit(data: SampleSet, config: EstimatorConfig) -> FitResult:
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
    trace entries are directly comparable.  The basis is sampled from
    the pooled data by ``config``'s ``n_basis`` and ``seed``.
    """
    basis = sample_basis(data.pooled_x, data.pooled_y, config.n_basis, config.seed)
    return _Problem(data, basis).fit(config)


class _Problem:
    """What every fit on one (data, basis) shares, built once.

    It holds the pooled features split into paired and unpaired blocks,
    the unpaired blocks as every solve takes them (factored at their
    numerical rank when that is at most half of b), H, and one
    ``RidgeSystem`` of H, whose one eigendecomposition every fit solves
    on at its own lam.  Only lam and beta differ between the fits that
    share a problem, as cross-validation's grid fits do.  ``round``
    checks nothing again: see the module docstring for who checks what.
    """

    def __init__(self, data: SampleSet, basis: BasisSet):
        if data.n_x == 0 or data.n_y == 0:
            raise ValueError("fit requires non-empty unpaired pools on both sides")
        start = time.perf_counter()
        n = self.n = data.n
        self.n_x, self.n_y = data.n_x, data.n_y
        self.basis = basis
        self.K_all, self.L_all = feature_columns(basis, data.pooled_x, data.pooled_y)
        self.K_pair, self.L_pair = self.K_all[:, :n], self.L_all[:, :n]
        K_unpair, L_unpair = self.K_all[:, n:], self.L_all[:, n:]
        self.blocks = _FeatureBlocks.factored(K_unpair, L_unpair)
        # The independent coupling's feature mass, in closed form (equal
        # to mixed_linear_term's on that plan up to rounding).
        self.uniform_mass = K_unpair.sum(axis=1) * L_unpair.sum(axis=1) / (self.n_x * self.n_y)
        self.ridge = RidgeSystem(quadratic_term(self.K_all, self.L_all))
        self.setup_seconds = time.perf_counter() - start

    def round(self, lam, beta, epsilon, h_paired, h, potentials, out):
        """One (weights, plan) round from the linear term ``h``.

        Solves for alpha at ``lam``, balances the plan of its reward from
        ``potentials`` in the buffer ``out`` (see
        :func:`~semismi.transport.sinkhorn_solve`), and returns
        (alpha, H alpha, plan, the plan's linear term).  Each solve
        returns the feature mass of its plan: mixed_linear_term's bits
        on plain blocks, its value to rounding on factored ones.
        """
        alpha, H_alpha = self.ridge.solve(h, lam)
        plan = sinkhorn_solve(self.blocks, alpha, beta, epsilon, potentials, out)
        return alpha, H_alpha, plan, h_paired + (1.0 - beta) * plan.feature_mass

    def fit(self, config: EstimatorConfig) -> FitResult:
        """:func:`fit` at ``config``'s lam, beta, epsilon and iteration cap
        on this problem's data and basis."""
        n_x, n_y = self.n_x, self.n_y
        lam, beta, epsilon = config.lam, config.beta, config.epsilon
        start = time.perf_counter()
        # h = paired part + (1 - beta) * the plan's feature mass.  The first
        # plan is the independent coupling, all of whose entries equal pi:
        # its potentials, mass and entropy are closed forms.
        h_paired = paired_linear_term(self.K_pair, self.L_pair, beta)
        pi = 1.0 / (n_x * n_y)
        potentials = (np.full(n_x, -np.log(n_x)), np.full(n_y, -np.log(n_y)))
        h = h_paired + (1.0 - beta) * self.uniform_mass
        entropy = float(-np.log(n_x * n_y) - 1.0)
        trace: list[float] = []
        converged = False
        spare = None
        for t in range(1, config.max_outer_iters + 1):
            alpha, H_alpha, plan, h_next = self.round(
                lam, beta, epsilon, h_paired, h, potentials, spare
            )
            if t == 1:
                trace.append(objective(H_alpha, h, alpha, entropy, lam, epsilon))
            trace.append(objective(H_alpha, h_next, alpha, plan_entropy(plan), lam, epsilon))
            # Two n_x x n_y buffers per fit: the solve forms the reward from
            # its factors in the new plan's buffer, and the old plan's buffer
            # takes the difference and is then the next solve's.  The
            # constant first plan has no buffer, so its difference is the
            # second one.
            spare = np.subtract(pi, plan.pi, out=None if t == 1 else pi)
            pi = plan.pi
            potentials = (plan.row_potential, plan.col_potential)
            h = h_next
            if float(np.linalg.norm(spare)) <= OUTER_TOL:
                converged = plan.converged
                break
        iter_s = time.perf_counter() - start

        model = RatioModel(self.basis, alpha)
        smi = _smi(model.alpha, H_alpha, self.K_all, self.L_all)
        timings = {
            "setup_seconds": self.setup_seconds,
            "iteration_seconds": iter_s,
            "per_iteration_seconds": iter_s / t,
        }
        return FitResult(model, plan, np.asarray(trace), t, converged, smi, timings)


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

