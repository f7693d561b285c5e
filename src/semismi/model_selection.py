"""Hyperparameter selection by a single hold-out split.

The ridge weight and the paired/unpaired mixing weight are the two
knobs the estimator is sensitive to.  ``cross_validate`` scans the
fixed grid ``LAMBDAS`` x ``BETAS``: each grid point refits on the
training half of the paired samples (keeping every unpaired sample)
and is scored by the hold-out quadratic risk of the fitted ratio, which
is minimized by the true density ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .density_ratio import RatioModel, quadratic_term, ratio_pairs
from .estimator import EstimatorConfig, SampleSet, fit
from .kernels import as_points, feature_columns, sample_basis

__all__ = ["CvGrid", "CvReport", "holdout_error", "cross_validate", "select_best"]

#: Ridge weights cross_validate scans.
LAMBDAS = (0.1, 0.01, 0.001, 0.0001)
#: Paired/unpaired mixing weights cross_validate scans for each ridge weight.
BETAS = (0.2, 0.4, 0.6, 0.8, 1.0)
#: Share of the paired samples cross_validate holds out for scoring.
HOLDOUT_FRACTION = 0.5
#: Fewest paired samples cross_validate accepts: two held out, two to train.
MIN_PAIRS = 4


@dataclass(frozen=True)
class CvGrid:
    """Split seed for cross_validate; the grid is ``LAMBDAS`` x ``BETAS``."""

    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class CvReport:
    scores: dict
    best_lambda: float
    best_beta: float


def holdout_error(model: RatioModel, test_x, test_y) -> float:
    """Quadratic risk of the ratio on held-out pairs.

    (1/2m^2) sum over all m^2 cross combinations of r^2, minus the mean
    of r over the m true pairs.  The cross sum collapses through the
    factored features (same identity as the quadratic term), so large
    hold-out sets cost O(b^2 m), not O(m^2).
    """
    test_x = as_points(test_x, "test_x")
    test_y = as_points(test_y, "test_y")
    m = test_x.shape[0]
    if test_y.shape[0] != m:
        raise ValueError("test_x and test_y must have equal length")
    if m < 2:
        raise ValueError("need at least 2 held-out pairs")
    K, L = feature_columns(model.basis, test_x, test_y)
    H_te = quadratic_term(K, L)
    alpha = model.alpha
    return float(0.5 * (alpha @ (H_te @ alpha)) - np.mean(ratio_pairs(alpha, K, L)))


def select_best(scores: dict) -> tuple[float, float]:
    """Grid point with the smallest score; ties go to the larger lambda,
    then the larger beta (the more regularized, more paired-anchored fit)."""
    return min(scores, key=lambda lb: (scores[lb], -lb[0], -lb[1]))


def cross_validate(data: SampleSet, config: EstimatorConfig, grid: CvGrid) -> CvReport:
    """Score every (lambda, beta) of ``LAMBDAS`` x ``BETAS`` on one
    seeded hold-out split.

    The paired samples are shuffled once and split by
    ``HOLDOUT_FRACTION``; all unpaired samples stay in every
    training set.  The kernel basis and bandwidths are sampled once
    from the full pools before the loop, so scores differ only through
    (lambda, beta).  The grid is read at each call, lambda in the outer
    loop, so ``scores`` keeps that order.
    """
    n = data.n
    if n < MIN_PAIRS:
        raise ValueError(f"insufficient paired samples for CV (need >= {MIN_PAIRS})")
    rng = np.random.default_rng(grid.seed)
    perm = rng.permutation(n)
    n_te = int(round(n * HOLDOUT_FRACTION))
    n_te = min(max(n_te, 2), n - 2)
    test_idx, train_idx = perm[:n_te], perm[n_te:]

    basis = sample_basis(data.pooled_x, data.pooled_y, config.n_basis, config.seed)
    train = SampleSet(
        data.paired_x[train_idx],
        data.paired_y[train_idx],
        data.unpaired_x,
        data.unpaired_y,
    )
    test_x = data.paired_x[test_idx]
    test_y = data.paired_y[test_idx]

    scores = {}
    for lam in LAMBDAS:
        for beta in BETAS:
            result = fit(train, replace(config, lam=lam, beta=beta), basis=basis)
            scores[(lam, beta)] = holdout_error(result.model, test_x, test_y)
    best_lambda, best_beta = select_best(scores)
    return CvReport(scores, best_lambda, best_beta)
