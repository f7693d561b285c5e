"""Closed-form ridge fitting of the joint density ratio.

The model is r(x, y) = sum_l alpha_l K(x_l, x) L(y_l, y): a linear
combination of separable Gaussian features.  For a fixed transport plan
the weights minimize a quadratic, so they come from one symmetric
positive-definite solve; no iterative optimizer is involved.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .kernels import BasisSet, feature_columns

__all__ = [
    "RatioModel",
    "quadratic_term",
    "paired_linear_term",
    "weighted_feature_sum",
    "mixed_linear_term",
    "RidgeSystem",
    "solve_alpha",
    "ratio_pairs",
    "ratio_cross",
]

#: Relative residual accepted from the linear solver before the jitter retry.
SOLVE_RTOL = 1e-8

#: Scale of the trace-proportional jitter added on a failed first solve.
JITTER_SCALE = 1e-10


@dataclass
class RatioModel:
    """Fitted ratio model: a basis and its weight vector."""

    basis: BasisSet
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()
        if self.alpha.shape[0] != self.basis.b:
            raise ValueError(
                f"alpha has length {self.alpha.shape[0]}, basis has {self.basis.b}"
            )

    def pairs(self, xs, ys) -> np.ndarray:
        """Ratio values r(xs_i, ys_i) on aligned samples."""
        K, L = feature_columns(self.basis, xs, ys)
        return ratio_pairs(self.alpha, K, L)

    def cross(self, xs, ys) -> np.ndarray:
        """Full matrix of ratio values r(xs_i, ys_j)."""
        K, L = feature_columns(self.basis, xs, ys)
        return ratio_cross(self.alpha, K, L)


def quadratic_term(K_all: np.ndarray, L_all: np.ndarray) -> np.ndarray:
    """Quadratic coefficient H of the ridge objective.

    H averages phi(x, y) phi(x, y)^T over every cross pair of the
    columns of K_all with the columns of L_all, where phi is the
    elementwise product of a K column and an L column.  Because the
    features factorize, the double sum over pairs collapses to

        H = (K_all K_all^T) * (L_all L_all^T) / (N_x * N_y)

    with * elementwise — two rank-b Gram products instead of an
    N_x * N_y loop.
    """
    K_all = np.asarray(K_all, dtype=float)
    L_all = np.asarray(L_all, dtype=float)
    if K_all.shape[0] != L_all.shape[0]:
        raise ValueError("K_all and L_all must have the same number of basis rows")
    n_x = K_all.shape[1]
    n_y = L_all.shape[1]
    if n_x == 0 or n_y == 0:
        raise ValueError("quadratic term needs at least one sample per side")
    return (K_all @ K_all.T) * (L_all @ L_all.T) / float(n_x * n_y)


def paired_linear_term(K_pair: np.ndarray, L_pair: np.ndarray, beta: float):
    """Paired part of h: (beta / n) sum_i phi(x_i, y_i), or 0.0 at beta = 0."""
    K_pair = np.asarray(K_pair, dtype=float)
    L_pair = np.asarray(L_pair, dtype=float)
    n = K_pair.shape[1]
    if L_pair.shape != K_pair.shape[:1] + (n,):
        raise ValueError("paired feature blocks must share shape (b, n)")
    if beta == 0.0:
        return 0.0
    if n == 0:
        raise ValueError("beta > 0 requires at least one paired sample")
    return (beta / n) * np.einsum("bi,bi->b", K_pair, L_pair)


def weighted_feature_sum(K_unpair: np.ndarray, L_unpair: np.ndarray, plan: np.ndarray):
    """Plan-weighted feature mass m = sum_ij plan_ij K[:, i] * L[:, j].

    Evaluated without materializing the b x n_x x n_y tensor:
    m = rowsum((K @ plan) * L), multiplied in place, so the only
    temporary is one b x n_y product.  The unpaired part of h is
    (1 - beta) m, and alpha^T m = <plan, C> for the reward matrix of
    alpha.
    """
    mass = K_unpair @ plan
    mass *= L_unpair
    return np.sum(mass, axis=1)


def mixed_linear_term(
    K_pair: np.ndarray,
    L_pair: np.ndarray,
    K_unpair: np.ndarray,
    L_unpair: np.ndarray,
    plan: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Linear coefficient h: paired-sample mean blended with the plan.

    h = :func:`paired_linear_term` + (1 - beta) :func:`weighted_feature_sum`:
    the paired part averages phi over the n labelled couples, the
    unpaired part takes the plan-weighted sum of phi over all n_x * n_y
    candidate couples.

    Either side may be absent (beta = 1 skips the plan, n = 0 with
    beta = 0 skips the pairs); at least one must contribute.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    h = paired_linear_term(K_pair, L_pair, beta)
    if beta < 1.0:
        K_unpair = np.asarray(K_unpair, dtype=float)
        L_unpair = np.asarray(L_unpair, dtype=float)
        plan = np.asarray(plan, dtype=float)
        if plan.shape != (K_unpair.shape[1], L_unpair.shape[1]):
            raise ValueError(
                f"plan shape {plan.shape} does not match unpaired features "
                f"({K_unpair.shape[1]}, {L_unpair.shape[1]})"
            )
        h = h + (1.0 - beta) * weighted_feature_sum(K_unpair, L_unpair, plan)
    return h


class RidgeSystem:
    """The ridge system H + lam I, eigendecomposed once for many right-hand sides.

    H = Q diag(w) Q^T is computed once and each :meth:`solve` is
    alpha = Q ((Q^T h) / (w + ridge)).  Only the shift w + ridge depends
    on lam, so one decomposition serves every lam: a fit solves against
    a new h each round, and cross-validation's grid fits share the one
    decomposition of their H across every lam of the grid.  A ridge is
    usable only if every w + ridge is positive, as a Cholesky factor of
    H + ridge I requires.  A non-finite alpha or a relative residual
    above ``SOLVE_RTOL`` falls back to the ridge plus a tiny
    trace-proportional jitter; failing that the solve raises, since a
    larger ``lam`` is then the correct fix.

    numpy decomposes, not scipy, so a fit loads only numpy's OpenBLAS
    (``kernels`` forms its distances with numpy too).  scipy bundles a
    second OpenBLAS whose thread pool stalls numpy's at every switch.
    On 2 cores (numpy 2.4.6 with OpenBLAS 0.3.31, scipy 1.17.1 with
    OpenBLAS 0.3.30, default threads) a 200 x 200 scipy ``cho_factor``
    after a numpy product took 2.0 ms (median; up to 114 ms) and made
    the next product 4.8 ms instead of 1.2 ms; numpy's ``eigh`` took
    4.4 ms (at most 10 ms), and one decomposition serves the jittered
    ridge too.  Six tuned estimates on 500 x 500 pools took 31.6 s with
    scipy's factor and 18.8 s with this one.
    """

    def __init__(self, H: np.ndarray, lam: float):
        H = np.asarray(H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be a square matrix, got shape {H.shape}")
        if not 0.0 <= lam < np.inf:
            raise ValueError(f"ridge penalty lam must be non-negative and finite, got {lam}")
        if not np.isfinite(H).all():
            raise ValueError("H has non-finite entries")
        self.H = H
        self.b = H.shape[0]
        # The jitter depends on H alone, so it is the same for every lam.
        self._jitter = JITTER_SCALE * float(np.trace(H)) / max(self.b, 1)
        self._w, self._Q = np.linalg.eigh(H)
        self._shifted = self._ridges(lam)

    def _ridges(self, lam: float) -> list:
        """(ridge, w + ridge) per usable ridge at ``lam``, in the order solve tries them."""
        lam = float(lam)
        return [
            (ridge, self._w + ridge)
            for ridge in (lam, lam + self._jitter)
            if (self._w + ridge > 0.0).all()
        ]

    def _with_lam(self, lam: float) -> RidgeSystem:
        """H + lam I on this decomposition, without a new ``eigh``; ``lam``
        is a checked ``EstimatorConfig.lam``."""
        system = copy.copy(self)
        system._shifted = self._ridges(lam)
        return system

    def solve(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """alpha = (H + lam I)^{-1} h, retried once with jitter as described above.

        Returns (alpha, H alpha): the residual check forms the product,
        and the fit's objective and SMI use it again.
        """
        h = np.asarray(h, dtype=float).ravel()
        if h.shape[0] != self.b:
            raise ValueError(f"h has length {h.shape[0]}, expected {self.b}")
        if not np.isfinite(h).all():
            raise ValueError("h has non-finite entries")
        h_norm = float(np.linalg.norm(h))
        if h_norm == 0.0:
            return np.zeros(self.b), np.zeros(self.b)
        tol = SOLVE_RTOL * h_norm
        coef = self._Q.T @ h
        for ridge, shifted in self._shifted:
            alpha = self._Q @ (coef / shifted)
            if not np.isfinite(alpha).all():
                continue
            H_alpha = self.H @ alpha
            if float(np.linalg.norm(H_alpha + ridge * alpha - h)) <= tol:
                return alpha, H_alpha
        raise np.linalg.LinAlgError(
            "ridge system remained singular after jitter; increase lam"
        )


def solve_alpha(H: np.ndarray, h: np.ndarray, lam: float) -> np.ndarray:
    """Ridge weights alpha = (H + lam I)^{-1} h for positive-definite H + lam I.

    Solves the regularized normal equations through the eigendecomposition
    of H, with the checks and jitter retry of :class:`RidgeSystem`.
    Callers that solve against many h for one H (the alternating fit)
    should build a :class:`RidgeSystem` once instead.
    """
    return RidgeSystem(H, lam).solve(h)[0]


def ratio_pairs(alpha: np.ndarray, K: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Ratio values on aligned columns: r_i = sum_l alpha_l K[l, i] L[l, i]."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    return alpha @ (np.asarray(K, dtype=float) * np.asarray(L, dtype=float))


def ratio_cross(alpha: np.ndarray, K: np.ndarray, L: np.ndarray) -> np.ndarray:
    """All cross ratios: R[i, j] = sum_l alpha_l K[l, i] L[l, j]."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)
    return (K * alpha[:, None]).T @ L
