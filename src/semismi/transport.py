"""Entropic optimal-transport step: cost matrix and Sinkhorn scaling.

Given ratio weights alpha, the plan sub-problem is

    min_P  -(1 - beta) <P, C> + epsilon * sum_ij P_ij (log P_ij - 1)

over plans with uniform row marginals 1/n_x and column marginals 1/n_y.
Its unique optimum is a diagonal rescaling of exp((1 - beta) C / epsilon)
— note the positive exponent: the linear term is a reward, not a cost —
found by alternating row/column balancing.  The solver below keeps dual
potentials in log space and absorbs the running scaling factors into
them whenever one leaves [exp(-ABSORB_THRESHOLD), exp(ABSORB_THRESHOLD)]
(Schmitzer's stabilized scaling), so arbitrarily large cost magnitudes
cannot overflow while the hot loop stays two matrix-vector products per
sweep.  The plan's entropy follows from those potentials:
log pi_ij = phi_i + S_ij + psi_j, so no logarithm of the plan is taken.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .density_ratio import ratio_cross

__all__ = [
    "SinkhornParams",
    "TransportPlan",
    "uniform_plan",
    "cost_matrix",
    "sinkhorn_solve",
    "plan_entropy",
]

#: |log u| beyond which a scaling vector is absorbed into the potentials.
ABSORB_THRESHOLD = 33.0
_ABSORB_LOW = math.exp(-ABSORB_THRESHOLD)
_ABSORB_HIGH = math.exp(ABSORB_THRESHOLD)


@dataclass
class SinkhornParams:
    """Knobs of the inner scaling loop.

    The marginal tolerance is deliberately much tighter than anything
    asserted downstream: plan error feeds straight into the recorded
    objective values, and a loose inner solve (1e-9 and above) makes
    the outer trace wiggle at the same magnitude.  Warm starts keep the
    extra sweeps nearly free.
    """

    epsilon: float = 0.3
    max_inner_iters: int = 1000
    marginal_tol: float = 1e-11

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be >= 1")
        if not self.marginal_tol > 0.0:
            raise ValueError("marginal_tol must be positive")


@dataclass(eq=False)
class TransportPlan:
    """A coupling of the unpaired pools with uniform marginals.

    ``row_potential``/``col_potential`` are the scaled dual potentials
    (f/epsilon, g/epsilon); a later solve on a nearby cost matrix can
    warm-start from them.  ``entropy`` is sum_ij pi_ij (log pi_ij - 1)
    as recorded by the solver that built ``pi``; None means unknown, and
    :func:`plan_entropy` then sums it from the entries.
    """

    pi: np.ndarray
    row_potential: np.ndarray | None = None
    col_potential: np.ndarray | None = None
    converged: bool = True
    marginal_error: float = 0.0
    iterations: int = 0
    entropy: float | None = None

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        if self.pi.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {self.pi.shape}")

    @property
    def n_x(self) -> int:
        return self.pi.shape[0]

    @property
    def n_y(self) -> int:
        return self.pi.shape[1]


def uniform_plan(n_x: int, n_y: int) -> TransportPlan:
    """The independent coupling: every entry 1/(n_x * n_y)."""
    if n_x < 1 or n_y < 1:
        raise ValueError("plan dimensions must be >= 1")
    pi = np.full((n_x, n_y), 1.0 / (n_x * n_y))
    return TransportPlan(
        pi,
        row_potential=np.full(n_x, -np.log(n_x)),
        col_potential=np.full(n_y, -np.log(n_y)),
        entropy=float(-np.log(n_x * n_y) - 1.0),
    )


def cost_matrix(alpha, K_unpair, L_unpair) -> np.ndarray:
    """Reward matrix C[i, j] = r_alpha(x'_i, y'_j) on the unpaired pools.

    Identical formula to the cross-pair ratio values; materialized in
    O(b * n_x * n_y) from the factored kernel columns.  Finiteness is
    checked once, by :func:`sinkhorn_solve`.
    """
    return ratio_cross(alpha, K_unpair, L_unpair)


def plan_entropy(plan) -> float:
    """sum_ij pi_ij (log pi_ij - 1), with 0 log 0 taken as 0.

    A ``TransportPlan`` that carries its recorded entropy returns it;
    a bare matrix, or a plan built without one, is summed entry by entry.
    """
    if isinstance(plan, TransportPlan):
        if plan.entropy is not None:
            return plan.entropy
        plan = plan.pi
    pi = np.asarray(plan, dtype=float)
    return float(np.sum(xlogy(pi, pi)) - np.sum(pi))


def _logsumexp(X: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(X), axis)) shifted by the maximum; overwrites X.

    A slice that is all -inf gives -inf, as ``scipy.special.logsumexp``
    does, without its extra passes over the matrix.
    """
    shift = np.max(X, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    X -= shift
    np.exp(X, out=X)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(X, axis=axis)) + np.squeeze(shift, axis=axis)


# Extremes of the short vectors the sweep loop tests.  Indexing at
# argmax/argmin costs about half of a ufunc reduction at these lengths
# and, like it, returns NaN when one is present.
def _max(x: np.ndarray) -> float:
    return x[x.argmax()]


def _min(x: np.ndarray) -> float:
    return x[x.argmin()]


def _positive_finite(sums: np.ndarray) -> bool:
    return bool(0.0 < _min(sums) and _max(sums) < np.inf)


def sinkhorn_solve(
    cost,
    beta: float,
    params: SinkhornParams,
    init: TransportPlan | None = None,
) -> TransportPlan:
    """Balance exp((1 - beta) C / epsilon) to uniform marginals.

    Sweeps alternate exact row balancing with exact column balancing;
    the iteration stops once the marginal not currently enforced is
    violated by at most ``params.marginal_tol`` (so the returned plan
    meets both constraints to that tolerance).  Hitting the sweep cap
    first returns the current plan with ``converged=False`` and a
    warning rather than an error.

    ``init`` warm-starts the dual potentials from the ``TransportPlan``
    of a previous solve on a nearby cost matrix.  The kernel is then formed
    straight from them by the absorption formula; the log-domain pass
    runs only on a cold start, or when that kernel overflows or has an
    empty row or column.

    The returned plan records its entropy, computed from the potentials
    and the plan's actual row and column sums (exact also when the
    sweep cap was hit).
    """
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix has non-finite entries")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")

    n_x, n_y = C.shape
    if n_x == 1 or n_y == 1:
        # A single row (or column) is pinned by the marginals alone.
        return uniform_plan(n_x, n_y)

    a = 1.0 / n_x
    b = 1.0 / n_y
    tol = params.marginal_tol
    # S = scale * C is never stored: the log kernel, every rebuild of
    # the kernel and finally the plan are formed in the one buffer M.
    scale = (1.0 - beta) / params.epsilon
    M = np.empty_like(C)
    M_T = M.T

    def log_kernel(p, q):
        """M = p_i + S_ij + q_j; a None potential is left out."""
        np.multiply(C, scale, out=M)
        if p is not None:
            np.add(M, p[:, None], out=M)
        if q is not None:
            np.add(M, q[None, :], out=M)

    warm = init is not None and init.row_potential is not None and init.col_potential is not None
    if warm:
        phi = np.array(init.row_potential, dtype=float)
        psi = np.array(init.col_potential, dtype=float)
        if phi.shape != (n_x,) or psi.shape != (n_y,):
            raise ValueError("warm-start potentials do not match the cost shape")
    else:
        phi = np.zeros(n_x)
        psi = np.zeros(n_y)

    def rebuild():
        # One log-space sweep followed by kernel materialization; safe
        # for any potential/cost magnitudes.
        log_kernel(None, psi)
        p = -np.log(n_x) - _logsumexp(M, axis=1)
        log_kernel(p, None)
        q = -np.log(n_y) - _logsumexp(M, axis=0)
        log_kernel(p, q)
        np.exp(M, out=M)
        return p, q

    # The scalings share one buffer, so the absorption test is two
    # reductions; all ones, they also turn the products below into sums.
    uv = np.ones(n_x + n_y)
    u, v = uv[:n_x], uv[n_x:]
    if warm:
        # The absorbed kernel of the warm potentials is usable as it
        # stands unless they overflow it or leave a row or column empty.
        with np.errstate(over="ignore", invalid="ignore"):
            log_kernel(phi, psi)
            np.exp(M, out=M)
            warm = _positive_finite(M.dot(v)) and _positive_finite(M_T.dot(u))
    it = 0
    if not warm:
        phi, psi = rebuild()  # M: columns exactly balanced, one sweep
        it = 1
    dev = np.empty(n_y)
    converged = False
    err = np.inf
    while it < params.max_inner_iters:
        it += 1
        np.divide(a, M.dot(v), out=u)
        col_weights = M_T.dot(u)
        # violation of the column marginals before v rebalances them
        np.multiply(v, col_weights, out=dev)
        err = max(_max(dev) - b, b - _min(dev))
        if err <= tol:
            converged = True
            break
        if not err < np.inf:
            phi, psi = rebuild()
            uv.fill(1.0)
            continue
        np.divide(b, col_weights, out=v)
        if _max(uv) > _ABSORB_HIGH or _min(uv) < _ABSORB_LOW:
            phi += np.log(u)
            psi += np.log(v)
            log_kernel(phi, psi)
            np.exp(M, out=M)
            uv.fill(1.0)

    pi = M
    pi *= u[:, None]
    pi *= v
    phi += np.log(u)
    psi += np.log(v)
    # log pi_ij = phi_i + S_ij + psi_j, weighted by the plan's actual
    # row and column sums (products with ones: one streaming pass each)
    rows = pi.dot(np.ones(n_y))
    cols = pi.T.dot(np.ones(n_x))
    entropy = float(phi @ rows + psi @ cols + scale * np.vdot(pi, C) - rows.sum())
    if not converged:
        err = max(_max(np.abs(rows - a)), _max(np.abs(cols - b)))
        if err <= tol:
            converged = True
        else:
            warnings.warn(
                f"sinkhorn_solve hit the sweep cap ({params.max_inner_iters}) "
                f"with marginal violation {err:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
    return TransportPlan(pi, phi, psi, converged, float(err), it, entropy)
