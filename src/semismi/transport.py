"""Entropic optimal-transport step: Sinkhorn scaling on a factored reward.

Given ratio weights alpha, the plan sub-problem is

    min_P  -(1 - beta) <P, C> + epsilon * sum_ij P_ij (log P_ij - 1)

over plans with uniform row marginals 1/n_x and column marginals 1/n_y.
Its unique optimum is a diagonal rescaling of exp((1 - beta) C / epsilon)
— note the positive exponent: the linear term is a reward, not a cost —
found by alternating row/column balancing.  The reward has rank b,
C = (K * alpha)^T L, and the solver takes it as those factors: S =
(1 - beta) C / epsilon is written by one GEMM straight into the buffer
where the kernel G = exp(phi_i + S_ij + psi_j) and then the plan are
formed, so a solve holds one n_x x n_y array, and its temporaries are
b x n products, one at a time.  The plan's feature mass
m = rowsum((K pi) * L) gives <pi, C> = alpha^T m and the fit's linear
term alike.

A fit factors its unpaired feature blocks once (``_FeatureBlocks``):
K = P_K F_K and L = P_L F_L, each P orthonormal b x r and F = P^T K,
with every singular value at or below eps * sigma_1 dropped (eps =
2^-52), which is below the rounding already in the block.  Each solve
then forms S = F_K^T (P_K^T diag(scale alpha) P_L) F_L and
m = rowsum((P_K T) * P_L) with T = (F_K pi) F_L^T: the two GEMMs that
set a solve's fixed cost run at inner dimension r instead of b, about
a fifth of their plain cost at r = 25, b = 200, and the temporaries are
r x n.  One-coordinate pools give r of 21-25 at b = 200.  Blocks whose
ranks exceed ``FACTOR_MAX_RANK_SHARE`` times b keep the plain factors
and their arithmetic, to the bit; full-rank features, such as those of
32-d tables, are cheaper that way.  The sweeps, absorptions, checks and
stop rules below are one loop for both.

The solver keeps dual potentials in log space and absorbs the running
scaling factors into them whenever one leaves
[exp(-ABSORB_THRESHOLD), exp(ABSORB_THRESHOLD)] (Schmitzer's
stabilized scaling), so arbitrarily large cost magnitudes cannot
overflow while the hot loop stays two matrix-vector products per
sweep.  The start and every absorption form the kernel by the same
step.  Only when that kernel overflows or has an empty row or column
is S checked entry by entry, and one log-domain sweep forms the
kernel again.  The plan's entropy follows from those potentials:
log pi_ij = phi_i + S_ij + psi_j, so no logarithm of the plan is taken.

A solve ends in one of three ways: converged; at the sweep cap, with a
finite plan, a warning and its actual marginal violation; or with a
ValueError naming beta and epsilon, when S has non-finite entries, a
sweep's scalings leave the range of doubles, or a capped plan's
entropy or feature mass does.  None of them raises a numpy warning.

Slow solves switch to over-relaxed sweeps, u <- u^(1-w) (a / G v)^w and
likewise for v (Thibault, Chizat, Dossal and Papadakis, arXiv 1711.01851;
Lehmann, von Renesse, Sambale and Uschmajew, arXiv 2012.12562).  Every
solve starts with plain sweeps (w = 1).  Once the per-sweep shrink factor
rho of the column violation has settled above RELAX_RATE_FLOOR, the
solve relaxes with w = 2 / (1 + sqrt(1 - rho)), at most RELAX_OMEGA_CAP,
and falls back to plain sweeps if the violation grows past
RELAX_FALLBACK times its value at the switch.  Fast solves never switch,
so they run exactly the plain operations.  A relaxed solve ends with one
plain sweep, so its plan meets the rows exactly, as a plain solve's does
(unless it meets the tolerance on the last allowed sweep: its marginals
then decide ``converged``).  The plan is the sub-problem's unique
optimum either way; only the number of sweeps changes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density_ratio import ratio_cross, weighted_feature_sum

__all__ = [
    "TransportPlan",
    "cost_matrix",
    "sinkhorn_solve",
    "plan_entropy",
]

#: Sweeps after which a solve stops and reports ``converged=False``.
MAX_SWEEPS = 1000
#: Largest violation of either marginal that a solve accepts.  It is
#: deliberately much tighter than anything asserted downstream: plan
#: error feeds straight into the recorded objective values, and a loose
#: inner solve (1e-9 and above) makes the outer trace wiggle at the same
#: magnitude.  Warm starts keep the extra sweeps nearly free.
MARGINAL_TOL = 1e-11
#: |log u| beyond which a scaling vector is absorbed into the potentials.
ABSORB_THRESHOLD = 33.0
_ABSORB_LOW = math.exp(-ABSORB_THRESHOLD)
_ABSORB_HIGH = math.exp(ABSORB_THRESHOLD)
# Over-relaxation.  The figures below are sweep totals over 123 warm
# solves sampled from the cross-validation of two perfbench cv_estimate
# inputs (linear-1, random-4; 500 x 500), 3,357 at w = 1.
#: Per-sweep shrink factor of the column violation above which a solve
#: counts as slow and relaxes.  Floors of 0.5, 0.6 and 0.7 cut the
#: sweeps by 42%, 41% and 37%; 0.6 keeps every solve of perfbench's
#: large_fit and of ``semismi benchmark`` plain, where 0.5 relaxes two
#: of large_fit's 40 inputs.
RELAX_RATE_FLOOR = 0.6
#: Two consecutive shrink factors closer than this count as settled.
#: 0.005, 0.01, 0.02 and 0.05 cut the sweeps by 40%, 41%, 41% and 39%.
RELAX_SETTLED = 0.01
#: Plain sweeps that must still lie ahead at the settled rate for a
#: switch.  Without it, 3 of the 123 solves took one sweep more than
#: plain ones, relaxing just before they would have converged.
RELAX_MIN_LEFT = 3
#: Largest over-relaxation weight; the rate formula tends to 2, where
#: the relaxed iteration stops converging.  On a 60 x 50 Gaussian
#: reward at epsilon 0.03 (922 plain sweeps), caps of 1.6, 1.8 and 1.9
#: took 223, 114 and 276 sweeps.
RELAX_OMEGA_CAP = 1.8
#: Relaxing stops, and the rate is measured afresh, once the violation
#: exceeds its value at the switch by this factor.  On that reward a
#: factor of 2 took 302 sweeps, 10 and 100 took 114 and 117.
RELAX_FALLBACK = 10.0
#: A block's singular values at or below this times its largest are
#: dropped from its factors (the machine epsilon of doubles, 2^-52).
RANK_EPS = float(np.finfo(float).eps)
#: A pair of feature blocks is factored when both numerical ranks are at
#: most this share of b.  Timed warm on 2 cores (numpy 2.4.6 with
#: OpenBLAS 0.3.31) at b = 200, the S GEMM plus the mass GEMM at rank r
#: cost 0.22, 0.39, 0.55, 0.73, 0.93 and 1.15 times the plain pair's at
#: 500^2 for r = 25, 50, 75, 100, 125 and 150, and 0.19, 0.32, 0.43,
#: 0.57, 0.69 and 0.84 at 2000^2; a fit also pays the factorization once.
FACTOR_MAX_RANK_SHARE = 0.5


def _gram_rank(B: np.ndarray) -> int:
    """The eigenvalues of B B^T above n * ``RANK_EPS`` times the largest.

    Rounding in the Gram is of that order, so these directions have
    singular values near or above sqrt(n eps) sigma_1, far above the
    cut at eps * sigma_1: a count above ``FACTOR_MAX_RANK_SHARE`` times b
    settles the rank test in about 2 ms, where the QR and SVD take 14 at
    n = 1000.  A wrong count costs only speed, since the plain
    arithmetic is exact either way.
    """
    w = np.linalg.eigvalsh(B @ B.T)
    return int(np.count_nonzero(w > B.shape[1] * RANK_EPS * w[-1]))


def _range_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal b x r basis of the columns of B, its left singular
    vectors whose singular values exceed ``RANK_EPS`` times the largest.

    From the R of a QR of B^T (B = R^T Q^T, so B's left singular vectors
    are R's right ones) and an SVD of that small R.
    """
    R = np.linalg.qr(B.T, mode="r")
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_EPS * s[0]))
    return np.ascontiguousarray(Vt[:rank].T)


class _FeatureBlocks:
    """The unpaired feature blocks K (b x n_x) and L (b x n_y) of the reward
    C = (K * alpha)^T L, and how every solve on them forms S and the
    feature mass: plainly at inner dimension b, or, once
    :meth:`factored` has factored both blocks, at their numerical ranks
    (see the module docstring).
    """

    def __init__(self, K: np.ndarray, L: np.ndarray, factors=None):
        self.K, self.L = K, L
        #: (P_K, F_K, P_L, F_L), or None for the plain blocks.
        self.factors = factors

    @classmethod
    def factored(cls, K: np.ndarray, L: np.ndarray) -> _FeatureBlocks:
        """The blocks, factored when both numerical ranks are at most
        ``FACTOR_MAX_RANK_SHARE`` times b; plain (the rank-b arithmetic,
        to the bit) otherwise."""
        limit = FACTOR_MAX_RANK_SHARE * K.shape[0]
        if _gram_rank(K) > limit or _gram_rank(L) > limit:
            return cls(K, L)
        P_K, P_L = _range_basis(K), _range_basis(L)
        if max(P_K.shape[1], P_L.shape[1]) > limit:
            return cls(K, L)
        return cls(K, L, (P_K, P_K.T @ K, P_L, P_L.T @ L))

    def scaled_reward(self, scaled_alpha: np.ndarray, out: np.ndarray) -> None:
        """Write S = (K * scaled_alpha)^T L into ``out``."""
        if self.factors is None:
            np.matmul((self.K * scaled_alpha[:, None]).T, self.L, out=out)
            return
        P_K, F_K, P_L, F_L = self.factors
        W = (P_K.T * scaled_alpha) @ P_L
        np.matmul(F_K.T @ W, F_L, out=out)

    def feature_mass(self, pi: np.ndarray) -> np.ndarray:
        """m = sum_ij pi_ij K[:, i] * L[:, j]."""
        if self.factors is None:
            return weighted_feature_sum(self.K, self.L, pi)
        P_K, F_K, P_L, F_L = self.factors
        T = (F_K @ pi) @ F_L.T
        return np.sum((P_K @ T) * P_L, axis=1)


@dataclass(eq=False)
class TransportPlan:
    """A coupling of the unpaired pools with uniform marginals, as a
    :func:`sinkhorn_solve` returns it.

    ``row_potential``/``col_potential`` are the scaled dual potentials
    (f/epsilon, g/epsilon); the next solve on a nearby reward starts
    from them.  ``entropy`` is sum_ij pi_ij (log pi_ij - 1).
    ``converged``, ``marginal_error`` and ``iterations`` report the
    solve.  ``feature_mass`` is sum_ij pi_ij K[:, i] * L[:, j] for the
    reward factors K, L the plan was solved on (see
    :func:`~semismi.density_ratio.weighted_feature_sum`; to rounding on
    factored blocks); ``fit`` builds its linear term from it.
    """

    pi: np.ndarray
    row_potential: np.ndarray
    col_potential: np.ndarray
    entropy: float
    converged: bool
    marginal_error: float
    iterations: int
    feature_mass: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        if self.pi.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {self.pi.shape}")


def cost_matrix(alpha, K_unpair, L_unpair) -> np.ndarray:
    """Reward matrix C[i, j] = r_alpha(x'_i, y'_j) on the unpaired pools.

    Identical formula to the cross-pair ratio values; materialized in
    O(b * n_x * n_y) from the factored kernel columns.  ``fit`` does not
    form it: it passes the factors (K_unpair, alpha, L_unpair) to
    :func:`sinkhorn_solve`, which also checks finiteness.
    """
    return ratio_cross(alpha, K_unpair, L_unpair)


def plan_entropy(plan: TransportPlan) -> float:
    """sum_ij pi_ij (log pi_ij - 1), as the plan recorded it."""
    return plan.entropy


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
    reward, beta: float, epsilon: float, potentials, out: np.ndarray | None = None
) -> TransportPlan:
    """Balance exp((1 - beta) C / epsilon) to uniform marginals.

    ``reward`` is the factor triple (K, alpha, L) of C = (K * alpha)^T L,
    with K of shape (b, n_x), alpha (b,) and L (b, n_y), or the pair
    (blocks, alpha) with K and L as the ``_FeatureBlocks`` a fit builds
    once, which form S and the feature mass at the blocks' numerical
    rank (see the module docstring); C itself is never formed.  A triple
    takes the plain arithmetic: the factors (I, 1, C) of a dense
    n_x x n_y matrix C give scale * C to the bit.

    Sweeps alternate exact row balancing with exact column balancing;
    the iteration stops once the marginal not currently enforced is
    violated by at most ``MARGINAL_TOL`` (so the returned plan meets
    both constraints to that tolerance).  A slow solve over-relaxes both
    half-steps (see the module docstring) and ends with one plain sweep,
    unless it meets the tolerance on the last allowed sweep; its plan's
    own marginals then decide ``converged``.  Hitting the sweep cap
    ``MAX_SWEEPS`` first returns the current plan with
    ``converged=False``, its actual marginal violation in
    ``marginal_error`` and a warning rather than an error, unless that
    plan's entropy or feature mass is not finite; that, or a sweep whose
    scalings leave the range of doubles, raises a ``ValueError`` naming
    beta and epsilon, without a numpy warning.  Both constants are read
    at each call.  ``epsilon`` is checked by ``EstimatorConfig``, not here.

    The dual potentials start from ``potentials``, a (row, column)
    pair: a previous solve's on a nearby reward, or the independent
    coupling's (-log n_x, -log n_y), where ``fit`` starts.

    The plan is formed in ``out``, a C-contiguous float n_x x n_y
    buffer whose contents are ignored, or in a new array when it is
    None.  ``fit`` passes the plan of two solves back, so a fit touches
    two plan-sized buffers instead of a fresh one per solve, which the
    allocator may return to the system and fault in again each time.
    The kernel exp(phi_i + S_ij + psi_j) is formed in the plan's buffer
    by one GEMM of the factors plus the potentials, at the start and at
    every absorption alike.  Only when it overflows or has an empty row
    or column is S formed alone and checked entry by entry; the
    log-domain pass then forms the kernel again, as one sweep.  Beside
    the plan, a solve holds at most one b x n product at a time:
    K * scale * alpha for each GEMM, and K pi for the feature mass (r x n
    or n x r on factored blocks).  A NaN or +inf in S, or a row or
    column of S that is all -inf, is an error (a ``ValueError`` naming
    beta and epsilon): each makes the
    kernel unusable, so the check always sees it.  An isolated -inf
    entry is allowed; its kernel and plan entry are exactly 0 on either
    path.

    The returned plan records its entropy, computed from the potentials
    and the plan's actual row and column sums (exact also when the
    sweep cap was hit), and its ``feature_mass`` m, from which
    <pi, C> = alpha^T m.
    """
    if len(reward) == 2:
        blocks, alpha = reward
        K, L = blocks.K, blocks.L
    else:
        K, alpha, L = (np.asarray(f, dtype=float) for f in reward)
        blocks = _FeatureBlocks(K, L)
    alpha = np.asarray(alpha, dtype=float)
    shaped = K.ndim == L.ndim == 2 and alpha.shape == (K.shape[0],) == L.shape[:1]
    if not shaped or 0 in (K.shape[1], L.shape[1]):
        raise ValueError(
            f"reward factors must have shapes (b, n_x), (b,), (b, n_y) with n_x, n_y >= 1; "
            f"got {K.shape}, {alpha.shape}, {L.shape}"
        )
    n_x, n_y = K.shape[1], L.shape[1]
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    phi, psi = (np.array(p, dtype=float) for p in potentials)
    if phi.shape != (n_x,) or psi.shape != (n_y,):
        raise ValueError("starting potentials do not match the cost shape")

    # S = scale * C is never stored on its own: it is formed by one GEMM
    # of the factors in the buffer M, where every kernel and finally the
    # plan are formed too.  Non-finite factors, or a product that
    # overflows, leave a non-finite entry in S.
    scale = (1.0 - beta) / epsilon
    with np.errstate(over="ignore", invalid="ignore"):
        scaled_alpha = scale * alpha
    if out is None:
        M = np.empty((n_x, n_y))
    elif out.shape != (n_x, n_y) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape {(n_x, n_y)}, got "
            f"{out.dtype} {out.shape}"
        )
    else:
        M = out
    M_T = M.T

    def log_kernel(p, q):
        """M = p_i + S_ij + q_j; a None potential is left out.

        The n x b or n x r product beside the factors lives only for the GEMM.
        """
        blocks.scaled_reward(scaled_alpha, M)
        if p is not None:
            np.add(M, p[:, None], out=M)
        if q is not None:
            np.add(M, q[None, :], out=M)

    a = 1.0 / n_x
    b = 1.0 / n_y
    tol = MARGINAL_TOL

    # The scalings share one buffer, so the absorption test is two
    # reductions; all ones, they also turn the products below into sums.
    uv = np.ones(n_x + n_y)
    u, v = uv[:n_x], uv[n_x:]

    def absorbed_kernel():
        """u = v = 1 and M = exp(phi + S + psi); returns M v and the sweeps taken.

        That kernel is usable as it stands unless the potentials overflow
        it or leave a row or column empty; its row sums are the next
        sweep's M v.  Otherwise S alone is checked, and one log-space sweep,
        safe at any magnitude, sets the potentials and forms the kernel.
        """
        uv.fill(1.0)
        log_kernel(phi, psi)
        np.exp(M, out=M)
        Kv = M.dot(v)
        if _positive_finite(Kv) and _positive_finite(M_T.dot(u)):
            return Kv, 0
        # Row and column maxima are finite exactly when S has no NaN or
        # +inf and no row or column that is all -inf.
        log_kernel(None, None)
        if not (np.isfinite(M.max(axis=1)).all() and np.isfinite(M.max(axis=0)).all()):
            raise ValueError(
                f"scaled reward (1 - beta) C / epsilon has non-finite entries "
                f"(beta={beta!r}, epsilon={epsilon!r})"
            )
        log_kernel(None, psi)
        phi[:] = -np.log(n_x) - _logsumexp(M, axis=1)
        log_kernel(phi, None)
        psi[:] = -np.log(n_y) - _logsumexp(M, axis=0)
        log_kernel(phi, psi)
        np.exp(M, out=M)
        return M.dot(v), 1

    dev = np.empty(n_y)
    row_step = np.empty(n_x)
    converged = False
    # omega > 1 while relaxing; may_relax turns False once a relaxed run
    # has met the column tolerance, so the solve ends with a plain sweep.
    omega = 1.0
    may_relax = True
    last_err = last_ratio = err_at_switch = np.inf
    # One errstate per solve: the kernel step, the sweep test and the check
    # of a capped plan below handle overflow.
    with np.errstate(all="ignore"):
        Kv, it = absorbed_kernel()
        while it < MAX_SWEEPS:
            it += 1
            if omega == 1.0:
                np.divide(a, Kv, out=u)
            else:
                # u <- u (a / rowsum)^omega = u^(1 - omega) (a / Kv)^omega
                np.multiply(u, Kv, out=row_step)
                np.divide(a, row_step, out=row_step)
                u *= np.power(row_step, omega, out=row_step)
            col_weights = M_T.dot(u)
            # violation of the column marginals before v rebalances them
            np.multiply(v, col_weights, out=dev)
            err = max(_max(dev) - b, b - _min(dev))
            if err <= tol and omega != 1.0:
                # A relaxed u leaves the rows inexact and the total mass off
                # by up to n_x * tol, which moves the recorded objective by
                # more than its monotonicity allows.  End on a plain sweep:
                # rows exact (M v is current), then the column test.
                omega = 1.0
                may_relax = False
                continue
            if err <= tol:
                converged = True
                break
            if not err < np.inf:
                raise ValueError(
                    f"Sinkhorn scalings left the range of doubles at sweep {it} "
                    f"(beta={beta!r}, epsilon={epsilon!r})"
                )
            if omega == 1.0:
                if may_relax:
                    ratio = err / last_err
                    if (
                        RELAX_RATE_FLOOR < ratio < 1.0
                        and abs(ratio - last_ratio) < RELAX_SETTLED
                        and err * ratio**RELAX_MIN_LEFT > tol
                    ):
                        omega = min(2.0 / (1.0 + math.sqrt(1.0 - ratio)), RELAX_OMEGA_CAP)
                        err_at_switch = err
                    last_ratio = ratio
                    last_err = err
            elif err > RELAX_FALLBACK * err_at_switch:
                omega = 1.0
                last_err = last_ratio = np.inf
            if omega == 1.0:
                np.divide(b, col_weights, out=v)
            else:
                # dev holds the column sums, so likewise v <- v (b / colsum)^omega
                np.divide(b, dev, out=dev)
                v *= np.power(dev, omega, out=dev)
            if _max(uv) > _ABSORB_HIGH or _min(uv) < _ABSORB_LOW:
                phi += np.log(u)
                psi += np.log(v)
                Kv, rebuilt = absorbed_kernel()
                it += rebuilt
            else:
                Kv = M.dot(v)

        pi = M
        pi *= u[:, None]
        pi *= v
        phi += np.log(u)
        psi += np.log(v)
        # log pi_ij = phi_i + S_ij + psi_j, weighted by the plan's actual
        # row and column sums (products with ones: one streaming pass each);
        # <pi, S> = scale * alpha^T m
        rows = pi.dot(np.ones(n_y))
        cols = pi.T.dot(np.ones(n_x))
        mass = blocks.feature_mass(pi)
        entropy = float(phi @ rows + psi @ cols + scale * (alpha @ mass) - rows.sum())
    if not converged:
        if not (math.isfinite(entropy) and np.isfinite(mass).all()):
            raise ValueError(
                f"Sinkhorn plan left the range of doubles at the sweep cap ({MAX_SWEEPS}) "
                f"(beta={beta!r}, epsilon={epsilon!r})"
            )
        err = max(_max(np.abs(rows - a)), _max(np.abs(cols - b)))
        if err <= tol:
            converged = True
        else:
            warnings.warn(
                f"sinkhorn_solve hit the sweep cap ({MAX_SWEEPS}) "
                f"with marginal violation {err:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
    return TransportPlan(pi, phi, psi, entropy, converged, float(err), it, mass)
