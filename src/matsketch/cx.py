"""Column selection: oversampled CX, exactly-k subset selection, and
interpolative decomposition, each packaged with its certified bound.

Every routine returns a CxResult holding the sampling plan, the selected
(and possibly rescaled) columns C, the measured rank-k reconstruction
errors, and the bound the construction certifies. Frobenius errors are
exact optima over span(C); spectral errors use the same restricted
factorization, which is within sqrt(2) of the spectral optimum, and the
per-instance spectral bounds already include that factor.

Selection and certification are apart: each mode picks its columns and
names its bound constant; `_certify` reads the baseline, scales it by the
constant, and measures both errors. Each entry takes A or a
linalg.ColumnProblem of it, which forms what the bounds read of A once:
S = A / 2^e, its Gram matrix G and, per k, the top-k subspace Z, the
residual E = A - A Z Z^T and the baselines ||E||_2 and ||E||_F, not a
full SVD. For any orthonormal Z these are never below sigma_{k+1} or
||A - A_k||_F, the structural lemma of Boutsidis-Drineas-Magdon-Ismail
holds for that E, and they read 0.0 on input of rank <= k.
Deterministic cx_spectral starts from Z too: when m >= n and the Gram
eigenvalues of E show rank(A) = n, it walks Z against the complement of
Z, with baseline ||E||_2 (_full_rank_split). Only when rank(A) = n cannot
be established (rank < n, wide A, zero or duplicate columns, rank exactly
k) does it factor A in full, for V[:, k:] and rank(A). Every bound is
homogeneous in A, so selection and certification see only S; _certify
alone scales numbers back, so nothing overflows or underflows and 2^j A
gives 2^j times the numbers of A. Both errors, and a spectral baseline,
come from G = S^T S, not from an m x n residual: R^T R = S^T S -
B_k^T B_k for B_k = (Q^T S)_k, so each plan costs a rank-k update of a
copy of G. The spectral error is the square root of a certified upper
end of lambda_max (Lanczos, then a Cholesky factorization that proves
the bound; linalg._lambda_max_upper), at most 1e-10 relative above the
SVD value of the formed residual. A wide A, cancellation (input of rank
<= k) or a failed ARPACK or Cholesky call falls back to forming R and
taking its top Gram eigenvalue alone (LAPACK dsyevr).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .approx_svd import fast_frobenius_svd, fast_spectral_svd
from .errors import ArgumentError
from .linalg import (ColumnProblem, SamplingPlan, _gram_eigenvalues,
                     _gram_residual_norms, _norms, _plan_columns,
                     _pow2_unscaled, _rank_svd, _residual, _subspace_factors,
                     apply_plan_rows, rank_cutoff)
from .samplers import (_barrier_complement, adaptive_sampling,
                       barrier_dual_frobenius, barrier_dual_spectral,
                       barrier_single, rrqr_select, subspace_sampling)


@dataclass(frozen=True)
class CxResult:
    plan: SamplingPlan
    C: np.ndarray
    rank_k_error_spectral: float
    rank_k_error_frobenius: float
    bound_value: float
    baseline_sigma: float
    norm: str
    bound_formula: str


def _certify(p, k, plan, norm, const, formula, baseline=None):
    """Measure the plan's rank-k errors on the ColumnProblem p and certify
    const * baseline, the baseline (sigma_{k+1} or ||A - A_k||_F, by norm)
    read from p when the caller holds none.

    A given baseline is in the units of S = A / 2^e, as is the fit, and
    the numbers are scaled back here. Where m >= n, both errors come from
    p.gram = S^T S: linalg._gram_residual_norms updates a copy of it by
    the rank-k fit and certifies an upper end of the spectral error.
    Where it does not (A wider than tall, a certificate margin above 1e-10
    relative, as on input of rank <= k, or an ARPACK or Cholesky failure),
    R = S - Q (Q^T S)_k is formed in the buffer of the product and one
    rescaled copy of R gives both norms."""
    baseline = p.baseline(k, norm) if baseline is None else baseline
    S = p.S
    Q, W, Vt, s = _subspace_factors(S, _plan_columns(S, plan), k)
    errors = None
    if S.shape[0] >= S.shape[1] and s.size:
        errors = _gram_residual_norms(p.gram, S.shape[0], s, Vt)
    if errors is None:
        R = Q @ W @ Vt
        errors = _norms(np.subtract(S, R, out=R))
    spectral, frobenius, baseline = (_pow2_unscaled(x, p.e)
                                     for x in (*errors, baseline))
    return CxResult(plan=plan, C=_plan_columns(p.A, plan),
                    rank_k_error_spectral=spectral,
                    rank_k_error_frobenius=frobenius,
                    bound_value=float(const * baseline),
                    baseline_sigma=baseline, norm=norm,
                    bound_formula=formula)


# rank(A) = n is trusted when A's smallest singular value off its top-k
# subspace exceeds this fraction of sigma_1: the squared ratio 1e-6 stays
# far above the Gram matrix's rounding, about n * eps.
_FULL_RANK_RATIO = 1e-3


def _full_rank_split(p, k):
    """(Z, sigma) with Z p.top(k)'s n x k subspace of S = A / 2^e and
    sigma = ||S - S Z Z^T||_2, the baseline in S's units; None unless
    m >= n and rank(A) = n is established.

    The rank test reads the Ritz values and every eigenvalue of the Gram
    matrix of E = p.residual(k), which is zero on Z and, off Z, S^T S
    compressed to Z's complement: rank(A) = n needs s_k above rank_cutoff
    and its (k+1)-th smallest eigenvalue above _FULL_RANK_RATIO^2 s_1^2.
    E needs no rescale of its own: wherever the test can pass, ||E||_2 is
    above 1e-3 s_1 >= 1e-3 max |S| >= 5e-4. Then V[:, k:] V[:, k:]^T =
    I - Z Z^T, and the dual-set walk reads its upper set only through that
    projector, so the complement of Z gives V[:, k:]'s guarantee."""
    if p.A.shape[0] < p.A.shape[1]:
        return None
    Z, s = p.top(k)
    if not s[k - 1] > rank_cutoff(s, p.A.shape):
        return None
    lam = _gram_eigenvalues(p.residual(k))
    if not math.sqrt(max(lam[k], 0.0)) > _FULL_RANK_RATIO * s[0]:
        return None
    return Z, math.sqrt(max(lam[-1], 0.0))


def _problem(A):
    return A if isinstance(A, ColumnProblem) else ColumnProblem(A)


def _check_kr(A, k, r, min_k):
    """Validate k and r; returns the barrier shrink 1 - sqrt(k/r)."""
    m, n = A.shape
    if not (min_k <= k <= min(m, n)):
        raise ArgumentError(f"need {min_k} <= k <= min(m,n)={min(m, n)}, got k={k}")
    if not (k < r <= n):
        raise ArgumentError(f"need k < r <= n, got k={k}, r={r}, n={n}")
    return 1.0 - math.sqrt(k / r)


def cx_spectral(A, k, r, mode="deterministic", seed=0):
    """Pick r > k rescaled columns with a spectral rank-k reconstruction bound.

    deterministic: dual barrier selection on the top-k and residual right
    singular subspaces (for rank(A) = n, the top-k subspace and its
    complement); the bound
    sqrt(2) * (1 + (1+sqrt((rho-k)/r)) / (1-sqrt(k/r))) * sigma_{k+1}
    holds on every run (the sqrt(2) covers the restricted-SVD estimator).
    fast: sketch the top subspace first, then run the barrier against the
    identity; the analogous bound with sqrt(n/r) holds in expectation with
    leading constant sqrt(2)+1.
    """
    p = _problem(A)
    n = p.A.shape[1]
    if mode == "deterministic":
        shrink = _check_kr(p.A, k, r, 1)
        split = _full_rank_split(p, k)
        if split is not None:
            Z, sigma = split
            rho = n
            plan = _barrier_complement(Z, Z, r)
        else:
            f = _rank_svd(p.S)
            rho = f.rank
            if k > rho:
                raise ArgumentError(f"k={k} exceeds rank(A)={rho}")
            Z = f.V[:, :k]
            sigma = float(f.singular_values[k]) if rho > k else 0.0
            # with nothing outside the top subspace a single-set run suffices
            plan = (barrier_dual_spectral(Z, f.V[:, k:], r) if rho > k
                    else barrier_single(Z, r))
        const = 1.0 + (1.0 + math.sqrt((rho - k) / r)) / shrink
        formula = "sqrt(2)*(1+(1+sqrt((rho-k)/r))/(1-sqrt(k/r)))*sigma_{k+1}"
        return _certify(p, k, plan, "spectral", math.sqrt(2.0) * const,
                        formula, sigma)
    if mode == "fast":
        shrink = _check_kr(p.A, k, r, 2)
        basis = fast_spectral_svd(p.S, k, 1, seed=seed)
        plan = _barrier_complement(basis.Z, basis.Z[:, :0], r)
        const = (math.sqrt(2.0) + 1.0) * (1.0 + (1.0 + math.sqrt(n / r)) / shrink)
        formula = "E: (sqrt(2)+1)*(1+(1+sqrt(n/r))/(1-sqrt(k/r)))*sigma_{k+1}"
        return _certify(p, k, plan, "spectral", const, formula)
    raise ArgumentError(f"unknown mode {mode!r} (expected deterministic|fast)")


def cx_frobenius(A, k, r, mode="deterministic", seed=0):
    """Pick r > k rescaled columns with a Frobenius rank-k bound.

    deterministic: per-instance
    ||A - Pi_{C,k}(A)||_F <= sqrt(1 + 1/(1-sqrt(k/r))^2) * ||A - A_k||_F.
    fast: same construction on a sketched subspace, bound in expectation
    with both terms inflated by 1.1.
    relative: barrier stage of width 4k plus r-4k adaptively sampled
    residual columns; E err^2 <= (1 + 6k/(r-4k)) * ||A - A_k||_F^2.
    """
    p = _problem(A)
    A, S = p.A, p.S
    if mode == "deterministic":
        shrink = _check_kr(A, k, r, 1)
        Z, s = p.top(k)
        rho = int(np.sum(s > rank_cutoff(s, A.shape)))
        if k > rho:
            raise ArgumentError(f"k={k} exceeds rank(A)={rho}")
        plan = barrier_dual_frobenius(Z, p.residual(k), r)
        return _certify(p, k, plan, "frobenius",
                        math.sqrt(1.0 + 1.0 / shrink ** 2),
                        "sqrt(1+1/(1-sqrt(k/r))^2)*||A-A_k||_F")
    if mode == "fast":
        shrink = _check_kr(A, k, r, 2)
        Z = fast_frobenius_svd(S, k, 0.1, seed=seed).Z
        plan = barrier_dual_frobenius(Z, _residual(S, Z), r)
        return _certify(p, k, plan, "frobenius",
                        math.sqrt(1.1 * (1.0 + 1.0 / shrink ** 2)),
                        "E: sqrt(1.1+1.1/(1-sqrt(k/r))^2)*||A-A_k||_F")
    if mode == "relative":
        n = A.shape[1]
        if not (2 <= k <= min(A.shape)):
            raise ArgumentError(f"need 2 <= k <= min(m,n), got k={k}")
        if not (4 * k < r <= n):
            raise ArgumentError(f"need 4k < r <= n, got k={k}, r={r}, n={n}")
        if r <= 10 * k:
            warnings.warn(
                f"relative-error guarantee is proved for r > 10k; r={r} <= {10 * k} "
                "keeps the expectation bound but thins the safety margin",
                stacklevel=2)
        Z = fast_frobenius_svd(S, k, 0.1, seed=seed).Z
        plan1 = barrier_dual_frobenius(Z, _residual(S, Z), 4 * k)
        C1 = _plan_columns(S, plan1)
        plan2 = adaptive_sampling(S, C1, r - 4 * k,
                                  seed=rng.derive_seed(seed, rng.ADAPTIVE, 0))
        plan = SamplingPlan(n, np.concatenate([plan1.indices, plan2.indices]),
                            np.concatenate([plan1.weights, plan2.weights]),
                            with_replacement=True, note="barrier+adaptive")
        return _certify(p, k, plan, "frobenius",
                        math.sqrt(1.0 + 6.0 * k / (r - 4 * k)),
                        "E^2: (1+6k/(r-4k))*||A-A_k||_F^2")
    raise ArgumentError(
        f"unknown mode {mode!r} (expected deterministic|fast|relative)")


def cssp(A, k, mode="spectral", delta=0.1, seed=0):
    """Select exactly k columns (unit weights, no rescaling).

    spectral: sketched top subspace + strong RRQR;
    E ||A - CC+A||_2 <= 4 sqrt(4k(n-k)+1) sigma_{k+1}.
    frobenius: barrier stage of width 4k, then RRQR inside the sampled
    block; E ||A - CC+A||_F <= 9k ||A - A_k||_F.
    two_stage: leverage-score sampling of 8k ln(2k/delta) columns, then
    RRQR on the rescaled sampled rows (at k=1 on the unweighted rows, whose
    rescaled magnitudes are all equal); w.p. >= 1-3delta the error is
    within 26k sqrt(ln(2k/delta))/delta of ||A - A_k||_F.
    """
    p = _problem(A)
    A, S = p.A, p.S
    n = A.shape[1]
    min_k = 1 if mode == "two_stage" else 2
    if not (min_k <= k <= min(A.shape)):
        raise ArgumentError(f"need {min_k} <= k <= min(m,n), got k={k}")
    if k >= n:
        raise ArgumentError(f"need k < n to have columns to reject, got k={k}, n={n}")
    if mode == "spectral":
        Z = fast_spectral_svd(S, k, 0.5, seed=seed).Z
        return _certify(p, k, rrqr_select(Z), "spectral",
                        4.0 * math.sqrt(4.0 * k * (n - k) + 1.0),
                        "E: 4*sqrt(4k(n-k)+1)*sigma_{k+1}")
    if mode == "frobenius":
        Z = fast_frobenius_svd(S, k, 0.5, seed=seed).Z
        plan1 = barrier_dual_frobenius(Z, _residual(S, Z), 4 * k)
        inner = rrqr_select(apply_plan_rows(Z, plan1))
        sel = SamplingPlan(n, plan1.indices[inner.indices], 1.0)
        return _certify(p, k, sel, "frobenius", 9.0 * k,
                        "E: 9k*||A-A_k||_F")
    if mode == "two_stage":
        if not (0.0 < delta < 1.0):
            raise ArgumentError(f"need 0 < delta < 1, got {delta}")
        Z = p.top(1)[0] if k == 1 else fast_frobenius_svd(S, k, 0.5, seed=seed).Z
        r1 = math.ceil(8.0 * k * math.log(2.0 * k / delta))
        plan1 = subspace_sampling(Z, 1.0, max(r1, k),
                                  seed=rng.derive_seed(seed, rng.CSSP, 0))
        # at k=1 every weighted row has magnitude ||z||/sqrt(r), so any pick
        # is a valid RRQR pivot and rounding would decide it; the unweighted
        # rows make it the largest |z_i|, a stable function of A
        rows = Z[plan1.indices] if k == 1 else apply_plan_rows(Z, plan1)
        inner = rrqr_select(rows)
        sel = SamplingPlan(n, np.sort(plan1.indices[inner.indices]), 1.0)
        return _certify(
            p, k, sel, "frobenius",
            26.0 * k * math.sqrt(math.log(2.0 * k / delta)) / delta,
            "w.p. 1-3delta: 26k*sqrt(ln(2k/delta))/delta*||A-A_k||_F")
    raise ArgumentError(
        f"unknown mode {mode!r} (expected spectral|frobenius|two_stage)")


def interpolative_decomposition(A, k, seed=0):
    """A ~= C X with C k true columns of A and X of small, bounded entries.

    Returns (C, X, plan). X contains an exact k x k identity block at the
    selected columns, max |X_ij| <= 2, ||X||_2 <= sqrt(4k(n-k)) + 1 and
    sigma_min(X) >= 1. If k = rank(A) then A = CX; in general
    E ||A - CX||_2 <= 4 sqrt(4k(n-k)+1) sigma_{k+1}.
    """
    p = _problem(A)
    if not (2 <= k <= min(p.A.shape)):
        raise ArgumentError(f"need 2 <= k <= min(m,n), got k={k}")
    Z = fast_spectral_svd(p.S, k, 0.5, seed=seed).Z
    plan = rrqr_select(Z)
    sel = plan.indices
    C = p.A[:, sel].copy()
    X = np.linalg.solve(Z[sel].T, Z.T)
    X[:, sel] = np.eye(k)
    return C, X, plan


def lower_bound_instance(n, alpha):
    """The worst-case matrix for column selection: no r columns do better
    than a squared spectral ratio of (n + alpha^2)/(r + alpha^2).

    Columns are e_1 + alpha * e_{j+1} in R^{n+1}; sigma_1^2 = n + alpha^2
    and every other squared singular value is alpha^2.
    """
    if n < 2:
        raise ArgumentError(f"need n >= 2, got {n}")
    if not (alpha > 0):
        raise ArgumentError(f"need alpha > 0, got {alpha}")
    if not math.isfinite(n + float(alpha) * float(alpha)):
        raise ArgumentError(f"need n + alpha^2 finite, got alpha={alpha}")
    A = np.zeros((n + 1, n))
    A[0, :] = 1.0
    A[np.arange(1, n + 1), np.arange(n)] = alpha
    return A
