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
constant, and measures both errors. The baseline is ||E||_2 or ||E||_F of
the residual E = A - A Z Z^T of a converged top-k subspace Z
(linalg.top_k, linalg._baseline), not of a full SVD: for any orthonormal
Z it is never below sigma_{k+1} or ||A - A_k||_F, the structural lemma
of Boutsidis-Drineas-Magdon-Ismail holds for that E, and it reads 0.0 on
input of rank <= k. Only deterministic cx_spectral factors A in full,
since it needs V[:, k:] and rank(A). The spectral error is
sqrt(lambda_max) of the smaller Gram matrix of the residual
(linalg.spectral_norm), within 2e-15 of the SVD value on 1000 x 600
residuals. Errors and baselines are taken after exact power-of-two
rescales, so they neither overflow nor underflow at any finite scale of
A, and 2^j A gives 2^j times the numbers of A.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .approx_svd import fast_frobenius_svd, fast_spectral_svd
from .errors import ArgumentError
from .linalg import (SamplingPlan, _baseline, apply_plan_columns,
                     apply_plan_rows, as_matrix, best_rank_k_in_subspace,
                     frobenius_norm, rank_cutoff, spectral_norm, svd, top_k)
from .samplers import (adaptive_sampling, barrier_dual_frobenius,
                       barrier_dual_spectral, barrier_single, rrqr_select,
                       subspace_sampling)


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


def _certify(A, k, plan, norm, const, formula, baseline=None):
    """Measure the plan's rank-k errors and certify const * baseline, the
    baseline (sigma_{k+1} or ||A - A_k||_F, by norm) read from the residual
    of top_k(A, k) (linalg._baseline) when the caller holds none."""
    if baseline is None:
        baseline = _baseline(top_k(A, k), norm)
    C = apply_plan_columns(A, plan)
    approx, _ = best_rank_k_in_subspace(A, C, k)
    R = A - approx
    return CxResult(plan=plan, C=C, rank_k_error_spectral=spectral_norm(R),
                    rank_k_error_frobenius=frobenius_norm(R),
                    bound_value=float(const * baseline),
                    baseline_sigma=float(baseline), norm=norm,
                    bound_formula=formula)


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
    singular subspaces; the bound
    sqrt(2) * (1 + (1+sqrt((rho-k)/r)) / (1-sqrt(k/r))) * sigma_{k+1}
    holds on every run (the sqrt(2) covers the restricted-SVD estimator).
    fast: sketch the top subspace first, then run the barrier against the
    identity; the analogous bound with sqrt(n/r) holds in expectation with
    leading constant sqrt(2)+1.
    """
    A = as_matrix(A)
    n = A.shape[1]
    if mode == "deterministic":
        shrink = _check_kr(A, k, r, 1)
        f = svd(A)
        rho = f.rank
        if k > rho:
            raise ArgumentError(f"k={k} exceeds rank(A)={rho}")
        if rho > k:
            plan = barrier_dual_spectral(f.V[:, :k], f.V[:, k:], r)
            const = 1.0 + (1.0 + math.sqrt((rho - k) / r)) / shrink
            sigma = float(f.singular_values[k])
        else:
            # nothing outside the top subspace; a single-set run suffices
            plan = barrier_single(f.V, r)
            const, sigma = 1.0 + 1.0 / shrink, 0.0
        formula = "sqrt(2)*(1+(1+sqrt((rho-k)/r))/(1-sqrt(k/r)))*sigma_{k+1}"
        return _certify(A, k, plan, "spectral", math.sqrt(2.0) * const,
                        formula, sigma)
    if mode == "fast":
        shrink = _check_kr(A, k, r, 2)
        basis = fast_spectral_svd(A, k, 1, seed=seed)
        plan = barrier_dual_spectral(basis.Z, np.eye(n), r)
        const = (math.sqrt(2.0) + 1.0) * (1.0 + (1.0 + math.sqrt(n / r)) / shrink)
        formula = "E: (sqrt(2)+1)*(1+(1+sqrt(n/r))/(1-sqrt(k/r)))*sigma_{k+1}"
        return _certify(A, k, plan, "spectral", const, formula)
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
    A = as_matrix(A)
    if mode == "deterministic":
        shrink = _check_kr(A, k, r, 1)
        top = Z, E, s = top_k(A, k)
        rho = int(np.sum(s > rank_cutoff(s, A.shape)))
        if k > rho:
            raise ArgumentError(f"k={k} exceeds rank(A)={rho}")
        plan = barrier_dual_frobenius(Z, E, r)
        return _certify(A, k, plan, "frobenius",
                        math.sqrt(1.0 + 1.0 / shrink ** 2),
                        "sqrt(1+1/(1-sqrt(k/r))^2)*||A-A_k||_F",
                        _baseline(top, "frobenius"))
    if mode == "fast":
        shrink = _check_kr(A, k, r, 2)
        Z = fast_frobenius_svd(A, k, 0.1, seed=seed).Z
        plan = barrier_dual_frobenius(Z, A - (A @ Z) @ Z.T, r)
        return _certify(A, k, plan, "frobenius",
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
        Z = fast_frobenius_svd(A, k, 0.1, seed=seed).Z
        plan1 = barrier_dual_frobenius(Z, A - (A @ Z) @ Z.T, 4 * k)
        C1 = apply_plan_columns(A, plan1)
        plan2 = adaptive_sampling(A, C1, r - 4 * k,
                                  seed=rng.derive_seed(seed, rng.ADAPTIVE, 0))
        plan = SamplingPlan(n, np.concatenate([plan1.indices, plan2.indices]),
                            np.concatenate([plan1.weights, plan2.weights]),
                            with_replacement=True, note="barrier+adaptive")
        return _certify(A, k, plan, "frobenius",
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
    A = as_matrix(A)
    n = A.shape[1]
    min_k = 1 if mode == "two_stage" else 2
    if not (min_k <= k <= min(A.shape)):
        raise ArgumentError(f"need {min_k} <= k <= min(m,n), got k={k}")
    if k >= n:
        raise ArgumentError(f"need k < n to have columns to reject, got k={k}, n={n}")
    if mode == "spectral":
        Z = fast_spectral_svd(A, k, 0.5, seed=seed).Z
        return _certify(A, k, rrqr_select(Z), "spectral",
                        4.0 * math.sqrt(4.0 * k * (n - k) + 1.0),
                        "E: 4*sqrt(4k(n-k)+1)*sigma_{k+1}")
    if mode == "frobenius":
        Z = fast_frobenius_svd(A, k, 0.5, seed=seed).Z
        plan1 = barrier_dual_frobenius(Z, A - (A @ Z) @ Z.T, 4 * k)
        inner = rrqr_select(apply_plan_rows(Z, plan1))
        sel = SamplingPlan(n, plan1.indices[inner.indices], 1.0)
        return _certify(A, k, sel, "frobenius", 9.0 * k, "E: 9k*||A-A_k||_F")
    if mode == "two_stage":
        if not (0.0 < delta < 1.0):
            raise ArgumentError(f"need 0 < delta < 1, got {delta}")
        if k == 1:
            top = top_k(A, 1)
            Z, baseline = top[0], _baseline(top, "frobenius")
        else:
            Z, baseline = fast_frobenius_svd(A, k, 0.5, seed=seed).Z, None
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
            A, k, sel, "frobenius",
            26.0 * k * math.sqrt(math.log(2.0 * k / delta)) / delta,
            "w.p. 1-3delta: 26k*sqrt(ln(2k/delta))/delta*||A-A_k||_F",
            baseline)
    raise ArgumentError(
        f"unknown mode {mode!r} (expected spectral|frobenius|two_stage)")


def interpolative_decomposition(A, k, seed=0):
    """A ~= C X with C k true columns of A and X of small, bounded entries.

    Returns (C, X, plan). X contains an exact k x k identity block at the
    selected columns, max |X_ij| <= 2, ||X||_2 <= sqrt(4k(n-k)) + 1 and
    sigma_min(X) >= 1. If k = rank(A) then A = CX; in general
    E ||A - CX||_2 <= 4 sqrt(4k(n-k)+1) sigma_{k+1}.
    """
    A = as_matrix(A)
    if not (2 <= k <= min(A.shape)):
        raise ArgumentError(f"need 2 <= k <= min(m,n), got k={k}")
    Z = fast_spectral_svd(A, k, 0.5, seed=seed).Z
    plan = rrqr_select(Z)
    sel = plan.indices
    C = A[:, sel].copy()
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
