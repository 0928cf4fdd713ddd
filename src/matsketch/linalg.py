"""Dense kernels everything else builds on.

Matrices are plain 2-D float64 ndarrays (C order); `as_matrix` enforces the
construction invariants (finite entries, nonempty) at API boundaries.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import rng
from .errors import ArgumentError, NumericError

# numerical rank rule: keep sigma_i iff sigma_i > sigma_1 * max(m,n) * eps
_EPS = 2.2e-16


def as_matrix(A, name="A", allow_empty_cols=False):
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise ArgumentError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.shape[0] == 0 or (A.shape[1] == 0 and not allow_empty_cols):
        raise ArgumentError(f"{name} must be nonempty, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ArgumentError(f"{name} contains NaN/Inf")
    return np.ascontiguousarray(A)


def as_vector(b, name="b"):
    b = np.asarray(b, dtype=float).ravel()
    if b.size == 0:
        raise ArgumentError(f"{name} must be nonempty")
    if not np.isfinite(b).all():
        raise ArgumentError(f"{name} contains NaN/Inf")
    return b


def formula_width(c, eps, power=2):
    """ceil(c / eps^power), the row or column count of a width formula.

    A tiny eps makes eps^power underflow to 0 or the quotient overflow;
    the width is then no finite count, and the error names eps.
    """
    den = eps ** power
    width = c / den if den > 0 else math.inf
    if not math.isfinite(width):
        raise ArgumentError(
            f"eps={eps} is too small: the formula width "
            f"{c:.6g}/eps^{power} is not a finite count")
    return math.ceil(width)


def rank_cutoff(s, shape):
    """Threshold below which singular values count as zero."""
    if len(s) == 0 or s[0] <= 0:
        return 0.0
    return s[0] * max(shape) * _EPS


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD truncated at the numerical rank."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    rank: int


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """The sampling matrix Omega and the diagonal rescaling S as two arrays.

    Omega has standard-basis columns e_i at the int `indices`, in plan
    order; S has the matching positive, finite float `weights` on its
    diagonal. A scalar weight (1.0, or the SRHT scale) is given to every
    pick. Both arrays are stored as read-only copies.
    """

    source_dim: int
    indices: np.ndarray
    weights: np.ndarray
    with_replacement: bool = False
    note: str = ""

    def __post_init__(self):
        idx = np.array(self.indices, dtype=int).ravel()
        try:
            w = np.broadcast_to(np.asarray(self.weights, dtype=float), idx.shape)
        except ValueError:
            raise ArgumentError(
                f"{np.size(self.weights)} weights for {idx.size} picks") from None
        if idx.size == 0:
            raise ArgumentError("plan has no picks")
        bad = (idx < 0) | (idx >= self.source_dim)
        if bad.any():
            raise ArgumentError(
                f"pick index {idx[bad.argmax()]} outside [0, {self.source_dim})")
        bad = ~(w > 0) | ~np.isfinite(w)
        if bad.any():
            raise ArgumentError(f"pick weight {w[bad.argmax()]} must be a positive real")
        if not self.with_replacement:
            _, first = np.unique(idx, return_index=True)
            if first.size != idx.size:
                j = np.setdiff1d(np.arange(idx.size), first)[0]
                raise ArgumentError(
                    f"duplicate index {idx[j]} in a without-replacement plan")
        w = w.copy()
        for name, a in (("indices", idx), ("weights", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.indices.size


def _svd(A, compute_uv):
    """np.linalg.svd of A / 2^e as (U, s, Vt, e): 2^j A gives A's factors
    and 2^j s. LAPACK rescales max |A| outside [2^-459, 2^459] itself, not
    by a power of two, so an A with |e| > 400 is divided by 2^e first; any
    other is passed as it is (e = 0), where LAPACK commutes with 2^j."""
    S = as_matrix(A)
    e = _pow2_exponent(S)
    e = e if abs(e) > 400 else 0
    S = np.ldexp(S, -e) if e else S
    try:
        out = np.linalg.svd(S, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"svd failed to converge: {err}") from err
    return (out + (e,)) if compute_uv else (None, out, None, e)


def svd(A):
    """Thin SVD with the numerical-rank cutoff applied.

    Raises NumericError if the LAPACK kernel fails to converge.
    """
    U, s, Vt, e = _svd(A, True)
    rho = int(np.sum(s > rank_cutoff(s, U.shape[:1] + Vt.shape[1:])))
    return SvdFactors(
        U=np.ascontiguousarray(U[:, :rho]),
        singular_values=np.ldexp(s[:rho], e),
        V=np.ascontiguousarray(Vt[:rho].T),
        rank=rho,
    )


def singular_values(A):
    """The singular values `svd(A)` keeps, from one values-only LAPACK call."""
    _, s, _, e = _svd(A, False)
    return np.ldexp(s[s > rank_cutoff(s, np.shape(A))], e)


def _pow2_exponent(*arrays):
    """e with max |entry| / 2^e in [1/2, 1) over the arrays (0 if all zero),
    read from max and min, so no |M| temporary is formed."""
    return math.frexp(max(max(float(np.max(M)), -float(np.min(M)))
                          for M in arrays))[1]


def pow2_scaled(M):
    """(M * 2^-e, e), e = _pow2_exponent(M).

    The rescale is exact and puts max |M| in [1/2, 1), so sums of squares
    of the scaled entries neither overflow nor underflow.
    """
    M = np.asarray(M, dtype=float)
    e = _pow2_exponent(M)
    return np.ldexp(M, -e), e


def _pow2_unscaled(x, e):
    """x * 2^e as a float; inf where the result exceeds the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def top_k(A, k):
    """(Z, E, s): orthonormal n x k Z spanning A's top-k right singular
    subspace, the residual E = A - A Z Z^T and the k Ritz values s, largest
    first.

    ARPACK's Lanczos runs on the explicit smaller Gram matrix of A / 2^e
    (one product over A; each Lanczos step is then one min(m, n)-square
    matvec) to tol=0, from a fixed start vector and with a fixed generator
    for its restarts (scipy's svds draws those from OS entropy), so equal
    input gives equal bits, and 2^j A gives the same Z and 2^j times E and
    s. k = min(m, n) takes the dense SVD; an all-zero A gives the first k
    columns of I_n and E = 0, s = 0. The scaled copy of A and E
    (_residual) are the only m x n arrays built.
    """
    S, e = pow2_scaled(as_matrix(A))
    m, n = S.shape
    if not 1 <= k <= min(m, n):
        raise ArgumentError(f"need 1 <= k <= min(m,n)={min(m, n)}, got k={k}")
    if not S.any():
        Z, s = np.eye(n, k), np.zeros(k)
    elif k == min(m, n):
        _, s, Vt, _ = _svd(S, True)
        Z = np.ascontiguousarray(Vt[:k].T)
    else:
        import scipy.sparse.linalg as sla  # ~30 ms to import; only top_k needs it

        X = S if n <= m else S.T  # the Gram matrix X^T X is min(m, n) square
        gen = rng.stream(0, rng.TOP_K)
        try:
            _, V = sla.eigsh(X.T @ X, k, v0=gen.standard_normal(X.shape[1]),
                             tol=0, rng=gen)
        except sla.ArpackError as err:  # ArpackNoConvergence included
            raise NumericError(f"ARPACK found no top-{k} subspace: {err}") from err
        V, _ = np.linalg.qr(V)
        if n <= m:
            _, s, Wt = np.linalg.svd(S @ V, full_matrices=False)
            Z = V @ Wt.T
        else:
            Z, s, _ = np.linalg.svd(S.T @ V, full_matrices=False)
    E = _residual(S, Z)
    return Z, np.ldexp(E, e, out=E), np.ldexp(s, e)


def _residual(A, Z):
    """A - (A Z) Z^T, formed in the buffer of the product: the only m x n
    array built."""
    E = (A @ Z) @ Z.T
    return np.subtract(A, E, out=E)


def _baseline(top, norm):
    """sigma_{k+1} (norm "spectral") or ||A - A_k||_F ("frobenius") read from
    top_k's (Z, E, s) as ||E||_2 or ||E||_F, both from one rescaled copy of
    E (_norms). Since A Z Z^T has rank k, these are never below the exact
    values (up to rounding). Both read exactly 0.0 when
    ||E||_F <= rank_cutoff(s), so input of rank <= k has a zero baseline
    instead of rounding noise."""
    _, E, s = top
    spec, tail = _norms(E) if norm == "spectral" else (None, frobenius_norm(E))
    if tail <= rank_cutoff(s, E.shape):
        return 0.0
    return spec if norm == "spectral" else tail


def _ratio(num, den, e, power=1):
    """(num / den)^power, measured over optimal, both first divided by 2^e,
    e = _pow2_exponent(input): exact, and the same at any scale of the
    input. A rescaled den <= 1e-12 counts as zero, whatever the power; the
    ratio is then 1.0 if num is zero too by that rule, else inf."""
    num, den = math.ldexp(num, -e), math.ldexp(den, -e)
    if den > 1e-12:
        return num ** power / den ** power
    return 1.0 if num <= 1e-12 else math.inf


def _within(value, bound, e=0):
    """value <= bound up to float slop 1e-9 * (1 + bound), both divided by 2^e."""
    value, bound = math.ldexp(value, -e), math.ldexp(bound, -e)
    return value <= bound + 1e-9 * (1.0 + bound)


def frobenius_norm(M):
    """||M||_F (of a vector: its 2-norm), safe at any finite scale.

    Bit-identical to np.linalg.norm(M) wherever that neither overflows nor
    underflows, since the power-of-two rescale commutes with every step.
    """
    S, e = pow2_scaled(M)
    return _pow2_unscaled(np.linalg.norm(S), e)


def _gram_eigenvalues(S, top_only=False):
    """Eigenvalues, ascending, of the smaller Gram matrix of S from LAPACK
    dsyevr: all of them, or only the largest (one entry) with top_only.

    S should be power-of-two rescaled (pow2_scaled) so the Gram entries
    neither overflow nor underflow. Raises NumericError if LAPACK fails.
    """
    G = S.T @ S if S.shape[0] >= S.shape[1] else S @ S.T
    p = G.shape[0]
    try:
        # G is exactly symmetric (numpy fills it from one syrk triangle), so
        # its Fortran-order view G.T reaches LAPACK without a copy
        return scipy.linalg.eigh(
            G.T, eigvals_only=True, overwrite_a=True, check_finite=False,
            subset_by_index=[p - 1, p - 1] if top_only else None, driver="evr")
    except np.linalg.LinAlgError as err:
        raise NumericError(f"symmetric eigensolver failed: {err}") from err


def _sqrt_unscaled(lam, e):
    """sqrt(lam) * 2^e for a Gram eigenvalue lam of M / 2^e, which rounding
    can leave slightly below zero."""
    return _pow2_unscaled(math.sqrt(max(float(lam), 0.0)), e)


def spectral_norm(M):
    """||M||_2 as sqrt(lambda_max) of the smaller Gram matrix of M.

    One Gram product and one dsyevr call that computes the top eigenvalue
    only, instead of an SVD. The eigenvalue step adds a relative error of
    O(min(m, n) * eps); the Gram product's rounding adds at most m times
    that in the worst case. M is first rescaled exactly by a power of two,
    so the Gram entries neither overflow nor underflow.
    """
    S, e = pow2_scaled(as_matrix(M, "M"))
    return _sqrt_unscaled(_gram_eigenvalues(S, top_only=True)[0], e)


def _norms(M):
    """(||M||_2, ||M||_F) of a 2-D M from one power-of-two-rescaled copy;
    the same bits as (spectral_norm(M), frobenius_norm(M))."""
    S, e = pow2_scaled(M)
    frob = _pow2_unscaled(np.linalg.norm(S), e)
    return _sqrt_unscaled(_gram_eigenvalues(S, top_only=True)[0], e), frob


def pseudo_inverse(A):
    """Moore-Penrose pseudo-inverse via the rank-truncated SVD."""
    A = as_matrix(A)
    f = svd(A)
    if f.rank == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    return (f.V / f.singular_values) @ f.U.T


def orth_basis(C):
    """Orthonormal basis of the column space (rank-aware); m x rank."""
    f = svd(C)
    return f.U


def apply_plan_columns(A, plan):
    """C = A * Omega * S: picked columns of A, rescaled, in plan order."""
    A = as_matrix(A)
    if plan.source_dim != A.shape[1]:
        raise ArgumentError(
            f"plan source_dim {plan.source_dim} != A.cols {A.shape[1]}"
        )
    return A[:, plan.indices] * plan.weights


def apply_plan_rows(A, plan):
    """S^T * Omega^T * A: picked rows of A, rescaled, in plan order."""
    A = as_matrix(A)
    if plan.source_dim != A.shape[0]:
        raise ArgumentError(f"plan source_dim {plan.source_dim} != A.rows {A.shape[0]}")
    return A[plan.indices] * plan.weights[:, None]


def _subspace_factors(A, C, k):
    """(Q, W, Vt) with Q W Vt = Q (Q^T A)_k, Q an orthonormal basis of
    col(C); callers that need only Vt never form the m x n product."""
    A = as_matrix(A)
    C = as_matrix(C, "C")
    if C.shape[0] != A.shape[0]:
        raise ArgumentError("C.rows must equal A.rows")
    if not (1 <= k <= C.shape[1]):
        raise ArgumentError(f"need 1 <= k <= C.cols, got k={k}, C.cols={C.shape[1]}")
    Q = orth_basis(C)
    if Q.shape[1] == 0:
        return Q, np.zeros((0, 0)), np.zeros((0, A.shape[1]))
    Ub, sb, Vbt, e = _svd(Q.T @ A, True)
    t = min(k, len(sb))
    return Q, Ub[:, :t] * np.ldexp(sb[:t], e), Vbt[:t]


def best_rank_k_in_subspace(A, C, k):
    """Best Frobenius rank-k approximation of A inside the column space of C.

    Returns (approx, Z): approx = Q (Q^T A)_k with Q an orthonormal basis of
    col(C), and Z the right singular vectors of (Q^T A)_k. The Frobenius
    error is exactly min over rank-<=k Psi of ||A - C Psi||_F; the spectral
    error of the same approx is within sqrt(2) of the spectral optimum.

    If rank(C) < k the approximation (and Z) may have rank < k.
    """
    Q, W, Vt = _subspace_factors(A, C, k)
    return Q @ W @ Vt, np.ascontiguousarray(Vt.T)


def boost_best(run, trials, score, seed=0):
    """Repeat a seeded randomized procedure and keep the lowest-scoring output.

    `run(trial_seed)` must be deterministic in its seed. Per-trial seeds come
    from the (seed; TRIAL, i) counter streams, so the winner is reproducible
    and independent of evaluation order. Ties go to the lowest trial index.
    """
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    best = None
    best_score = math.inf
    for i in range(int(trials)):
        out = run(rng.derive_seed(seed, rng.TRIAL, i))
        sc = float(score(out))
        if sc < best_score:
            best, best_score = out, sc
    return best
