"""Dense kernels everything else builds on.

Matrices are plain 2-D float64 ndarrays (C order); `as_matrix` enforces the
construction invariants (finite entries, nonempty) at API boundaries.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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

    eps must be positive. A tiny eps makes eps^power underflow to 0 or
    the quotient overflow; the width is then no finite count, and the
    error names eps.
    """
    if not eps > 0:
        raise ArgumentError(f"need eps > 0, got {eps}")
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
    pick. Both arrays are stored as read-only copies; non-integer indices
    or `source_dim` are refused, not cast.
    """

    source_dim: int
    indices: np.ndarray
    weights: np.ndarray
    with_replacement: bool = False
    note: str = ""

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ArgumentError(f"pick indices must be integers, got {idx.dtype}")
        if not isinstance(self.source_dim, (int, np.integer)):
            raise ArgumentError(
                f"source_dim must be an integer, got {self.source_dim!r}")
        idx = idx.ravel()
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
        for name, a in (("indices", idx.astype(int)), ("weights", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.indices.size


def _svd(S, compute_uv):
    """np.linalg.svd of a validated S / 2^e as (U, s, Vt, e): 2^j S gives
    S's factors and 2^j s. LAPACK rescales max |S| outside [2^-459, 2^459]
    itself, not by a power of two, so an S with |e| > 400 is divided by 2^e
    first; any other is passed as it is (e = 0), where LAPACK commutes with
    2^j."""
    e = _pow2_exponent(S)
    e = e if abs(e) > 400 else 0
    S = np.ldexp(S, -e) if e else S
    try:
        out = np.linalg.svd(S, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"svd failed to converge: {err}") from err
    return (out + (e,)) if compute_uv else (None, out, None, e)


def _rank_svd(S):
    """svd of a validated S."""
    U, s, Vt, e = _svd(S, True)
    rho = int(np.sum(s > rank_cutoff(s, U.shape[:1] + Vt.shape[1:])))
    return SvdFactors(
        U=np.ascontiguousarray(U[:, :rho]),
        singular_values=np.ldexp(s[:rho], e),
        V=np.ascontiguousarray(Vt[:rho].T),
        rank=rho,
    )


def svd(A):
    """Thin SVD with the numerical-rank cutoff applied.

    Raises NumericError if the LAPACK kernel fails to converge.
    """
    return _rank_svd(as_matrix(A))


def singular_values(A):
    """The singular values `svd(A)` keeps, from one values-only LAPACK call."""
    A = as_matrix(A)
    _, s, _, e = _svd(A, False)
    return np.ldexp(s[s > rank_cutoff(s, A.shape)], e)


def _pow2_exponent(*arrays):
    """e with max |entry| / 2^e in [1/2, 1) over the arrays (0 if all zero),
    read from max and min, so no |M| temporary is formed."""
    return math.frexp(max(max(float(np.max(M)), -float(np.min(M)))
                          for M in arrays))[1]


def pow2_scaled(M):
    """(M * 2^-e, e), e = _pow2_exponent(M): M itself, not a copy, where
    e = 0, so callers only read the result.

    The rescale is exact and puts max |M| in [1/2, 1), so sums of squares
    of the scaled entries neither overflow nor underflow.
    """
    M = np.asarray(M, dtype=float)
    e = _pow2_exponent(M)
    return (np.ldexp(M, -e) if e else M), e


def _pow2_unscaled(x, e):
    """x * 2^e as a float; inf where the result exceeds the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def _residual(A, Z):
    """A - (A Z) Z^T, formed in the buffer of the product: the only m x n
    array built."""
    E = (A @ Z) @ Z.T
    return np.subtract(A, E, out=E)


class ColumnProblem:
    """A column-selection input A, validated once and held as a read-only
    view (not a copy) that must not be written while the problem is in
    use. What the bounds on A read is formed on first use and kept: S =
    A / 2^e (pow2_scaled), its smaller Gram matrix `gram` and, for each
    k, `top`, `residual` and both `baseline`s, all in S's units."""

    def __init__(self, A):
        self.A = as_matrix(A).view()
        self.A.setflags(write=False)
        self.e = _pow2_exponent(self.A)
        self._memo = {}

    @cached_property
    def S(self):
        return np.ldexp(self.A, -self.e) if self.e else self.A

    @cached_property
    def gram(self):
        """S^T S if m >= n, else S S^T; no kernel writes it."""
        S = self.S
        G = S.T @ S if S.shape[0] >= S.shape[1] else S @ S.T
        G.setflags(write=False)
        return G

    def top(self, k):
        """(Z, s): orthonormal n x k Z spanning S's top-k right singular
        subspace and the k Ritz values s, largest first.

        ARPACK's Lanczos runs on `gram` (one product over S; each Lanczos
        step is then one min(m, n)-square matvec) to tol=0, from a fixed
        start vector and with a fixed generator for its restarts (scipy's
        svds draws those from OS entropy). k = min(m, n) takes the dense
        SVD; an all-zero S gives the first k columns of I_n and s = 0.
        """
        if ("top", k) in self._memo:
            return self._memo["top", k]
        S = self.S
        m, n = S.shape
        if not 1 <= k <= min(m, n):
            raise ArgumentError(f"need 1 <= k <= min(m,n)={min(m, n)}, got k={k}")
        if not S.any():
            Z, s = np.eye(n, k), np.zeros(k)
        elif k == min(m, n):
            _, s, Vt, _ = _svd(S, True)
            Z = np.ascontiguousarray(Vt[:k].T)
        else:
            import scipy.sparse.linalg as sla  # ~30 ms to import; only ARPACK needs it

            gen = rng.stream(0, rng.TOP_K)
            try:
                _, V = sla.eigsh(self.gram, k, v0=gen.standard_normal(min(m, n)),
                                 tol=0, rng=gen)
            except sla.ArpackError as err:  # ArpackNoConvergence included
                raise NumericError(f"ARPACK found no top-{k} subspace: {err}") from err
            V, _ = np.linalg.qr(V)
            if n <= m:
                _, s, Wt = np.linalg.svd(S @ V, full_matrices=False)
                Z = V @ Wt.T
            else:
                Z, s, _ = np.linalg.svd(S.T @ V, full_matrices=False)
        self._memo["top", k] = Z, s
        return Z, s

    def residual(self, k):
        """E = S - S Z Z^T for top(k)'s Z (_residual)."""
        if ("residual", k) not in self._memo:
            self._memo["residual", k] = _residual(self.S, self.top(k)[0])
        return self._memo["residual", k]

    def residual_norm(self, Z, E=None):
        """||S - S Z Z^T||_2 for orthonormal Z: the certified upper end
        _gram_projected_norm reads from `gram` where m >= n, else or where
        it certifies none _norms of the residual E (formed if not given)."""
        m, n = self.S.shape
        spec = _gram_projected_norm(self.gram, m, Z) if m >= n else None
        return spec if spec is not None else _norms(
            _residual(self.S, Z) if E is None else E)[0]

    def baseline(self, k, norm):
        """sigma_{k+1} (norm "spectral") or ||A - A_k||_F ("frobenius") read
        from E = residual(k) as residual_norm or ||E||_F. Since S Z Z^T has
        rank k, these are never below the exact values (up to rounding).
        Both read exactly 0.0 when ||E||_F <= rank_cutoff(s), as does any
        ||E||_F whose squares underflow, so input of rank <= k has a zero
        baseline instead of rounding noise. (A certified ||E||_2^2 exceeds
        1e10 times the Gram slack, >= 1e-6 m s_1^2, so it is never zeroed.)"""
        if (norm, k) not in self._memo:
            (Z, s), E = self.top(k), self.residual(k)
            tail = np.linalg.norm(E)
            self._memo[norm, k] = (
                0.0 if tail <= rank_cutoff(s, E.shape)
                else self.residual_norm(Z, E) if norm == "spectral" else tail)
        return self._memo[norm, k]


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


def _norms(M):
    """(||M||_2, ||M||_F) of a 2-D M from one power-of-two-rescaled copy;
    ||M||_F has the same bits as frobenius_norm(M).

    ||M||_2 is sqrt(lambda_max) of the smaller Gram matrix of M: one Gram
    product and one dsyevr call that computes the top eigenvalue only,
    instead of an SVD. The eigenvalue step adds a relative error of
    O(min(m, n) * eps); the Gram product's rounding adds at most m times
    that in the worst case. The rescale keeps the Gram entries from
    overflowing or underflowing.
    """
    S, e = pow2_scaled(M)
    frob = _pow2_unscaled(np.linalg.norm(S), e)
    return _sqrt_unscaled(_gram_eigenvalues(S, top_only=True)[0], e), frob


# unit roundoff of float64; _gamma(j) is Higham's gamma_j = j u / (1 - j u),
# the relative rounding bound of a j-term inner product
_U = 2.0 ** -53


def _gamma(j):
    return j * _U / (1.0 - j * _U)


# a Gram-form certificate is kept only while its margin tau is at most this
# fraction of the Ritz value: past it the cancellation in forming the
# residual's Gram matrix from A's has cost more digits than forming the
# residual would
_GRAM_TAU_RATIO = 1e-10


def _lambda_max_upper(G, slack):
    """theta_bar >= lambda_max(G*) for every symmetric G* within slack of G
    in the 2-norm, or None when it is not certified below
    (1 + _GRAM_TAU_RATIO) theta.

    G is a C-ordered symmetric n x n (n >= 2) matrix of which only the upper
    triangle is read, and the call overwrites it. ARPACK's Lanczos (eigsh,
    which="LA", tol=0, seeded as in ColumnProblem.top) gives
    a Ritz value theta. dpotrf then factors H = c I - G in G's own buffer,
    with c = (1 + gamma_{n+1}) theta, a shift at the scale of Cholesky's
    own rounding so that this nearly singular H factors. Formed in floats,
    H's diagonal rounds by at most u (c + max |g_ii|), u = 2^-53. A
    Cholesky factorization that runs to completion gives R^T R = H + dH
    with |dH| <= gamma_{n+1} |R^T| |R| (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm. 10.3; it holds for the blocked algorithm
    too), so ||dH||_2 <= gamma_{n+1} rho with
    rho = min(||R||_F^2, ||R||_1 ||R||_inf) >= || |R| ||_2^2; gamma_{2n+4}
    in place of gamma_{n+1} covers the rounding of rho itself. R^T R is
    positive definite, so by Sylvester's law of inertia no eigenvalue of
    the exact c I - G lies below -(u (c + max |g_ii|) + gamma_{n+1} rho),
    and

        lambda_max(G*) <= c + slack + u (c + max |g_ii|) + gamma_{2n+4} rho,

    returned times (1 + 4u) for the rounding of the sum: theta + tau. None
    when ARPACK fails, when a Cholesky pivot is not positive (c below
    lambda_max(G), or too near it) or when tau > _GRAM_TAU_RATIO theta
    (theta <= 0, or a slack large against it).
    """
    import scipy.sparse.linalg as sla  # ~30 ms to import; only ARPACK needs it
    from scipy.linalg.blas import dsymv
    from scipy.linalg.lapack import dpotrf

    n = G.shape[0]
    F = G.T  # Fortran order; its lower triangle is G's upper
    op = sla.LinearOperator((n, n), dtype=float,
                            matvec=lambda x: dsymv(1.0, F, x, lower=1))
    gen = rng.stream(0, rng.TOP_K)
    try:
        theta = float(sla.eigsh(op, 1, which="LA", v0=gen.standard_normal(n),
                                tol=0, rng=gen, return_eigenvectors=False)[0])
    except sla.ArpackError:  # ArpackNoConvergence included
        return None
    if not slack <= _GRAM_TAU_RATIO * theta:
        return None
    c = theta + _gamma(n + 1) * theta
    d = G.diagonal()
    round_h = _U * (c + max(float(d.max()), -float(d.min())))
    np.negative(G, out=G)
    G.flat[::n + 1] += c
    _, info = dpotrf(F, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        return None
    flat = G.ravel()
    rho = float(flat @ flat)
    np.abs(G, out=G)
    rho = min(rho, float(G.sum(axis=0).max()) * float(G.sum(axis=1).max()))
    bar = (c + slack + round_h + _gamma(2 * n + 4) * rho) * (1.0 + 4.0 * _U)
    return bar if bar - theta <= _GRAM_TAU_RATIO * theta else None


def _gram_residual_norms(G, m, s, Vt):
    """(||R||_2, ||R||_F) of R = S - Q W Vt, for the (Q, W, Vt, s) of
    _subspace_factors(S, C, k), from the Gram matrix G = S^T S of the m x n
    S, with max |S| in [1/2, 1), without forming R; None when
    _lambda_max_upper certifies no bound. G is kept: the update runs on a
    copy.

    With B = Q^T S and B_k = W Vt its truncated SVD (singular values s),
    R^T R = S^T S - B_k^T B_k, since Q^T Q = I and B_k's rows are orthogonal
    to those of B - B_k. So R^T R = G - Vt^T diag(s^2) Vt, a rank-k update
    of G in the copy's buffer (dsyrk), and ||R||_F^2 = tr(G) - sum s^2. The
    computed G is within gamma_m || |S|^T |S| ||_2 <= gamma_m tr(S^T S) of
    S^T S (Higham, Thm. 3.5 and || |S| ||_2 <= ||S||_F), and the update adds
    at most gamma_{k+1} (|| |G| ||_2 + sum s^2) <= 2 gamma_{k+1} tr(G);
    slack = gamma_{m+2k+4} tr(G) covers both with their second-order
    terms. The bound is on lambda_max(S^T S - B_k^T B_k) for the computed
    factors, which miss Q^T Q = I and the exact truncation of Q^T S by
    rounding that the residual formed in floats carries too.

    tau <= _GRAM_TAU_RATIO theta also bounds the Frobenius cancellation:
    tr(G) u / ||R||_F^2 <= slack / theta.
    """
    from scipy.linalg.blas import dsyrk

    t = float(np.trace(G))
    G = G.copy()
    dsyrk(-1.0, Vt.T * s, beta=1.0, c=G.T, lower=1, overwrite_c=1)
    lam = _lambda_max_upper(G, _gamma(m + 2 * s.size + 4) * t)
    if lam is None:
        return None
    return math.sqrt(lam), math.sqrt(max(t - float(s @ s), 0.0))


def _gram_projected_norm(G, m, Z):
    """||S - S Z Z^T||_2 for an n x k Z with orthonormal columns, from the
    Gram matrix G = S^T S of the m x n S, with max |S| in [1/2, 1), without
    forming the residual (G is kept); None when _lambda_max_upper certifies
    no bound.

    For any Z, R = S (I - Z Z^T) has R^T R = P G P, P = I - Z Z^T,
    = G - W Z^T - Z W^T with Y = G Z, X = Z^T Y and W = Y - Z X / 2 (X is
    symmetric), one rank-2k update of a copy of G (dsyr2k). Besides G's
    own rounding, gamma_m tr(G) as in _gram_residual_norms, the products
    round by at most, with g = ||G||_inf >= || |G| ||_2, ||Z||_2 = 1 and
    ||Z||_F = sqrt(k): 3 sqrt(k) gamma_n g through Y, k gamma_n g through
    X, (k gamma_k + 3 sqrt(k) u) g through W and (3k + 1) gamma_{2k+1} g in
    the update. slack = gamma_{m+4} tr(G) + (3 sqrt(k) + k + 1)
    gamma_{n+7k} g covers them with their second-order terms.
    """
    from scipy.linalg.blas import dsyr2k

    n, k = Z.shape
    P = np.abs(G)
    g = float(P.sum(axis=1).max())
    np.copyto(P, G)
    Y = G @ Z
    W = Y - Z @ (Z.T @ Y) * 0.5
    dsyr2k(-1.0, W, Z, beta=1.0, c=P.T, lower=1, overwrite_c=1)
    slack = (_gamma(m + 4) * float(np.trace(G))
             + (3.0 * math.sqrt(k) + k + 1.0) * _gamma(n + 7 * k) * g)
    lam = _lambda_max_upper(P, slack)
    return None if lam is None else math.sqrt(lam)


def pseudo_inverse(A):
    """Moore-Penrose pseudo-inverse via the rank-truncated SVD."""
    A = as_matrix(A)
    f = svd(A)
    if f.rank == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    return (f.V / f.singular_values) @ f.U.T


def apply_plan_columns(A, plan):
    """C = A * Omega * S: picked columns of A, rescaled, in plan order."""
    return _plan_columns(as_matrix(A), plan)


def _plan_columns(A, plan):
    """apply_plan_columns of a validated A."""
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
    """(Q, W, Vt, s) with Q W Vt = Q (Q^T A)_k, Q an orthonormal basis of
    col(C) and s the singular values of (Q^T A)_k, for a validated A and a
    finite C; callers that need only Vt never form the m x n product."""
    C = np.ascontiguousarray(C)
    if C.shape[0] != A.shape[0]:
        raise ArgumentError("C.rows must equal A.rows")
    if not (1 <= k <= C.shape[1]):
        raise ArgumentError(f"need 1 <= k <= C.cols, got k={k}, C.cols={C.shape[1]}")
    Q = _rank_svd(C).U
    if Q.shape[1] == 0:
        return Q, np.zeros((0, 0)), np.zeros((0, A.shape[1])), np.zeros(0)
    Ub, sb, Vbt, e = _svd(Q.T @ A, True)
    t = min(k, len(sb))
    s = np.ldexp(sb[:t], e)
    return Q, Ub[:, :t] * s, Vbt[:t], s


def best_rank_k_in_subspace(A, C, k):
    """Best Frobenius rank-k approximation of A inside the column space of C.

    Returns (approx, Z): approx = Q (Q^T A)_k with Q an orthonormal basis of
    col(C), and Z the right singular vectors of (Q^T A)_k. The Frobenius
    error is exactly min over rank-<=k Psi of ||A - C Psi||_F; the spectral
    error of the same approx is within sqrt(2) of the spectral optimum.

    If rank(C) < k the approximation (and Z) may have rank < k.
    """
    Q, W, Vt, _ = _subspace_factors(as_matrix(A), as_matrix(C, "C"), k)
    return Q @ W @ Vt, np.ascontiguousarray(Vt.T)
