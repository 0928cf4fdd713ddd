"""Column-sampling primitives.

Randomized: additive (column-norm) sampling, adaptive (residual-norm)
sampling, subspace (leverage) sampling. Deterministic: strong
rank-revealing QR selection and the dual-set barrier sparsifiers, which
greedily reweight indices while soft barrier potentials keep the smallest
eigenvalue of one accumulated quadratic form and the largest eigenvalue
(or trace) of another inside moving thresholds.
"""

import math

import numpy as np
import scipy.linalg

from . import rng
from .errors import ArgumentError, InfeasibleStepError, NumericError, RankError
from .linalg import (_U, SamplingPlan, _gamma, _svd, as_matrix, pow2_scaled,
                     rank_cutoff, svd)

_ORTHO_TOL = 1e-10
_SCAN_BLOCK = 64  # rows in the first barrier scan block
# the LAPACK gufunc behind np.linalg.eigh (lower triangle), without the
# wrapper's argument checks and error-state context: the same call at about
# half the cost on the barrier's k x k matrices; where LAPACK does not
# converge it returns NaNs, which the barrier checks then reject
_eigh = np.linalg._umath_linalg.eigh_lo


def additive_sampling(A, r, seed=0):
    """r i.i.d. column picks, p_i proportional to the squared column norm.

    Unit weights: span-based uses need no rescaling.
    """
    A = as_matrix(A)
    n = A.shape[1]
    if not (1 <= r <= n):
        raise ArgumentError(f"need 1 <= r <= n={n}, got r={r}")
    # the law is scale-invariant: an exact power-of-two rescale keeps the
    # squares finite and nonzero, and changes no bit where they already were
    B, _ = pow2_scaled(A)
    sq = np.einsum("ij,ij->j", B, B)
    total = sq.sum()
    if total <= 0:
        raise ArgumentError("zero matrix: column probabilities undefined")
    gen = rng.stream(seed, rng.ADDITIVE)
    idx = gen.choice(n, size=int(r), replace=True, p=sq / total)
    return SamplingPlan(n, idx, 1.0, with_replacement=True)


def adaptive_sampling(A, C1, s, seed=0):
    """s i.i.d. picks proportional to residual column norms after C1.

    Residual B = A - C1 C1^+ A. If C1 already spans A the distribution is
    undefined; the plan then repeats the largest column of A and is marked
    degenerate (any choice preserves exactness).
    """
    A = as_matrix(A)
    C1 = as_matrix(C1, "C1", allow_empty_cols=True)
    if C1.shape[0] != A.shape[0]:
        raise ArgumentError("C1.rows must equal A.rows")
    if s < 1:
        raise ArgumentError(f"need s >= 1, got {s}")
    n = A.shape[1]
    # same exact rescale as additive_sampling, for the squares below
    B, _ = pow2_scaled(A)
    if C1.shape[1] == 0:
        resid = B
    else:
        Q = svd(C1).U
        resid = B - Q @ (Q.T @ B)
    sq = np.einsum("ij,ij->j", resid, resid)
    total = sq.sum()
    fro2 = float(np.einsum("ij,ij->", B, B))
    if total <= (1e-10 ** 2) * fro2 or total <= 0:
        j = int(np.argmax(np.einsum("ij,ij->j", B, B)))
        return SamplingPlan(n, np.full(int(s), j), 1.0, with_replacement=True,
                            note="degenerate-residual")
    gen = rng.stream(seed, rng.ADAPTIVE)
    idx = gen.choice(n, size=int(s), replace=True, p=sq / total)
    return SamplingPlan(n, idx, 1.0, with_replacement=True)


def subspace_sampling(X, beta, r, seed=0):
    """r i.i.d. row picks of X with leverage-mixture probabilities.

    beta = 1 gives p_i = ||x_i||^2 / ||X||_F^2; beta < 1 mixes with the
    uniform distribution: p_i = beta * lev_i + (1 - beta)/n. A pick of
    index i gets weight 1/sqrt(p_i * r).
    """
    X = as_matrix(X, "X")
    n = X.shape[0]
    if not (0 < beta <= 1):
        raise ArgumentError(f"need 0 < beta <= 1, got {beta}")
    if r < 1:
        raise ArgumentError(f"need r >= 1, got {r}")
    sq = np.einsum("ij,ij->i", X, X)
    total = sq.sum()
    if total <= 0:
        raise ArgumentError("zero matrix: leverage probabilities undefined")
    p = beta * (sq / total) + (1.0 - beta) / n
    gen = rng.stream(seed, rng.SUBSPACE)
    idx = gen.choice(n, size=int(r), replace=True, p=p / p.sum())
    return SamplingPlan(n, idx, 1.0 / np.sqrt(p[idx] * r), with_replacement=True)


def rrqr_select(X, f=2.0):
    """Strong rank-revealing QR selection of k rows of an n x k matrix.

    Runs column-pivoted QR on X^T, then swaps a selected column against a
    rejected one while any entry of A_k^{-1} B_k exceeds f (each swap grows
    |det A_k| by that entry, so the loop terminates). The k selected
    indices guarantee sigma_k(X^T Omega) >= sigma_k(X^T)/sqrt(f^2 k (n-k) + 1).
    """
    X = as_matrix(X, "X")
    n, k = X.shape
    if n < k:
        raise ArgumentError(f"need n >= k, got n={n} < k={k}")
    if not f > 1:
        raise ArgumentError(f"need f > 1, got {f}")
    Xt = np.ascontiguousarray(X.T)  # k x n
    sv = np.linalg.svd(Xt, compute_uv=False)
    if sv[-1] <= rank_cutoff(sv, Xt.shape):
        raise RankError(f"X has numerical rank < k={k}")
    if n == k:
        return SamplingPlan(n, np.arange(n), 1.0)

    _, _, piv = scipy.linalg.qr(Xt, pivoting=True, mode="economic")
    perm = np.array(piv, dtype=int)
    cap = math.ceil(k * math.log(n) / math.log(f)) + 10 * k
    swaps = 0
    while True:
        R = np.linalg.qr(Xt[:, perm], mode="r")
        T = scipy.linalg.solve_triangular(R[:, :k], R[:, k:])
        i, j = np.unravel_index(np.argmax(np.abs(T)), T.shape)
        if abs(T[i, j]) <= f:
            break
        perm[i], perm[k + j] = perm[k + j], perm[i]
        swaps += 1
        if swaps > cap:
            raise NumericError(
                f"internal: RRQR swap loop exceeded cap {cap}; the determinant "
                "must strictly increase per swap, so this indicates a bug"
            )
    return SamplingPlan(n, np.sort(perm[:k]), 1.0)


# ---------------------------------------------------------------------------
# dual-set barrier sparsifiers


def _ortho_deviation(M):
    """max |M^T M - I|: how far the columns of M are from orthonormal."""
    G = M.T @ M
    G.flat[:: G.shape[0] + 1] -= 1.0
    return float(np.max(np.abs(G, out=G)))


def _check_orthonormal(M, name):
    dev = _ortho_deviation(M)
    if dev > _ORTHO_TOL:
        raise ArgumentError(f"{name} must have orthonormal columns "
                            f"(deviation {dev:.2e} > {_ORTHO_TOL})")


def _is_identity(M):
    """M is exactly I_n (O(n^2), where the orthonormality check is O(n^3))."""
    n = M.shape[0]
    return (M.shape == (n, n) and np.count_nonzero(M) == n
            and bool((M.diagonal() == 1.0).all()))


def _barrier_core(V, r, upper, hook=None, complement=False):
    """Shared greedy loop; returns the merged, rescaled weights s (length n).

    upper is an n x ell matrix U for spectral control of ||U^T Omega S||_2
    (V itself for the single-set walk, which then reuses the lower side's
    eigenpairs), or a length-n vector of squared column norms for Frobenius
    control by a constant per-index potential. With complement, upper is an
    orthonormal n x q W and U U^T = I - W W^T, ell = n - q, the only form
    in which the walk reads U: an n x 0 W is I_n with no n x n array.

    B = sum_j s_j u_j u_j^T is never formed: with Y = diag(sqrt(s_P)) U[P]
    over the p <= tau picked rows P, eigh(Y Y^T) = (nu, Q), R = Y^T Q,
    z = u R and c = U_tau + dU,
      u^T (cI - B)^-1 u = |u|^2/c + sum z^2 / (c (c - nu)),
      u^T (cI - B)^-2 u = |u|^2/c^2 + sum z^2 (2c - nu) / (c (c - nu))^2,
      tr (xI - B)^-1 = (ell - p)/x + sum 1/(x - nu);
    nothing divides by nu, so a singular Gram (p > ell) needs no care.
    For the complement, x = sqrt(s_P) and X = diag(x) W[P] give
    Y Y^T = diag(x^2) - X X^T (x^2, as I_n's span walk rounds it, not s_P),
    |u_j|^2 = 1 - |w_j|^2 and z_j = (x Q scattered into rows P) - w_j X^T Q.

    Rows with ||v_j||^2 <= eps k/n are round-off (zero input columns) and
    never picked: their weight 2/(U + L) would be unbounded. Each step
    picks the smallest feasible index, so rows are scored in doubling prefix
    blocks (_SCAN_BLOCK, 2x, 4x, ...) up to the first block holding a
    feasible row; a row's values do not depend on its block.

    A step costs one k x k eigh and a few dozen numpy calls on one block,
    so the loop keeps the calls few. The block views are cut once, and the
    eigenvalue terms of a step fill the rows of one buffer
      G = [lam - L, d, d^2, e^2, e, U_tau - lam],
    where (lam, W) = eigh(A), d = lam - L - 1 and e = c - lam; the last
    three rows are kept on the single-set walk only. The row sums of 1/G
    give both potential differences. With VW = (V W)^2 entrywise, one
    broadcast divide of VW by the middle rows of G and one sum give all
    the block's row sums: sum VW/d and sum VW/d^2 for the lower side, and
    sum VW/e^2 and sum VW/e for the upper side of the single-set walk.
    Each sum takes the same floating-point operations in the same order as
    when it is taken on its own, so the grouping changes no bit.

    hook, if given, is (steps, check): after each step tau in the set
    steps, check(tau, s) is called with the weights of the walk so far,
    rescaled as the return value is (by (1 - sqrt(k/r))/r, r the walk's
    parameter); a true result ends the walk there and those weights are
    returned. The hook changes no bit of the walk.
    """
    n, k = V.shape
    if not (k < r):
        raise ArgumentError(f"need k < r, got k={k}, r={r}")
    shrink = 1.0 - math.sqrt(k / r)
    sqrt_rk = math.sqrt(r * k)
    live = np.einsum("ij,ij->i", V, V) > np.finfo(float).eps * k / n

    same = upper is V and not complement
    quadratic = upper.ndim == 2
    if quadratic:
        ell = upper.shape[1]
        u_sq = np.einsum("ij,ij->i", upper, upper)
        if complement:
            ell, u_sq = n - ell, 1.0 - u_sq
        dU = (1.0 + math.sqrt(ell / r)) / shrink
    else:
        total = float(upper.sum())
        dU = total / shrink
        UF = upper / dU if total > 0 else np.zeros(n)

    # (lo, rows of V, live mask, upper side) for each scan block
    blocks = []
    hi = 0
    while hi < n:
        lo, hi = hi, min(n, max(_SCAN_BLOCK, 2 * hi))
        if same:
            side = None
        elif quadratic:
            side = (upper[lo:hi], u_sq[lo:hi])
        else:
            side = UF[lo:hi]
        blocks.append((lo, V[lo:hi], live[lo:hi], side))
    # the eigenvalue terms of a step (see above) and views of their rows
    G = np.empty((6 if same else 3, k))
    G_inv = np.empty_like(G)
    D_rows = G[1:5 if same else 3, None]  # broadcasts against block rows
    gap, d, d2 = G[0], G[1], G[2]
    if same:
        e2, e, gapU = G[3], G[4], G[5]

    s = np.zeros(n)
    scale = shrink / r
    A_acc = np.zeros((k, k))
    for tau in range(int(r)):
        # row-independent quantities: once per step
        L = tau - sqrt_rk
        lam, W = _eigh(A_acc)
        np.subtract(lam, L, out=gap)
        np.subtract(lam, L + 1.0, out=d)
        if not d.min() > 0:  # also a nan from an eigh that did not converge
            raise NumericError("internal: lower barrier crossed")
        np.multiply(d, d, out=d2)
        if quadratic:
            Uthr = dU * (tau + math.sqrt(ell * r))
            c = Uthr + dU
            if same:
                np.subtract(c, lam, out=e)
                np.subtract(Uthr, lam, out=gapU)
                np.multiply(e, e, out=e2)
            else:
                P = np.flatnonzero(s)
                x = np.sqrt(s[P])
                Y = x[:, None] * upper[P]
                nu, Q = _eigh(np.diag(x * x) - Y @ Y.T if complement else Y @ Y.T)
                R = Y.T @ Q
                e = c - nu
            if not e.min(initial=math.inf) > 0:
                raise NumericError("internal: upper barrier crossed")
        inv_sums = np.divide(1.0, G, out=G_inv).sum(axis=1)
        denomL = float(inv_sums[1] - inv_sums[0])
        if denomL <= 0:
            raise NumericError("internal: lower potential difference not positive")
        if quadratic:
            if same:
                denomU = float(inv_sums[5] - inv_sums[4])
            else:
                denomU = (float((1.0 / (Uthr - nu)).sum() - (1.0 / e).sum())
                          + (ell - nu.size) * (1.0 / Uthr - 1.0 / c))
                w1 = 1.0 / (c * e)
                w2 = (c + e) / (c * c * e * e)
            if denomU <= 0:
                raise NumericError("internal: upper potential difference not positive")

        # per-row values, block by block, up to the first feasible row
        margin = math.inf
        for lo, Vb, ok, side in blocks:
            VW = Vb @ W
            VW *= VW
            sums = (VW / D_rows).sum(axis=2)
            Lvals = sums[1] / denomL - sums[0]
            if same:
                Uvals = sums[2] / denomU + sums[3]
            elif quadratic:
                ub, Z2 = side[1], side[0] @ R
                if complement:  # z^2 = (W R - x Q in rows P)^2
                    a, b = np.searchsorted(P, (lo, lo + ub.size))
                    Z2[P[a:b] - lo] -= x[a:b, None] * Q[a:b]
                Z2 *= Z2
                Uvals = (ub / (c * c) + Z2 @ w2) / denomU + (ub / c + Z2 @ w1)
            else:
                Uvals = side

            # feasible: live, U <= L + 1e-9 max(1, |L|) and U + L > 0
            bar = np.abs(Lvals)
            np.maximum(bar, 1.0, out=bar)
            bar *= 1e-9
            bar += Lvals
            feas = Uvals <= bar
            feas &= ok
            total_UL = Uvals + Lvals
            feas &= total_UL > 0
            i = int(feas.argmax())  # smallest feasible index, if any
            if feas[i]:
                break
            margin = np.minimum(  # keeps a nan
                margin, np.min(Uvals - Lvals, where=ok, initial=math.inf))
        else:
            raise InfeasibleStepError(
                tau, float(margin), "check that the input columns are orthonormal")
        t = 2.0 / total_UL[i]
        if not (t > 0 and math.isfinite(t)):
            raise InfeasibleStepError(tau, t, "nonpositive or non-finite weight")
        s[lo + i] += t
        v = Vb[i]
        A_acc += t * (v[:, None] * v)
        if (hook is not None and tau + 1 in hook[0]
                and hook[1](tau + 1, s * scale)):
            break

    return s * scale


def _plan_from_weights(s):
    nz = np.flatnonzero(s > 0)
    return SamplingPlan(len(s), nz, np.sqrt(s[nz]))


def _embedding_kappa(V, plan, dev):
    """kappa_bar >= the distortion of the plan's row sampling S on span(V),

        max ||S y||^2 / ||y||^2  over  min ||S y||^2 / ||y||^2,  y in span(V),

    for an m x d V of full column rank and dev = _ortho_deviation(V); inf
    when nothing finite is certified. For an exactly orthonormal V this is
    kappa = lambda_max / lambda_min of (S V)^T (S V), and the return is
    kappa (1 + tau), tau the rounding margin below.

    X = S V holds the p picked rows of V times the plan's weights (the S
    the coreset applies), each entry rounded once: X + dX with
    |dX| <= u |X|. LAPACK's dgesdd is normwise backward stable: the
    computed singular values are exact for X + dX + E with
    ||E||_F <= gamma~_{pd} ||X||_F (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm. 19.4 for the Householder bidiagonalization;
    the bidiagonal stage adds a relative error of the same order), and
    gamma_{16pd+1} ||X||_F, with ||X||_F read from the computed values,
    bounds both perturbations with room for the constant and the
    second-order terms. By Weyl, sigma_1(X) <= sigma_1 + psi and
    sigma_d(X) >= sigma_d - psi for the computed sigma and that psi.
    For y = V z, ||S y||^2 = ||X z||^2 lies in [sigma_d(X)^2, sigma_1(X)^2]
    times ||z||^2 and ||y||^2 = z^T V^T V z in [1 - delta, 1 + delta]
    times ||z||^2, where delta >= ||V^T V - I||_2: the computed Gram entry
    is off by at most gamma_m (1 + dev), and ||M||_2 <= d max |M_ij|, so
    delta = d (dev + gamma_m (1 + dev)). Hence

        kappa_bar = ((sigma_1 + psi) / (sigma_d - psi))^2
                    (1 + delta) / (1 - delta),

    times (1 + 8u) for the rounding of the expression. It bounds the
    distortion on span(V) itself; how far A x - b strays from span(V)
    through the rounding of the factorization of [A b] is not covered, as
    it is not by the formula-size guarantee either.
    """
    X = plan.weights[:, None] * V[plan.indices]
    p, d = X.shape
    if p < d:
        return math.inf
    sv = _svd(X, False)[1]  # their ratio does not depend on _svd's 2^e
    psi = _gamma(16 * p * d + 1) * math.sqrt(float(sv @ sv))
    delta = d * (dev + _gamma(V.shape[0]) * (1.0 + dev))
    lo = float(sv[-1]) - psi
    if not (lo > 0 and delta < 1):
        return math.inf
    return (((float(sv[0]) + psi) / lo) ** 2 * (1.0 + delta) / (1.0 - delta)
            * (1.0 + 8.0 * _U))


def _barrier_complement(V, W, r):
    """barrier_dual_spectral for U U^T = I - W W^T, W = V or n x 0 (I_n)."""
    _check_orthonormal(V, "V")
    return _plan_from_weights(_barrier_core(V, int(r), W, complement=True))


def barrier_dual_spectral(V, U, r):
    """Deterministic dual-set sparsifier (spectral/spectral).

    V n x k and U n x ell, both with orthonormal columns, k < r <= n.
    The returned plan satisfies sigma_k(V^T Omega S) >= 1 - sqrt(k/r) and
    ||U^T Omega S||_2 <= 1 + sqrt(ell/r), with at most r nonzero weights.
    Thresholds move as L_tau = tau - sqrt(rk), U_tau = dU (tau + sqrt(ell r))
    with dL = 1, dU = (1 + sqrt(ell/r)) / (1 - sqrt(k/r)); each step picks
    the smallest feasible index (U(u_j) <= L(v_j)), weight t = 2/(U + L);
    final weights are rescaled by (1 - sqrt(k/r))/r and stored as sqrt(s_i).
    An exact I_n is walked as I - W W^T, W n x 0, without products with it.
    """
    V = as_matrix(V, "V")
    U = as_matrix(U, "U")
    n, k = V.shape
    if U.shape[0] != n:
        raise ArgumentError("V and U must have the same number of rows")
    if not (k < r <= n):
        raise ArgumentError(f"need k < r <= n, got k={k}, r={r}, n={n}")
    if _is_identity(U):
        return _barrier_complement(V, U[:, :0], r)
    _check_orthonormal(V, "V")
    same = U is V or (U.shape == V.shape and np.array_equal(U, V))
    if not same:
        _check_orthonormal(U, "U")
    return _plan_from_weights(_barrier_core(V, int(r), V if same else U))


def barrier_single(V, r):
    """Single-set sparsifier: both singular-value bounds, 1 +- sqrt(k/r).

    Exactly barrier_dual_spectral(V, V, r).
    """
    return barrier_dual_spectral(V, V, r)


def barrier_dual_frobenius(V, A_cols, r):
    """Dual-set sparsifier, spectral lower bound + Frobenius upper bound.

    V n x k orthonormal; A_cols is ell x n (its n COLUMNS pair with the n
    rows of V). Guarantees sigma_k(V^T Omega S) >= 1 - sqrt(k/r) and
    ||A_cols Omega S||_F <= ||A_cols||_F. Upper side uses the constant
    per-index potential U_F(a_j) = ||a_j||^2 / dU with
    dU = sum_i ||a_i||^2 / (1 - sqrt(k/r)) and thresholds U_tau = tau * dU;
    a zero A_cols makes the Frobenius condition vacuous.
    """
    V = as_matrix(V, "V")
    A_cols = as_matrix(A_cols, "A_cols")
    n, k = V.shape
    if A_cols.shape[1] != n:
        raise ArgumentError(
            f"A_cols must have n={n} columns, got {A_cols.shape[1]}"
        )
    if not (k < r <= n):
        raise ArgumentError(f"need k < r <= n, got k={k}, r={r}, n={n}")
    _check_orthonormal(V, "V")
    # the walk reads only c_j / sum(c): an exact power-of-two rescale keeps
    # the squares finite and nonzero and leaves those ratios bit-identical
    S, _ = pow2_scaled(A_cols)
    c_sq = np.einsum("ij,ij->j", S, S)
    return _plan_from_weights(_barrier_core(V, int(r), c_sq))


def barrier_dual_general(X, Y, r, mode="spectral"):
    """Barrier sparsification for inputs that are not orthonormal.

    Runs the matching barrier routine on the left-singular-vector factor of
    X (and of Y in spectral mode). Guarantees, with rho = rank(X):
    ||(X^T Omega S)^+||_2 * (1 - sqrt(rho/r)) <= ||(X^T)^+||_2, plus
    ||Y^T Omega S||_2 <= (1 + sqrt(rank(Y)/r)) ||Y^T||_2 in spectral mode or
    ||Y Omega S||_F <= ||Y||_F in frobenius mode (Y then ell x n). Inputs
    that are already orthonormal are passed through unchanged, so the
    output matches the non-general routine exactly.
    """
    X = as_matrix(X, "X")
    n = X.shape[0]

    def _left_factor(M):
        return M if _ortho_deviation(M) <= _ORTHO_TOL else svd(M).U

    UX = _left_factor(X)
    rho = UX.shape[1]
    if not (rho < r <= n):
        raise ArgumentError(f"need rank(X)={rho} < r <= n={n}, got r={r}")
    if mode == "spectral":
        Y = as_matrix(Y, "Y")
        if Y.shape[0] != n:
            raise ArgumentError("Y must have the same row count as X")
        UY = _left_factor(Y)
        return barrier_dual_spectral(UX, UY, r)
    if mode == "frobenius":
        return barrier_dual_frobenius(UX, Y, r)
    raise ArgumentError(f"unknown mode {mode!r}")
