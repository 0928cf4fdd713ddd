"""Dense kernels everything else builds on.

Matrices are plain 2-D float64 ndarrays (C order); `as_matrix` enforces the
construction invariants (finite entries, nonempty) at API boundaries.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class SamplingPlan:
    """Column (or row) picks with rescale weights.

    Encodes the sampling matrix Omega (standard-basis columns at `indices`)
    and the diagonal rescaling S (the `weights`) as one ordered list.
    """

    source_dim: int
    picks: tuple
    with_replacement: bool = False
    note: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "picks", tuple((int(i), float(w)) for i, w in self.picks)
        )
        if len(self.picks) == 0:
            raise ArgumentError("plan has no picks")
        for i, w in self.picks:
            if not (0 <= i < self.source_dim):
                raise ArgumentError(f"pick index {i} outside [0, {self.source_dim})")
            if not (w > 0) or not math.isfinite(w):
                raise ArgumentError(f"pick weight {w} must be a positive real")
        if not self.with_replacement:
            idx = [i for i, _ in self.picks]
            if len(set(idx)) != len(idx):
                raise ArgumentError("duplicate indices in a without-replacement plan")

    @property
    def indices(self):
        return np.array([i for i, _ in self.picks], dtype=int)

    @property
    def weights(self):
        return np.array([w for _, w in self.picks], dtype=float)

    def __len__(self):
        return len(self.picks)


def svd(A):
    """Thin SVD with the numerical-rank cutoff applied.

    Raises NumericError if the LAPACK kernel fails to converge.
    """
    A = as_matrix(A)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"svd failed to converge: {e}") from e
    rho = int(np.sum(s > rank_cutoff(s, A.shape)))
    return SvdFactors(
        U=np.ascontiguousarray(U[:, :rho]),
        singular_values=s[:rho].copy(),
        V=np.ascontiguousarray(Vt[:rho].T),
        rank=rho,
    )


def singular_values(A):
    """The singular values `svd(A)` keeps, from one values-only LAPACK call."""
    A = as_matrix(A)
    try:
        s = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"svd failed to converge: {e}") from e
    return s[s > rank_cutoff(s, A.shape)]


def pow2_scaled(M):
    """(M * 2^-e, e), e the frexp exponent of max |M| (0 for a zero M).

    The rescale is exact and puts max |M| in [1/2, 1), so sums of squares
    of the scaled entries neither overflow nor underflow.
    """
    M = np.asarray(M, dtype=float)
    top = float(np.abs(M).max())
    if top == 0.0:
        return M, 0
    e = math.frexp(top)[1]
    return np.ldexp(M, -e), e


def _pow2_unscaled(x, e):
    """x * 2^e as a float; inf where the result exceeds the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def frobenius_norm(M):
    """||M||_F (of a vector: its 2-norm), safe at any finite scale.

    Bit-identical to np.linalg.norm(M) wherever that neither overflows nor
    underflows, since the power-of-two rescale commutes with every step.
    """
    S, e = pow2_scaled(M)
    return _pow2_unscaled(np.linalg.norm(S), e)


def spectral_norm(M):
    """||M||_2 as sqrt(lambda_max) of the smaller Gram matrix of M.

    One Gram product and one eigvalsh instead of an SVD. The eigenvalue
    step adds a relative error of O(min(m, n) * eps); the Gram product's
    rounding adds at most m times that in the worst case. M is first
    rescaled exactly by a power of two, so the Gram entries neither
    overflow nor underflow.
    """
    S, e = pow2_scaled(as_matrix(M, "M"))
    G = S.T @ S if S.shape[0] >= S.shape[1] else S @ S.T
    try:
        lam = float(np.linalg.eigvalsh(G)[-1])
    except np.linalg.LinAlgError as err:
        raise NumericError(f"eigvalsh failed to converge: {err}") from err
    return _pow2_unscaled(math.sqrt(max(lam, 0.0)), e)


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


def best_rank_k_in_subspace(A, C, k):
    """Best Frobenius rank-k approximation of A inside the column space of C.

    Returns (approx, Z): approx = Q (Q^T A)_k with Q an orthonormal basis of
    col(C), and Z the right singular vectors of (Q^T A)_k. The Frobenius
    error is exactly min over rank-<=k Psi of ||A - C Psi||_F; the spectral
    error of the same approx is within sqrt(2) of the spectral optimum.

    If rank(C) < k the approximation (and Z) may have rank < k.
    """
    A = as_matrix(A)
    C = as_matrix(C, "C")
    if C.shape[0] != A.shape[0]:
        raise ArgumentError("C.rows must equal A.rows")
    if not (1 <= k <= C.shape[1]):
        raise ArgumentError(f"need 1 <= k <= C.cols, got k={k}, C.cols={C.shape[1]}")
    Q = orth_basis(C)
    if Q.shape[1] == 0:
        return np.zeros_like(A), np.zeros((A.shape[1], 0))
    B = Q.T @ A
    try:
        Ub, sb, Vbt = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"svd failed to converge: {e}") from e
    t = min(k, len(sb))
    approx = Q @ (Ub[:, :t] * sb[:t]) @ Vbt[:t]
    Z = np.ascontiguousarray(Vbt[:t].T)
    return approx, Z


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
