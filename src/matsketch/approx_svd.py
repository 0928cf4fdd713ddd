"""Fast approximate factorizations A = (A Z) Z^T + E with E Z = 0.

These replace the exact SVD inside the composite selection algorithms: a
Gaussian sketch of the row space (Frobenius flavor) or a power-iterated
sketch (spectral flavor), followed by the restricted best rank-k step.
Both divide A by a power of two first, so 2^j A gives the same Z as A.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ArgumentError
from .linalg import (_subspace_factors, as_matrix, best_rank_k_in_subspace,
                     pow2_scaled)
from .sketch import srht_rows


@dataclass(frozen=True)
class ApproxBasis:
    """Orthonormal Z (n x k) with meta describing how it was built."""

    Z: np.ndarray
    k: int
    seed: int
    method: str
    oversample: int
    power: int


def _validate_k(A, k):
    if not (2 <= k <= min(A.shape)):
        raise ArgumentError(
            f"need 2 <= k <= min(m,n)={min(A.shape)}, got k={k}; "
            "the guarantees additionally assume k < rank(A)"
        )


def _complete_columns(A, Z, k, seed):
    """Pad Z with orthonormal columns when a degenerate sketch came up short."""
    if Z.shape[1] >= k:
        return Z
    gen = rng.stream(seed, rng.FAST_SVD, 99)
    extra = gen.standard_normal((A.shape[1], k - Z.shape[1]))
    Q, _ = np.linalg.qr(np.hstack([Z, extra]))
    return np.ascontiguousarray(Q[:, :k])


def fast_frobenius_svd(A, k, eps, seed=0):
    """Gaussian-sketch factorization tuned for Frobenius error.

    Y = A R with R n x r Gaussian, r = min(k + ceil(k/eps + 1), n), and
    Z = right singular vectors of (Q^T A)_k for Q an orthonormal basis of
    Y. Satisfies E ||A - A Z Z^T||_F^2 <= (1 + eps) ||A - A_k||_F^2; at
    r = n, Y already spans A's column space and Z is the exact top-k.
    """
    A, _ = pow2_scaled(as_matrix(A))
    _validate_k(A, k)
    if not (0 < eps < 1):
        raise ArgumentError(f"need 0 < eps < 1, got {eps}")
    n = A.shape[1]
    r = min(k + math.ceil(min(k / eps + 1, n)), n)  # k / eps may be inf
    p = r - k
    gen = rng.stream(seed, rng.FAST_SVD, 0)
    Y = A @ gen.standard_normal((n, r))
    Z = _complete_columns(
        A, np.ascontiguousarray(_subspace_factors(A, Y, k)[2].T), k, seed)
    return ApproxBasis(Z=Z, k=int(k), seed=int(seed), method="fast-frobenius",
                       oversample=p, power=0)


def spectral_power_exponent(m, n, k, eps):
    """Smallest q >= 1 making the power-iterated sketch (sqrt(2)+eps)-accurate.

    Chosen by directly enforcing (1 + sqrt(k/(p-1)) + e sqrt(k+p)/p *
    sqrt(min(m,n) - k))^(1/(2q+1)) <= 1 + eps/sqrt(2) with p = k, found by
    doubling and bisection (the test only gets easier as q grows).
    """
    if k < 2:
        raise ArgumentError(f"need k >= 2 for p = k oversampling, got k={k}")
    target = 1.0 + eps / math.sqrt(2.0)
    if not target > 1.0:
        raise ArgumentError(f"need 1 + eps/sqrt(2) > 1 in floats, got eps={eps}")
    p = k
    base = 1.0 + math.sqrt(k / (p - 1)) \
        + (math.e * math.sqrt(k + p) / p) * math.sqrt(max(min(m, n) - k, 0))
    lo, hi = 0, 1  # the test fails at lo (or lo = 0) and holds at hi
    while base ** (1.0 / (2 * hi + 1)) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if base ** (1.0 / (2 * mid + 1)) > target else (lo, mid)
    return hi


def fast_spectral_svd(A, k, eps, seed=0):
    """Power-iterated sketch factorization tuned for spectral error.

    Y = (A A^T)^q A R with R n x 2k Gaussian and q chosen by
    spectral_power_exponent; Z from best_rank_k_in_subspace(A, Y, k).
    Satisfies E ||A - A Z Z^T||_2 <= (sqrt(2) + eps) ||A - A_k||_2.
    The iterate is re-orthonormalized (QR) after every application of
    A A^T; that leaves the span unchanged and stops float underflow.
    """
    A, _ = pow2_scaled(as_matrix(A))
    _validate_k(A, k)
    if not (0 < eps < 1 or eps == 1):
        raise ArgumentError(f"need 0 < eps <= 1, got {eps}")
    m, n = A.shape
    q = spectral_power_exponent(m, n, k, eps)
    gen = rng.stream(seed, rng.FAST_SVD, 1)
    Y = A @ gen.standard_normal((n, 2 * k))
    Y, _ = np.linalg.qr(Y)
    for _ in range(q):
        Y = A @ (A.T @ Y)
        Y, _ = np.linalg.qr(Y)
    Z = _complete_columns(
        A, np.ascontiguousarray(_subspace_factors(A, Y, k)[2].T), k, seed)
    return ApproxBasis(Z=Z, k=int(k), seed=int(seed), method="fast-spectral",
                       oversample=k, power=q)


def srht_lowrank(A, k, eps, seed=0, r_override=None):
    """Rank-k approximation from an SRHT column sketch.

    C = A Theta^T with r = ceil(200 k ln(40k) log2(40 k n) / eps) sampled
    columns, then the Frobenius-optimal rank-k approximation inside
    col(C). With the formula r this holds w.p. >= 0.7:
    ||A - out||_F^2 <= (1 + eps) ||A - A_k||_F^2. r_override substitutes
    the sketch width for desk-scale runs where the formula exceeds n.
    """
    A = as_matrix(A)
    m, n = A.shape
    if not (1 <= k <= min(m, n)):
        raise ArgumentError(f"need 1 <= k <= min(m,n), got k={k}")
    if not (0 < eps < 0.5):
        raise ArgumentError(f"need 0 < eps < 1/2, got {eps}")
    if r_override is None:
        r = math.ceil(200.0 * k * math.log(40.0 * k) * math.log2(40.0 * k * n) / eps)
    else:
        r = int(r_override)
    if r > n:
        raise ArgumentError(
            f"sketch wider than input: r={r} > n={n} (formula width does not "
            "fit this matrix; pass r_override to run anyway)"
        )
    sk, _, _ = srht_rows(A.T, None, r, seed=rng.derive_seed(seed, rng.FAST_SVD, 2))
    C = sk.T  # m x r
    approx, _ = best_rank_k_in_subspace(A, C, k)
    return approx
