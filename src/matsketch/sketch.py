"""Random projection operators: Gaussian, rescaled sign, SRHT.

The SRHT path zero-pads to the next power of two, flips signs with a
diagonal D, mixes with the normalized Walsh-Hadamard transform (butterfly,
O(m log m) per column), then samples rows uniformly with replacement and
rescales by sqrt(m_pad / r). x -> H D x is an exact isometry.
"""

import math

import numpy as np

from . import rng
from .errors import ArgumentError
from .linalg import SamplingPlan, as_matrix, as_vector


def gaussian_sketch(A, r, seed=0):
    """A @ R with R an n x r standard Gaussian from the seeded stream."""
    A = as_matrix(A)
    if r < 1:
        raise ArgumentError(f"sketch width r must be >= 1, got {r}")
    gen = rng.stream(seed, rng.GAUSSIAN)
    R = gen.standard_normal((A.shape[1], int(r)))
    return A @ R


def sign_sketch(A, r, seed=0):
    """A @ R with R_ij = +-1/sqrt(r) equiprobable."""
    A = as_matrix(A)
    if r < 1:
        raise ArgumentError(f"sketch width r must be >= 1, got {r}")
    gen = rng.stream(seed, rng.SIGN)
    R = (2.0 * gen.integers(0, 2, size=(A.shape[1], int(r))) - 1.0) / math.sqrt(r)
    return A @ R


def fwht(X):
    """Normalized Walsh-Hadamard transform down the rows (axis 0).

    Row count must be a power of two. Equivalent to H @ X with H the
    orthonormal Hadamard matrix, computed by the recursive butterfly on a
    copy of X (X itself is not written).
    """
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    Y = X.reshape(-1, 1).copy() if squeeze else X.copy()
    _fwht(Y)
    return Y[:, 0] if squeeze else Y


def _fwht(Y):
    """fwht of a C-contiguous Y in Y's own buffer; one half-size scratch
    array serves every butterfly level."""
    n = Y.shape[0]
    if n & (n - 1):
        raise ArgumentError(f"row count {n} is not a power of two")
    scratch = np.empty((n // 2,) + Y.shape[1:])
    h = 1
    while h < n:
        B = Y.reshape(n // (2 * h), 2, h, -1)  # a view: Y is C-contiguous
        a = scratch.reshape(n // (2 * h), h, -1)
        np.copyto(a, B[:, 0])
        B[:, 0] += B[:, 1]
        np.subtract(a, B[:, 1], out=B[:, 1])
        h *= 2
    Y /= math.sqrt(n)


def srht_rows(A, b, r, seed=0):
    """Subsampled randomized Hadamard transform of the rows of A (and b).

    Returns (A_sk, b_sk, plan): r uniformly sampled (with replacement) rows
    of H D [A | b] after zero-padding to m_pad = 2^ceil(log2 m), rescaled by
    sqrt(m_pad / r). b_sk is None when b is None. The plan indexes rows of
    the padded, transformed matrix (source_dim = m_pad).
    """
    A = as_matrix(A)
    m, n = A.shape
    if b is not None:
        b = as_vector(b)
        if b.shape[0] != m:
            raise ArgumentError(f"b has length {b.shape[0]}, expected {m}")
    m_pad = 1 << max(0, (m - 1).bit_length())
    if not (1 <= r <= m_pad):
        raise ArgumentError(f"need 1 <= r <= padded dim {m_pad}, got r={r}")
    gen = rng.stream(seed, rng.SRHT)
    signs = 2.0 * gen.integers(0, 2, size=m_pad) - 1.0
    idx = gen.integers(0, m_pad, size=int(r))
    scale = math.sqrt(m_pad / r)

    # D [A | b] padded with 0 * sign rows (-0.0 under a negative sign)
    mixed = np.empty((m_pad, n + (b is not None)))
    np.multiply(A, signs[:m, None], out=mixed[:m, :n])
    if b is not None:
        np.multiply(b, signs[:m], out=mixed[:m, n])
    np.multiply(0.0, signs[m:, None], out=mixed[m:])
    _fwht(mixed)
    sk = mixed[idx] * scale
    plan = SamplingPlan(m_pad, idx, scale, with_replacement=True)
    if b is None:
        return sk, None, plan
    return sk[:, :-1], sk[:, -1].copy(), plan
