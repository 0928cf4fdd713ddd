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
    orthonormal Hadamard matrix, computed by the recursive butterfly.
    """
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    Y = X.reshape(-1, 1).copy() if squeeze else X.copy()
    n = Y.shape[0]
    if n & (n - 1):
        raise ArgumentError(f"row count {n} is not a power of two")
    h = 1
    while h < n:
        B = Y.reshape(n // (2 * h), 2, h, -1)  # a view: Y is C-contiguous
        a = B[:, 0].copy()
        B[:, 0] += B[:, 1]
        np.subtract(a, B[:, 1], out=B[:, 1])
        h *= 2
    Y /= math.sqrt(n)
    return Y[:, 0] if squeeze else Y


def _pad_rows(A, m_pad):
    if A.shape[0] == m_pad:
        return A
    out = np.zeros((m_pad,) + A.shape[1:])
    out[: A.shape[0]] = A
    return out


def srht_rows(A, b, r, seed=0):
    """Subsampled randomized Hadamard transform of the rows of A (and b).

    Returns (A_sk, b_sk, plan): r uniformly sampled (with replacement) rows
    of H D [A | b] after zero-padding to m_pad = 2^ceil(log2 m), rescaled by
    sqrt(m_pad / r). b_sk is None when b is None. The plan indexes rows of
    the padded, transformed matrix (source_dim = m_pad).
    """
    A = as_matrix(A)
    m = A.shape[0]
    m_pad = 1 << max(0, (m - 1).bit_length())
    if not (1 <= r <= m_pad):
        raise ArgumentError(f"need 1 <= r <= padded dim {m_pad}, got r={r}")
    gen = rng.stream(seed, rng.SRHT)
    signs = 2.0 * gen.integers(0, 2, size=m_pad) - 1.0
    idx = gen.integers(0, m_pad, size=int(r))
    scale = math.sqrt(m_pad / r)

    stack = A if b is None else np.hstack([A, as_vector(b).reshape(-1, 1)])
    mixed = fwht(_pad_rows(stack, m_pad) * signs.reshape(-1, 1))
    sk = mixed[idx] * scale
    plan = SamplingPlan(m_pad, idx, scale, with_replacement=True)
    if b is None:
        return sk, None, plan
    return sk[:, :-1], sk[:, -1].copy(), plan
