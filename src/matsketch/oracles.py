"""Brute-force ground truth for tiny instances.

Everything here enumerates subsets with plain numpy calls and deliberately
shares no code with the algorithm modules, so tests that compare an
algorithm's output against an oracle are not circular. Hard combinatorial
guards refuse instead of silently truncating.
"""

from itertools import combinations
from math import comb

import numpy as np

from .errors import ArgumentError, GuardError

SUBSET_GUARD = 10**6


def _residual_cc_plus(A, cols):
    C = A[:, list(cols)]
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    if len(s) and s[0] > 0:
        r = int(np.sum(s > s[0] * max(C.shape) * 2.2e-16))
    else:
        r = 0
    Q = U[:, :r]
    return A - Q @ (Q.T @ A)


def _residual_pi_ck(A, cols, k):
    C = A[:, list(cols)]
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    if len(s) and s[0] > 0:
        r = int(np.sum(s > s[0] * max(C.shape) * 2.2e-16))
    else:
        r = 0
    Q = U[:, :r]
    B = Q.T @ A
    Ub, sb, Vbt = np.linalg.svd(B, full_matrices=False)
    t = min(k, len(sb))
    return A - Q @ (Ub[:, :t] * sb[:t]) @ Vbt[:t]


def best_subset_exhaustive(A, k, r, norm="spectral", mode="cc_plus"):
    """Exact best r-column subset by enumeration.

    mode cc_plus scores ||A - C C^+ A||, mode pi_ck scores the rank-k
    restricted error ||A - Pi_{C,k}(A)|| (Frobenius-exact construction).
    Returns (best index tuple, best error). Refuses when C(n, r) > 1e6.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if not (1 <= r <= n):
        raise ArgumentError(f"need 1 <= r <= n, got r={r}, n={n}")
    if norm not in ("spectral", "frobenius"):
        raise ArgumentError(f"unknown norm {norm!r}")
    if mode not in ("cc_plus", "pi_ck"):
        raise ArgumentError(f"unknown mode {mode!r}")
    if comb(n, r) > SUBSET_GUARD:
        raise GuardError(f"C({n},{r}) = {comb(n, r)} exceeds guard {SUBSET_GUARD}")
    ord_ = 2 if norm == "spectral" else "fro"
    best_err = np.inf
    best_cols = None
    for cols in combinations(range(n), r):
        if mode == "cc_plus":
            resid = _residual_cc_plus(A, cols)
        else:
            resid = _residual_pi_ck(A, cols, k)
        err = float(np.linalg.norm(resid, ord_))
        if err < best_err - 0.0:
            best_err = err
            best_cols = cols
    return best_cols, best_err


def all_subset_errors(A, r, norm="spectral"):
    """||A - C C^+ A|| for every r-subset; returns (subsets, errors array)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if comb(n, r) > SUBSET_GUARD:
        raise GuardError(f"C({n},{r}) = {comb(n, r)} exceeds guard {SUBSET_GUARD}")
    ord_ = 2 if norm == "spectral" else "fro"
    subsets = list(combinations(range(n), r))
    errs = np.array(
        [np.linalg.norm(_residual_cc_plus(A, c), ord_) for c in subsets]
    )
    return subsets, errs

