"""k-means cost, a Lloyd baseline, and the three feature-reduction
routes (column selection, sign projection, sketched SVD features).

The cost functional is the linear-algebraic one: for an assignment with
normalized indicator X (X_ij = 1/sqrt(s_j) iff row i is in cluster j),
cost = ||A - X X^T A||_F^2, which equals the usual sum of squared
point-to-centroid distances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .approx_svd import fast_frobenius_svd
from .errors import ArgumentError
from .linalg import (apply_plan_columns, as_matrix, pow2_scaled,
                     singular_values)
from .samplers import subspace_sampling


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    k: int
    sizes: tuple = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if labels.size == 0:
            raise ArgumentError("empty assignment")
        if self.k < 1:
            raise ArgumentError(f"need k >= 1, got {self.k}")
        if labels.min() < 0 or labels.max() >= self.k:
            raise ArgumentError(f"labels must lie in [0, {self.k})")
        sizes = np.bincount(labels, minlength=self.k)
        if sizes.min() == 0:
            raise ArgumentError(
                f"empty cluster(s) {np.flatnonzero(sizes == 0).tolist()}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))


def indicator_matrix(assign):
    """The m x k normalized indicator X; X^T X = I_k by construction."""
    m = assign.labels.shape[0]
    X = np.zeros((m, assign.k))
    X[np.arange(m), assign.labels] = 1.0 / np.sqrt(
        np.asarray(assign.sizes)[assign.labels])
    return X


def kmeans_cost(A, assign):
    """||A - X X^T A||_F^2 for the assignment's normalized indicator."""
    A = as_matrix(A)
    if assign.labels.shape[0] != A.shape[0]:
        raise ArgumentError(
            f"assignment covers {assign.labels.shape[0]} rows, matrix has "
            f"{A.shape[0]}")
    X = indicator_matrix(assign)
    return float(np.linalg.norm(A - X @ (X.T @ A)) ** 2)


def _dist2(A, centers):
    D = (np.einsum("ij,ij->i", A, A)[:, None]
         - 2.0 * A @ centers.T
         + np.einsum("ij,ij->i", centers, centers)[None, :])
    return np.maximum(D, 0.0)


def _seed_centers(A, k, gen):
    """k-means++ seeding: first uniform, then squared-distance weighted."""
    m = A.shape[0]
    centers = np.empty((k, A.shape[1]))
    centers[0] = A[int(gen.integers(m))]
    d2 = ((A - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(gen.integers(m))
        else:
            idx = int(gen.choice(m, p=d2 / total))
        centers[j] = A[idx]
        d2 = np.minimum(d2, ((A - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd_once(A, k, gen):
    m = A.shape[0]
    centers = _seed_centers(A, k, gen)
    prev = math.inf
    labels = np.zeros(m, dtype=np.int64)
    for _ in range(300):
        D = _dist2(A, centers)
        labels = D.argmin(axis=1)
        assigned = D[np.arange(m), labels].copy()
        sizes = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            # hand a far point to the starved cluster, but never drain a
            # singleton (that would just move the hole elsewhere)
            cand = np.where(sizes[labels] > 1, assigned, -1.0)
            far = int(np.argmax(cand))
            sizes[labels[far]] -= 1
            labels[far] = j
            sizes[j] += 1
            assigned[far] = -1.0
        for j in range(k):
            centers[j] = A[labels == j].mean(axis=0)
        cost = float(((A - centers[labels]) ** 2).sum())
        if prev - cost <= 1e-9 * max(prev if math.isfinite(prev) else 0.0, 1e-30):
            break
        prev = cost
    return cost, labels


def lloyd(A, k, restarts=1, seed=0):
    """Best of `restarts` k-means++ seeded Lloyd runs; ties keep the
    lowest restart index, so more restarts never hurt.

    Runs on A / 2^e (pow2_scaled), where squared distances neither
    overflow nor underflow, so 2^j A gets the same labels as A.
    """
    A, _ = pow2_scaled(as_matrix(A))
    m = A.shape[0]
    if not (1 <= k <= m):
        raise ArgumentError(f"need 1 <= k <= m={m}, got k={k}")
    if restarts < 1:
        raise ArgumentError(f"need restarts >= 1, got {restarts}")
    best_cost, best_labels = math.inf, None
    for t in range(restarts):
        cost, labels = _lloyd_once(A, k, rng.stream(seed, rng.LLOYD, t))
        if cost < best_cost:
            best_cost, best_labels = cost, labels
    return ClusterAssignment(labels=best_labels, k=k)


def selection_width(k, eps, c0):
    return math.ceil(c0 * 4.0 * k * math.log(200.0 * k) / eps ** 2)


def reduce_features(A, k, eps, method="select", c0=4.0, seed=0):
    """Shrink the feature dimension while approximately preserving every
    clustering's cost.

    select: leverage-score feature sampling on a sketched top-k right
    basis, r = ceil(c0 * 4k ln(200k)/eps^2); returns (C, plan).
    rp: signed projection, r = ceil(c0 * k/eps^2); returns (C, S) with
    C = A S. svd: sketched top-k features, C = A Z, r = k; returns
    (C, Z). The proofs take c0 = 1e6; that is unusable at desk scale,
    so c0 is a parameter (default 4) and guarantees scale accordingly.
    """
    A = as_matrix(A)
    m, n = A.shape
    if not (c0 > 0):
        raise ArgumentError(f"need c0 > 0, got {c0}")
    if not 2 <= k <= min(m, n):
        raise ArgumentError(f"need 2 <= k <= min(m,n), got k={k}")
    if k >= singular_values(A).size:
        raise ArgumentError(f"need k < rank(A), got k={k}")
    if method in ("select", "rp"):
        if not (0.0 < eps <= 1.0 / 3.0):
            raise ArgumentError(f"need 0 < eps <= 1/3, got {eps}")
    elif not (0.0 < eps < 1.0):
        raise ArgumentError(f"need 0 < eps < 1, got {eps}")

    if method == "select":
        r = selection_width(k, eps, c0)
        if r >= n:
            raise ArgumentError(
                f"reduction wider than input: r={r} >= n={n} (lower c0)")
        Z = fast_frobenius_svd(A, k, eps, seed=seed).Z
        plan = subspace_sampling(Z, 1.0, r,
                                 seed=rng.derive_seed(seed, rng.KMEANS, 0))
        return apply_plan_columns(A, plan), plan
    if method == "rp":
        r = math.ceil(c0 * k / eps ** 2)
        if r >= n:
            raise ArgumentError(
                f"reduction wider than input: r={r} >= n={n} (lower c0)")
        gen = rng.stream(seed, rng.KMEANS, 1)
        S = (2.0 * gen.integers(0, 2, size=(n, r)) - 1.0) / math.sqrt(r)
        return A @ S, S
    if method == "svd":
        Z = fast_frobenius_svd(A, k, eps, seed=seed).Z
        return A @ Z, Z
    raise ArgumentError(
        f"unknown method {method!r} (expected select|rp|svd)")
