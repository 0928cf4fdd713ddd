"""Clustering cost functional, Lloyd baseline, and feature reduction."""

import itertools
import math

import numpy as np
import pytest

from matsketch import (ArgumentError, ClusterAssignment, indicator_matrix,
                       kmeans_cost, lloyd, reduce_features, selection_width)
from matsketch.synthetic import blobs

from conftest import rand


def _centroid_cost(A, labels, k):
    total = 0.0
    for j in range(k):
        pts = A[labels == j]
        total += np.sum((pts - pts.mean(axis=0)) ** 2)
    return total


# ---------------------------------------------------------------------------
# ClusterAssignment / indicator / cost


def test_assignment_validation():
    with pytest.raises(ArgumentError):
        ClusterAssignment(labels=np.array([0, 0, 2]), k=2)
    with pytest.raises(ArgumentError):
        ClusterAssignment(labels=np.array([0, 0, 0]), k=2)  # empty cluster 1
    a = ClusterAssignment(labels=np.array([1, 0, 1]), k=2)
    assert a.sizes == (1, 2)


def test_indicator_is_orthonormal():
    g = rand(1)
    for _ in range(10):
        labels = g.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]  # keep every cluster nonempty
        X = indicator_matrix(ClusterAssignment(labels=labels, k=3))
        np.testing.assert_allclose(X.T @ X, np.eye(3), atol=1e-14)


def test_indicator_projection_reproduces_centroids():
    g = rand(2)
    A = g.normal(size=(40, 6))
    labels = g.integers(0, 4, size=40)
    labels[:4] = [0, 1, 2, 3]
    a = ClusterAssignment(labels=labels, k=4)
    X = indicator_matrix(a)
    rowwise = X @ (X.T @ A)
    for i in range(40):
        mu = A[labels == labels[i]].mean(axis=0)
        assert np.max(np.abs(rowwise[i] - mu)) <= 1e-10


def test_cost_zero_for_identical_points():
    A = np.ones((5, 3))
    a = ClusterAssignment(labels=np.zeros(5, dtype=int), k=1)
    assert kmeans_cost(A, a) == pytest.approx(0.0, abs=1e-12)


def test_cost_hand_computed_two_points():
    A = np.array([[0.0], [2.0]])
    two = ClusterAssignment(labels=np.array([0, 1]), k=2)
    one = ClusterAssignment(labels=np.array([0, 0]), k=1)
    assert kmeans_cost(A, two) == pytest.approx(0.0, abs=1e-12)
    assert kmeans_cost(A, one) == pytest.approx(2.0)


def test_cost_formulas_agree():
    g = rand(3)
    for _ in range(10):
        A = g.normal(size=(50, 8))
        labels = g.integers(0, 5, size=50)
        labels[:5] = np.arange(5)
        a = ClusterAssignment(labels=labels, k=5)
        assert kmeans_cost(A, a) == pytest.approx(
            _centroid_cost(A, labels, 5), rel=1e-9
        )


def test_cost_invariant_under_relabeling():
    g = rand(4)
    A = g.normal(size=(30, 4))
    labels = g.integers(0, 3, size=30)
    labels[:3] = [0, 1, 2]
    perm = np.array([2, 0, 1])
    a = ClusterAssignment(labels=labels, k=3)
    b = ClusterAssignment(labels=perm[labels], k=3)
    assert kmeans_cost(A, a) == pytest.approx(kmeans_cost(A, b), rel=1e-12)


# ---------------------------------------------------------------------------
# lloyd


def test_lloyd_zero_cost_at_k_equals_m():
    A = rand(5).normal(size=(6, 3))
    a = lloyd(A, 6, restarts=1, seed=6)
    assert kmeans_cost(A, a) == pytest.approx(0.0, abs=1e-12)


def test_lloyd_recovers_planted_blobs():
    hits = 0
    for s in range(100):
        A, planted = blobs(90, 8, 3, sep=8.0, seed=s)
        a = lloyd(A, 3, restarts=3, seed=s)
        for perm in itertools.permutations(range(3)):
            if np.all(np.array(perm)[a.labels] == planted):
                hits += 1
                break
    assert hits >= 95


def test_lloyd_restarts_never_hurt():
    A, _ = blobs(60, 5, 4, sep=1.5, seed=7)
    one = kmeans_cost(A, lloyd(A, 4, restarts=1, seed=8))
    five = kmeans_cost(A, lloyd(A, 4, restarts=5, seed=8))
    assert five <= one + 1e-12


def test_lloyd_is_seed_deterministic():
    A, _ = blobs(50, 6, 3, sep=2.0, seed=9)
    a = lloyd(A, 3, restarts=2, seed=10)
    b = lloyd(A, 3, restarts=2, seed=10)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_lloyd_hands_a_point_to_an_empty_cluster():
    # two distinct points and k = 3: seeding repeats a center, whose
    # cluster comes out of the first assignment empty
    A = np.repeat([[0.0, 0.0], [1.0, 1.0]], 10, axis=0)
    a = lloyd(A, 3, restarts=3, seed=0)
    assert len(a.sizes) == 3 and min(a.sizes) >= 1
    assert math.isfinite(kmeans_cost(A, a))


def test_lloyd_rejects_k_above_m():
    with pytest.raises(ArgumentError):
        lloyd(np.ones((3, 2)), 4)


# ---------------------------------------------------------------------------
# reduce_features


def test_selection_width_formula():
    # c0 * 4k ln(200k) / eps^2 at k=3, eps=1/3, c0=1
    assert selection_width(3, 1.0 / 3.0, 1.0) == 691


@pytest.mark.parametrize("eps", [-0.5, 0.0, math.nan])
def test_selection_width_refuses_a_nonpositive_eps(eps):
    # -0.3 gave the width for +0.3: the formula squares eps
    with pytest.raises(ArgumentError, match=f"need eps > 0, got {eps}"):
        selection_width(3, eps, 4)


def test_svd_method_returns_k_features():
    A, _ = blobs(40, 12, 3, sep=3.0, seed=11)
    C, Z = reduce_features(A, 3, 0.5, method="svd", seed=12)
    assert C.shape == (40, 3)
    assert Z.shape == (12, 3)
    np.testing.assert_allclose(C, A @ Z)


def test_select_method_width_and_provenance():
    A, _ = blobs(50, 100, 3, sep=3.0, seed=13)
    eps, c0 = 1.0 / 3.0, 0.1
    C, plan = reduce_features(A, 3, eps, method="select", c0=c0, seed=14)
    r = selection_width(3, eps, c0)
    assert C.shape == (50, r)
    assert len(plan) == r
    # every reduced feature is a rescaled original column
    for pos, (j, w) in enumerate(zip(plan.indices, plan.weights)):
        np.testing.assert_allclose(C[:, pos], w * A[:, j])


def test_rp_method_width():
    A, _ = blobs(30, 40, 3, sep=3.0, seed=15)
    eps = 1.0 / 3.0
    C, S = reduce_features(A, 3, eps, method="rp", c0=1.0, seed=16)
    r = math.ceil(1.0 * 3 / eps ** 2)
    assert C.shape == (30, r)
    assert S.shape == (40, r)
    np.testing.assert_allclose(np.abs(S), 1.0 / math.sqrt(r))


def test_reduction_wider_than_input_is_refused():
    A, _ = blobs(30, 10, 3, sep=3.0, seed=17)
    with pytest.raises(ArgumentError, match="wider than input"):
        reduce_features(A, 3, 1.0 / 3.0, method="select", c0=1.0, seed=18)


def test_reduced_clustering_stays_competitive():
    hits = 0
    for s in range(30):
        A, _ = blobs(80, 60, 3, sep=3.0, seed=1000 + s, n_informative=10)
        full_cost = kmeans_cost(A, lloyd(A, 3, restarts=3, seed=s))
        ok = True
        for method, c0 in [("select", 0.05), ("rp", 1.0), ("svd", 1.0)]:
            C, _ = reduce_features(A, 3, 1.0 / 3.0, method=method, c0=c0, seed=s)
            a = lloyd(C, 3, restarts=3, seed=s)
            cost = kmeans_cost(A, ClusterAssignment(labels=a.labels, k=3))
            ok = ok and (cost <= 4 * full_cost)
        hits += bool(ok)
    assert hits >= 24  # 80% of 30


def test_reduce_features_eps_validation():
    A, _ = blobs(30, 20, 3, sep=3.0, seed=19)
    with pytest.raises(ArgumentError):
        reduce_features(A, 3, 0.4, method="select", c0=0.1, seed=20)
    with pytest.raises(ArgumentError):
        reduce_features(A, 3, 1.2, method="svd", seed=21)
    reduce_features(A, 3, 0.4, method="svd", seed=22)  # svd allows eps < 1
