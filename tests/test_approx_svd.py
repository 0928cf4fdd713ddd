"""Sketched factorizations A = (AZ) Z^T + E and their expectation bounds."""

import itertools
import math
import warnings

import numpy as np
import pytest

from matsketch import (ArgumentError, fast_frobenius_svd, fast_spectral_svd,
                       spectral_power_exponent, srht_lowrank, svd)
from matsketch.synthetic import lowrank_plus_noise

from conftest import rand


def _residual(A, basis):
    return A - (A @ basis.Z) @ basis.Z.T


def _diag_instance():
    return np.diag(np.arange(10.0, 0.0, -1.0))


# ---------------------------------------------------------------------------
# fast_frobenius_svd


def test_frobenius_exact_on_low_rank_input():
    g = rand(1)
    A = g.normal(size=(12, 3)) @ g.normal(size=(3, 9))
    basis = fast_frobenius_svd(A, 3, 0.5, seed=2)
    assert np.linalg.norm(_residual(A, basis)) <= 1e-9 * np.linalg.norm(A)


def test_frobenius_expectation_bound_on_diag():
    A = _diag_instance()
    k, eps = 3, 0.5
    tail2 = float(np.sum(np.arange(1.0, 8.0) ** 2))  # sigma_4..sigma_10 squared
    errs = [
        np.linalg.norm(_residual(A, fast_frobenius_svd(A, k, eps, seed=s))) ** 2
        for s in range(50)
    ]
    assert np.mean(errs) <= (1 + eps) * tail2 * 1.05


def test_frobenius_shape_and_orthonormality():
    A = rand(3).normal(size=(15, 11))
    for k in [2, 4]:
        basis = fast_frobenius_svd(A, k, 0.3, seed=4)
        assert basis.Z.shape == (11, k)
        np.testing.assert_allclose(basis.Z.T @ basis.Z, np.eye(k), atol=1e-10)


def test_frobenius_k_validation():
    # k = min(m, n) stays legal so exactly-rank-k inputs can be recovered
    A = rand(5).normal(size=(8, 6))
    for bad in [0, 1, 7]:
        with pytest.raises(ArgumentError):
            fast_frobenius_svd(A, bad, 0.5, seed=0)
    fast_frobenius_svd(A, 6, 0.5, seed=0)


@pytest.mark.parametrize("eps", [1e-300, 5e-324])
def test_frobenius_tiny_eps_caps_the_sketch_at_n(eps):
    # a width of k + ceil(k/eps + 1) columns made numpy refuse the Gaussian
    # (or ceil refuse k/eps = inf); at width n the sketch spans col(A), so
    # Z is the exact top-k subspace
    A = lowrank_plus_noise(30, 20, 3, 0.2, seed=3)
    basis = fast_frobenius_svd(A, 3, eps, seed=1)
    assert basis.oversample == 20 - 3
    s = np.linalg.svd(A, compute_uv=False)
    assert np.linalg.norm(_residual(A, basis)) == pytest.approx(
        np.linalg.norm(s[3:]), rel=1e-12)


# ---------------------------------------------------------------------------
# fast_spectral_svd


def test_spectral_exact_on_low_rank_input():
    g = rand(6)
    A = g.normal(size=(10, 2)) @ g.normal(size=(2, 14))
    basis = fast_spectral_svd(A, 2, 0.5, seed=7)
    assert np.linalg.norm(_residual(A, basis), 2) <= 1e-9 * np.linalg.norm(A, 2)


def test_spectral_expectation_bound_on_diag():
    A = _diag_instance()
    k, eps = 2, 1.0
    sigma3 = 8.0
    errs = [
        np.linalg.norm(_residual(A, fast_spectral_svd(A, k, eps, seed=s)), 2)
        for s in range(50)
    ]
    assert np.mean(errs) <= (math.sqrt(2) + 1) * sigma3 * 1.05


def test_spectral_power_exponent_grows_as_eps_shrinks():
    q_tight = spectral_power_exponent(40, 30, 3, 0.1)
    q_loose = spectral_power_exponent(40, 30, 3, 1.0)
    assert q_tight >= q_loose >= 1
    # the chosen q satisfies the defining inequality and q-1 does not
    k, p = 3, 3
    base = (
        1
        + math.sqrt(k / (p - 1))
        + math.e * math.sqrt(k + p) / p * math.sqrt(30 - k)
    )
    target = 1 + 0.1 / math.sqrt(2)
    assert base ** (1.0 / (2 * q_tight + 1)) <= target
    if q_tight > 1:
        assert base ** (1.0 / (2 * (q_tight - 1) + 1)) > target


def _power_exponent_by_linear_scan(m, n, k, eps):
    # the search as first written: one test per q, from q = 1 upward
    p = k
    base = 1.0 + math.sqrt(k / (p - 1)) + (math.e * math.sqrt(k + p) / p) \
        * math.sqrt(max(min(m, n) - k, 0))
    target = 1.0 + eps / math.sqrt(2.0)
    q = 1
    while base ** (1.0 / (2 * q + 1)) > target:
        q += 1
    return q


def test_spectral_power_exponent_matches_linear_scan():
    grid = itertools.product(
        [2, 5, 40, 1000, 10 ** 6], [3, 30, 600, 10 ** 5], [2, 3, 5, 20],
        [1e-3, 0.01, 0.1, 0.5, 0.9, 1.0, 2.0, 10.0, math.inf])
    for m, n, k, eps in grid:
        assert spectral_power_exponent(m, n, k, eps) == \
            _power_exponent_by_linear_scan(m, n, k, eps), (m, n, k, eps)


def test_spectral_power_exponent_tiny_eps_is_quick_and_minimal():
    # a linear scan would take ~1e12 steps here
    k, eps = 5, 1e-12
    q = spectral_power_exponent(1000, 600, k, eps)
    base = 1.0 + math.sqrt(k / (k - 1)) + (math.e * math.sqrt(2 * k) / k) \
        * math.sqrt(600 - k)
    target = 1.0 + eps / math.sqrt(2.0)
    assert base ** (1.0 / (2 * q + 1)) <= target
    assert base ** (1.0 / (2 * q - 1)) > target


@pytest.mark.parametrize("k, eps", [(1, 0.5), (3, 0.0), (3, -0.5), (3, 1e-300),
                                    (3, math.nan)])
def test_spectral_power_exponent_rejects_what_has_no_q(k, eps):
    # k = 1 divides by p - 1 = 0; eps <= 0, or so small that
    # 1 + eps/sqrt(2) rounds to 1, makes no q accurate enough
    with pytest.raises(ArgumentError):
        spectral_power_exponent(40, 30, k, eps)


def test_spectral_svd_rejects_eps_too_small_for_a_power():
    with pytest.raises(ArgumentError):
        fast_spectral_svd(rand(9).normal(size=(20, 15)), 3, 1e-300)


@pytest.mark.parametrize("j", [600, -600])
@pytest.mark.parametrize("fn, eps", [(fast_frobenius_svd, 0.5),
                                     (fast_spectral_svd, 1.0)])
def test_fast_bases_do_not_depend_on_scale(fn, eps, j):
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(np.ldexp(A, j), 3, eps, seed=2)
    assert np.array_equal(got.Z, fn(A, 3, eps, seed=2).Z)


def test_spectral_never_beats_svd_optimum():
    A = rand(8).normal(size=(12, 10))
    s = svd(A).singular_values
    for k in [2, 3]:
        basis = fast_spectral_svd(A, k, 0.5, seed=9)
        assert np.linalg.norm(_residual(A, basis), 2) >= s[k] - 1e-9


# ---------------------------------------------------------------------------
# srht_lowrank


def test_srht_lowrank_formula_width_exceeds_desk_inputs():
    # the theorem's r is wider than n at this size, which must be refused
    A = rand(10).normal(size=(32, 64))
    with pytest.raises(ArgumentError, match="sketch wider than input"):
        srht_lowrank(A, 2, 0.45, seed=0)
    # a subnormal eps makes the formula width infinite
    with pytest.raises(ArgumentError, match="eps=5e-324 is too small"):
        srht_lowrank(A, 2, 5e-324, seed=0)


def test_srht_lowrank_relative_error_with_narrow_sketch():
    k, eps, r = 2, 0.45, 32
    hits = 0
    for s in range(50):
        A = lowrank_plus_noise(48, 64, k, 0.3, seed=700 + s)
        tail = np.linalg.norm(A - _best_rank_k(A, k))
        Xi = srht_lowrank(A, k, eps, seed=s, r_override=r)
        hits += bool(
            np.linalg.norm(A - Xi) ** 2 <= (1 + eps) * tail ** 2
        )
    assert hits >= 30  # 0.6 * 50


def test_srht_lowrank_exact_on_low_rank_input():
    g = rand(11)
    A = g.normal(size=(20, 16)) @ np.zeros((16, 16))
    A[:, :] = g.normal(size=(20, 2)) @ g.normal(size=(2, 16))
    Xi = srht_lowrank(A, 2, 0.4, seed=12, r_override=8)
    assert np.linalg.norm(A - Xi) <= 1e-9 * np.linalg.norm(A)
    assert np.linalg.matrix_rank(Xi) <= 2


def _best_rank_k(A, k):
    f = svd(A)
    t = min(k, f.rank)
    return (f.U[:, :t] * f.singular_values[:t]) @ f.V[:, :t].T


# ---------------------------------------------------------------------------
# shared ApproxBasis invariants


def test_residual_annihilates_basis():
    A = rand(13).normal(size=(14, 12))
    for make in [
        lambda s: fast_frobenius_svd(A, 3, 0.4, seed=s),
        lambda s: fast_spectral_svd(A, 3, 0.8, seed=s),
    ]:
        basis = make(5)
        E = _residual(A, basis)
        assert np.max(np.abs(E @ basis.Z)) <= 1e-10 * np.linalg.norm(A)


def test_residual_never_below_svd_floor():
    A = rand(14).normal(size=(16, 13))
    floor = np.linalg.norm(A - _best_rank_k(A, 3))
    for s in range(10):
        basis = fast_frobenius_svd(A, 3, 0.5, seed=s)
        assert np.linalg.norm(_residual(A, basis)) >= floor - 1e-9 * np.linalg.norm(A)
