"""Brute-force subset oracles."""

import numpy as np
import pytest

from matsketch import (GuardError, all_subset_errors, best_subset_exhaustive,
                       cssp, cx_frobenius, lower_bound_instance)
from matsketch.synthetic import lowrank_plus_noise

from conftest import rand


# ---------------------------------------------------------------------------
# best_subset_exhaustive / all_subset_errors


def test_oracle_on_lower_bound_instance():
    n, alpha, r = 5, 1.0, 2
    A = lower_bound_instance(n, alpha)
    subsets, errs = all_subset_errors(A, r, norm="spectral")
    assert len(subsets) == 10  # C(5,2)
    want = np.sqrt((n + alpha ** 2) / (r + alpha ** 2)) * alpha
    np.testing.assert_allclose(errs, want, rtol=1e-9)
    cols, best = best_subset_exhaustive(A, 1, r, norm="spectral", mode="cc_plus")
    assert best == pytest.approx(want, rel=1e-9)


def test_oracle_zero_error_on_identity():
    cols, err = best_subset_exhaustive(np.eye(3), 2, 3, norm="frobenius",
                                       mode="cc_plus")
    assert sorted(cols) == [0, 1, 2]
    assert err == pytest.approx(0.0, abs=1e-12)


def test_oracle_dominates_composite_algorithms():
    k, r = 2, 3
    for s in range(10):
        A = rand(50 + s).normal(size=(6, 6))
        _, best = best_subset_exhaustive(A, k, r, norm="frobenius", mode="pi_ck")
        res = cx_frobenius(A, k, r, mode="deterministic")
        assert best <= res.rank_k_error_frobenius + 1e-10
    for s in range(5):
        # cssp's frobenius mode runs a width-4k stage, so it needs n > 4k
        B = rand(80 + s).normal(size=(8, 12))
        _, best_k = best_subset_exhaustive(B, k, k, norm="frobenius",
                                           mode="cc_plus")
        got = cssp(B, k, mode="frobenius", seed=s)
        assert best_k <= got.rank_k_error_frobenius + 1e-10


def test_oracle_modes_differ_and_nest():
    # pi_ck restricts the rank, so its error never falls below cc_plus
    A = rand(60).normal(size=(7, 7))
    for rr in [3, 4]:
        _, e_cc = best_subset_exhaustive(A, 2, rr, norm="frobenius",
                                         mode="cc_plus")
        _, e_pi = best_subset_exhaustive(A, 2, rr, norm="frobenius",
                                         mode="pi_ck")
        assert e_pi >= e_cc - 1e-12


def test_oracle_combinatorial_guard():
    A = np.ones((2, 60))
    with pytest.raises(GuardError):
        all_subset_errors(A, 30, norm="spectral")
