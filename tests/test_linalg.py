"""Core container, SVD, plan application, restricted projection."""

import math
import warnings

import numpy as np
import pytest

from matsketch import (ArgumentError, NumericError, SamplingPlan,
                       apply_plan_columns, apply_plan_rows,
                       best_rank_k_in_subspace, lower_bound_instance,
                       pseudo_inverse, svd)
from matsketch import linalg
from matsketch.linalg import (ColumnProblem, _gram_residual_norms,
                              _lambda_max_upper, _norms, _subspace_factors,
                              frobenius_norm, pow2_scaled, rank_cutoff,
                              singular_values)
from matsketch.synthetic import lowrank_plus_noise, random_orthonormal

from conftest import rand


# ---------------------------------------------------------------------------
# svd


def test_svd_identity():
    f = svd(np.eye(3))
    assert f.rank == 3
    np.testing.assert_allclose(f.singular_values, [1.0, 1.0, 1.0])


def test_svd_rank_deficient_diagonal():
    f = svd(np.diag([3.0, 2.0, 0.0]))
    assert f.rank == 2
    np.testing.assert_allclose(f.singular_values, [3.0, 2.0])


def test_svd_lower_bound_instance_spectrum():
    A = lower_bound_instance(5, 1.0)
    f = svd(A)
    sq = f.singular_values ** 2
    np.testing.assert_allclose(sq[0], 6.0, rtol=1e-12)
    np.testing.assert_allclose(sq[1:], np.ones(4), rtol=1e-12)


def test_svd_factor_invariants():
    A = rand(0).normal(size=(9, 6))
    f = svd(A)
    tol = 1e-10 * max(A.shape)
    assert np.max(np.abs(f.U.T @ f.U - np.eye(f.rank))) <= tol
    assert np.max(np.abs(f.V.T @ f.V - np.eye(f.rank))) <= tol
    assert np.all(np.diff(f.singular_values) <= 0)
    R = A - (f.U * f.singular_values) @ f.V.T
    assert np.linalg.norm(R) <= 1e-10 * np.linalg.norm(A) * max(A.shape)


def test_svd_rejects_nonfinite():
    with pytest.raises(ArgumentError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# values-only kernels


def test_singular_values_match_svd_cutoff():
    g = rand(40)
    for A in (g.normal(size=(30, 12)), g.normal(size=(12, 30)),
              g.normal(size=(25, 3)) @ g.normal(size=(3, 20)),
              np.diag([3.0, 1.0, 0.0, 0.0]), np.zeros((4, 3))):
        want = svd(A).singular_values
        got = singular_values(A)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_singular_values_reject_nonfinite():
    with pytest.raises(ArgumentError):
        singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))


def _norm_cases():
    g = rand(41)
    return {
        "tall": g.normal(size=(50, 20)),
        "wide": g.normal(size=(20, 50)),
        "row": g.normal(size=(1, 30)),
        "column": g.normal(size=(30, 1)),
        "rank-1": np.outer(g.normal(size=40), g.normal(size=25)),
        "graded": g.normal(size=(40, 30)) * np.logspace(0, -12, 30),
        "1x1": g.normal(size=(1, 1)),
        "zero": np.zeros((7, 5)),
    }


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600],
                         ids=["1", "2^600", "2^-600"])
@pytest.mark.parametrize("name", sorted(_norm_cases()))
def test_spectral_norm_matches_svd_norm(name, scale):
    # the top eigenvalue alone (LAPACK dsyevr) of the smaller Gram matrix
    M = _norm_cases()[name]
    want = np.linalg.svd(M, compute_uv=False)[0]
    got = _norms(M * scale)[0]
    assert got / scale == pytest.approx(want, rel=1e-14, abs=0)


def test_spectral_norm_lapack_failure_is_a_numeric_error(monkeypatch):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("the eigenvalue did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
    with pytest.raises(NumericError, match="eigensolver"):
        _norms(_norm_cases()["tall"])


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600],
                         ids=["1", "2^600", "2^-600"])
@pytest.mark.parametrize("name", sorted(_norm_cases()))
def test_frobenius_norm_is_exact_under_power_of_two_scaling(name, scale):
    # the rescale is exact, so the result is the unscaled norm times scale
    M = _norm_cases()[name]
    assert frobenius_norm(M * scale) == np.linalg.norm(M) * scale


def test_norms_of_a_zero_matrix_are_zero():
    for shape in [(3, 2), (2, 3), (1, 1)]:
        assert _norms(np.zeros(shape))[0] == 0.0
        assert frobenius_norm(np.zeros(shape)) == 0.0


# ---------------------------------------------------------------------------
# ColumnProblem.top and the baselines read from its residual


def top_k(A, k):
    """(Z, E, s) of ColumnProblem(A).top and .residual at k, E and s in A's
    units, and the problem."""
    p = ColumnProblem(A)
    Z, s = p.top(k)
    return Z, np.ldexp(p.residual(k), p.e), np.ldexp(s, p.e), p


def _baseline(p, k, norm):
    return math.ldexp(p.baseline(k, norm), p.e)


def _top_k_cases():
    g = rand(42)
    U = random_orthonormal(150, 100, seed=5)
    V = random_orthonormal(100, 100, seed=6)
    return {
        "lowrank": (lowrank_plus_noise(60, 40, 3, 0.1, seed=7), 3),
        "gapless": (g.normal(size=(200, 120)), 4),
        "wide": (g.normal(size=(20, 50)), 4),
        "decay": ((U / np.sqrt(np.arange(1, 101))) @ V.T, 4),
        "k=1": (g.normal(size=(12, 10)), 1),
        # rank 3 < ARPACK's Krylov width: Lanczos breaks down and restarts
        "rank-3": (np.diag([3.0, 2.0, 1.0] + [0.0] * 27), 5),
    }


@pytest.mark.parametrize("name", sorted(_top_k_cases()))
def test_top_k_baselines_match_the_svd(monkeypatch, name):
    A, k = _top_k_cases()[name]
    s = np.linalg.svd(A, compute_uv=False)
    Z, E, ritz, p = top_k(A, k)
    assert Z.shape == (A.shape[1], k)
    assert np.abs(Z.T @ Z - np.eye(k)).max() <= 1e-14
    np.testing.assert_allclose(E, A - A @ Z @ Z.T, rtol=0, atol=1e-14 * s[0])
    np.testing.assert_allclose(ritz, s[:k], rtol=1e-12, atol=1e-14 * s[0])
    # where m >= n the spectral baseline is the certified upper end read
    # from A's Gram matrix, at most 1e-10 above sigma_{k+1}
    got = _baseline(p, k, "spectral")
    if s[k] <= rank_cutoff(s, A.shape):
        assert got == 0.0
    elif A.shape[0] >= A.shape[1]:
        assert s[k] <= got <= s[k] * (1 + 1e-10)
    # without that certificate, ||E||_2 is read off E itself
    monkeypatch.setattr(linalg, "_gram_projected_norm", lambda *args: None)
    p = top_k(A, k)[3]
    for norm, want in (("spectral", s[k]), ("frobenius", np.linalg.norm(s[k:]))):
        got = _baseline(p, k, norm)
        if want <= rank_cutoff(s, A.shape):
            assert got == 0.0, norm
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0), norm


@pytest.mark.parametrize("name", sorted(_top_k_cases()))
def test_top_k_repeats_bit_for_bit(name):
    A, k = _top_k_cases()[name]
    first = top_k(A, k)[:3]
    for _ in range(2):
        for a, b in zip(top_k(A, k)[:3], first):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("j", [600, -600])
def test_top_k_is_exact_under_power_of_two_scaling(j):
    A, k = _top_k_cases()["lowrank"]
    Z, E, s, _ = top_k(A, k)
    Zj, Ej, sj, _ = top_k(np.ldexp(A, j), k)
    assert np.array_equal(Zj, Z)
    assert np.array_equal(Ej, np.ldexp(E, j))
    assert np.array_equal(sj, np.ldexp(s, j))


def test_top_k_degenerate_inputs():
    # an all-zero A made ARPACK fail with an untyped error -9
    Z, E, s, p = top_k(np.zeros((30, 20)), 3)
    assert np.array_equal(Z.T @ Z, np.eye(3))
    assert not E.any() and not s.any()
    assert _baseline(p, 3, "spectral") == 0.0
    # rank 3 < k: the baseline is exactly zero, not rounding noise
    g = rand(43)
    A = g.normal(size=(40, 3)) @ g.normal(size=(3, 30))
    for k in (3, 5, 29, 30):  # k = min(m, n) = 30 takes the dense SVD
        Z, E, s, p = top_k(A, k)
        assert np.abs(Z.T @ Z - np.eye(k)).max() <= 1e-14
        assert np.sum(s > rank_cutoff(s, A.shape)) == 3
        for norm in ("spectral", "frobenius"):
            assert _baseline(p, k, norm) == 0.0
    with pytest.raises(ArgumentError):
        top_k(A, 31)
    with pytest.raises(ArgumentError):
        top_k(A, 0)


def test_top_k_arpack_failure_is_a_numeric_error(monkeypatch):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.zeros(0),
                                      np.zeros((0, 0)))

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    with pytest.raises(NumericError, match="ARPACK"):
        top_k(_top_k_cases()["lowrank"][0], 3)


# ---------------------------------------------------------------------------
# the rank-k fit's errors from A's Gram matrix (certified lambda_max)


def _gram_fit_cases():
    g = rand(44)
    Q0, _ = np.linalg.qr(g.normal(size=(80, 4)))
    u = g.normal(size=80)
    u -= Q0 @ (Q0.T @ u)
    u /= np.linalg.norm(u)
    return {
        "tall": (lowrank_plus_noise(200, 120, 4, 0.1, seed=3), None, 4),
        # C spans col(Q0 B) exactly, so the residual is the rank-1 u v^T
        "rank-1-residual": (Q0 @ g.normal(size=(4, 30))
                            + np.outer(u, g.normal(size=30)), Q0, 4),
        "square": (g.normal(size=(50, 50)), None, 5),
    }


def _gram_fit(A, C, k):
    """(the Gram-path errors or None, the residual R) of the rank-k fit of
    A in col(C); C defaults to the first 3k columns of A."""
    A = np.ascontiguousarray(A)
    C = A[:, :3 * k] if C is None else C
    Q, W, Vt, s = _subspace_factors(A, C, k)
    S, e = pow2_scaled(A)
    errors = _gram_residual_norms(S.T @ S, A.shape[0], np.ldexp(s, -e), Vt)
    return (None if errors is None else tuple(np.ldexp(errors, e)),
            A - Q @ W @ Vt)


@pytest.mark.parametrize("name", sorted(_gram_fit_cases()))
def test_gram_errors_bound_the_svd_norms(name):
    got, R = _gram_fit(*_gram_fit_cases()[name])
    sv = np.linalg.svd(R, compute_uv=False)
    assert got is not None
    assert sv[0] ** 2 <= got[0] ** 2 <= sv[0] ** 2 * (1 + 1e-10)
    assert got[1] == pytest.approx(np.linalg.norm(sv), rel=1e-13, abs=0)


@pytest.mark.parametrize("j", [600, -600])
@pytest.mark.parametrize("name", sorted(_gram_fit_cases()))
def test_gram_errors_are_exact_under_power_of_two_scaling(name, j):
    A, C, k = _gram_fit_cases()[name]
    want = _gram_fit(A, C, k)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _gram_fit(np.ldexp(A, j), C, k)[0]
    assert got == (np.ldexp(want[0], j), np.ldexp(want[1], j))


def test_lambda_max_upper_certifies_known_spectra():
    # diag(lam) rotated: the bound is at or above lam_max, and tight
    g = rand(46)
    for lam in ([5.0, 1.0, 0.5, 0.0], [1.0] * 6, [2.0, 2.0 - 1e-9] + [0.1] * 30):
        n = len(lam)
        V, _ = np.linalg.qr(g.normal(size=(n, n)))
        G = (V * lam) @ V.T
        G = (G + G.T) / 2
        want = np.linalg.eigvalsh(G)[-1]
        bar = _lambda_max_upper(G.copy(), 1e-15 * want)
        assert want <= bar <= want * (1 + 1e-10)
    # an all-zero matrix has no positive Ritz value to certify
    assert _lambda_max_upper(np.zeros((5, 5)), 0.0) is None


# ---------------------------------------------------------------------------
# pseudo_inverse


def test_pinv_identity():
    np.testing.assert_allclose(pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-14)


def test_pinv_singular_diagonal():
    np.testing.assert_allclose(
        pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
    )


def test_pinv_left_inverse_of_tall_full_rank():
    A = rand(1).normal(size=(6, 3))
    np.testing.assert_allclose(pseudo_inverse(A) @ A, np.eye(3), atol=1e-8)


def test_pinv_penrose_identities():
    for seed, shape in [(2, (6, 3)), (3, (4, 7)), (4, (5, 5))]:
        A = rand(seed).normal(size=shape)
        if seed == 4:
            A[:, -1] = A[:, 0]  # make it rank deficient on purpose
        P = pseudo_inverse(A)
        tol = 1e-8 * np.linalg.norm(A, 2)
        assert np.max(np.abs(A @ P @ A - A)) <= tol
        assert np.max(np.abs(P @ A @ P - P)) <= tol
        assert np.max(np.abs((A @ P).T - A @ P)) <= tol
        assert np.max(np.abs((P @ A).T - P @ A)) <= tol


# ---------------------------------------------------------------------------
# SamplingPlan and plan application


def test_plan_picks_columns_in_order():
    plan = SamplingPlan(3, [0, 2], 1.0)
    C = apply_plan_columns(np.eye(3), plan)
    np.testing.assert_array_equal(C, np.eye(3)[:, [0, 2]])


def test_plan_weight_rescales_column():
    A = np.array([[0.0, 1.0], [0.0, 1.0]])
    C = apply_plan_columns(A, SamplingPlan(2, [1], 2.0))
    np.testing.assert_array_equal(C, np.array([[2.0], [2.0]]))


def test_full_unit_plan_copies_matrix():
    A = rand(5).normal(size=(4, 6))
    plan = SamplingPlan(6, np.arange(6), 1.0)
    np.testing.assert_array_equal(apply_plan_columns(A, plan), A)


def test_plan_rows_mirrors_columns():
    A = rand(6).normal(size=(5, 3))
    plan = SamplingPlan(5, [4, 1], [0.5, 2.0], with_replacement=True)
    np.testing.assert_allclose(
        apply_plan_rows(A, plan), apply_plan_columns(A.T, plan).T
    )


def test_plan_validation():
    with pytest.raises(ArgumentError):
        SamplingPlan(3, [], 1.0)
    with pytest.raises(ArgumentError):
        SamplingPlan(3, [3], 1.0)
    with pytest.raises(ArgumentError):
        SamplingPlan(3, [0], 0.0)
    with pytest.raises(ArgumentError):
        SamplingPlan(3, [0], -1.0)
    with pytest.raises(ArgumentError):
        SamplingPlan(3, [1, 1], 1.0, with_replacement=False)
    # the same duplicate is fine when declared with replacement
    SamplingPlan(3, [1, 1], 1.0, with_replacement=True)


@pytest.mark.parametrize("source_dim, indices", [
    (5, [1.5, 2.7]), (5, ["1"]), (5, [True, False]), (5, [1e20]),
    (5, np.array([1.0, 2.0])), (5.5, [1, 2]), (5.0, [1, 2]),
], ids=["fractional", "string", "bool", "huge-float", "integral-floats",
        "fractional-dim", "float-dim"])
def test_plan_refuses_non_integer_picks(source_dim, indices):
    # [1.5, 2.7] was stored as [1, 2]; [1e20] warned on the cast instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="integer"):
            SamplingPlan(source_dim, indices, 1.0)


def test_plan_takes_any_integer_dtype():
    for indices in ([4, 1], np.array([4, 1], dtype=np.int32),
                    np.array([4, 1], dtype=np.uint8)):
        plan = SamplingPlan(np.int64(5), indices, 1.0)
        assert plan.indices.dtype == np.dtype(int)
        assert plan.indices.tolist() == [4, 1]
    # range-checked before the cast to int, which would wrap it negative
    with pytest.raises(ArgumentError, match="index 9223372036854775808 outside"):
        SamplingPlan(5, np.array([2 ** 63], dtype=np.uint64), 1.0)
    with pytest.raises(ArgumentError, match="plan has no picks"):
        SamplingPlan(3, [], 1.0)


def test_plan_arrays_are_read_only_and_errors_name_the_value():
    plan = SamplingPlan(4, [2, 0, 3], 0.5)
    np.testing.assert_array_equal(plan.weights, [0.5, 0.5, 0.5])
    assert len(plan) == 3
    for a in (plan.indices, plan.weights):
        with pytest.raises(ValueError):
            a[0] = 1
    with pytest.raises(ArgumentError, match="pick index 5 outside"):
        SamplingPlan(4, [1, 5, -1], 1.0)
    with pytest.raises(ArgumentError, match="pick weight nan must"):
        SamplingPlan(4, [0, 1, 2], [1.0, np.nan, -1.0])
    with pytest.raises(ArgumentError, match="duplicate index 3 "):
        SamplingPlan(4, [3, 0, 3, 0], 1.0)
    with pytest.raises(ArgumentError, match="3 weights for 2 picks"):
        SamplingPlan(4, [0, 1], [1.0, 2.0, 3.0])


def test_plan_dimension_mismatch():
    with pytest.raises(ArgumentError):
        apply_plan_columns(np.eye(3), SamplingPlan(4, [0], 1.0))


# ---------------------------------------------------------------------------
# best_rank_k_in_subspace


def test_projection_recovers_input_at_full_rank():
    A = rand(7).normal(size=(5, 4))
    approx, Z = best_rank_k_in_subspace(A, A, 4)
    np.testing.assert_allclose(approx, A, atol=1e-10)
    np.testing.assert_allclose(Z.T @ Z, np.eye(4), atol=1e-10)


def test_projection_exact_when_span_contains_topk():
    g = rand(8)
    A = g.normal(size=(6, 2)) @ g.normal(size=(2, 5))
    f = svd(A)
    C = f.U @ g.normal(size=(2, 3))  # any spanning mixture of the top-2 space
    approx, _ = best_rank_k_in_subspace(A, C, 2)
    assert np.linalg.norm(A - approx) <= 1e-9 * np.linalg.norm(A)


def test_projection_dominates_random_candidates():
    g = rand(9)
    A = g.normal(size=(8, 8))
    C = g.normal(size=(8, 4))
    approx, _ = best_rank_k_in_subspace(A, C, 2)
    best = np.linalg.norm(A - approx)
    for _ in range(1000):
        Psi = g.normal(size=(4, 2)) @ g.normal(size=(2, 8))
        assert np.linalg.norm(A - C @ Psi) >= best - 1e-9


def test_projection_argument_errors():
    A = np.eye(4)
    with pytest.raises(ArgumentError):
        best_rank_k_in_subspace(A, A, 0)
    with pytest.raises(ArgumentError):
        best_rank_k_in_subspace(A, np.eye(3), 1)
    # rank(C) < k is allowed; the approximation just has lower rank
    C = np.ones((4, 3))
    approx, Z = best_rank_k_in_subspace(A, C, 2)
    assert np.linalg.matrix_rank(approx) <= 2


# ---------------------------------------------------------------------------
# norm and projection identities


def test_pythagoras_for_disjoint_row_supports():
    # disjoint row supports make X^T Y = 0, one of the two lemma hypotheses
    g = rand(12)
    for _ in range(20):
        X = np.zeros((8, 6))
        Y = np.zeros((8, 6))
        X[:4] = g.normal(size=(4, 6))
        Y[4:] = g.normal(size=(4, 6))
        assert np.all(X.T @ Y == 0)
        f2 = np.linalg.norm(X + Y) ** 2
        assert f2 == pytest.approx(
            np.linalg.norm(X) ** 2 + np.linalg.norm(Y) ** 2, rel=1e-9
        )
        s2 = np.linalg.norm(X + Y, 2) ** 2
        lo = max(np.linalg.norm(X, 2) ** 2, np.linalg.norm(Y, 2) ** 2)
        hi = np.linalg.norm(X, 2) ** 2 + np.linalg.norm(Y, 2) ** 2
        assert lo <= s2 * (1 + 1e-9)
        assert s2 <= hi * (1 + 1e-9)


def test_near_isometry_statements_agree():
    # eps' = ||V^T W W^T V - I|| bounds the eigenvalue range, the squared
    # singular values of V^T W, the Rayleigh quotients, and the image norms.
    g = rand(13)
    for n, k, r in [(20, 3, 8), (30, 5, 12), (15, 2, 15)]:
        V = random_orthonormal(n, k, seed=int(g.integers(1 << 30)))
        W = g.normal(size=(n, r)) / np.sqrt(r)
        G = V.T @ W @ W.T @ V
        eps = np.linalg.norm(G - np.eye(k), 2) + 1e-12
        lam = np.linalg.eigvalsh(G)
        assert np.all(lam >= 1 - eps) and np.all(lam <= 1 + eps)
        sv2 = np.linalg.svd(V.T @ W, compute_uv=False) ** 2
        assert np.all(sv2 >= 1 - eps) and np.all(sv2 <= 1 + eps)
        for _ in range(100):
            y = g.normal(size=k)
            quad = y @ G @ y
            base = y @ y  # V^T V = I so y^T V^T V y = ||V y||^2 = ||y||^2
            assert (1 - eps) * base <= quad <= (1 + eps) * base
            img = np.linalg.norm(W.T @ (V @ y)) ** 2
            vy = np.linalg.norm(V @ y) ** 2
            assert (1 - eps) * vy <= img <= (1 + eps) * vy


def test_orthogonal_projection_contracts_frobenius():
    g = rand(14)
    for _ in range(10):
        C = g.normal(size=(10, 4))
        X = g.normal(size=(10, 7))
        P = C @ pseudo_inverse(C)
        assert np.linalg.norm(P @ X) <= np.linalg.norm(X) + 1e-12
