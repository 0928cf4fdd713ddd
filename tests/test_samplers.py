"""Randomized samplers and the deterministic barrier/RRQR selectors."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matsketch import (ArgumentError, InfeasibleStepError, NumericError,
                       RankError, additive_sampling, adaptive_sampling,
                       apply_plan_columns, barrier_dual_frobenius,
                       barrier_dual_spectral, barrier_single,
                       best_rank_k_in_subspace, rrqr_select,
                       subspace_sampling, svd)
from matsketch import samplers
from matsketch.samplers import _barrier_core, _plan_from_weights
from matsketch.synthetic import lowrank_plus_noise, random_orthonormal

from conftest import plan_digest, rand


def _sigma_range(V, plan):
    Vc = apply_plan_columns(V.T, plan)
    sv = np.linalg.svd(Vc, compute_uv=False)
    return sv[-1], sv[0]


# ---------------------------------------------------------------------------
# additive_sampling


def test_additive_concentrates_on_single_column():
    A = np.zeros((4, 6))
    A[:, 3] = 2.0
    plan = additive_sampling(A, 5, seed=1)
    assert list(plan.indices) == [3] * 5
    np.testing.assert_array_equal(plan.weights, 1.0)


def test_additive_uniform_on_identity():
    # r may not exceed n per call, so pool 10^4 draws across seeds
    n, calls = 8, 1250
    counts = np.zeros(n)
    for s in range(calls):
        plan = additive_sampling(np.eye(n), n, seed=s)
        counts += np.bincount(plan.indices, minlength=n)
    draws = calls * n
    p = 1.0 / n
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


def test_additive_rank_k_frobenius_bound_in_expectation():
    # E||A - Pi^F_{C,k}(A)||_F^2 <= ||A - A_k||_F^2 + (k/r) ||A||_F^2
    k, r = 2, 20
    A = lowrank_plus_noise(30, 25, k, 0.4, seed=3)
    s = svd(A).singular_values
    bound = float(np.sum(s[k:] ** 2)) + (k / r) * float(np.sum(s ** 2))
    errs = []
    for seed in range(100):
        C = apply_plan_columns(A, additive_sampling(A, r, seed=seed))
        approx, _ = best_rank_k_in_subspace(A, C, k)
        errs.append(np.linalg.norm(A - approx) ** 2)
    assert np.mean(errs) <= bound * 1.1


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** 508, 2.0 ** -600],
                         ids=["2^600", "2^508", "2^-600"])
def test_additive_is_scale_invariant_where_squares_overflow(scale):
    # squared norms overflow to inf (or underflow to 0) at 2^600 and 2^-600;
    # at 2^508 every column's squared norm is finite and only their sum
    # overflows
    A = lowrank_plus_noise(20, 15, 3, 0.2, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in range(5):
            got = additive_sampling(A * scale, 8, seed=s)
            want = additive_sampling(A / np.abs(A).max(), 8, seed=s)
            assert plan_digest(got) == plan_digest(want)


def test_additive_rejects_zero_matrix():
    with pytest.raises(ArgumentError):
        additive_sampling(np.zeros((3, 3)), 2, seed=0)


# ---------------------------------------------------------------------------
# adaptive_sampling


def test_adaptive_degenerate_when_span_covered():
    A = rand(4).normal(size=(5, 4))
    plan = adaptive_sampling(A, A, 6, seed=5)
    assert plan.note == "degenerate-residual"
    assert len(plan) == 6
    assert len(set(plan.indices)) == 1


def test_adaptive_with_empty_start_matches_column_norm_law():
    # zero-width C1 leaves the residual equal to A itself
    g = rand(6)
    A = g.normal(size=(6, 5)) * np.array([5.0, 0.1, 0.1, 0.1, 0.1])
    plan = adaptive_sampling(A, np.zeros((6, 0)), 10_000, seed=7)
    counts = np.bincount(plan.indices, minlength=5)
    sq = np.einsum("ij,ij->j", A, A)
    p = sq / sq.sum()
    sigma = np.sqrt(len(plan) * p * (1 - p))
    assert np.all(np.abs(counts - len(plan) * p) <= 4 * sigma)


def test_adaptive_picks_only_residual_columns():
    # columns spanned by C1 have zero residual and are never drawn
    A = np.eye(6)
    C1 = np.eye(6)[:, :3]
    plan = adaptive_sampling(A, C1, 200, seed=8)
    assert set(plan.indices) <= {3, 4, 5}


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600],
                         ids=["2^600", "2^-600"])
def test_adaptive_is_scale_invariant(scale):
    # squared norms overflow to inf (or underflow to 0); either used to look
    # like a covered span and returned the degenerate plan
    A = lowrank_plus_noise(40, 30, 3, 0.2, seed=9)
    C1 = A[:, :4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in range(5):
            got = adaptive_sampling(A * scale, C1 * scale, 12, seed=s)
            want = adaptive_sampling(A, C1, 12, seed=s)
            assert got.note == want.note == ""
            assert plan_digest(got) == plan_digest(want)


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600],
                         ids=["2^600", "2^-600"])
def test_barrier_frobenius_is_scale_invariant(scale):
    V = random_orthonormal(100, 3, seed=22)
    A_cols = rand(23).normal(size=(5, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = barrier_dual_frobenius(V, A_cols * scale, 12)
    assert plan_digest(got) == plan_digest(barrier_dual_frobenius(V, A_cols, 12))


# ---------------------------------------------------------------------------
# subspace_sampling


def test_subspace_single_nonzero_row():
    X = np.zeros((5, 2))
    X[0, 0] = 3.0
    r = 9
    plan = subspace_sampling(X, 1.0, r, seed=9)
    assert list(plan.indices) == [0] * r
    np.testing.assert_allclose(plan.weights, 1.0 / math.sqrt(r))


def test_subspace_singular_value_concentration():
    k, delta = 4, 0.1
    r = math.ceil(4 * k * math.log(2 * k / delta))
    width = math.sqrt(4 * k * math.log(2 * k / delta) / r)
    ok = 0
    for s in range(100):
        V = random_orthonormal(500, k, seed=4000 + s)
        plan = subspace_sampling(V, 1.0, r, seed=s)
        sv2 = np.linalg.svd(apply_plan_columns(V.T, plan), compute_uv=False) ** 2
        ok += bool(np.all(sv2 >= 1 - width) and np.all(sv2 <= 1 + width))
    assert ok >= 85


def test_subspace_frobenius_control():
    # E||Y Omega S||_F^2 = ||Y||_F^2, so exceeding 10x happens rarely
    g = rand(10)
    V = random_orthonormal(200, 3, seed=11)
    Y = g.normal(size=(6, 200))
    ok = 0
    for s in range(100):
        plan = subspace_sampling(V, 1.0, 30, seed=s)
        Yc = apply_plan_columns(Y, plan)
        ok += bool(np.linalg.norm(Yc) ** 2 <= 10 * np.linalg.norm(Y) ** 2)
    assert ok >= 88


def test_subspace_beta_validation_and_zero_matrix():
    with pytest.raises(ArgumentError):
        subspace_sampling(np.zeros((4, 2)), 1.0, 3, seed=0)
    with pytest.raises(ArgumentError):
        subspace_sampling(np.ones((4, 2)), 0.0, 3, seed=0)
    with pytest.raises(ArgumentError):
        subspace_sampling(np.ones((4, 2)), 1.5, 3, seed=0)


# ---------------------------------------------------------------------------
# rrqr_select


def test_rrqr_identity_columns():
    n, k = 7, 3
    X = np.eye(n)[:, :k]
    plan = rrqr_select(X)
    assert sorted(plan.indices) == [0, 1, 2]
    np.testing.assert_array_equal(plan.weights, 1.0)


def test_rrqr_spectral_floor_k2_n10():
    floor = math.sqrt(65.0)  # f=2: sqrt(f^2 k (n-k) + 1) with k=2, n=10
    for s in range(50):
        X = rand(5000 + s).normal(size=(10, 2))
        plan = rrqr_select(X)
        s_full = np.linalg.svd(X.T, compute_uv=False)[-1]
        s_sel = np.linalg.svd(X[plan.indices].T, compute_uv=False)[-1]
        assert s_sel >= s_full / floor - 1e-9


def test_rrqr_never_beats_exhaustive_best():
    k, n = 2, 6
    for s in range(20):
        X = rand(6000 + s).normal(size=(n, k))
        plan = rrqr_select(X)
        alg = np.linalg.svd(X[plan.indices].T, compute_uv=False)[-1]
        best = max(
            np.linalg.svd(X[list(rows)].T, compute_uv=False)[-1]
            for rows in itertools.combinations(range(n), k)
        )
        bound = np.linalg.svd(X.T, compute_uv=False)[-1] / math.sqrt(
            4 * k * (n - k) + 1
        )
        assert best >= alg - 1e-12
        assert alg >= bound - 1e-9


def test_rrqr_spectral_norm_never_grows():
    for s in range(20):
        X = rand(7000 + s).normal(size=(12, 3))
        plan = rrqr_select(X)
        assert np.linalg.norm(X[plan.indices].T, 2) <= np.linalg.norm(X.T, 2) + 1e-12
        assert np.linalg.norm(X[plan.indices].T) <= np.linalg.norm(X.T) + 1e-12


@pytest.mark.parametrize("n, k", [(20, 10), (10, 9)])
def test_rrqr_swaps_past_pivoted_qr_on_the_kahan_matrix(n, k):
    # K = diag(s^i)(I - c * strict upper ones): pivoted QR keeps its first
    # columns, which leaves an entry of R11^-1 R12 above f = 2, so the swap
    # loop has to run
    c = 0.285
    K = np.diag(math.sqrt(1 - c * c) ** np.arange(n)) @ (
        np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    X = K[:k].T
    sel = rrqr_select(X).indices
    piv = scipy.linalg.qr(X.T, pivoting=True, mode="economic")[2]
    assert not np.array_equal(sel, np.sort(piv[:k]))
    rest = np.setdiff1d(np.arange(n), sel)
    # R11^-1 R12 for the selection is X[sel]^-T X[rest]^T, whatever the order
    assert np.abs(np.linalg.solve(X[sel].T, X[rest].T)).max() <= 2.0
    sv = np.linalg.svd(X, compute_uv=False)[-1]
    assert (np.linalg.svd(X[sel], compute_uv=False)[-1]
            >= sv / math.sqrt(4 * k * (n - k) + 1))


def test_rrqr_rejects_rank_deficiency():
    X = np.ones((5, 2))
    with pytest.raises(RankError):
        rrqr_select(X)


# ---------------------------------------------------------------------------
# barrier sparsifiers


def test_barrier_single_equals_dual_with_same_set():
    V = random_orthonormal(30, 4, seed=12)
    p1 = barrier_single(V, 16)
    p2 = barrier_dual_spectral(V, V, 16)
    assert plan_digest(p1) == plan_digest(p2)


def test_barrier_single_two_sided_bounds():
    V = random_orthonormal(40, 4, seed=13)
    lo, hi = _sigma_range(V, barrier_single(V, 16))
    assert lo >= 0.5 - 1e-9
    assert hi <= 1.5 + 1e-9


def test_barrier_single_full_width_run():
    V = random_orthonormal(12, 3, seed=14)
    lo, hi = _sigma_range(V, barrier_single(V, 12))
    w = math.sqrt(3.0 / 12.0)
    assert lo >= 1 - w - 1e-9
    assert hi <= 1 + w + 1e-9


def test_barrier_single_rejects_r_not_above_k():
    V = random_orthonormal(10, 3, seed=15)
    with pytest.raises(ArgumentError):
        barrier_single(V, 3)


def test_barrier_dual_spectral_bounds():
    V = random_orthonormal(40, 2, seed=16)
    U = random_orthonormal(40, 3, seed=17)
    plan = barrier_dual_spectral(V, U, 8)
    lo, _ = _sigma_range(V, plan)
    assert lo >= 1 - math.sqrt(2.0 / 8.0) - 1e-9
    Uc = apply_plan_columns(U.T, plan)
    assert np.linalg.norm(Uc, 2) <= 1 + math.sqrt(3.0 / 8.0) + 1e-9


def test_barrier_dual_spectral_pick_budget():
    for s in range(50):
        V = random_orthonormal(25, 2, seed=8000 + s)
        U = random_orthonormal(25, 4, seed=9000 + s)
        plan = barrier_dual_spectral(V, U, 9)
        assert len(plan) <= 9


def test_barrier_dual_spectral_feasible_on_varied_shapes():
    # a run that returns at all proves every step found a feasible index
    g = rand(18)
    for _ in range(100):
        n = int(g.integers(10, 60))
        k = int(g.integers(1, 5))
        ell = int(g.integers(1, 6))
        r = int(g.integers(k + 1, n + 1))
        V = random_orthonormal(n, k, seed=int(g.integers(1 << 30)))
        U = random_orthonormal(n, ell, seed=int(g.integers(1 << 30)))
        plan = barrier_dual_spectral(V, U, r)
        lo, _ = _sigma_range(V, plan)
        assert lo >= 1 - math.sqrt(k / r) - 1e-9
        Uc = apply_plan_columns(U.T, plan)
        assert np.linalg.norm(Uc, 2) <= 1 + math.sqrt(ell / r) + 1e-9


def test_barrier_dual_spectral_identity_upper_side():
    # U = I_n bounds every weight: ||I Omega S||_2 = max_j sqrt(s_j)
    for n, k, r in [(40, 2, 8), (60, 3, 30), (25, 1, 25)]:
        V = random_orthonormal(n, k, seed=n + k)
        plan = barrier_dual_spectral(V, np.eye(n), r)
        lo, _ = _sigma_range(V, plan)
        assert lo >= 1 - math.sqrt(k / r) - 1e-9
        assert plan.weights.max() <= 1 + math.sqrt(n / r) + 1e-9


def test_identity_upper_side_is_not_checked_but_near_identities_are(monkeypatch):
    checked = []
    real = samplers._ortho_deviation
    monkeypatch.setattr(samplers, "_ortho_deviation",
                        lambda M: checked.append(M.shape) or real(M))
    n, k, r = 120, 5, 20
    V = random_orthonormal(n, k, seed=23)
    plan = barrier_dual_spectral(V, np.eye(n), r)
    assert checked == [(n, k)]  # V only: I_n needs no n^3 Gram product
    assert plan_digest(plan) == plan_digest(
        _plan_from_weights(_barrier_core(V, r, np.eye(n))))
    for U in (2.0 * np.eye(n), np.eye(n) + 1e-3 * np.eye(n, k=1),
              np.eye(n)[::-1] * np.r_[np.ones(n - 1), -2.0]):
        with pytest.raises(ArgumentError, match="U must have orthonormal"):
            barrier_dual_spectral(V, U, r)


def test_barrier_dual_spectral_is_deterministic():
    V = random_orthonormal(30, 3, seed=19)
    U = random_orthonormal(30, 5, seed=20)
    assert plan_digest(barrier_dual_spectral(V, U, 12)) == plan_digest(
        barrier_dual_spectral(V, U, 12)
    )


def test_barrier_dual_spectral_rejects_skewed_inputs():
    V = rand(21).normal(size=(20, 3))
    with pytest.raises(ArgumentError):
        barrier_dual_spectral(V, V, 10)


def test_barrier_frobenius_bounds():
    V = random_orthonormal(100, 3, seed=22)
    A_cols = rand(23).normal(size=(5, 100))
    plan = barrier_dual_frobenius(V, A_cols, 12)
    lo, _ = _sigma_range(V, plan)
    assert lo >= 0.5 - 1e-9
    Ac = apply_plan_columns(A_cols, plan)
    assert np.linalg.norm(Ac) <= np.linalg.norm(A_cols) + 1e-9


def test_barrier_frobenius_zero_upper_set():
    # zero A_cols makes the Frobenius side vacuous but keeps the lower bound
    V = random_orthonormal(30, 3, seed=24)
    plan = barrier_dual_frobenius(V, np.zeros((4, 30)), 12)
    lo, _ = _sigma_range(V, plan)
    assert lo >= 0.5 - 1e-9


def test_barrier_infeasible_step_reports_margin_over_all_rows():
    # rows too short for the lower barrier leave no admissible index at
    # step 0; the reported margin is the best over every row, and the best
    # row is the last one, far past the first scan block
    n, k, r = 300, 2, 10
    V = 1e-2 * random_orthonormal(n, k, seed=25)
    V[-1] *= 5.0
    with pytest.raises(InfeasibleStepError) as exc:
        _barrier_core(V, r, np.ones(n))
    assert exc.value.step == 0
    # at step 0: U(a_j) = (1 - sqrt(k/r))/n, L(v_j) = gain * ||v_j||^2
    gain = (math.sqrt(r / k) - 1.0) / (math.sqrt(r * k) - 1.0)
    best = (1.0 - math.sqrt(k / r)) / n - gain * np.max(np.sum(V * V, axis=1))
    assert exc.value.margin == pytest.approx(best, rel=1e-9)


# ---------------------------------------------------------------------------
# The barrier loop as it was before its per-step numpy calls were cut, kept
# verbatim (only the names carry a _ref prefix) as an independent reference:
# the loop must return bit-identical weights on every upper side and fail at
# the same step with the same margin.

_REF_SCAN_BLOCK = 64


def _ref_lower_values(VW, d, denom):
    """L(v_j) for a block of rows: barrier gain of the min-eigenvalue side."""
    q1 = (VW * VW / d).sum(axis=1)
    q2 = (VW * VW / (d * d)).sum(axis=1)
    return q2 / denom - q1


def _ref_barrier_core(V, r, upper):
    """Shared greedy loop; returns the merged, rescaled weights s (length n).

    upper is an n x ell matrix U for spectral control of ||U^T Omega S||_2
    (V itself for the single-set walk, which then reuses the lower side's
    eigenpairs), or a length-n vector of squared column norms for Frobenius
    control by a constant per-index potential.

    B = sum_j s_j u_j u_j^T is never formed: with Y = diag(sqrt(s_P)) U[P]
    over the p <= tau picked rows P, eigh(Y Y^T) = (nu, Q), R = Y^T Q,
    z = u R and c = U_tau + dU,
      u^T (cI - B)^-1 u = |u|^2/c + sum z^2 / (c (c - nu)),
      u^T (cI - B)^-2 u = |u|^2/c^2 + sum z^2 (2c - nu) / (c (c - nu))^2,
      tr (xI - B)^-1 = (ell - p)/x + sum 1/(x - nu);
    nothing divides by nu, so a singular Gram (p > ell) needs no care.

    Rows with ||v_j||^2 <= eps k/n are round-off (zero input columns) and
    never picked: their weight 2/(U + L) would be unbounded. Each step
    picks the smallest feasible index, so rows are scored in doubling prefix
    blocks (_REF_SCAN_BLOCK, 2x, 4x, ...) up to the first block holding a
    feasible row; a row's values do not depend on its block.
    """
    n, k = V.shape
    if not (k < r):
        raise ArgumentError(f"need k < r, got k={k}, r={r}")
    shrink = 1.0 - math.sqrt(k / r)
    sqrt_rk = math.sqrt(r * k)
    live = np.einsum("ij,ij->i", V, V) > np.finfo(float).eps * k / n

    same = upper is V
    quadratic = upper.ndim == 2
    if quadratic:
        ell = upper.shape[1]
        dU = (1.0 + math.sqrt(ell / r)) / shrink
        u_sq = np.einsum("ij,ij->i", upper, upper)
    else:
        total = float(upper.sum())
        dU = total / shrink
        UF = upper / dU if total > 0 else np.zeros(n)

    s = np.zeros(n)
    A_acc = np.zeros((k, k))
    for tau in range(int(r)):
        # row-independent quantities: once per step
        L = tau - sqrt_rk
        lam, W = np.linalg.eigh(A_acc)
        d = lam - (L + 1.0)
        if d.min() <= 0:
            raise NumericError("internal: lower barrier crossed")
        denomL = float(np.sum(1.0 / d) - np.sum(1.0 / (lam - L)))
        if denomL <= 0:
            raise NumericError("internal: lower potential difference not positive")
        if quadratic:
            Uthr = dU * (tau + math.sqrt(ell * r))
            c = Uthr + dU
            if same:
                nu = lam
            else:
                P = np.flatnonzero(s)
                Y = np.sqrt(s[P])[:, None] * upper[P]
                nu, Q = np.linalg.eigh(Y @ Y.T)
                R = Y.T @ Q
            e = c - nu
            if (e <= 0).any():
                raise NumericError("internal: upper barrier crossed")
            denomU = float(np.sum(1.0 / (Uthr - nu)) - np.sum(1.0 / e)) + (
                ell - nu.size
            ) * (1.0 / Uthr - 1.0 / c)
            if denomU <= 0:
                raise NumericError("internal: upper potential difference not positive")
            if not same:
                w1 = 1.0 / (c * e)
                w2 = (c + e) / (c * c * e * e)

        # per-row values, block by block, up to the first feasible row
        margin = math.inf
        hi = 0
        while hi < n:
            lo, hi = hi, min(n, max(_REF_SCAN_BLOCK, 2 * hi))
            VW = V[lo:hi] @ W
            Lvals = _ref_lower_values(VW, d, denomL)
            if not quadratic:
                Uvals = UF[lo:hi]
            elif same:
                Uvals = (VW * VW / (e * e)).sum(axis=1) / denomU + (
                    VW * VW / e
                ).sum(axis=1)
            else:
                Z2 = upper[lo:hi] @ R
                Z2 *= Z2
                ub = u_sq[lo:hi]
                Uvals = (ub / (c * c) + Z2 @ w2) / denomU + (ub / c + Z2 @ w1)

            ok = live[lo:hi]
            tol = 1e-9 * np.maximum(1.0, np.abs(Lvals))
            feas = ok & (Uvals <= Lvals + tol) & (Uvals + Lvals > 0)
            if feas.any():
                i = int(np.argmax(feas))  # smallest feasible index
                break
            margin = np.minimum(  # keeps a nan
                margin, np.min(Uvals - Lvals, where=ok, initial=math.inf))
        else:
            raise InfeasibleStepError(
                tau,
                float(margin),
                "check that the input columns are orthonormal",
            )
        j = lo + i
        t = 2.0 / (Uvals[i] + Lvals[i])
        if not (t > 0 and math.isfinite(t)):
            raise InfeasibleStepError(tau, t, "nonpositive or non-finite weight")
        s[j] += t
        A_acc += t * np.outer(V[j], V[j])

    return s * (shrink / r)


def _coreset_factor(m, n, seed):
    """U_Y of a coreset-barrier workload shape: [A, b] with b near range(A)."""
    g = rand(seed)
    A = g.normal(size=(m, n))
    b = A @ g.normal(size=n) + 0.1 * g.normal(size=m)
    return svd(np.column_stack([A, b])).U


def _same_outcome(V, r, upper, complement=False):
    # the complement of an n x 0 upper is I_n, which the reference walks
    ref_upper = np.eye(len(V)) if complement else upper
    try:
        want = _ref_barrier_core(V, r, ref_upper)
    except InfeasibleStepError as exc:
        with pytest.raises(InfeasibleStepError) as got:
            _barrier_core(V, r, upper, complement=complement)
        assert (got.value.step, str(got.value)) == (exc.step, str(exc))
        assert got.value.margin == exc.margin or (
            math.isnan(got.value.margin) and math.isnan(exc.margin))
        return exc
    assert np.array_equal(_barrier_core(V, r, upper, complement=complement),
                          want)
    return want


@pytest.mark.parametrize("m,n", [(2000, 3), (2000, 4), (4000, 3), (6000, 3)])
def test_barrier_single_set_matches_reference_on_coreset_shapes(m, n):
    V = _coreset_factor(m, n, seed=m + n)
    _same_outcome(V, 400, V)


def test_barrier_matches_reference_on_every_upper_side():
    g = rand(30)
    past_ell = []
    for n, k, ell, r in [(40, 2, 3, 8), (200, 3, 2, 30), (90, 1, 4, 60),
                         (150, 4, 6, 149), (50, 3, 3, 200)]:
        V = random_orthonormal(n, k, seed=n + k)
        U = random_orthonormal(n, ell, seed=n + ell + 1)
        past_ell.append(np.count_nonzero(_same_outcome(V, r, U)) > ell)
        _same_outcome(V, r, V)
        _same_outcome(V, min(r, n), np.eye(n))
        _same_outcome(V, min(r, n), V[:, :0], complement=True)
        c_sq = g.normal(size=(5, n)) ** 2
        _same_outcome(V, r, c_sq.sum(axis=0))
        _same_outcome(V, r, np.zeros(n))
    # more distinct picks than ell make the Gram Y Y^T singular
    assert any(past_ell)


def test_barrier_matches_reference_with_zero_rows():
    # zero rows of V are never picked (the live mask), in any scan block
    n, k, r = 300, 3, 40
    V = np.zeros((n, k))
    V[::3] = random_orthonormal(100, k, seed=31)
    U = np.zeros((n, 4))
    U[1::3] = random_orthonormal(100, 4, seed=32)
    for args in ((V,), (U,), (np.eye(n),), (np.einsum("ij,ij->i", U, U),),
                 (V[:, :0], True)):
        s = _same_outcome(V, r, *args)
        assert not s[1::3].any() and not s[2::3].any()


@pytest.mark.parametrize("n, k, r", [(40, 3, 12), (200, 5, 20), (60, 2, 60),
                                     (30, 29, 30), (25, 24, 25), (50, 4, 5),
                                     (90, 1, 2)])
def test_complement_of_z_walks_like_a_basis_of_it(n, k, r):
    # U U^T = I - Z Z^T for any orthonormal basis U of Z's complement, and
    # the walk reads U only through that projector
    Z = random_orthonormal(n, k, seed=n + k + r)
    U = np.linalg.qr(Z, mode="complete")[0][:, k:]
    want = barrier_dual_spectral(Z, U, r)
    got = samplers._barrier_complement(Z, Z, r)
    assert np.array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-11, atol=0)


def test_complement_route_checks_its_lower_set():
    V = rand(35).normal(size=(30, 3))
    for W in (V, V[:, :0]):
        with pytest.raises(ArgumentError, match="V must have orthonormal"):
            samplers._barrier_complement(V, W, 10)


def test_barrier_infeasible_step_matches_reference():
    n, k, r = 300, 2, 10
    V = 1e-2 * random_orthonormal(n, k, seed=25)
    V[-1] *= 5.0
    for upper in (np.ones(n), random_orthonormal(n, 3, seed=33)):
        assert isinstance(_same_outcome(V, r, upper), InfeasibleStepError)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rounds_of_b_rows_keep_the_barrier_invariant(data):
    # a round adds b rows at weight t_i / b, the average of b single-row
    # updates that the shift-b lemmas allow while b <= sqrt(r/k): after
    # every round both barriers hold, and no round of b raises a potential.
    # A single step is not held to the last: its scan admits U(v) up to
    # L(v) + 1e-9 max(1, |L(v)|), which can raise a potential slightly
    n, k = data.draw(st.integers(20, 400)), data.draw(st.integers(1, 5))
    r = data.draw(st.integers(4 * k, 4 * n))
    b = data.draw(st.integers(2, math.isqrt(r // k)))
    V = random_orthonormal(n, k, seed=data.draw(st.integers(0, 2**32 - 1)))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "_BATCH", b)
        _barrier_core(V, r, V, screen=(
            math.inf, r, lambda tau, s: seen.append((tau, s))))
    assert seen[-1][0] == r
    sqrt_rk, shrink = math.sqrt(r * k), 1.0 - math.sqrt(k / r)
    dU = (1.0 + math.sqrt(k / r)) / shrink
    # both potentials at A = 0, then after every round with lam_min(A) > 0
    last, prev = 0, (k / sqrt_rk, k / (dU * sqrt_rk))
    for tau, s in seen:
        lam = np.linalg.eigvalsh((V.T * (s * r / shrink)) @ V)
        lo, hi = tau - sqrt_rk, dU * (tau + sqrt_rk)
        assert lam[0] > lo and lam[-1] < hi
        pot = ((1.0 / (lam - lo)).sum(), (1.0 / (hi - lam)).sum())
        if tau - last == b:
            assert pot[0] <= prev[0] * (1 + 1e-12)
            assert pot[1] <= prev[1] * (1 + 1e-12)
        last, prev = tau, pot


def test_eigh_gufunc_matches_numpy_eigh():
    # the barrier calls the LAPACK gufunc behind np.linalg.eigh directly
    g = rand(34)
    for k in range(1, 9):
        for _ in range(20):
            M = g.normal(size=(k, k)) * 10.0 ** g.integers(-3, 4)
            M = M + M.T
            lam, W = samplers._eigh(M)
            want = np.linalg.eigh(M)
            assert np.array_equal(lam, want.eigenvalues)
            assert np.array_equal(W, want.eigenvectors)
