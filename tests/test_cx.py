"""Oversampled CX selection, exactly-k CSSP, ID, and the hard instance."""

import itertools
import math
import warnings

import numpy as np
import pytest

from matsketch import (ArgumentError, barrier_dual_spectral, barrier_single,
                       best_rank_k_in_subspace, cssp, cx_frobenius,
                       cx_spectral, fast_spectral_svd,
                       interpolative_decomposition, lower_bound_instance,
                       pseudo_inverse, svd)
from matsketch import cx as cx_module
from matsketch import linalg
from matsketch.cx import _certify, _check_kr
from matsketch.linalg import (ColumnProblem, SamplingPlan, _norms, as_matrix,
                              pow2_scaled)
from matsketch.synthetic import lowrank_plus_noise

from conftest import plan_digest, rand


def _cc_plus_error(A, C, norm):
    P = C @ pseudo_inverse(C)
    R = A - P @ A
    return np.linalg.norm(R, 2 if norm == "spectral" else None)


# ---------------------------------------------------------------------------
# cx_spectral


def test_cx_spectral_zero_error_on_rank_k_input():
    g = rand(1)
    A = g.normal(size=(10, 2)) @ g.normal(size=(2, 12))
    for mode in ["deterministic", "fast"]:
        res = cx_spectral(A, 2, 6, mode=mode, seed=3)
        assert res.rank_k_error_spectral <= 1e-8 * np.linalg.norm(A, 2)


def test_cx_spectral_deterministic_bound():
    # rho=10, k=2, r=8: constant 1 + (1+1)/(1-0.5) = 5, times the sqrt(2)
    # slack of the spectral projection estimator
    for s in range(10):
        A = rand(100 + s).normal(size=(12, 10))
        res = cx_spectral(A, 2, 8, mode="deterministic")
        sigma3 = svd(A).singular_values[2]
        assert res.rank_k_error_spectral <= 5 * math.sqrt(2) * sigma3 + 1e-12
        assert res.bound_value >= res.rank_k_error_spectral
        assert res.baseline_sigma == pytest.approx(sigma3)


def test_cx_spectral_fast_plan_is_the_identity_walk():
    # the plan is the dual-set walk of the sketched basis against I_n
    A = lowrank_plus_noise(50, 40, 3, 0.1, seed=5)
    for s in range(3):
        basis = fast_spectral_svd(A, 3, 1, seed=s)
        want = barrier_dual_spectral(basis.Z, np.eye(40), 12)
        got = cx_spectral(A, 3, 12, mode="fast", seed=s).plan
        assert plan_digest(got) == plan_digest(want)


def test_cx_spectral_fast_expectation_bound():
    n, k, r = 64, 2, 32
    const = (math.sqrt(2) + 1) * (
        1 + (1 + math.sqrt(n / r)) / (1 - math.sqrt(k / r))
    )
    ratios = []
    for s in range(50):
        A = lowrank_plus_noise(48, n, k, 0.4, seed=200 + s)
        res = cx_spectral(A, k, r, mode="fast", seed=s)
        ratios.append(res.rank_k_error_spectral / res.baseline_sigma)
    assert np.mean(ratios) <= const * 1.1


def test_cx_spectral_argument_errors():
    A = rand(2).normal(size=(8, 8))
    with pytest.raises(ArgumentError):
        cx_spectral(A, 3, 3)
    with pytest.raises(ArgumentError):
        cx_spectral(A, 3, 9)
    with pytest.raises(ArgumentError):
        cx_spectral(A, 3, 6, mode="bogus")


# ---------------------------------------------------------------------------
# cx_frobenius


def test_cx_frobenius_deterministic_bound():
    bound = math.sqrt(5.0)  # k=2, r=8: sqrt(1 + 1/(1-0.5)^2)
    for s in range(10):
        A = lowrank_plus_noise(30, 24, 2, 0.6, seed=300 + s)
        res = cx_frobenius(A, 2, 8, mode="deterministic")
        assert res.rank_k_error_frobenius <= bound * res.baseline_sigma + 1e-12
        assert res.bound_value == pytest.approx(bound * res.baseline_sigma)


def test_deterministic_cx_skips_zero_columns():
    # a zero column leaves a round-off row in V; picking it would need an
    # unbounded weight and used to cross the lower barrier
    A = lowrank_plus_noise(60, 30, 3, 0.05, seed=0)
    zero = [4, 11, 20]
    A[:, zero] = 0.0
    for cx in (cx_frobenius, cx_spectral):
        res = cx(A, 3, 8, mode="deterministic")
        assert not set(zero) & set(res.plan.indices.tolist())
        assert len(res.plan) <= 8
        err = (res.rank_k_error_frobenius if res.norm == "frobenius"
               else res.rank_k_error_spectral)
        assert err <= res.bound_value


_RUNS = {
    "cx_spectral-deterministic": lambda A: cx_spectral(A, 3, 10),
    "cx_spectral-fast": lambda A: cx_spectral(A, 3, 10, mode="fast", seed=2),
    "cx_frobenius-deterministic": lambda A: cx_frobenius(A, 3, 10),
    "cx_frobenius-fast": lambda A: cx_frobenius(A, 3, 10, mode="fast", seed=2),
    "cx_frobenius-relative": lambda A: cx_frobenius(A, 3, 35, mode="relative",
                                                    seed=2),
    "cssp-spectral": lambda A: cssp(A, 3, mode="spectral", seed=2),
    "cssp-frobenius": lambda A: cssp(A, 3, mode="frobenius", seed=2),
    "cssp-two_stage": lambda A: cssp(A, 3, mode="two_stage", seed=2),
    "cssp-two_stage-k1": lambda A: cssp(A, 1, mode="two_stage", seed=2),
}


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600],
                         ids=["2^600", "2^-600"])
@pytest.mark.parametrize("name", list(_RUNS))
def test_column_selection_is_scale_equivariant(name, scale):
    # squared norms overflow to inf at 2^600 and underflow to 0 at 2^-600,
    # and A A^T x overflows in the power-iterated sketch at 2^600
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _RUNS[name](A * scale)
    want = _RUNS[name](A)
    # SVDs, norms and sketches rescale only by powers of two, so picks and
    # weights are equal and every number moves by exactly the scale
    assert np.array_equal(got.plan.indices, want.plan.indices)
    assert np.array_equal(got.plan.weights, want.plan.weights)
    assert np.array_equal(got.C, want.C * scale)
    for field in ("rank_k_error_spectral", "rank_k_error_frobenius",
                  "bound_value", "baseline_sigma"):
        assert getattr(got, field) == getattr(want, field) * scale, field


_ENTRIES = {**_RUNS, "interpolative_decomposition":
            lambda A: interpolative_decomposition(A, 3, seed=2)}


@pytest.mark.parametrize("exponent", ["e!=0", "e=0"])
@pytest.mark.parametrize("name", list(_ENTRIES))
def test_a_is_rescaled_at_most_once(monkeypatch, name, exponent):
    # the entry divides A by 2^e once and hands that S to every kernel; a
    # kernel's own rescale of S is then a no-op that copies nothing
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    S, e = pow2_scaled(A)
    assert e != 0
    if exponent == "e=0":
        A = S.copy()
    rescaled = []
    real = np.ldexp

    def recording(x, *args, **kwargs):
        if "out" not in kwargs:
            rescaled.append(x)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", recording)
    _ENTRIES[name](A)
    copies = sum(isinstance(x, np.ndarray) and np.shares_memory(x, A)
                 for x in rescaled)
    assert copies <= (0 if exponent == "e=0" else 1)


def _outputs(out):
    """Every array and number a column-selection entry returns."""
    if isinstance(out, tuple):  # interpolative_decomposition's (C, X, plan)
        C, X, plan = out
        return [C, X, plan.indices, plan.weights]
    return [out.plan.indices, out.plan.weights, out.C,
            *(np.float64(getattr(out, f)) for f in _FIELDS)]


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600],
                         ids=["1", "2^600", "2^-600"])
@pytest.mark.parametrize("name", list(_ENTRIES))
def test_a_column_problem_gives_the_bits_of_its_array(name, scale):
    # a second call on the same problem reads its kept factors
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7) * scale
    p = ColumnProblem(A)
    want = _outputs(_ENTRIES[name](A))
    for _ in range(2):
        got = _outputs(_ENTRIES[name](p))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_column_problem_keeps_a_view_and_its_gram_matrix():
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    p = ColumnProblem(A)
    assert np.shares_memory(p.A, A) and A.flags.writeable
    assert not p.A.flags.writeable
    for name, run in _ENTRIES.items():
        run(p)
        assert np.array_equal(p.gram, p.S.T @ p.S), name


def test_frobenius_baseline_reads_the_residual_without_a_copy(monkeypatch):
    # E is in S's units, so ||E||_F is read off E as it stands: a rescaled
    # copy would be one more m x n array per Frobenius certificate
    p = ColumnProblem(lowrank_plus_noise(60, 40, 3, 0.1, seed=7))
    E = p.residual(3)
    assert linalg._pow2_exponent(E) != 0  # so a rescale would copy E
    want = linalg.frobenius_norm(E)
    rescaled = []
    real = np.ldexp

    def recording(x, *args, **kwargs):
        rescaled.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", recording)
    got = p.baseline(3, "frobenius")
    assert E.shape not in rescaled
    assert got == want > 0.0


def _count_full_svds(monkeypatch, shape):
    """The compute_uv flag of every np.linalg.svd call on a `shape` matrix
    from here on."""
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a) == shape:
            calls.append(kwargs.get("compute_uv", True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("name", list(_RUNS))
def test_certification_takes_no_extra_full_svd(monkeypatch, name):
    # baselines come from the residual of a top-k subspace (ColumnProblem);
    # on this full-column-rank, tall input deterministic cx_spectral takes
    # its upper set from the complement of that subspace too
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    calls = _count_full_svds(monkeypatch, A.shape)
    _RUNS[name](A)
    assert calls == []


@pytest.mark.parametrize("name", list(_RUNS))
def test_certified_errors_are_the_norms_of_the_residual(name):
    # the spectral error is a certified upper end of ||A - approx||_2, at
    # most 1e-10 above it; the Frobenius error is ||A - approx||_F
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    res = _RUNS[name](A)
    approx, _ = best_rank_k_in_subspace(A, res.C, 1 if name.endswith("k1") else 3)
    s = np.linalg.svd(A - approx, compute_uv=False)
    assert s[0] <= res.rank_k_error_spectral <= s[0] * (1 + 1e-10)
    assert res.rank_k_error_frobenius == pytest.approx(np.linalg.norm(s),
                                                       rel=1e-13, abs=0)


def _fit_norms(A, C, k):
    """_norms of the formed residual A - Q (Q^T A)_k: the bits of the
    residual path."""
    approx, _ = best_rank_k_in_subspace(A, C, k)
    return _norms(A - approx)


def _certify_plain(A, k, plan):
    p = ColumnProblem(A)
    return _certify(p, k, plan, "spectral", 1.0, "", math.ldexp(1.0, -p.e))


def _fallback_inputs():
    g = rand(24)
    return {
        "rank-k": g.normal(size=(60, 3)) @ g.normal(size=(3, 40)),
        "wide": lowrank_plus_noise(30, 50, 3, 0.1, seed=2),
        "zero": np.zeros((30, 20)),
        "full-rank": lowrank_plus_noise(60, 40, 3, 0.1, seed=7),
    }


@pytest.mark.parametrize("case", ["rank-k", "wide", "zero", "cholesky",
                                  "arpack"])
def test_certify_falls_back_to_the_residual(monkeypatch, case):
    # cancellation (rank-k input), no Gram matrix (wide, all-zero), a
    # Cholesky pivot <= 0 or an ARPACK error: the residual's own norms
    import scipy.linalg.lapack
    import scipy.sparse.linalg as sla

    A = _fallback_inputs().get(case, _fallback_inputs()["full-rank"])
    plan = SamplingPlan(A.shape[1], np.arange(8), 1.0)
    if case == "cholesky":
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf",
                            lambda a, **kw: (a, 1))
    if case == "arpack":
        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.zeros(0),
                                          np.zeros((0, 0)))

        monkeypatch.setattr(sla, "eigsh", no_convergence)
    declined = []
    real = linalg._gram_residual_norms

    def spy(*args):
        out = real(*args)
        declined.append(out is None)
        return out

    monkeypatch.setattr(cx_module, "_gram_residual_norms", spy)
    res = _certify_plain(A, 3, plan)
    assert declined == ([] if case in ("wide", "zero") else [True])
    assert (res.rank_k_error_spectral, res.rank_k_error_frobenius) == \
        _fit_norms(A, res.C, 3)


@pytest.mark.parametrize("name", list(_RUNS))
def test_certification_runs_no_dense_eigensolver(monkeypatch, name):
    # on this tall, full-rank input every plan is measured from A's Gram
    # matrix: no residual Gram goes to LAPACK's dsyevr
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    inside, dense = [], []
    certify, eigenvalues = cx_module._certify, linalg._gram_eigenvalues

    def tracking(*args, **kwargs):
        inside.append(True)
        try:
            return certify(*args, **kwargs)
        finally:
            inside.pop()

    def counting(*args, **kwargs):
        dense.extend(inside[:1])
        return eigenvalues(*args, **kwargs)

    monkeypatch.setattr(cx_module, "_certify", tracking)
    monkeypatch.setattr(linalg, "_gram_eigenvalues", counting)
    monkeypatch.setattr(cx_module, "_gram_eigenvalues", counting)
    _RUNS[name](A)
    assert dense == []


def test_certify_validates_a_at_most_once(monkeypatch):
    # the public entry validates A; _certify and its helpers trust it
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    plan = SamplingPlan(40, np.arange(8), 1.0)
    seen = []
    real = linalg.as_matrix

    def counting(M, *args, **kwargs):
        seen.append(np.shape(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "as_matrix", counting)  # cx calls none
    _certify(ColumnProblem(A), 3, plan, "spectral", 1.0, "")
    assert seen.count(A.shape) <= 1


def _ref_cx_spectral_deterministic(A, k, r):
    """Deterministic cx_spectral with one full svd(A) on every input, as it
    was before the full-rank path; kept verbatim as the reference."""
    A = as_matrix(A)
    shrink = _check_kr(A, k, r, 1)
    f = svd(A)
    rho = f.rank
    if k > rho:
        raise ArgumentError(f"k={k} exceeds rank(A)={rho}")
    if rho > k:
        plan = barrier_dual_spectral(f.V[:, :k], f.V[:, k:], r)
        const = 1.0 + (1.0 + math.sqrt((rho - k) / r)) / shrink
        sigma = float(f.singular_values[k])
    else:
        # nothing outside the top subspace; a single-set run suffices
        plan = barrier_single(f.V, r)
        const, sigma = 1.0 + 1.0 / shrink, 0.0
    formula = "sqrt(2)*(1+(1+sqrt((rho-k)/r))/(1-sqrt(k/r)))*sigma_{k+1}"
    p = ColumnProblem(A)
    return _certify(p, k, plan, "spectral", math.sqrt(2.0) * const,
                    formula, math.ldexp(sigma, -p.e))


_FIELDS = ("rank_k_error_spectral", "rank_k_error_frobenius", "bound_value",
           "baseline_sigma")


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600],
                         ids=["1", "2^600", "2^-600"])
@pytest.mark.parametrize("shape, k, r", [((60, 40), 3, 10), ((200, 120), 4, 20)],
                         ids=["60x40", "200x120"])
def test_full_rank_cx_spectral_matches_the_svd_path(monkeypatch, shape, k, r,
                                                     scale):
    # rank(A) = n: the upper set is any basis of the top-k subspace's
    # complement, which gives the walk the same potentials as V[:, k:]
    A = lowrank_plus_noise(*shape, k, 0.1, seed=shape[0]) * scale
    want = _ref_cx_spectral_deterministic(A, k, r)
    calls = _count_full_svds(monkeypatch, A.shape)
    got = cx_spectral(A, k, r)
    assert calls == []
    assert np.array_equal(got.plan.indices, want.plan.indices)
    np.testing.assert_allclose(got.plan.weights, want.plan.weights,
                               rtol=1e-12, atol=0)
    for field in _FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                    rel=1e-12, abs=0), field
    assert got.bound_formula == want.bound_formula


def _fallback_cases():
    g = rand(23)
    deficient = g.normal(size=(60, 10)) @ g.normal(size=(10, 40))
    zero = lowrank_plus_noise(60, 30, 3, 0.05, seed=0)
    zero[:, [4, 11, 20]] = 0.0
    dup = lowrank_plus_noise(60, 30, 3, 0.05, seed=1)
    dup[:, 17] = dup[:, 2]
    return {
        "rank-deficient": (deficient, 3, 12),
        "zero-columns": (zero, 3, 8),
        "duplicate-column": (dup, 3, 8),
        "wide": (lowrank_plus_noise(30, 50, 3, 0.1, seed=2), 3, 10),
        "rank-k": (g.normal(size=(40, 3)) @ g.normal(size=(3, 30)), 3, 8),
    }


@pytest.mark.parametrize("name", sorted(_fallback_cases()))
def test_cx_spectral_keeps_the_svd_path_unless_rank_is_n(monkeypatch, name):
    A, k, r = _fallback_cases()[name]
    want = _ref_cx_spectral_deterministic(A, k, r)
    calls = _count_full_svds(monkeypatch, A.shape)
    got = cx_spectral(A, k, r)
    assert calls == [True]
    assert np.array_equal(got.plan.indices, want.plan.indices)
    assert np.array_equal(got.plan.weights, want.plan.weights)
    assert np.array_equal(got.C, want.C)
    for field in _FIELDS:
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("k", [1, 2])
def test_cssp_two_stage_on_zero_input(k):
    # at k=1 the first right singular vector of svd(0) was empty, and the
    # sampler raised "X must be nonempty"
    res = cssp(np.zeros((30, 20)), k, mode="two_stage", seed=1)
    assert len(res.plan) == k
    assert res.baseline_sigma == res.bound_value == 0.0
    assert res.rank_k_error_frobenius == 0.0


def test_cx_frobenius_zero_error_on_rank_k_input():
    g = rand(3)
    A = g.normal(size=(14, 2)) @ g.normal(size=(2, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mode in ["deterministic", "fast", "relative"]:
            res = cx_frobenius(A, 2, 9, mode=mode, seed=4)
            assert res.rank_k_error_frobenius <= 1e-8 * np.linalg.norm(A)


def test_cx_frobenius_relative_expectation_bound():
    k, r = 2, 40
    sq_bound = 1 + 6 * k / (r - 4 * k)  # 1.375
    sq_ratios = []
    for s in range(50):
        A = lowrank_plus_noise(60, 50, k, 0.5, seed=400 + s)
        res = cx_frobenius(A, k, r, mode="relative", seed=s)
        sq_ratios.append((res.rank_k_error_frobenius / res.baseline_sigma) ** 2)
    assert np.mean(sq_ratios) <= sq_bound * 1.1


def test_cx_frobenius_relative_oversampling_floor():
    A = rand(5).normal(size=(20, 18))
    with pytest.raises(ArgumentError):
        cx_frobenius(A, 2, 8, mode="relative")  # needs r > 4k
    with pytest.warns(UserWarning):
        cx_frobenius(A, 2, 12, mode="relative")  # accepted, below 10k


def test_cx_plans_reproducible_and_seed_sensitive():
    A = lowrank_plus_noise(30, 25, 2, 0.4, seed=6)
    det1 = cx_frobenius(A, 2, 8, mode="deterministic")
    det2 = cx_frobenius(A, 2, 8, mode="deterministic")
    assert plan_digest(det1.plan) == plan_digest(det2.plan)
    fast1 = cx_frobenius(A, 2, 8, mode="fast", seed=7)
    fast2 = cx_frobenius(A, 2, 8, mode="fast", seed=7)
    fast3 = cx_frobenius(A, 2, 8, mode="fast", seed=8)
    assert plan_digest(fast1.plan) == plan_digest(fast2.plan)
    assert plan_digest(fast1.plan) != plan_digest(fast3.plan)


def test_cx_projection_beats_plain_span_residual():
    # ||A - C C^+ A|| <= ||A - Pi_{C,k}(A)|| in both norms
    A = lowrank_plus_noise(25, 20, 3, 0.7, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = [
            cx_frobenius(A, 3, 13, mode=m, seed=11)
            for m in ["deterministic", "fast", "relative"]
        ] + [cx_spectral(A, 3, 13, mode=m, seed=11) for m in ["deterministic", "fast"]]
    for res in results:
        assert _cc_plus_error(A, res.C, "frobenius") <= (
            res.rank_k_error_frobenius + 1e-10
        )
        assert _cc_plus_error(A, res.C, "spectral") <= (
            res.rank_k_error_spectral + 1e-10
        )


# ---------------------------------------------------------------------------
# cssp


def test_cssp_returns_exactly_k_unit_picks():
    A = lowrank_plus_noise(16, 12, 2, 0.3, seed=12)
    for mode in ["spectral", "frobenius", "two_stage"]:
        res = cssp(A, 2, mode=mode, seed=13)
        assert len(res.plan) == 2
        assert len(set(res.plan.indices)) == 2
        np.testing.assert_array_equal(res.plan.weights, 1.0)


def test_cssp_error_is_plain_projection_error():
    # with exactly k columns the rank-k projection equals C C^+ A
    A = lowrank_plus_noise(16, 12, 2, 0.3, seed=14)
    res = cssp(A, 2, mode="spectral", seed=15)
    assert res.rank_k_error_spectral == pytest.approx(
        _cc_plus_error(A, res.C, "spectral"), abs=1e-10
    )
    assert res.rank_k_error_frobenius == pytest.approx(
        _cc_plus_error(A, res.C, "frobenius"), abs=1e-10
    )


def test_cssp_spectral_expectation_bound():
    k, n = 2, 12
    const = 4 * math.sqrt(4 * k * (n - k) + 1)  # 36
    ratios = []
    for s in range(50):
        A = lowrank_plus_noise(16, n, k, 0.3, seed=500 + s)
        res = cssp(A, k, mode="spectral", seed=s)
        ratios.append(res.rank_k_error_spectral / res.baseline_sigma)
    assert np.mean(ratios) <= const * 1.1


def test_cssp_frobenius_expectation_bound():
    k, n = 2, 12
    ratios = []
    for s in range(50):
        A = lowrank_plus_noise(16, n, k, 0.3, seed=600 + s)
        res = cssp(A, k, mode="frobenius", seed=s)
        ratios.append(res.rank_k_error_frobenius / res.baseline_sigma)
    assert np.mean(ratios) <= 9 * k * 1.1


def test_cssp_two_stage_probability_bound():
    k, delta = 2, 0.1
    const = 26 * k * math.sqrt(math.log(2 * k / delta)) / delta
    hits = 0
    for s in range(20):
        A = lowrank_plus_noise(16, 12, k, 0.3, seed=700 + s)
        res = cssp(A, k, mode="two_stage", delta=delta, seed=s)
        hits += bool(res.rank_k_error_frobenius <= const * res.baseline_sigma)
    assert hits >= 14  # 1 - 3 delta = 0.7


def test_cssp_two_stage_allows_k1():
    A = lowrank_plus_noise(10, 8, 2, 0.4, seed=16)
    res = cssp(A, 1, mode="two_stage", seed=17)
    assert len(res.plan) == 1


def test_cssp_two_stage_k1_pick_survives_rounding_noise():
    # the rescaled sampled rows of a one-column Z all have magnitude
    # ||z||/sqrt(r), so a pick made on them moved with the last bits of A
    g = rand(19)
    for A in (g.normal(size=(200, 120)),
              lowrank_plus_noise(60, 40, 3, 0.1, seed=7)):
        want = cssp(A, 1, mode="two_stage", seed=2).plan.indices
        for _ in range(8):
            B = A * (1.0 + 1e-16 * g.normal(size=A.shape))
            got = cssp(B, 1, mode="two_stage", seed=2).plan.indices
            assert np.array_equal(got, want)


def test_cssp_rejects_k_at_column_count():
    A = rand(18).normal(size=(6, 4))
    with pytest.raises(ArgumentError):
        cssp(A, 4, mode="spectral")


# ---------------------------------------------------------------------------
# interpolative_decomposition


def test_id_contains_identity_block():
    A = lowrank_plus_noise(14, 11, 3, 0.5, seed=19)
    C, X, plan = interpolative_decomposition(A, 3, seed=20)
    block = X[:, plan.indices]
    np.testing.assert_array_equal(block, np.eye(3))


def test_id_coefficient_conditioning():
    k, n = 3, 11
    for s in range(50):
        A = lowrank_plus_noise(14, n, k, 0.5, seed=800 + s)
        C, X, plan = interpolative_decomposition(A, k, seed=s)
        assert np.max(np.abs(X)) <= 2.0 + 1e-9
        assert np.linalg.norm(X, 2) <= math.sqrt(4 * k * (n - k)) + 1 + 1e-9
        sv = np.linalg.svd(X, compute_uv=False)
        assert sv[-1] >= 1.0 - 1e-9


def test_id_exact_at_full_rank():
    g = rand(21)
    A = g.normal(size=(12, 3)) @ g.normal(size=(3, 9))
    C, X, plan = interpolative_decomposition(A, 3, seed=22)
    assert C.shape == (12, 3)
    assert np.linalg.norm(A - C @ X) <= 1e-8 * np.linalg.norm(A)
    # C holds unscaled columns of A
    np.testing.assert_array_equal(C, A[:, plan.indices])


# ---------------------------------------------------------------------------
# lower_bound_instance


def test_lower_bound_spectrum():
    A = lower_bound_instance(5, 1.0)
    assert A.shape == (6, 5)
    s2 = svd(A).singular_values ** 2
    np.testing.assert_allclose(s2, [6.0, 1, 1, 1, 1], rtol=1e-12)


def test_lower_bound_every_subset_attains_closed_form():
    n, alpha, r = 5, 1.0, 2
    A = lower_bound_instance(n, alpha)
    want = (n + alpha ** 2) / (r + alpha ** 2)  # 2.0
    base2 = alpha ** 2  # ||A - A_k||_2^2 for any k >= 1
    for cols in itertools.combinations(range(n), r):
        C = A[:, cols]
        err2 = _cc_plus_error(A, C, "spectral") ** 2
        assert err2 / base2 == pytest.approx(want, rel=1e-9)


def test_lower_bound_argument_errors():
    with pytest.raises(ArgumentError):
        lower_bound_instance(1, 1.0)
    with pytest.raises(ArgumentError):
        lower_bound_instance(5, 0.0)
    # n + alpha^2 overflows: alpha ** 2 raised OverflowError in the CLI
    for alpha in (1e200, math.inf):
        with pytest.raises(ArgumentError, match="alpha"):
            lower_bound_instance(5, alpha)
