"""Row coresets for constrained least squares and the NNLS solver."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matsketch import (ArgumentError, ConvergenceError, NumericError, RankError,
                       RegressionProblem, apply_plan_rows, build_coreset,
                       coreset_size, evaluate_coreset, regression, solve_ls, svd)
from matsketch.samplers import _barrier_core, _plan_from_weights

from conftest import rand


def _problem(m, n, seed, constraint="none", noise=0.1, planted_sign=1.0):
    g = rand(seed)
    A = g.normal(size=(m, n))
    w = planted_sign * np.abs(g.normal(size=n))
    b = A @ w + noise * g.normal(size=m)
    return RegressionProblem(A, b, constraint)


# ---------------------------------------------------------------------------
# problem validation


def test_problem_requires_tall_full_rank_design():
    g = rand(1)
    with pytest.raises(ArgumentError):
        RegressionProblem(g.normal(size=(3, 5)), np.zeros(3))
    A = g.normal(size=(8, 3))
    A[:, 2] = A[:, 0]
    with pytest.raises(RankError):
        RegressionProblem(A, np.zeros(8))
    with pytest.raises(ArgumentError):
        RegressionProblem(g.normal(size=(8, 3)), np.zeros(7))
    with pytest.raises(ArgumentError):
        RegressionProblem(g.normal(size=(8, 3)), np.zeros(8), "positive")


# ---------------------------------------------------------------------------
# coreset_size


def test_coreset_size_formulas():
    assert coreset_size("barrier", 4, 0.5, 0.1, 10_000) == 4500  # 225*5/0.25
    d = 5
    want = math.ceil(36 * d * math.log(2 * d / 0.1) / 0.25)
    assert coreset_size("subspace", 4, 0.5, 0.1, 10_000) == want
    want = math.ceil(
        72 * d * math.log(2 * d / 0.1) * math.log2(40 * d * 10_000) / 0.25
    )
    assert coreset_size("srht", 4, 0.5, 0.1, 10_000) == want
    with pytest.raises(ArgumentError):
        coreset_size("bogus", 4, 0.5, 0.1, 10)


@pytest.mark.parametrize("eps", [-0.5, 0.0, math.nan])
def test_coreset_size_refuses_a_nonpositive_eps(eps):
    # -0.5 gave the width for +0.5: the formula squares eps
    with pytest.raises(ArgumentError, match=f"need eps > 0, got {eps}"):
        coreset_size("barrier", 3, eps, 0.1, 100)


# ---------------------------------------------------------------------------
# build_coreset / evaluate_coreset


def test_barrier_coreset_per_instance_guarantee():
    eps = 0.5  # r = 3600 rows out of 4000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(5):
            p = _problem(4000, 3, 100 + s)
            c = build_coreset(p, eps, method="barrier")
            rep = evaluate_coreset(p, c)
            assert rep["ratio"] <= 1 + eps + 1e-9
            assert rep["ratio"] >= 1 - 1e-10


def test_coreset_rows_match_plan():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = _problem(2000, 3, 2)
        c = build_coreset(p, 0.5, method="barrier")
    np.testing.assert_allclose(c.C, apply_plan_rows(p.A, c.plan))
    np.testing.assert_allclose(
        c.b_c, (apply_plan_rows(p.b.reshape(-1, 1), c.plan)).ravel()
    )


def test_barrier_sandwich_inequalities():
    # the two sides of the proof's sandwich for the lifted matrix Y = [A b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = _problem(800, 3, 3)
        c = build_coreset(p, 0.5, method="barrier",
                          r_override=coreset_size("barrier", 3, 0.5, 0.1, 800))
    Y = np.hstack([p.A, p.b.reshape(-1, 1)])
    f = svd(Y)
    U = f.U
    k, r = f.rank, coreset_size("barrier", 3, 0.5, 0.1, 800)
    lo, hi = 1 - math.sqrt(k / r), 1 + math.sqrt(k / r)
    g = rand(4)
    for _ in range(20):
        y = g.normal(size=k)
        full = np.linalg.norm(U @ y) ** 2
        sampled = np.linalg.norm(apply_plan_rows(U, c.plan) @ y) ** 2
        assert lo ** 2 * full <= sampled * (1 + 1e-9)
        assert sampled <= hi ** 2 * full * (1 + 1e-9)


def test_barrier_sandwich_per_instance():
    # the default build's reported kappa bounds the spread of
    # ||S y||^2 / ||y||^2 over span([A b]), extreme directions included
    p = _problem(800, 3, 3)
    c = build_coreset(p, 0.5, method="barrier")
    assert c.kappa <= 1.5
    assert c.steps < coreset_size("barrier", 3, 0.5, 0.1, 800)
    U = svd(np.hstack([p.A, p.b.reshape(-1, 1)])).U
    SU = apply_plan_rows(U, c.plan)
    Z = np.hstack([np.linalg.svd(SU)[2].T, rand(4).normal(size=(4, 20))])
    q = (np.linalg.norm(SU @ Z, axis=0) / np.linalg.norm(U @ Z, axis=0)) ** 2
    assert q.max() <= c.kappa * q.min() * (1 + 1e-9)
    assert q.max() / q.min() >= 1 + 1e-3  # the extremes are far from equal


def test_exact_fit_gives_unit_ratio():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = _problem(1500, 3, 5, noise=0.0)
        c = build_coreset(p, 0.5, method="barrier")
        rep = evaluate_coreset(p, c)
    assert rep["ratio"] == 1.0
    assert rep["ratio_finite"]


@pytest.mark.parametrize("j", [-600, -60, 600])
@pytest.mark.parametrize("constraint", ["none", "nonnegative"])
def test_coreset_ratio_does_not_change_when_data_is_scaled(constraint, j):
    # the zero-residual floor used to be absolute: every residual at 2^-60
    # fell under it, and the squared norms overflowed to inf at 2^600; the
    # NNLS tolerances and KKT check are absolute too
    p = _problem(1000, 3, 8, constraint)
    c = build_coreset(p, 0.5, method="subspace", seed=1, r_override=200)
    want = evaluate_coreset(p, c)
    ps = RegressionProblem(np.ldexp(p.A, j), np.ldexp(p.b, j), constraint)
    cs = dataclasses.replace(c, C=np.ldexp(c.C, j), b_c=np.ldexp(c.b_c, j))
    got = evaluate_coreset(ps, cs)
    assert 1.0 < want["ratio"] < 1.5
    assert got["ratio"] == want["ratio"]
    with np.errstate(over="ignore"):  # 2^1200 times the objective is inf
        assert got["full_objective"] == np.ldexp(want["full_objective"], 2 * j)


def test_full_data_coreset_is_neutral():
    from matsketch import Coreset, SamplingPlan

    p = _problem(50, 3, 6)
    plan = SamplingPlan(50, np.arange(50), 1.0)
    c = Coreset(plan=plan, C=p.A, b_c=p.b, method="manual", eps=0.0)
    assert evaluate_coreset(p, c)["ratio"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# one factorization per problem


def _count_calls(monkeypatch, module, name, rows):
    """Every call of module.name on a `rows`-row first argument from here on."""
    calls = []
    real = getattr(module, name)

    def counting(a, *args, **kwargs):
        if np.shape(a)[0] == rows:
            calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("trials", [2, 5])
def test_subspace_trials_factor_the_problem_once(monkeypatch, trials):
    # the rank check, the SVD of [A b] and the full solve's SVD: once each,
    # however many coresets are built and evaluated on the problem
    svds = _count_calls(monkeypatch, np.linalg, "svd", 400)
    p = _problem(400, 3, 11)
    for s in range(trials):
        c = build_coreset(p, 0.3, method="subspace", seed=s, r_override=100)
        evaluate_coreset(p, c)
    assert len(svds) == 3


def test_nonnegative_srht_trials_solve_the_full_problem_once(monkeypatch):
    import scipy.optimize

    solves = _count_calls(monkeypatch, scipy.optimize, "nnls", 400)
    p = _problem(400, 3, 12, "nonnegative")
    reps = [evaluate_coreset(p, build_coreset(p, 0.3, method="srht", seed=s,
                                              r_override=100))
            for s in range(4)]
    assert len(solves) == 1
    assert len({r["full_objective"] for r in reps}) == 1


def test_problem_keeps_its_data_when_the_caller_writes():
    g = rand(13)
    A = g.normal(size=(300, 3))
    b = A @ np.ones(3) + 0.1 * g.normal(size=300)
    A0, b0 = A.copy(), b.copy()
    p = RegressionProblem(A, b)
    assert not (p.A.flags.writeable or p.b.flags.writeable)
    with pytest.raises(ValueError):
        p.A[0, 0] = 0.0
    first = build_coreset(p, 0.3, method="subspace", seed=2, r_override=80)
    A[:] = g.normal(size=A.shape)  # U_Y is cached by now, the solve is not
    b[:] = 0.0
    fresh = RegressionProblem(A0, b0)
    for method in ("barrier", "subspace"):
        got, want = (build_coreset(q, 0.3, method=method, seed=2, r_override=80)
                     for q in (p, fresh))
        assert np.array_equal(got.plan.indices, want.plan.indices)
        assert np.array_equal(got.plan.weights, want.plan.weights)
        assert np.array_equal(got.C, want.C)
    assert np.array_equal(first.C, want.C)
    got, want = evaluate_coreset(p, first), evaluate_coreset(fresh, first)
    assert got["ratio"] == want["ratio"]
    assert got["full_objective"] == want["full_objective"]


def test_randomized_coresets_hit_probability_targets():
    # formula sizes only fit the data at m = 6000 (subspace r = 5680); the
    # srht formula never fits desk-scale m, so it runs through the override
    eps, delta = 1.0 / 3.0, 0.1
    p = _problem(6000, 3, 7)
    ok_sub = 0
    for s in range(40):
        c = build_coreset(p, eps, method="subspace", delta=delta, seed=s)
        ok_sub += bool(evaluate_coreset(p, c)["ratio"] <= 1 + eps)
    assert ok_sub >= 34  # 1 - delta with slack off 40 runs
    ok_srht = 0
    for s in range(40):
        c = build_coreset(p, eps, method="srht", delta=delta, seed=s,
                          r_override=2000)
        ok_srht += bool(evaluate_coreset(p, c)["ratio"] <= 1 + eps)
    assert ok_srht >= 32  # 0.95 - delta with slack


def test_srht_coreset_mixes_rows():
    p = _problem(600, 3, 8)
    c = build_coreset(p, 1.0 / 3.0, method="srht", delta=0.1, seed=9,
                      r_override=300)
    assert c.C.shape == (300, 3)
    assert c.plan.source_dim == 1024  # padded dimension


def test_coreset_larger_than_data_is_refused():
    p = _problem(100, 3, 10)
    with pytest.raises(ArgumentError, match="larger than data"):
        build_coreset(p, 1.0 / 3.0, method="subspace", delta=0.1, seed=0)
    with pytest.raises(ArgumentError, match="larger than data"):
        build_coreset(p, 1.0 / 3.0, method="srht", delta=0.1, seed=0)


def test_barrier_coreset_warns_when_formula_exceeds_rows():
    p = _problem(100, 3, 11)
    with pytest.warns(UserWarning):
        c = build_coreset(p, 0.5, method="barrier")
    assert evaluate_coreset(p, c)["ratio"] >= 1 - 1e-10


class _Walks:
    """Stands in for regression._barrier_core: records each walk length
    and runs the walk, refusing any longer than `limit` steps."""

    def __init__(self, limit):
        self.limit, self.lengths = limit, []

    def __call__(self, V, r, upper):
        assert r <= self.limit, f"a walk of {r} steps was started"
        self.lengths.append(r)
        return _barrier_core(V, r, upper)


def _kappa_fails_below(walks, r):
    """A kappa that fails every check until the walk reaches length r."""
    real = regression._embedding_kappa
    return lambda V, plan, dev: (
        real(V, plan, dev) if walks.lengths[-1] >= r else math.inf)


def test_barrier_coreset_schedule_and_all_rows_answer(monkeypatch):
    # m = 100, d = 4, eps = 0.5: walks of 144, 288, 576 and 1152 steps; the
    # next (2304) would pass 16 m = 1600, so all rows come back at weight 1
    p = _problem(100, 3, 11)
    walks = _Walks(1600)
    monkeypatch.setattr(regression, "_barrier_core", walks)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: math.inf)
    with pytest.warns(UserWarning, match="144 steps exceeds m=100"):
        c = build_coreset(p, 0.5, method="barrier")
    assert walks.lengths == [144, 288, 576, 1152]
    assert (c.kappa, c.steps, c.plan.note) == (1.0, 2160, "all-rows")
    assert c.plan.indices.tolist() == list(range(100))
    assert (c.plan.weights == 1.0).all()
    rep = evaluate_coreset(p, c)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert (rep["kappa"], rep["steps"], rep["note"]) == (1.0, 2160, "all-rows")


@pytest.mark.filterwarnings("ignore:barrier walk")
def test_barrier_coreset_formula_walk_failing_its_check_is_internal(monkeypatch):
    p = _problem(400, 1, 12)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: 2.0)
    with pytest.raises(NumericError, match="internal: the formula-size"):
        build_coreset(p, 0.5, method="barrier")


def test_r_override_walks_exactly_and_reports_kappa(monkeypatch):
    p = _problem(300, 2, 13)
    walks = _Walks(40)
    monkeypatch.setattr(regression, "_barrier_core", walks)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: 1e6)
    c = build_coreset(p, 0.1, method="barrier", r_override=40)
    assert walks.lengths == [40]
    assert (c.kappa, c.steps, c.plan.note) == (1e6, 40, "")


class _NoWalk(Exception):
    pass


@pytest.mark.filterwarnings("ignore:barrier walk")
def test_r_override_past_16_m_steps_is_refused_before_any_walk(monkeypatch):
    # all m rows at weight 1 answer at once, so a longer walk is only cost
    p = _problem(300, 2, 13)
    started = []

    def recording(V, r, upper):
        started.append(r)
        raise _NoWalk

    monkeypatch.setattr(regression, "_barrier_core", recording)
    with pytest.raises(ArgumentError, match="r=4801 steps exceeds 16 m = 4800"):
        build_coreset(p, 0.1, method="barrier", r_override=4801)
    assert started == []
    with pytest.raises(_NoWalk):  # 16 m steps are still walked
        build_coreset(p, 0.1, method="barrier", r_override=4800)
    assert started == [4800]


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _tall_problems(draw):
    m, n = draw(st.integers(50, 400)), draw(st.integers(1, 5))
    constraint = draw(st.sampled_from(["none", "nonnegative"]))
    g = rand(draw(st.integers(0, 2**32 - 1)))
    A = g.normal(size=(m, n))
    noise = draw(st.sampled_from([0.01, 0.1, 1.0]))
    b = A @ g.normal(size=n) + noise * g.normal(size=m)
    return RegressionProblem(A, b, constraint)


@_PROPERTY
@given(p=_tall_problems(), walk=st.integers(7, 600))
def test_ratio_never_exceeds_kappa(p, walk):
    # kappa bounds the objective ratio of any walk, however short
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = build_coreset(p, 0.5, method="barrier", r_override=walk)
    assert c.steps == walk
    assert evaluate_coreset(p, c)["ratio"] <= c.kappa * (1 + 1e-9)


@_PROPERTY
@given(p=_tall_problems(), eps=st.sampled_from([0.2, 0.5, 0.9]))
def test_default_barrier_coreset_is_certified(p, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = build_coreset(p, eps, method="barrier")
    assert c.kappa <= 1 + eps
    assert (c.plan.note == "all-rows") == (c.kappa == 1.0 and len(c.plan) == p.A.shape[0])
    assert evaluate_coreset(p, c)["ratio"] <= 1 + eps + 1e-9


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=_tall_problems(), eps=st.sampled_from([0.6, 0.9]))
def test_failed_checks_end_in_the_formula_plan(p, eps):
    # with kappa failing on every shorter walk, the build ends in the
    # formula-size plan (or, past 16 m steps, in all rows)
    m, n = p.A.shape
    U = svd(np.column_stack([p.A, p.b])).U
    r = coreset_size("barrier", n, eps, 0.1, m)
    walks = _Walks(16 * m)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(regression, "_barrier_core", walks)
        mp.setattr(regression, "_embedding_kappa", _kappa_fails_below(walks, r))
        c = build_coreset(p, eps, method="barrier")
    assert c.steps == sum(walks.lengths)
    if r > 16 * m:
        assert c.plan.note == "all-rows"
        return
    assert walks.lengths[-1] == r
    want = _plan_from_weights(_barrier_core(U, r, U))
    assert np.array_equal(c.plan.indices, want.indices)
    assert np.array_equal(c.plan.weights, want.weights)


def test_eps_validation():
    p = _problem(200, 3, 12)
    with pytest.raises(ArgumentError):
        build_coreset(p, 0.0, method="barrier")
    with pytest.raises(ArgumentError):
        build_coreset(p, 1.0, method="barrier")
    with pytest.raises(ArgumentError):
        build_coreset((p.A, p.b), 0.2, method="barrier")


# ---------------------------------------------------------------------------
# solve_ls


def test_solve_identity_unconstrained():
    b = np.array([2.0, -3.0, 0.5])
    np.testing.assert_allclose(solve_ls(np.eye(3), b, "none"), b)


def test_solve_identity_nonnegative_clamps():
    x = solve_ls(np.eye(2), np.array([1.0, -1.0]), "nonnegative")
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)


def test_nnls_matches_unconstrained_when_interior():
    p = _problem(200, 5, 13, noise=0.05, planted_sign=1.0)
    x_free = solve_ls(p.A, p.b, "none")
    if np.all(x_free >= 0):
        x_nn = solve_ls(p.A, p.b, "nonnegative")
        np.testing.assert_allclose(x_nn, x_free, atol=1e-8)


def test_nnls_objective_dominates_unconstrained():
    for s in range(10):
        g = rand(900 + s)
        A = g.normal(size=(200, 5))
        b = g.normal(size=200)  # unrelated target forces active constraints
        x_free = solve_ls(A, b, "none")
        x_nn = solve_ls(A, b, "nonnegative")
        assert np.all(x_nn >= 0)
        r_free = np.linalg.norm(A @ x_free - b)
        r_nn = np.linalg.norm(A @ x_nn - b)
        assert r_nn >= r_free - 1e-12
        if np.all(x_free >= 0):
            assert r_nn == pytest.approx(r_free, rel=1e-10)


def test_nnls_satisfies_kkt_conditions():
    # x >= 0, gradient g = A^T (Ax - b) >= 0, complementary slackness x_i g_i = 0
    active = 0
    for s in range(10):
        g = rand(950 + s)
        A = g.normal(size=(60, 4))
        b = g.normal(size=60)
        x = solve_ls(A, b, "nonnegative")
        grad = A.T @ (A @ x - b)
        tol = 1e-12 * np.linalg.norm(A) * np.linalg.norm(b)
        assert np.all(x >= 0)
        assert np.all(grad >= -tol)
        assert np.all(np.abs(x * grad) <= tol)
        active += int(np.sum(x == 0))
    assert active > 0  # some bound constraints are active, so grad >= 0 bites


def test_nnls_matches_support_enumeration():
    # the NNLS optimum is the best unconstrained fit over some support whose
    # solution is nonnegative; with n = 4 every support can be tried
    for s in range(10):
        g = rand(970 + s)
        A = g.normal(size=(40, 4))
        b = g.normal(size=40)
        best = np.linalg.norm(b)
        for mask in itertools.product([False, True], repeat=4):
            cols = np.flatnonzero(mask)
            if cols.size == 0:
                continue
            z = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
            if np.all(z >= 0):
                best = min(best, np.linalg.norm(A[:, cols] @ z - b))
        x = solve_ls(A, b, "nonnegative")
        assert np.linalg.norm(A @ x - b) == pytest.approx(best, rel=1e-12)


def test_nnls_iteration_cap_is_convergence_error(monkeypatch):
    import scipy.optimize

    def capped(A, b):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", capped)
    with pytest.raises(ConvergenceError, match="iteration cap"):
        solve_ls(np.eye(2), np.array([1.0, -1.0]), "nonnegative")
