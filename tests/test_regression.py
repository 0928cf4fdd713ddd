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
    # the SVD of [A b] serves the rank check, U_Y and the full solve, once,
    # however many coresets are built and evaluated on the problem
    svds = _count_calls(monkeypatch, np.linalg, "svd", 400)
    p = _problem(400, 3, 11)
    for s in range(trials):
        c = build_coreset(p, 0.3, method="subspace", seed=s, r_override=100)
        evaluate_coreset(p, c)
    assert svds == [(400, 4)]


def test_nonnegative_srht_trials_solve_the_full_problem_once(monkeypatch):
    # x_full is one NNLS on the (n+1)-row system W, none on the 400 rows
    import scipy.optimize

    solves = _count_calls(monkeypatch, scipy.optimize, "nnls", 4)
    full = _count_calls(monkeypatch, scipy.optimize, "nnls", 400)
    p = _problem(400, 3, 12, "nonnegative")
    reps = [evaluate_coreset(p, build_coreset(p, 0.3, method="srht", seed=s,
                                              r_override=100))
            for s in range(4)]
    assert solves == [(4, 3)] and full == []
    assert len({r["full_objective"] for r in reps}) == 1


def _sweep_data(kind, sign, seed):
    g = rand(seed)
    m, n = {"n1": (40, 1), "m=n+1": (4, 3), "duplicate-rows": (60, 3),
            "b-in-span": (80, 3), "noisy": (200, 4),
            "b-far-above-A": (200, 3)}[kind]
    A = g.normal(size=(m, n))
    if kind == "duplicate-rows":
        A = np.vstack([A[: m // 2]] * 2)
    if kind == "b-far-above-A":  # sigma_n(A) ~ 1e-14 |[A b]|
        A[:, 2] *= 1e-3
    b = A @ (sign * np.abs(g.normal(size=n)))
    noise = {"b-in-span": 0.0, "b-far-above-A": 1e11}.get(kind, 0.1)
    return A, b + noise * g.normal(size=m)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["n1", "m=n+1", "duplicate-rows", "b-in-span",
                             "noisy", "b-far-above-A"]),
       constraint=st.sampled_from(["none", "nonnegative"]),
       sign=st.sampled_from([1.0, -1.0]), j=st.sampled_from([-600, 0, 600]),
       seed=st.integers(0, 2 ** 16))
def test_the_one_svd_gives_the_basis_and_the_full_optimum(
        kind, constraint, sign, j, seed):
    # U_Y is svd([A b]).U to the bit, and x_full, solved on the small right
    # factor W or, where W does not resolve A (b far above A), on the full
    # data, is as good as lstsq's or scipy's NNLS optimum (sign -1 makes
    # every constraint active); the reference runs at 2^0, where both
    # solvers' absolute tolerances hold. Solved on W, the b-far-above-A
    # objective reached 6e4 times the optimum
    import scipy.optimize

    A, b = _sweep_data(kind, sign, seed)
    As, bs = np.ldexp(A, j), np.ldexp(b, j)
    p = RegressionProblem(As, bs, constraint)
    assert np.array_equal(p._basis, svd(np.column_stack([As, bs])).U)
    x_ref = (scipy.optimize.nnls(A, b)[0] if constraint == "nonnegative"
             else np.linalg.lstsq(A, b, rcond=None)[0])
    got, want = (float(np.sum((A @ x - b) ** 2)) for x in (p._optimum[0], x_ref))
    # a b in span(A) leaves a residual of rounding alone, ~1e-31 ||b||^2
    assert abs(got - want) <= 1e-12 * want + 1e-28 * float(b @ b)


@pytest.mark.parametrize("b_scale", [0.0, 1.0, 1e8])
@pytest.mark.parametrize("defect", ["zero-column", "repeated-column",
                                    "sum-column", "n1-zero"])
def test_rank_deficient_design_raises_at_any_scale_of_b(defect, b_scale):
    # the smallest singular value of W's A part carries the rounding of
    # [A b]'s SVD, ~1e-16 |b|: past A's own cutoff once |b| >> |A|, so such
    # a design is read again from A itself
    g = rand(21)
    A = g.normal(size=(50, 1 if defect == "n1-zero" else 3))
    if defect in ("zero-column", "n1-zero"):
        A[:, 0] = 0.0
    elif defect == "repeated-column":
        A[:, 2] = A[:, 0]
    else:
        A[:, 2] = A[:, 0] + 3.0 * A[:, 1]
    for constraint in ("none", "nonnegative"):
        with pytest.raises(RankError):
            RegressionProblem(A, b_scale * g.normal(size=50), constraint)


@pytest.mark.parametrize("b_scale, resolved", [(1e6, True), (1e10, False)])
def test_a_design_nearly_singular_against_b_is_factored_again(
        monkeypatch, b_scale, resolved):
    # W resolves A while sigma_n(A) > 2^-26 sigma_1([A b]); here
    # sigma_n(A) ~ 18 and sigma_1([A b]) ~ 20 b_scale. Below that W's
    # rounding reaches x_full: solved on W, this 1e10 objective sits 7e-14
    # above lstsq's, and 9e-9 once sigma_n(A) / sigma_1 ~ 1e-12
    svds = _count_calls(monkeypatch, np.linalg, "svd", 400)
    g = rand(22)
    A = g.normal(size=(400, 3))
    b = b_scale * g.normal(size=400)
    p = RegressionProblem(A, b)
    rep = evaluate_coreset(p, build_coreset(p, 0.5, method="barrier"))
    assert rep["ratio"] <= 1.5
    assert (svds == [(400, 4)]) == resolved
    assert (p._W is not None) == resolved
    got, want = (float(np.sum((A @ x - b) ** 2))
                 for x in (p._optimum[0], np.linalg.lstsq(A, b, rcond=None)[0]))
    assert abs(got - want) <= 1e-12 * want


def test_evaluate_refuses_a_coreset_of_another_problem():
    # with the same n and another m it used to report a ratio (153 for the
    # first pair); with another n numpy's matmul raised
    p = _problem(400, 3, 23)
    for q, method in ((_problem(500, 3, 24), "subspace"),
                      (_problem(400, 4, 25), "subspace"),
                      (_problem(1100, 3, 26), "srht")):
        c = build_coreset(q, 0.3, method=method, seed=1, r_override=100)
        with pytest.raises(ArgumentError, match="does not fit this 400x3"):
            evaluate_coreset(p, c)


def test_evaluate_refuses_an_srht_coreset_of_a_problem_of_other_m():
    # 300 and 400 rows both pad to 512, so the plan's source_dim fits; the
    # coreset used to report a ratio (347 for this pair) on the other problem
    p = _problem(400, 3, 23)
    c = build_coreset(_problem(300, 3, 27), 0.3, method="srht", seed=1,
                      r_override=100)
    assert c.m == 300 and c.plan.source_dim == 512
    with pytest.raises(ArgumentError, match="built on 300 rows"):
        evaluate_coreset(p, c)


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
    # eps = 0.05: the first plan certified on these 100 rows is 188 steps in
    p = _problem(100, 3, 11)
    with pytest.warns(UserWarning, match="188 steps exceeds m=100"):
        c = build_coreset(p, 0.05, method="barrier")
    assert c.steps == 188 and c.kappa <= 1.05
    assert evaluate_coreset(p, c)["ratio"] >= 1 - 1e-10


class _Walks:
    """Stands in for regression._barrier_core: records each walk's
    parameter r and end, and every step its check sees, and runs the walk."""

    def __init__(self):
        self.calls, self.stops, self.checked = [], [], []

    def __call__(self, V, r, upper, screen=None):
        self.calls.append(r)
        if screen is None:
            self.returned = _barrier_core(V, r, upper)
            return self.returned
        bound, stop, check = screen
        self.stops.append(stop)

        def recording(tau, s):
            self.checked.append(tau)
            self.last_checked = s
            return check(tau, s)

        self.returned = _barrier_core(V, r, upper, screen=(bound, stop, recording))
        return self.returned

    def one_walk(self):
        """The checked steps only increase: no walk restarts."""
        return bool((np.diff(self.checked) > 0).all())


def _kappa_fails_below(walks, r):
    """A kappa that fails every check until the walk reaches step r."""
    real = regression._embedding_kappa
    return lambda V, plan, dev: (
        real(V, plan, dev) if walks.checked[-1] >= r else math.inf)


def test_barrier_coreset_schedule_and_all_rows_answer(monkeypatch):
    # m = 100, d = 4, eps = 0.5: one walk with the formula's r = 3600,
    # checked at every round that passes the screen; with no check passing
    # it ends at 16 m = 1600 steps, and all rows come back at weight 1
    p = _problem(100, 3, 11)
    walks = _Walks()
    monkeypatch.setattr(regression, "_barrier_core", walks)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: math.inf)
    with pytest.warns(UserWarning, match="1600 steps exceeds m=100"):
        c = build_coreset(p, 0.5, method="barrier")
    assert (walks.calls, walks.stops) == ([3600], [1600])
    assert walks.checked[-1] == 1600 and walks.one_walk()
    assert len(walks.checked) > 100  # screened at (nearly) every round
    assert np.array_equal(walks.returned, walks.last_checked)  # ended at 1600
    assert (c.kappa, c.steps, c.plan.note) == (1.0, 1600, "all-rows")
    assert c.checkpoints == tuple((t, math.inf) for t in walks.checked)
    assert c.plan.indices.tolist() == list(range(100))
    assert (c.plan.weights == 1.0).all()
    rep = evaluate_coreset(p, c)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert (rep["kappa"], rep["steps"], rep["note"]) == (1.0, 1600, "all-rows")
    assert rep["checkpoints"] == c.checkpoints


def test_barrier_coreset_warns_only_past_m_steps(monkeypatch):
    # m = 300 is below the formula's r = 3600, but the walk stops at its
    # first screened round, far below m, so nothing is walked past m
    p = _problem(300, 3, 11)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = build_coreset(p, 0.5, method="barrier")
    assert c.steps == 10 and c.checkpoints == ((10, 1.0),)


def test_default_barrier_build_walks_once(monkeypatch):
    # the walk is checked as it goes: a failed check continues it, where a
    # restart would start a second walk from zero
    p = _problem(600, 3, 5)
    walks = _Walks()
    monkeypatch.setattr(regression, "_barrier_core", walks)
    monkeypatch.setattr(regression, "_embedding_kappa",
                        _kappa_fails_below(walks, 100))
    c = build_coreset(p, 0.5, method="barrier")
    assert walks.calls == [3600] and walks.one_walk()
    assert c.steps == walks.checked[-1] and 100 <= c.steps <= 101
    assert c.kappa <= 1.5
    assert [t for t, _ in c.checkpoints] == walks.checked
    assert all(kappa == math.inf for _, kappa in c.checkpoints[:-1])
    assert np.array_equal(walks.returned, walks.last_checked)  # ended there


@pytest.mark.parametrize("upper", ["same", "matrix", "vector"])
def test_hook_that_never_accepts_changes_no_bit_of_the_walk(upper):
    # a check offered the plan at every round that accepts none changes no
    # bit: the single-set walk (in rounds of two) ends as under a screen
    # that never passes, every other walk as with no screen at all
    U = svd(rand(21).normal(size=(200, 4))).U
    side = {"same": U, "matrix": svd(rand(22).normal(size=(200, 3))).U,
            "vector": rand(23).uniform(size=200)}[upper]
    r, seen = 60, []

    def never(tau, s):
        seen.append((tau, s))
        return False

    got = _barrier_core(U, r, side, screen=(math.inf, r, never))
    if upper == "same":
        want = _barrier_core(U, r, side, screen=(0.0, r, lambda *a: False))
    else:
        want = _barrier_core(U, r, side)
    assert np.array_equal(got, want)
    taus = [t for t, _ in seen]
    assert taus[-1] == r and (np.diff(taus) > 0).all()
    assert len(taus) > r // 3  # offered at (nearly) every round
    assert np.array_equal(seen[-1][1], want)


def test_benchmark_shape_is_certified_in_one_360_step_walk():
    # the 2000 x 4 nonnegative problem of the coreset-barrier benchmark at
    # seed 1: checked only at 180 and 360 steps, its walk was kept at 360;
    # screened at every round, it is certified 30 steps in
    g = np.random.default_rng([1, 1])
    A = g.standard_normal((2000, 4))
    b = A @ g.standard_normal(4) + 0.1 * g.standard_normal(2000)
    c = build_coreset(RegressionProblem(A, b, "nonnegative"), 0.5)
    assert c.steps == 30 and c.kappa <= 1.5
    *failed, kept = c.checkpoints
    assert kept == (30, c.kappa)
    assert all(kappa > 1.5 for _, kappa in failed)


@pytest.mark.filterwarnings("ignore:barrier walk")
def test_barrier_coreset_formula_walk_failing_its_check_is_internal(monkeypatch):
    p = _problem(400, 1, 12)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: 2.0)
    with pytest.raises(NumericError, match="internal: the formula-size"):
        build_coreset(p, 0.5, method="barrier")


def test_r_override_walks_exactly_and_reports_kappa(monkeypatch):
    # -r walks exactly r single steps, unscreened, and measures the end once
    p = _problem(300, 2, 13)
    walks = _Walks()
    monkeypatch.setattr(regression, "_barrier_core", walks)
    monkeypatch.setattr(regression, "_embedding_kappa", lambda *a: 1e6)
    c = build_coreset(p, 0.1, method="barrier", r_override=40)
    assert (walks.calls, walks.stops, walks.checked) == ([40], [], [])
    assert (c.kappa, c.steps, c.plan.note) == (1e6, 40, "")
    assert c.checkpoints == ((40, 1e6),)
    want = _plan_from_weights(walks.returned)
    assert np.array_equal(c.plan.indices, want.indices)
    assert np.array_equal(c.plan.weights, want.weights)


class _NoWalk(Exception):
    pass


@pytest.mark.filterwarnings("ignore:barrier walk")
def test_r_override_past_16_m_steps_is_refused_before_any_walk(monkeypatch):
    # all m rows at weight 1 answer at once, so a longer walk is only cost
    p = _problem(300, 2, 13)
    started = []

    def recording(V, r, upper, screen=None):
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
    m, n = p.A.shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = build_coreset(p, eps, method="barrier")
    assert c.kappa <= 1 + eps
    rep = evaluate_coreset(p, c)
    r = coreset_size("barrier", n, eps, 0.1, m)
    assert rep["distinct_rows"] <= c.steps <= min(r, 16 * m)
    assert (c.plan.note == "all-rows") == (c.kappa == 1.0 and len(c.plan) == p.A.shape[0])
    assert rep["ratio"] <= 1 + eps + 1e-9
    # the kept plan is the first certified one: every check before it failed
    *failed, last = c.checkpoints
    assert all(kappa > 1 + eps for _, kappa in failed)
    if c.plan.note == "all-rows":
        assert last == (16 * m, last[1]) and last[1] > 1 + eps
    else:
        assert last == (c.steps, c.kappa)


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=_tall_problems(), eps=st.sampled_from([0.6, 0.9]))
def test_failed_checks_end_in_the_formula_plan(p, eps):
    # with kappa failing at every check before r, the one walk ends in the
    # formula-size plan of its rounds of two (or, at 16 m steps, in all rows)
    m, n = p.A.shape
    U = svd(np.column_stack([p.A, p.b])).U
    r = coreset_size("barrier", n, eps, 0.1, m)
    walks = _Walks()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(regression, "_barrier_core", walks)
        mp.setattr(regression, "_embedding_kappa", _kappa_fails_below(walks, r))
        c = build_coreset(p, eps, method="barrier")
    assert walks.calls == [r] and walks.one_walk()
    assert c.steps == walks.checked[-1] == min(r, 16 * m)
    if r > 16 * m:
        assert c.plan.note == "all-rows"
        return
    want = _plan_from_weights(
        _barrier_core(U, r, U, screen=(0.0, r, lambda *a: False)))
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


@pytest.mark.parametrize("x, message", [
    ([0.5, 0.0], "nonzero gradient on the support"),  # x_1 = 1 is optimal
    ([1.0, 0.0, 0.0], "strictly improving inactive"),  # x_3 = 1 is optimal
])
def test_nnls_refuses_an_answer_that_fails_kkt(monkeypatch, x, message):
    # each KKT condition, read off a solver answer that breaks it alone
    import scipy.optimize

    n = len(x)
    monkeypatch.setattr(scipy.optimize, "nnls",
                        lambda A, b: (np.array(x), 0.0))
    b = np.array([1.0, -1.0, 1.0][:n])
    with pytest.raises(NumericError, match=message):
        solve_ls(np.eye(n), b, "nonnegative")
