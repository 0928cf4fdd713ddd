"""Row coresets for constrained least squares, plus the solvers needed
to evaluate them end to end.

A coreset here is a small weighted subset of rows (or, for the srht
method, of randomized row mixtures) whose constrained LS solution is
within (1+eps) of the full-data optimum. The constraint set is either
unconstrained or the nonnegative orthant; the solver seam accepts just
these two tags.

The barrier coreset is certified per instance. Every A x - b lies in the
span of an orthonormal basis U_Y of [A b], so a row sampling S whose
distortion kappa = lambda_max / lambda_min of (S U_Y)^T (S U_Y) is at
most 1 + eps gives a solution within kappa of the optimum under any
constraint. The builder walks once, mostly two rows per round, screens
kappa from each round's eigenvalues and keeps the first plan whose
measured kappa confirms the screen.
"""

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .errors import ArgumentError, ConvergenceError, NumericError, RankError
from .linalg import (SamplingPlan, _plan_rows, _pow2_exponent, _pow2_unscaled,
                     _pseudo_inverse, _ratio, _svd, as_matrix, as_vector,
                     formula_width, frobenius_norm, rank_cutoff,
                     singular_values, svd)
from .samplers import (_barrier_core, _embedding_kappa, _ortho_deviation,
                       _plan_from_weights, subspace_sampling)
from .sketch import srht_rows

_CONSTRAINTS = ("none", "nonnegative")
# the barrier coreset's walk ends after _MAX_WALK_PER_ROW m steps, since all
# m rows at weight 1 (kappa = 1) answer at once
_MAX_WALK_PER_ROW = 16

# W (RegressionProblem) stands for A while sigma_n(A) > 2^-26 sigma_1([A b]),
# 2^-26 being about sqrt(u): W's rounding, about u sigma_1([A b]), then moves
# x_full's objective by a relative (u sigma_1 / sigma_n)^2 < u
_RESOLVE = 2.0 ** -26


@dataclass(frozen=True)
class RegressionProblem:
    """min ||A x - b|| under the constraint. A and b are kept read-only and
    unshared with the caller, so the factors taken from them stay true.

    The constructor takes the one SVD of Y = [A b] that every coreset and
    evaluation on the problem reads. Its U, truncated at rank(Y), is U_Y,
    the basis the barrier and subspace coresets sample from. Its small
    right factor W = Sigma V^T (rank(Y) x (n+1), Y / 2^e = U_Y W with
    e = _pow2_exponent(A, b)) carries the rest: A's rank check reads the
    singular values of W's first n columns, and the full-data optimum
    x_full solves the rank(Y)-row problem W[:, :n] x ~ W[:, n] under the
    constraint. Where W does not resolve A (_resolves: A nearly singular
    against |[A b]|, as when |b| is far above |A|), A's rank is read from
    A itself and x_full is solved on the full data, at the cost of m-row
    factorizations of A. x_full is solved on the first evaluate, which
    also measures its residual on the full data, once.
    """

    A: np.ndarray
    b: np.ndarray
    constraint: str = "none"

    def __post_init__(self):
        A = as_matrix(self.A)
        b = as_vector(self.b, "b")
        m, n = A.shape
        if m <= n:
            raise ArgumentError(f"need more rows than columns, got {m}x{n}")
        if b.shape[0] != m:
            raise ArgumentError(f"b has length {b.shape[0]}, expected {m}")
        if self.constraint not in _CONSTRAINTS:
            raise ArgumentError(
                f"constraint must be one of {_CONSTRAINTS}, got {self.constraint!r}")
        e = _pow2_exponent(A, b)
        f = svd(np.column_stack([A, b]))
        s = np.ldexp(f.singular_values, -e)
        W = s[:, None] * f.V.T
        if not _resolves(W[:, :n], s, m):
            if singular_values(A).size != n:
                raise RankError(f"design matrix is rank-deficient (rank < {n})")
            W = None  # x_full is solved on the full data
        for name, a in (("A", A), ("b", b)):
            a = a.copy() if np.may_share_memory(a, getattr(self, name)) else a
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        for name, a in (("_e", e), ("_basis", f.U), ("_W", W)):
            object.__setattr__(self, name, a)

    @cached_property
    def _optimum(self):
        """(x_full, ||A x_full - b||), the residual measured on the full data."""
        W = self._W
        C, d = (self.A, self.b) if W is None else (W[:, :-1], W[:, -1])
        x = _solve(C, d, self.constraint)
        return x, frobenius_norm(self.A @ x - self.b)


def _resolves(W_A, s, m):
    """Whether W_A, with A / 2^e = U_Y W_A for the m x n A and s the
    singular values of [A b] / 2^e, shows A of rank n to within the SVD's
    rounding: its smallest singular value passes A's own cutoff
    (rank_cutoff(., A.shape)) by the larger of [A b]'s cutoff, which
    bounds that rounding, and _RESOLVE s_1, which keeps it from x_full.

    Where |b| is far above |A| the rounding alone passes A's cutoff: a
    rank-deficient A then shows a smallest singular value of rounding, so
    W_A cannot tell its rank.
    """
    n = W_A.shape[1]
    if W_A.shape[0] < n:
        return False
    _, sa, _, e = _svd(W_A, False)
    sa = np.ldexp(sa, e)
    margin = max(rank_cutoff(s, (m, n + 1)), _RESOLVE * s[0])
    return bool(sa[-1] > rank_cutoff(sa, (m, n)) + margin)


@dataclass(frozen=True)
class Coreset:
    """Rows C, targets b_c, and the plan that produced them.

    For barrier and subspace methods C and b_c are exactly the weighted
    selected rows of (A, b). For srht the plan indexes rows of the
    sign-flipped Hadamard transform of the zero-padded data, so C is a
    mixture of original rows rather than a subset.

    A barrier coreset also carries its certificate: kappa, an upper end of
    the distortion of the plan on span([A b]) (samplers._embedding_kappa;
    1.0 for the all-rows answer, whose plan is noted "all-rows"); steps,
    the barrier position of the kept plan (16 m for an all-rows answer);
    and checkpoints, the (steps, kappa) of every partial plan the walk
    measured, in order. Other methods leave all three None. m is the row
    count of the problem it was built on (build_coreset), which
    evaluate_coreset checks; None on a coreset built by hand.
    """

    plan: object
    C: np.ndarray
    b_c: np.ndarray
    method: str
    eps: float
    delta: float = field(default=float("nan"))
    kappa: float | None = None
    steps: int | None = None
    checkpoints: tuple | None = None
    m: int | None = None


def coreset_size(method, n, eps, delta, m):
    """The theorem's coreset row count for an m x n problem."""
    d = n + 1
    if method == "barrier":
        return formula_width(225.0 * d, eps)
    if method == "subspace":
        return formula_width(36.0 * d * math.log(2.0 * d / delta), eps)
    if method == "srht":
        return formula_width(72.0 * d * math.log(2.0 * d / delta)
                             * math.log2(40.0 * d * m), eps)
    raise ArgumentError(
        f"unknown method {method!r} (expected barrier|subspace|srht)")


def build_coreset(p, eps, method="barrier", delta=0.1, seed=0, r_override=None):
    """Build a coreset whose LS solution is (1+eps)-good on the full data.

    barrier: deterministic and certified on every run. With U_Y the
    orthonormal basis of [A b] that p factors once for all its coresets,
    one single-set barrier walk on U_Y runs with the formula's
    r = ceil(225(n+1)/eps^2) as its parameter, mostly in rounds of two
    rows per eigendecomposition (samplers._barrier_core). Each round's
    eigenvalues give the distortion of its partial plan on span(U_Y);
    where they pass 1 + eps, kappa is measured (Coreset.kappa, with its
    rounding margin), and the first plan with kappa <= 1 + eps is
    returned. At r the barrier's sandwich ((1 + eps/15)/(1 - eps/15))^2
    < 1 + eps holds for every plan. A walk that reaches 16 m steps
    unconfirmed ends there, and all m rows at weight 1 are returned
    instead (kappa = 1, plan note "all-rows"). Coreset.steps is the kept
    plan's barrier position, and Coreset.checkpoints the (steps, kappa) of
    each plan measured.
    subspace: leverage sampling of the rows of U_Y,
    r = ceil(36(n+1) ln(2(n+1)/delta)/eps^2), holds w.p. >= 1-delta.
    srht: uniform sampling of Hadamard-mixed rows (no U_Y) with
    r = ceil(72(n+1) ln(2(n+1)/delta) log2(40(n+1)m)/eps^2), holds
    w.p. >= 0.95-delta. r_override replaces the formula count: a
    barrier walk of exactly that many single steps, at most 16 m, whose
    kappa is reported but not checked (meant for desk-scale experiments).
    """
    if not isinstance(p, RegressionProblem):
        raise ArgumentError("build_coreset expects a RegressionProblem")
    if not (0.0 < eps < 1.0):
        raise ArgumentError(f"need 0 < eps < 1, got {eps}")
    if method in ("subspace", "srht") and eps > 1.0 / 3.0:
        warnings.warn(
            f"eps={eps} is outside the proved range (0, 1/3]; the (1+eps) "
            "guarantee is not certified out here", stacklevel=2)
    if method in ("subspace", "srht") and not (0.0 < delta < 1.0):
        raise ArgumentError(f"need 0 < delta < 1, got {delta}")
    m, n = p.A.shape
    r = coreset_size(method, n, eps, delta, m) if r_override is None else int(r_override)
    if r < 1:
        raise ArgumentError(f"need at least one row, got r={r}")

    if method in ("subspace", "srht") and r > m:
        raise ArgumentError(
            f"coreset larger than data: r={r} > m={m} "
            "(shrink eps/delta or pass r_override)")
    if method == "barrier" and r_override is not None and r > _MAX_WALK_PER_ROW * m:
        raise ArgumentError(f"barrier walk of r={r} steps exceeds "
                            f"{_MAX_WALK_PER_ROW} m = {_MAX_WALK_PER_ROW * m}")
    kappa = steps = checkpoints = None
    if method == "srht":
        C, b_c, plan = srht_rows(p.A, p.b, r,
                                 seed=rng.derive_seed(seed, rng.CORESET, 1))
    else:
        U_Y = p._basis
        if method == "barrier":
            if r <= U_Y.shape[1]:
                raise ArgumentError(
                    f"coreset size r={r} must exceed rank(Y)={U_Y.shape[1]}")
            plan, kappa, steps, checkpoints = _barrier_plan(
                U_Y, eps, r, r_override is None)
        elif method == "subspace":
            plan = subspace_sampling(U_Y, 1.0, r,
                                     seed=rng.derive_seed(seed, rng.CORESET, 0))
        else:
            raise ArgumentError(
                f"unknown method {method!r} (expected barrier|subspace|srht)")
        C = _plan_rows(p.A, plan)
        b_c = plan.weights * p.b[plan.indices]
    return Coreset(plan=plan, C=C, b_c=b_c, method=method, eps=float(eps),
                   delta=float("nan") if method == "barrier" else float(delta),
                   kappa=kappa, steps=steps, checkpoints=checkpoints, m=m)


def _barrier_plan(U_Y, eps, r, adaptive):
    """(plan, kappa, steps, checkpoints) of the barrier coreset on the m x d
    basis U_Y; checkpoints is the (steps, kappa) of every plan measured.

    adaptive: one walk with parameter r, the formula's, screened at every
    round and ended by the first plan confirmed with kappa <= 1 + eps, or
    after min(r, _MAX_WALK_PER_ROW m) steps, where its plan is measured
    once more; past that many steps all rows answer instead. Otherwise one
    walk of exactly r steps, kappa measured but not checked.
    """
    m, d = U_Y.shape
    dev = _ortho_deviation(U_Y)
    trail, plan = [], None

    def check(tau, s):
        nonlocal plan
        plan = _plan_from_weights(s)
        trail.append((tau, _embedding_kappa(U_Y, plan, dev)))
        return trail[-1][1] <= 1.0 + eps

    if adaptive:
        # the screen reads kappa from the walk's own eigenvalues, with room
        # for their rounding; the check carries the certified margin. The
        # walk ends at a check, so the last plan checked is the walk's
        _barrier_core(U_Y, r, U_Y, screen=(
            (1.0 + eps) * (1.0 + 1e-9), min(r, _MAX_WALK_PER_ROW * m), check))
    else:
        check(r, _barrier_core(U_Y, r, U_Y))
    steps, kappa = trail[-1]
    if steps > m:
        # the walk runs fine past m steps and still emits at most m
        # distinct rows, so a long walk only costs time
        warnings.warn(
            f"barrier walk of {steps} steps exceeds m={m} (at most m "
            "distinct weighted rows come out)", stacklevel=3)
    if not adaptive or kappa <= 1.0 + eps:
        return plan, kappa, steps, tuple(trail)
    if steps == r:
        raise NumericError(
            f"internal: the formula-size barrier walk (r={r}, rank {d}) "
            f"has kappa={kappa!r} > 1+eps={1.0 + eps!r}, against the "
            "barrier's sandwich bound")
    return (SamplingPlan(m, np.arange(m), 1.0, note="all-rows"), 1.0, steps,
            tuple(trail))


def _pow2_small(M):
    """pow2_scaled(M) for the small validated arrays _nnls sees, with one
    reduction in place of two (the same e, so the same bits)."""
    e = math.frexp(float(np.abs(M).max()))[1]
    return (np.ldexp(M, -e) if e else M), e


def _nnls(C, b):
    """argmin_{x >= 0} ||Cx - b||^2 by scipy's Lawson-Hanson active set.

    scipy's tolerances and the KKT check below are absolute, so both run on
    C / 2^eC and b / 2^eb (exact rescales to max |entry| in [1/2, 1)); the
    solution of the unscaled system is then 2^(eb - eC) times theirs. The
    check reads the n entries of x and of the gradient as Python floats:
    NNLS systems here have few columns, where numpy's per-call overhead
    would cost more than the arithmetic.
    """
    import scipy.optimize  # ~0.3 s to import, and only NNLS needs it

    m, n = C.shape
    C, eC = _pow2_small(C)
    b, eb = _pow2_small(b)
    try:
        x = scipy.optimize.nnls(C, b)[0]
    except RuntimeError as exc:  # scipy's iteration cap, 3n
        raise ConvergenceError(
            f"NNLS exceeded its iteration cap on {m}x{n} system") from exc
    gtol = 1e-8 * max(1.0, *map(abs, (C.T @ b).tolist()))

    # KKT: zero gradient on the support, nonnegative dual off it
    moves = stalls = False
    for xi, w in zip(x.tolist(), (C.T @ (b - C @ x)).tolist()):
        if xi > 0.0:
            moves |= abs(w) > gtol
        else:
            stalls |= w > gtol
    if moves:
        raise NumericError("NNLS left a nonzero gradient on the support")
    if stalls:
        raise NumericError("NNLS left a strictly improving inactive variable")
    return np.ldexp(x, eb - eC)


def solve_ls(C, b, constraint="none"):
    """Least squares under the problem's constraint tag.

    none: minimum-norm solution via the pseudo-inverse. nonnegative:
    Lawson-Hanson active-set iteration, verified against its KKT
    conditions before returning.
    """
    C = as_matrix(C)
    b = as_vector(b, "b")
    if C.shape[0] != b.shape[0]:
        raise ArgumentError(
            f"C has {C.shape[0]} rows but b has length {b.shape[0]}")
    if constraint not in _CONSTRAINTS:
        raise ArgumentError(
            f"constraint must be one of {_CONSTRAINTS}, got {constraint!r}")
    return _solve(C, b, constraint)


def _solve(C, b, constraint):
    """solve_ls of a validated C and b under a known constraint tag."""
    if constraint == "nonnegative":
        return _nnls(C, b)
    return _pseudo_inverse(C) @ b


def evaluate_coreset(p, c):
    """Solve the coreset problem; report the objective ratio on full data.

    The ratio is ||A x_coreset - b||^2 / ||A x_full - b||^2, both
    residuals measured on the full data and divided by 2^e (e from
    max |[A | b]|) before squaring, so 2^j (A, b) give the same ratio. A
    zero full residual (linalg._ratio) with a zero coreset residual
    reports 1.0; with a nonzero one, +inf (ratio_finite=False). x_full and
    its residual come from p (RegressionProblem), solved and measured on
    p's first evaluate and kept; full_solve_seconds times their read.
    kappa, steps, checkpoints and note are the coreset's certificate, its
    barrier steps, the (steps, kappa) of each plan its walk measured and
    its plan's note ("all-rows" for the barrier's all-rows answer). A
    coreset that is p's own rows at weight 1, as the all-rows answer is,
    poses p's problem: x_full is its solution and its ratio is 1.0. A
    coreset whose plan, columns or recorded row count (Coreset.m) do not
    fit p (built on another problem) raises ArgumentError; an srht plan
    indexes the padded rows, which problems of other row counts share.
    """
    m, n = p.A.shape
    rows = 1 << (m - 1).bit_length() if c.method == "srht" else m
    if (c.plan.source_dim != rows or c.m not in (None, m)
            or np.ndim(c.C) != 2 or c.C.shape[1] != n):
        raise ArgumentError(
            f"coreset does not fit this {m}x{n} problem: it was built on "
            f"{c.m} rows, its plan indexes {c.plan.source_dim} rows (a "
            f"{c.method} plan on it, {rows}) and C has shape {np.shape(c.C)}")
    t0 = time.perf_counter()
    x_full, res_full = p._optimum
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    # a coreset of p's own rows at weight 1 is p's problem, solved by x_full
    own = (c.C.shape[0] == m and np.array_equal(c.C, p.A)
           and np.array_equal(c.b_c, p.b))
    x_core = x_full if own else _solve(c.C, c.b_c, p.constraint)
    t_core = time.perf_counter() - t0

    e = p._e
    res_core = res_full if own else frobenius_norm(p.A @ x_core - p.b)
    ratio = _ratio(res_core, res_full, e, 2)
    r_full, r_core = (_pow2_unscaled(math.ldexp(r, -e) ** 2, 2 * e)
                      for r in (res_full, res_core))
    return {
        "ratio": ratio,
        "ratio_finite": math.isfinite(ratio),
        "full_objective": r_full,
        "coreset_objective_on_full": r_core,
        "coreset_rows": len(c.plan),
        "distinct_rows": int(np.unique(c.plan.indices).size),
        "m": m,
        "n": n,
        "constraint": p.constraint,
        "method": c.method,
        "eps": c.eps,
        "delta": c.delta,
        "kappa": c.kappa,
        "steps": c.steps,
        "checkpoints": c.checkpoints,
        "note": c.plan.note,
        "full_solve_seconds": t_full,
        "coreset_solve_seconds": t_core,
    }
