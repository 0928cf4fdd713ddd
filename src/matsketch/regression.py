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
constraint. The builder walks once and measures kappa at doubling
checkpoints along the way, keeping the first plan that passes.
"""

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .errors import ArgumentError, ConvergenceError, NumericError, RankError
from .linalg import (SamplingPlan, _pow2_exponent, _pow2_unscaled, _ratio,
                     apply_plan_rows, as_matrix, as_vector, formula_width,
                     frobenius_norm, pow2_scaled, pseudo_inverse,
                     singular_values, svd)
from .samplers import (_barrier_core, _embedding_kappa, _ortho_deviation,
                       _plan_from_weights, subspace_sampling)
from .sketch import srht_rows

_CONSTRAINTS = ("none", "nonnegative")
# the barrier coreset's walk is first checked after
# ceil(_FIRST_WALK rank([A b]) / eps^2) steps, 1/25 of the formula's; it is
# not walked to a checkpoint past _MAX_WALK_PER_ROW m steps, since all m rows
# at weight 1 (kappa = 1) answer at once
_FIRST_WALK = 9.0
_MAX_WALK_PER_ROW = 16


@dataclass(frozen=True)
class RegressionProblem:
    """min ||A x - b|| under the constraint. A and b are kept read-only and
    unshared with the caller, so the factors cached on first use stay true."""

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
        if singular_values(A).size != n:
            raise RankError(f"design matrix is rank-deficient (rank < {n})")
        for name, a in (("A", A), ("b", b)):
            a = a.copy() if np.may_share_memory(a, getattr(self, name)) else a
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def _basis(self):  # U_Y for the barrier and subspace coresets
        return svd(np.column_stack([self.A, self.b])).U  # m x rank([A b])

    @cached_property
    def _optimum(self):
        return solve_ls(self.A, self.b, self.constraint)


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
    the barrier steps walked to the kept plan (to the last checkpoint, for
    an all-rows answer after a walk; 0 where no walk started); and
    checkpoints, the (steps, kappa) of every partial plan the walk
    measured, in order. Other methods leave all three None.
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
    orthonormal basis of [A b] that p factors once for all its coresets
    and d = rank([A b]), one single-set barrier walk on U_Y runs with the
    formula's r = ceil(225(n+1)/eps^2) as its parameter. After
    w = ceil(9 d/eps^2) steps, 2w, 4w, ... and r, the distortion kappa of
    its partial plan on span(U_Y) is measured (Coreset.kappa, with its
    rounding margin), and the first plan with kappa <= 1 + eps is returned.
    At r the barrier's sandwich ((1 + eps/15)/(1 - eps/15))^2 < 1 + eps
    holds for every plan. Where the next checkpoint would pass 16 m steps,
    the walk ends (or, with w > 16 m, never starts) and all m rows at
    weight 1 are returned instead (kappa = 1, plan note "all-rows").
    Coreset.steps is the kept checkpoint's step count, and
    Coreset.checkpoints the (steps, kappa) of each one measured.
    subspace: leverage sampling of the rows of U_Y,
    r = ceil(36(n+1) ln(2(n+1)/delta)/eps^2), holds w.p. >= 1-delta.
    srht: uniform sampling of Hadamard-mixed rows (no U_Y) with
    r = ceil(72(n+1) ln(2(n+1)/delta) log2(40(n+1)m)/eps^2), holds
    w.p. >= 0.95-delta. r_override replaces the formula count: a
    barrier walk of exactly that many steps, at most 16 m, whose kappa is
    reported but not checked (meant for desk-scale experiments).
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
        C = apply_plan_rows(p.A, plan)
        b_c = plan.weights * p.b[plan.indices]
    return Coreset(plan=plan, C=C, b_c=b_c, method=method, eps=float(eps),
                   delta=float("nan") if method == "barrier" else float(delta),
                   kappa=kappa, steps=steps, checkpoints=checkpoints)


def _barrier_plan(U_Y, eps, r, adaptive):
    """(plan, kappa, steps, checkpoints) of the barrier coreset on the m x d
    basis U_Y; checkpoints is the (steps, kappa) of every plan measured.

    adaptive: one walk with parameter r, the formula's, whose partial plan
    is measured after ceil(_FIRST_WALK d/eps^2) steps, twice that, ... and
    after r steps; the first plan with kappa <= 1 + eps is kept. Where the
    next checkpoint would pass _MAX_WALK_PER_ROW m steps, the walk ends and
    all rows answer instead. Otherwise one walk of exactly r steps, kappa
    measured but not checked.
    """
    m, d = U_Y.shape
    at = []
    tau = min(formula_width(_FIRST_WALK * d, eps), r) if adaptive else r
    while tau <= _MAX_WALK_PER_ROW * m:
        at.append(tau)
        if tau == r:
            break
        tau = min(2 * tau, r)
    trail, steps = [], 0
    if at:
        dev = _ortho_deviation(U_Y)

        def check(tau, s):
            kappa = _embedding_kappa(U_Y, _plan_from_weights(s), dev)
            trail.append((tau, kappa))
            return kappa <= 1.0 + eps or tau == at[-1]

        plan = _plan_from_weights(
            _barrier_core(U_Y, r, U_Y, hook=(set(at), check)))
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


def _nnls(C, b):
    """argmin_{x >= 0} ||Cx - b||^2 by scipy's Lawson-Hanson active set.

    scipy's tolerances and the KKT check below are absolute, so both run on
    C / 2^eC and b / 2^eb (exact rescales to max |entry| in [1/2, 1)); the
    solution of the unscaled system is then 2^(eb - eC) times theirs.
    """
    import scipy.optimize  # ~0.3 s to import, and only NNLS needs it

    m, n = C.shape
    C, eC = pow2_scaled(C)
    b, eb = pow2_scaled(b)
    try:
        x = scipy.optimize.nnls(C, b)[0]
    except RuntimeError as exc:  # scipy's iteration cap, 3n
        raise ConvergenceError(
            f"NNLS exceeded its iteration cap on {m}x{n} system") from exc
    passive = x > 0.0
    scale = max(1.0, float(np.abs(C.T @ b).max()))
    w = C.T @ (b - C @ x)

    # KKT: zero gradient on the support, nonnegative dual off it
    gtol = 1e-8 * scale
    if passive.any() and float(np.abs(w[passive]).max()) > gtol:
        raise NumericError("NNLS left a nonzero gradient on the support")
    if (~passive).any() and float(w[~passive].max()) > gtol:
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
    if constraint == "none":
        return pseudo_inverse(C) @ b
    if constraint == "nonnegative":
        return _nnls(C, b)
    raise ArgumentError(
        f"constraint must be one of {_CONSTRAINTS}, got {constraint!r}")


def evaluate_coreset(p, c):
    """Solve the coreset problem; report the objective ratio on full data.

    The ratio is ||A x_coreset - b||^2 / ||A x_full - b||^2, both
    residuals measured on the full data and divided by 2^e (e from
    max |[A | b]|) before squaring, so 2^j (A, b) give the same ratio. A
    zero full residual (linalg._ratio) with a zero coreset residual
    reports 1.0; with a nonzero one, +inf (ratio_finite=False). x_full is
    solved on p's first evaluate and kept; full_solve_seconds times its
    read. kappa, steps, checkpoints and note are the coreset's certificate,
    its barrier steps, the (steps, kappa) of each plan its walk measured and
    its plan's note ("all-rows" for the barrier's all-rows answer).
    """
    t0 = time.perf_counter()
    x_full = p._optimum
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    x_core = solve_ls(c.C, c.b_c, p.constraint)
    t_core = time.perf_counter() - t0

    e = _pow2_exponent(p.A, p.b)
    res_full, res_core = (frobenius_norm(p.A @ x - p.b)
                          for x in (x_full, x_core))
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
        "m": int(p.A.shape[0]),
        "n": int(p.A.shape[1]),
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
