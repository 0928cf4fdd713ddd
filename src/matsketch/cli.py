"""`matsketch` command line: run one experiment (or the pinned bench
suite) and emit a single JSON report.

Every report carries a determinism hash: the SHA-256 of the canonical
JSON with all `*_seconds` fields removed. Identical config and seed give
an identical hash. Exit codes: 0 success, 2 argument/precondition,
3 numeric failure, 4 I/O or parse failure.
"""

import argparse
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__, rng
from .approx_svd import fast_frobenius_svd, fast_spectral_svd
from .cx import (cssp, cx_frobenius, cx_spectral, interpolative_decomposition,
                 lower_bound_instance)
from .errors import ArgumentError, DataFormatError, MatsketchError
from .kmeans import kmeans_cost, lloyd, reduce_features
from .linalg import (ColumnProblem, _norms, _pow2_unscaled, _ratio,
                     _residual, _within, frobenius_norm, pow2_scaled,
                     singular_values)
from .mmio import load_matrix
from .oracles import all_subset_errors
from .regression import (RegressionProblem, build_coreset, coreset_size,
                         evaluate_coreset)
from .synthetic import blobs, lowrank_plus_noise


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="matsketch",
        description="Column/row sampling toolkit: certified low-rank "
                    "approximations, regression coresets, k-means feature "
                    "reduction.")
    ap.add_argument("--version", action="version", version=f"matsketch {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def io_flags(sp, trials=1):
        sp.add_argument("--in", dest="infile", metavar="PATH",
                        help="input matrix file")
        sp.add_argument("--format", choices=["auto", "matrixmarket", "csv"],
                        default="auto")
        sp.add_argument("--synthetic", metavar="SPEC",
                        help="lowrank:m,n,k,noise | blobs:m,n,k,sep | "
                             "lowerbound:n,alpha")
        sp.add_argument("--seed", type=int, default=0)
        if trials:
            sp.add_argument("--trials", type=int, default=trials)
        sp.add_argument("--out", metavar="PATH", help="write report here "
                        "instead of stdout")

    p = sub.add_parser("cx", help="oversampled column selection")
    p.add_argument("norm", choices=["spectral", "frobenius"])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--mode", default="deterministic",
                   choices=["deterministic", "fast", "relative"])
    io_flags(p)

    p = sub.add_parser("cssp", help="exactly-k column subset selection")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--mode", default="spectral",
                   choices=["spectral", "frobenius", "two_stage"])
    p.add_argument("--delta", type=float, default=0.1)
    io_flags(p)

    p = sub.add_parser("id", help="interpolative decomposition A ~ CX")
    p.add_argument("-k", type=int, required=True)
    io_flags(p, trials=None)

    p = sub.add_parser("coreset", help="row coresets for least squares")
    p.add_argument("--method", default="barrier",
                   choices=["barrier", "subspace", "srht"])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("-r", type=int, default=None,
                   help="override the formula coreset size")
    p.add_argument("--mode", dest="constraint", default="none",
                   choices=["none", "nonnegative"],
                   help="constraint set for the LS solves")
    io_flags(p)

    p = sub.add_parser("kmeans", help="feature reduction for k-means")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--method", default="select", choices=["select", "rp", "svd"])
    p.add_argument("--c0", type=float, default=4.0)
    io_flags(p, trials=3)

    p = sub.add_parser("sketch-svd", help="fast approximate SVD benches")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--mode", default="frobenius", choices=["frobenius", "spectral"])
    p.add_argument("--eps", type=float, default=0.5)
    io_flags(p, trials=10)

    p = sub.add_parser("lowerbound",
                       help="worst-case instance where no r columns help")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("bench-suite", help="run the pinned experiment suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    return ap


def _parse_synthetic(spec, seed):
    name, _, rest = spec.partition(":")
    parts = [s for s in rest.split(",") if s] if rest else []
    try:
        if name == "lowrank":
            if len(parts) != 4:
                raise ValueError
            m, n, k = int(parts[0]), int(parts[1]), int(parts[2])
            return lowrank_plus_noise(m, n, k, float(parts[3]),
                                      seed=rng.derive_seed(seed, rng.SYNTH, 0))
        if name == "blobs":
            if len(parts) != 4:
                raise ValueError
            m, n, k = int(parts[0]), int(parts[1]), int(parts[2])
            return blobs(m, n, k, float(parts[3]),
                         seed=rng.derive_seed(seed, rng.SYNTH, 0))[0]
        if name == "lowerbound":
            if len(parts) != 2:
                raise ValueError
            return lower_bound_instance(int(parts[0]), float(parts[1]))
    except ValueError:
        raise ArgumentError(
            f"bad synthetic spec {spec!r}; expected lowrank:m,n,k,noise | "
            "blobs:m,n,k,sep | lowerbound:n,alpha") from None
    raise ArgumentError(f"unknown synthetic family {name!r}")


def _load_input(args):
    """-> (matrix, source string)."""
    if args.command == "lowerbound":  # a fixed instance: no file, no seed
        n, r, alpha = args.n, args.r, args.alpha
        if not (1 <= r < n):
            raise ArgumentError(f"need 1 <= r < n, got r={r}, n={n}")
        return lower_bound_instance(n, alpha), f"lowerbound:{n},{alpha}"
    if args.infile and args.synthetic:
        raise ArgumentError("pass --in or --synthetic, not both")
    if args.infile:
        return load_matrix(args.infile, args.format), f"file:{args.infile}"
    if args.synthetic:
        return (_parse_synthetic(args.synthetic, args.seed),
                f"synthetic:{args.synthetic}")
    raise ArgumentError("no input: pass --in PATH or --synthetic SPEC")


def _finite_mean(xs):
    xs = [x for x in xs if x is not None and math.isfinite(x)]
    return sum(xs) / len(xs) if xs else None


def _sanitize(obj):
    """JSON-safe: numpy scalars/arrays unwrapped, non-finite floats as strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items()
                if not k.endswith("_seconds")}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def determinism_hash(report):
    canon = json.dumps(_strip_seconds(report), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _trials(args, one, deterministic=False):
    """The records of `one(seed)` over the trial seeds, each tagged with
    its seed; a deterministic run has one trial."""
    seeds = ([args.seed] if deterministic else
             [int(rng.derive_seed(args.seed, rng.TRIAL, i))
              for i in range(args.trials)])
    return [{"algorithm_seed": "deterministic" if deterministic else s,
             **one(s)} for s in seeds]


# ---------------------------------------------------------------- runners
# Each takes the parsed flags and the input matrix and returns
# (algorithm, (rows, cols) of the input it ran on, results block).

def _run_cx(args, A):
    deterministic = args.mode == "deterministic"
    p = ColumnProblem(A)
    fn = cx_spectral if args.norm == "spectral" else cx_frobenius
    res = None

    def one(seed):
        nonlocal res
        res = fn(p, args.k, args.r, mode=args.mode, seed=seed)
        err = (res.rank_k_error_spectral if args.norm == "spectral"
               else res.rank_k_error_frobenius)
        return {"error": err, "ratio": _ratio(err, res.baseline_sigma, p.e),
                "columns_picked": len(res.plan)}

    per = _trials(args, one, deterministic)
    errs = [e["error"] for e in per]
    mean_err = sum(errs) / len(errs)
    satisfied = all(_within(x, res.bound_value, p.e)
                    for x in (errs if deterministic else [mean_err]))
    return fn.__name__, A.shape, {
        "bound_value": res.bound_value,
        "bound_formula": res.bound_formula,
        "bound_kind": "per-instance" if deterministic else "expectation",
        "baseline": res.baseline_sigma,
        "mean_error": mean_err,
        "mean_ratio": _finite_mean([e["ratio"] for e in per]),
        "mean_sq_ratio": _finite_mean([e["ratio"] ** 2 for e in per]),
        "satisfied": bool(satisfied),
        "per_trial": per,
    }


def _run_cssp(args, A):
    p = ColumnProblem(A)
    bound = {"bound_value": None, "bound_formula": None, "baseline": None}

    def one(seed):
        try:
            res = cssp(p, args.k, mode=args.mode, delta=args.delta, seed=seed)
        except MatsketchError as e:
            return {"failed": f"{type(e).__name__}: {e}"}
        bound.update(bound_value=res.bound_value,
                     bound_formula=res.bound_formula,
                     baseline=res.baseline_sigma)
        err = (res.rank_k_error_spectral if res.norm == "spectral"
               else res.rank_k_error_frobenius)
        return {"error": err, "ratio": _ratio(err, res.baseline_sigma, p.e),
                "columns": res.plan.indices.tolist(),
                "satisfied": _within(err, res.bound_value, p.e)}

    per = _trials(args, one)
    ok = [e for e in per if e.get("satisfied")]
    errs = [e["error"] for e in per if "error" in e]
    return "cssp", A.shape, {
        **bound,
        "mean_error": sum(errs) / len(errs) if errs else None,
        "success_fraction": len(ok) / args.trials,
        "per_trial": per,
    }


def _run_id(args, A):
    p = ColumnProblem(A)
    C, X, plan = interpolative_decomposition(p, args.k, seed=args.seed)
    k, n = args.k, A.shape[1]
    sel = plan.indices
    err = _norms(p.A - C @ X)[0]
    baseline = _pow2_unscaled(p.baseline(k, "spectral"), p.e)
    bound = 4.0 * math.sqrt(4.0 * k * (n - k) + 1.0) * baseline
    xs = np.linalg.svd(X, compute_uv=False)
    return "interpolative_decomposition", A.shape, {
        "columns": sel.tolist(),
        "identity_block_exact": bool(np.array_equal(X[:, sel], np.eye(k))),
        "max_abs_entry": float(np.abs(X).max()),
        "coefficient_norm": float(xs[0]),
        "coefficient_norm_bound": math.sqrt(4.0 * k * (n - k)) + 1.0,
        "sigma_min": float(xs[-1]),
        "spectral_error": err,
        "bound_value": bound,
        "bound_formula": "E: 4*sqrt(4k(n-k)+1)*sigma_{k+1}",
        "baseline": baseline,
        "ratio": _ratio(err, baseline, p.e),
    }


def _run_coreset(args, A):
    deterministic = args.method == "barrier"
    if args.infile:  # the file holds [A | b]
        if A.shape[1] < 2:
            raise ArgumentError(
                "coreset input file must be [A | b] with at least 2 columns")
        A, b = A[:, :-1], A[:, -1]
    else:
        gen = rng.stream(args.seed, rng.SYNTH, 1)
        bx = A @ gen.standard_normal(A.shape[1])
        b = bx + 0.05 * (np.linalg.norm(bx) / math.sqrt(A.shape[0])) \
            * gen.standard_normal(A.shape[0])
    p = RegressionProblem(A, b, constraint=args.constraint)
    m, n = p.A.shape
    try:
        r_formula = coreset_size(args.method, n, args.eps, args.delta, m)
    except ArgumentError:
        if args.r is None:  # the build needs the formula count
            raise
        r_formula = None  # -r replaces it; only the report reads it
    # what a trial keeps of its evaluation; only a barrier trial has a walk
    keep = ["ratio", "distinct_rows", "kappa", "steps", "note",
            "full_solve_seconds", "coreset_solve_seconds"]
    if deterministic:
        keep.append("checkpoints")

    def one(seed):
        c = build_coreset(p, args.eps, method=args.method, delta=args.delta,
                          seed=seed, r_override=args.r)
        rep = evaluate_coreset(p, c)
        return {"rows": rep["coreset_rows"],
                "satisfied": _within(rep["ratio"], 1.0 + args.eps),
                **{k: rep[k] for k in keep}}

    per = _trials(args, one, deterministic)
    return "build_coreset", (m, n), {
        "r_formula": r_formula,
        "bound_value": 1.0 + args.eps,
        "bound_formula": "(1+eps)*||A x_opt - b||^2 on the squared objective",
        "bound_kind": "per-instance" if deterministic else "probabilistic",
        "mean_ratio": _finite_mean([e["ratio"] for e in per]),
        "success_fraction": sum(e["satisfied"] for e in per) / args.trials,
        "per_trial": per,
    }


def _run_kmeans(args, A):
    base = lloyd(A, args.k, restarts=args.trials, seed=args.seed)
    C, _aux = reduce_features(A, args.k, args.eps, method=args.method,
                              c0=args.c0, seed=args.seed)
    red = lloyd(C, args.k, restarts=args.trials,
                seed=rng.derive_seed(args.seed, rng.KMEANS, 2))
    # costs are sums of squares: taken on A / 2^e they neither overflow
    # nor underflow, and the ratio is the same at any scale of A
    S, e = pow2_scaled(A)
    cost_full, cost_red = kmeans_cost(S, base), kmeans_cost(S, red)
    return "reduce_features", A.shape, {
        "reduced_width": int(C.shape[1]),
        "cost_full_features": _pow2_unscaled(cost_full, 2 * e),
        "cost_reduced_features_on_full": _pow2_unscaled(cost_red, 2 * e),
        "ratio": _ratio(cost_red, cost_full, 0),
        "note": "inner clusterer is uncertified Lloyd; ratio is an "
                "empirical surrogate, not a theorem constant",
        "cluster_sizes_full": list(base.sizes),
        "cluster_sizes_reduced": list(red.sizes),
    }


def _run_sketch_svd(args, A):
    p = ColumnProblem(A)  # errors are taken on p.S and scaled back
    k, frob = args.k, args.mode == "frobenius"
    base = p.baseline(k, args.mode)
    fn, key = ((fast_frobenius_svd, "sq_ratio") if frob
               else (fast_spectral_svd, "ratio"))
    basis = None

    def one(seed):
        nonlocal basis
        basis = fn(p.S, k, args.eps, seed=seed)
        err = (frobenius_norm(_residual(p.S, basis.Z)) if frob
               else p.residual_norm(basis.Z))
        return {"error": _pow2_unscaled(err, p.e),
                key: _ratio(err, base, 0, 2 if frob else 1)}

    per = _trials(args, one)
    mean_stat = _finite_mean([t[key] for t in per])
    bound_factor, formula = (
        (1.0 + args.eps, "E: (1+eps)*||A-A_k||_F^2") if frob
        else (math.sqrt(2.0) + args.eps, "E: (sqrt(2)+eps)*sigma_{k+1}"))
    return fn.__name__, A.shape, {
        "baseline": _pow2_unscaled(base, p.e),
        "bound_value": bound_factor,
        "bound_formula": formula,
        "power_iterations": basis.power,
        "mean_stat": mean_stat,
        "stat_kind": ("mean squared Frobenius ratio" if frob
                      else "mean spectral ratio"),
        "satisfied": (mean_stat is not None
                      and _within(mean_stat, bound_factor)),
        "per_trial": per,
    }


def _run_lowerbound(args, A):
    n, alpha, r = args.n, args.alpha, args.r
    closed = (n + alpha ** 2) / (r + alpha ** 2)
    s = singular_values(A)
    _, errs = all_subset_errors(A, r, "spectral")
    sq_ratios = (np.asarray(errs) / alpha) ** 2
    agrees = bool(np.max(np.abs(sq_ratios - closed)) <= 1e-9 * closed)
    return "lower_bound_instance", A.shape, {
        "ratio": closed,
        "bound_formula": "(n+alpha^2)/(r+alpha^2) for every r-subset",
        "measured_sq_ratio_min": float(sq_ratios.min()),
        "measured_sq_ratio_max": float(sq_ratios.max()),
        "subsets_checked": int(sq_ratios.size),
        "sigma1_sq": float(s[0] ** 2),
        "sigma1_sq_expected": n + alpha ** 2,
        "all_subsets_agree": agrees,
    }


_RUNNERS = {
    "cx": _run_cx,
    "cssp": _run_cssp,
    "id": _run_id,
    "coreset": _run_coreset,
    "kmeans": _run_kmeans,
    "sketch-svd": _run_sketch_svd,
    "lowerbound": _run_lowerbound,
}
# the flags that say where the input comes from and where the report goes;
# every other flag of a subcommand is a param
_IO_FLAGS = ("command", "infile", "format", "synthetic", "seed", "out")
# the runs that give the same answer on every trial
_ONE_TRIAL = {"cx": ("mode", "deterministic"), "coreset": ("method", "barrier")}


def _experiment_id(args):
    modes = [getattr(args, attr) for attr in ("norm", "mode", "constraint",
                                              "method") if hasattr(args, attr)]
    return "-".join([args.command, *modes])


def _run_one(args, experiment=None):
    trials = getattr(args, "trials", 1)
    if trials < 1:
        raise ArgumentError(f"need --trials >= 1, got {trials}")
    attr, value = _ONE_TRIAL.get(args.command, (None, None))
    if trials > 1 and attr and getattr(args, attr) == value:
        raise ArgumentError(f"--{attr} {value} is deterministic and runs one "
                            f"trial, got --trials {trials}")
    if args.command == "cx" and args.norm == "spectral" and args.mode == "relative":
        raise ArgumentError("--mode relative is Frobenius-only; cx spectral "
                            "takes --mode deterministic|fast")
    t0 = time.perf_counter()
    A, source = _load_input(args)
    algorithm, (rows, cols), results = _RUNNERS[args.command](args, A)
    params = {k: v for k, v in vars(args).items() if k not in _IO_FLAGS}
    report = {
        "algorithm": algorithm,
        "input": {"rows": rows, "cols": cols, "source": source,
                  "seed": getattr(args, "seed", "deterministic")},
        "params": {"trials": 1, **params},
        "results": results,
        "experiment": experiment or _experiment_id(args),
        "toolkit_version": __version__,
        "wall_seconds": time.perf_counter() - t0,
    }
    report = _sanitize(report)
    report["determinism_hash"] = determinism_hash(report)
    return report


def _suite_entries(seed):
    s = str(seed)
    return [
        ("cssp-frobenius", ["cssp", "-k", "2", "--mode", "frobenius",
                            "--trials", "10",
                            "--synthetic", "lowrank:40,12,2,0.1", "--seed", s]),
        ("cssp-spectral", ["cssp", "-k", "2", "--mode", "spectral",
                           "--trials", "10",
                           "--synthetic", "lowrank:40,12,2,0.1", "--seed", s]),
        ("coreset-barrier", ["coreset", "--method", "barrier", "--eps", "0.5",
                             "--synthetic", "lowrank:2000,4,4,0.1", "--seed", s]),
        ("coreset-srht", ["coreset", "--method", "srht", "--eps", "0.5",
                          "--delta", "0.1", "-r", "1024", "--trials", "5",
                          "--synthetic", "lowrank:2000,4,4,0.1", "--seed", s]),
        ("coreset-subspace", ["coreset", "--method", "subspace", "--eps", "0.5",
                              "--delta", "0.1", "-r", "1000", "--trials", "5",
                              "--synthetic", "lowrank:2000,4,4,0.1", "--seed", s]),
        ("cx-det-frobenius", ["cx", "frobenius", "--mode", "deterministic",
                              "-k", "2", "-r", "8",
                              "--synthetic", "lowrank:100,80,2,0.05", "--seed", s]),
        ("cx-det-spectral", ["cx", "spectral", "--mode", "deterministic",
                             "-k", "2", "-r", "8",
                             "--synthetic", "lowrank:60,40,2,0.05", "--seed", s]),
        ("cx-relative", ["cx", "frobenius", "--mode", "relative",
                         "-k", "2", "-r", "40", "--trials", "10",
                         "--synthetic", "lowrank:100,80,2,0.05", "--seed", s]),
        ("id-properties", ["id", "-k", "3",
                           "--synthetic", "lowrank:50,30,3,0.05", "--seed", s]),
        ("kmeans-rp", ["kmeans", "-k", "3", "--eps", "0.3", "--method", "rp",
                       "--c0", "1", "--trials", "3",
                       "--synthetic", "blobs:300,50,3,6", "--seed", s]),
        ("kmeans-select", ["kmeans", "-k", "3", "--eps", "0.3",
                           "--method", "select", "--c0", "0.04", "--trials", "3",
                           "--synthetic", "blobs:300,50,3,6", "--seed", s]),
        ("kmeans-svd", ["kmeans", "-k", "3", "--eps", "0.3", "--method", "svd",
                        "--trials", "3",
                        "--synthetic", "blobs:300,50,3,6", "--seed", s]),
        ("lowerbound-n5", ["lowerbound", "-n", "5", "--alpha", "1.0", "-r", "2"]),
        ("sketch-svd-frobenius", ["sketch-svd", "-k", "3", "--eps", "0.5",
                                  "--trials", "10",
                                  "--synthetic", "lowrank:80,60,3,0.2",
                                  "--seed", s]),
        ("sketch-svd-spectral", ["sketch-svd", "-k", "3", "--mode", "spectral",
                                 "--eps", "0.5", "--trials", "10",
                                 "--synthetic", "lowrank:80,60,3,0.2",
                                 "--seed", s]),
    ]


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True)
    if not out:
        print(text)
        return
    try:
        Path(out).write_text(text + "\n")
    except OSError as e:
        raise DataFormatError(f"cannot write {out}: {e}") from None


def run_experiment(args):
    """Execute one parsed CLI config; emits and returns the report."""
    if args.command == "bench-suite":
        parser = _build_parser()
        reports = []
        for exp_id, argv in sorted(_suite_entries(args.seed)):
            reports.append(_run_one(parser.parse_args(argv), experiment=exp_id))
        suite = {"suite": reports, "toolkit_version": __version__,
                 "seed": args.seed}
        suite["determinism_hash"] = determinism_hash(suite)
        _emit(suite, args.out)
        return suite
    report = _run_one(args)
    _emit(report, args.out)
    return report


def main(argv=None):
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        run_experiment(args)
        return 0
    except MatsketchError as e:
        print(json.dumps({"error": {"type": type(e).__name__,
                                    "message": str(e)},
                          "exit_code": e.exit_code}, indent=2, sort_keys=True))
        return e.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
