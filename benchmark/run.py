"""matsketch benchmark: time one workload and print its metrics as JSON.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``. A run repeats its workload's call list
max(1, round(S / nominal pass time)) times, after setting up three times.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` it
alternates untraced and spanned passes and prints the per-layer metrics.
The last line of stdout is the result object; the line before it holds
the outputs digest, the environment and the tail's percentile.
"""

import os

# Pin BLAS to one thread before numpy loads: one caller, one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKDIR = ".matsketch-bench"


def _import_package():
    """Import numpy, scipy and matsketch from ROOT/src; seconds taken."""
    src = ROOT / "src"
    if not (src / "matsketch" / "__init__.py").is_file():
        sys.exit(f"benchmark: no matsketch sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import matsketch
    import matsketch.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(matsketch.__file__).resolve().parent != (src / "matsketch").resolve():
        sys.exit(f"benchmark: imported matsketch from {matsketch.__file__}")
    return matsketch, elapsed


def _environment(seed):
    import ctypes
    import glob

    import numpy as np
    import scipy

    env = {"seed": seed, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "blas_threads_pinned": BLAS_THREADS,
           "cpu_model": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in f
                                    if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    # numpy's bundled OpenBLAS reports the thread count it actually uses
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        fn.restype = ctypes.c_int
        env["blas_threads_in_use"] = fn()
    except (IndexError, OSError, AttributeError):
        env["blas_threads_in_use"] = None
    return env


def _run_pass(calls):
    """Time each call; then run its outside-in check. -> (wall, lat, checks)."""
    lat, checkers = [], []
    t_pass = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            checker = call.run()
        except Exception:  # a failing call is counted, not fatal
            checker = traceback.format_exc()
        lat.append(time.perf_counter() - t0)
        checkers.append(checker)
    wall = time.perf_counter() - t_pass
    checks = []
    for call, checker in zip(calls, checkers):
        if isinstance(checker, str):
            checks.append((call.label, False, checker.strip().splitlines()[-1],
                           None, b""))
            continue
        c = checker()
        checks.append((call.label, c.ok, c.problem, c.ratio, c.digest))
    return wall, lat, checks


def _latency_stats(lat_by_pass):
    """(p50, tail, tail percentile, tail sample count) of per-call latencies.

    The p50 is the median over the call list of each call's median over the
    passes. The tail is the latency at the highest percentile of all calls
    that leaves ten calls above it; with fewer than 22 calls that percentile
    would not lie above the median, so the slowest call's median stands in.
    """
    per_call = [statistics.median(x) for x in zip(*lat_by_pass)]
    xs = sorted(x for lat in lat_by_pass for x in lat)
    n = len(xs)
    if n >= 22:
        return statistics.median(per_call), xs[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(per_call), max(per_call), 100.0, len(per_call)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ms, import_s = _import_package()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    warnings.filterwarnings("ignore", category=UserWarning)
    os.chdir(ROOT)  # report paths, and so their hashes, are relative to ROOT
    wl = WORKLOADS[args.workload](ms)
    tracer = Tracer(ms) if args.trace else None
    try:
        info, attempted, failures, metrics = _measure(
            args, wl, Path(WORKDIR) / args.workload, import_s, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _measure(args, wl, workdir, import_s, tracer):
    setup_s, save_s = [], []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        wl.setup(args.seed, workdir)
        calls = wl.calls()
        _run_pass(calls[:1])  # warm-up
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            save_s.append(sum(r[2] for r in tracer.records
                              if r[0] == "save_matrix"))

    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    if tracer is not None:
        passes = max(2, passes)  # odd passes are spanned, even ones not
        tracer.reset()
    walls, traced_walls, lat_by_pass, checks_by_pass = [], [], [], []
    for i in range(passes):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        wall, lat, checks = _run_pass(calls)
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            walls.append(wall)
            lat_by_pass.append(lat)
        checks_by_pass.append(checks)

    attempted = sum(len(c) for c in checks_by_pass)
    first = [c[4] for c in checks_by_pass[0]]
    failures = []
    for checks in checks_by_pass:
        for (label, ok, problem, _, digest), d0 in zip(checks, first):
            if not ok:
                failures.append(f"{label}: {problem}")
            elif digest != d0:
                failures.append(f"{label}: output differs between passes")
    ratios = [r for checks in checks_by_pass for _, ok, _, r, _ in checks
              if ok and r is not None]
    p50, tail, tail_pct, tail_n = _latency_stats(lat_by_pass)
    info = {"workload": wl.name, "passes": passes,
            "outputs_digest": hashlib.sha256(b"".join(first)).hexdigest(),
            "environment": _environment(args.seed),
            "op_tail_percentile": tail_pct, "op_tail_samples": tail_n,
            "failures": failures}

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail, "s"),
            "error_ratio_mean": (statistics.fmean(ratios) if ratios else 0.0,
                                 "ratio"),
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        return info, attempted, failures, metrics

    n_traced = len(traced_walls)
    per_layer = tracer.metrics(n_traced, n_traced * len(calls))
    per_layer["mmio.save_s"] = statistics.median(save_s)
    per_layer["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1.0)
    info["layer_self_share"] = {k: v / sum(traced_walls)
                                for k, v in tracer.layer_seconds().items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return info, attempted, failures, {k: (v, units[k])
                                       for k, v in per_layer.items()}


if __name__ == "__main__":
    sys.exit(main())
