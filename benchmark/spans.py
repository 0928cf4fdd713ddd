"""Spans around matsketch's public API, installed from outside the package.

Only names exported in ``matsketch.__all__`` (plus ``cli.main``) are
wrapped, at every ``matsketch.*`` module namespace that holds them, so
private helpers can be renamed or merged without breaking the trace.
Private work is charged to the self time of the nearest public caller.
A span's self time is its duration minus the time of the public spans it
called. All per-layer figures are divided by the number of traced passes.
"""

import functools
import inspect
import math
import os
import sys
import time

import numpy as np

# Public entry points that run one barrier walk. A walk nested inside
# another (barrier_single -> barrier_dual_spectral) belongs to the outer one.
_BARRIER_FNS = ("barrier_single", "barrier_dual_spectral",
                "barrier_dual_frobenius")
_BARRIER_KINDS = ("same", "matrix", "identity", "columns")
_SAMPLING_FNS = ("additive_sampling", "adaptive_sampling", "subspace_sampling",
                 "barrier_dual_general")
_CX_FNS = ("cx_spectral", "cx_frobenius", "cssp",
           "interpolative_decomposition")
_APPROX_FNS = ("fast_frobenius_svd", "fast_spectral_svd", "srht_lowrank")
LAYERS = ("samplers", "linalg", "cx", "approx_svd", "sketch", "regression",
          "kmeans", "mmio", "cli")


def _barrier_kind(V, U):
    """The upper-side kind barrier_dual_spectral picks for (V, U)."""
    V, U = np.asarray(V), np.asarray(U)
    if U is V or (U.shape == V.shape and np.array_equal(U, V)):
        return "same"
    if U.ndim == 2 and U.shape[0] == U.shape[1] and np.array_equal(
            U, np.eye(U.shape[0])):
        return "identity"
    return "matrix"


class _Frame:
    __slots__ = ("child", "barrier", "barrier_acc", "info")

    def __init__(self, barrier, info):
        self.child = 0.0
        self.barrier = barrier
        self.barrier_acc = 0.0
        self.info = info


class Tracer:
    """Wraps the public callables of a loaded matsketch package in spans."""

    def __init__(self, package):
        import matsketch.cli

        self._pkg = package
        self._coreset_size = package.coreset_size
        targets = {name: getattr(package, name) for name in package.__all__
                   if inspect.isfunction(getattr(package, name))}
        targets["main"] = matsketch.cli.main
        self._wrappers = {}
        for name, fn in targets.items():
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
        cls = package.RegressionProblem
        self._problem_cls = cls
        self._problem_init = cls.__init__
        self._problem_wrapper = self._wrap(cls.__init__, "RegressionProblem",
                                           "regression")
        self._undo = []
        self._stack = []
        self.reset()

    def reset(self):
        self.records = []  # (name, layer, self seconds, info)
        self.barrier_events = []  # (kind, steps, seconds, distinct picks)

    # ------------------------------------------------------------ patching

    def install(self):
        for modname, mod in list(sys.modules.items()):
            if modname != "matsketch" and not modname.startswith("matsketch."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        self._problem_cls.__init__ = self._problem_wrapper

    def uninstall(self):
        self._problem_cls.__init__ = self._problem_init
        while self._undo:
            mod, attr, val = self._undo.pop()
            setattr(mod, attr, val)

    # --------------------------------------------------------------- spans

    def _wrap(self, fn, name, layer):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = self._before(name, sig, args, kwargs)
            frame = _Frame(name in _BARRIER_FNS or info.get("barrier", False),
                           info)
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(name, layer, time.perf_counter() - t0, None)
                raise
            self._close(name, layer, time.perf_counter() - t0, out)
            return out

        return wrapper

    def _before(self, name, sig, args, kwargs):
        """Facts about a call that only its arguments show."""
        if name not in ("svd", "fwht", "load_matrix", "build_coreset",
                        "barrier_single", "barrier_dual_spectral",
                        "barrier_dual_frobenius"):
            return {}
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        if name == "svd":
            shape = np.shape(p["A"])
            return {"cells": int(shape[0]) * int(shape[1] if len(shape) > 1 else 1)}
        if name == "fwht":
            X = np.asarray(p["X"])
            rows = X.shape[0]
            stages = int(math.log2(rows)) if rows > 1 else 0
            # one read and one write of every element per butterfly stage
            return {"bytes": 2 * X.size * 8 * stages}
        if name == "load_matrix":
            return {"bytes": os.path.getsize(p["path"])}
        if name == "build_coreset":
            if p["method"] != "barrier":
                return {}
            m, n = p["p"].A.shape
            r = (self._coreset_size("barrier", n, p["eps"], p["delta"], m)
                 if p["r_override"] is None else int(p["r_override"]))
            return {"barrier": True, "kind": "same", "steps": r}
        if name == "barrier_single":
            return {"kind": "same", "steps": int(p["r"])}
        if name == "barrier_dual_spectral":
            return {"kind": _barrier_kind(p["V"], p["U"]), "steps": int(p["r"])}
        return {"kind": "columns", "steps": int(p["r"])}

    def _close(self, name, layer, dur, out):
        frame = self._stack.pop()
        if self._stack:
            self._stack[-1].child += dur
        self_s = dur - frame.child
        info = frame.info
        if name == "fast_spectral_svd" and out is not None:
            info["power"] = int(out.power)
        if frame.barrier:
            layer = "samplers"
            total = self_s + frame.barrier_acc
            outer = next((f for f in reversed(self._stack) if f.barrier), None)
            if outer is not None:
                outer.barrier_acc += total
            else:
                plan = getattr(out, "plan", out)
                distinct = (len(np.unique(plan.indices)) if plan is not None
                            else 0)
                self.barrier_events.append(
                    (info["kind"], info["steps"], total, distinct))
        self.records.append((name, layer, self_s, info))

    # ------------------------------------------------------------- metrics

    def layer_seconds(self):
        """Self seconds per layer, over every record since the last reset."""
        out = dict.fromkeys(LAYERS, 0.0)
        for _, layer, self_s, _ in self.records:
            if layer in out:
                out[layer] += self_s
        return out

    def metrics(self, passes, ops):
        """Per-layer figures for `passes` traced passes of `ops` calls."""
        calls, secs, sums = {}, {}, {}
        for name, _, self_s, info in self.records:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + self_s
            for key in ("cells", "bytes", "power"):
                if key in info:
                    sums[(name, key)] = sums.get((name, key), 0) + info[key]

        def n(*names):
            return sum(calls.get(x, 0) for x in names) / passes

        def s(*names):
            return sum(secs.get(x, 0.0) for x in names) / passes

        def total(name, key):
            return sums.get((name, key), 0) / passes

        steps = dict.fromkeys(_BARRIER_KINDS, 0)
        kind_s = dict.fromkeys(_BARRIER_KINDS, 0.0)
        distinct = 0
        for kind, r, t, d in self.barrier_events:
            steps[kind] += r
            kind_s[kind] += t
            distinct += d
        all_steps = sum(steps.values())
        load_s = s("load_matrix")
        m = {
            "samplers.barrier_calls": len(self.barrier_events) / passes,
            "samplers.barrier_steps": all_steps / passes,
            "samplers.barrier_s": sum(kind_s.values()) / passes,
        }
        for kind in _BARRIER_KINDS:
            m[f"samplers.barrier_{kind}_us_per_step"] = (
                1e6 * kind_s[kind] / steps[kind] if steps[kind] else 0.0)
        m.update({
            "samplers.barrier_distinct_per_step":
                distinct / all_steps if all_steps else 0.0,
            "samplers.rrqr_calls": n("rrqr_select"),
            "samplers.rrqr_s": s("rrqr_select"),
            "samplers.sampling_s": s(*_SAMPLING_FNS),
            "linalg.svd_calls": n("svd"),
            "linalg.svd_calls_per_op": n("svd") * passes / ops if ops else 0.0,
            "linalg.svd_s": s("svd"),
            "linalg.svd_cells": total("svd", "cells"),
            "linalg.subspace_calls": n("best_rank_k_in_subspace"),
            "linalg.subspace_s": s("best_rank_k_in_subspace"),
            "cx.calls": n(*_CX_FNS),
            "cx.self_s": s(*_CX_FNS),
            "approx_svd.calls": n(*_APPROX_FNS),
            "approx_svd.s": s(*_APPROX_FNS),
            "approx_svd.power_iterations": total("fast_spectral_svd", "power"),
            "sketch.srht_calls": n("srht_rows"),
            "sketch.srht_s": s("srht_rows"),
            "sketch.fwht_calls": n("fwht"),
            "sketch.fwht_s": s("fwht"),
            "sketch.fwht_bytes": total("fwht", "bytes"),
            "regression.problem_s": s("RegressionProblem"),
            "regression.build_s": s("build_coreset"),
            "regression.solve_calls": n("solve_ls"),
            "regression.solve_s": s("solve_ls"),
            "regression.evaluate_s": s("evaluate_coreset"),
            "kmeans.lloyd_calls": n("lloyd"),
            "kmeans.lloyd_s": s("lloyd"),
            "kmeans.reduce_s": s("reduce_features"),
            "kmeans.cost_s": s("kmeans_cost", "indicator_matrix"),
            "mmio.load_calls": n("load_matrix"),
            "mmio.load_s": load_s,
            "mmio.load_bytes": total("load_matrix", "bytes"),
            "mmio.load_mb_per_s": (total("load_matrix", "bytes") / 1e6 / load_s
                                   if load_s > 0 else 0.0),
            "cli.calls": n("main"),
            "cli.self_s": s("main"),
        })
        return m
