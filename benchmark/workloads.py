"""The benchmark's three closed-loop workloads.

Each workload is one caller in one process issuing a fixed, seeded list
of certified calls into matsketch's public API, the next call only after
the previous one returned. `setup` builds the inputs from the seed;
`calls` returns the list. Running a call returns a check, which the
runner invokes after the timed pass; it yields a `Checked`: whether the
certificate holds when checked from outside the library, the measured
error over the optimal baseline, and the bytes that go into the
workload's outputs digest.

The matsketch package is reached through module attributes at call time
(``ms.build_coreset``, never a bound name), so the spans in spans.py see
every call.
"""

import hashlib
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import scipy.optimize

Call = namedtuple("Call", "label run")
Checked = namedtuple("Checked", "ok problem ratio digest")

_TOL = 1e-9


def _ok(ratio, digest, problems):
    problems = [p for p in problems if p]
    return Checked(not problems, "; ".join(problems), ratio, digest)


def _plan_bytes(plan):
    return (np.asarray(plan.indices, dtype=np.int64).tobytes()
            + np.asarray(plan.weights, dtype=np.float64).tobytes())


# ------------------------------------------------------------ coreset-barrier


class CoresetBarrier:
    """RegressionProblem -> barrier coreset at the formula size -> evaluate.

    The barrier's single-set walk scans every row at each of its r steps,
    so this workload is almost all `samplers` and touches little else.
    Shapes are fixed; the seed draws the Gaussian designs. The list holds
    the acceptance gate's 6000 x 3 shape, and half the calls solve under
    the nonnegative constraint.
    """

    name = "coreset-barrier"
    nominal_pass_s = 10.0
    eps = 0.5
    shapes = ((2000, 3, "none"), (2000, 4, "nonnegative"),
              (4000, 3, "nonnegative"), (6000, 3, "none"))

    def __init__(self, ms):
        self.ms = ms

    def setup(self, seed, workdir):
        self.inputs = []
        for i, (m, n, constraint) in enumerate(self.shapes):
            g = np.random.default_rng([seed, i])
            A = g.standard_normal((m, n))
            b = A @ g.standard_normal(n) + 0.1 * g.standard_normal(m)
            self.inputs.append((A, b, constraint))

    def calls(self):
        return [Call(f"{A.shape[0]}x{A.shape[1]}-{c}",
                     lambda A=A, b=b, c=c: self._one(A, b, c))
                for A, b, c in self.inputs]

    def _one(self, A, b, constraint):
        ms = self.ms
        p = ms.RegressionProblem(A, b, constraint=constraint)
        c = ms.build_coreset(p, self.eps, method="barrier")
        rep = ms.evaluate_coreset(p, c)
        return lambda: self._check(A, b, constraint, c, rep)

    def _check(self, A, b, constraint, c, rep):
        r = math.ceil(225.0 * (A.shape[1] + 1) / self.eps ** 2)
        idx, w = c.plan.indices, c.plan.weights
        distinct = np.unique(idx).size
        ratio = self._ratio(A, b, c.C, c.b_c, constraint)
        lib = rep["ratio"]
        return _ok(lib, _plan_bytes(c.plan) + repr(lib).encode(), [
            not np.allclose(c.C, A[idx] * w[:, None], rtol=1e-12, atol=0)
            and "coreset rows are not the plan's weighted rows",
            not np.allclose(c.b_c, w * b[idx], rtol=1e-12, atol=0)
            and "coreset targets are not the plan's weighted targets",
            distinct > r and f"{distinct} distinct rows > r={r}",
            not ratio <= 1.0 + self.eps + _TOL
            and f"objective ratio {ratio} > 1+eps",
            not abs(lib - ratio) <= 1e-6 * ratio
            and f"reported ratio {lib} != recomputed {ratio}",
        ])

    @staticmethod
    def _ratio(A, b, C, b_c, constraint):
        """Full-data objective of the coreset solution over the optimum."""
        if constraint == "nonnegative":
            x_full = scipy.optimize.nnls(A, b)[0]
            x_core = scipy.optimize.nnls(C, b_c)[0]
        else:
            x_full = np.linalg.lstsq(A, b, rcond=None)[0]
            x_core = np.linalg.lstsq(C, b_c, rcond=None)[0]
        full = float(np.sum((A @ x_full - b) ** 2))
        return float(np.sum((A @ x_core - b) ** 2)) / full


# ------------------------------------------------------------------ cx-dense


class CxDense:
    """Column selection on one 1000 x 600 low-rank-plus-noise matrix.

    Dense SVDs (`linalg`, and the spectral norms inside `cx`'s
    certification) dominate, with the barrier's matrix/columns/identity
    upper sides second: `samplers` is exercised differently from
    coreset-barrier, and `mmio`, `sketch` and `kmeans` are never touched.
    """

    name = "cx-dense"
    nominal_pass_s = 6.0
    k = 5

    def __init__(self, ms):
        self.ms = ms

    def setup(self, seed, workdir):
        self.seed = seed
        self.A = self.ms.lowrank_plus_noise(1000, 600, self.k, 0.1, seed=seed)
        s = np.linalg.svd(self.A, compute_uv=False)
        self.sigma = float(s[self.k])
        self.tail_f = float(np.linalg.norm(s[self.k:]))

    def calls(self):
        ms, A, k, sd = self.ms, self.A, self.k, self.seed
        out = [Call("interpolative_decomposition", lambda: self._id(
            *ms.interpolative_decomposition(A, k, seed=sd)))]
        for mode in ("deterministic", "fast"):
            out.append(Call(f"cx_spectral-{mode}", lambda mode=mode: self._cx(
                ms.cx_spectral(A, k, 20, mode=mode, seed=sd), 20,
                mode == "deterministic")))
        for mode, r in (("deterministic", 20), ("fast", 20), ("relative", 60)):
            out.append(Call(f"cx_frobenius-{mode}", lambda mode=mode, r=r: self._cx(
                ms.cx_frobenius(A, k, r, mode=mode, seed=sd), r,
                mode == "deterministic")))
        for mode in ("spectral", "frobenius", "two_stage"):
            out.append(Call(f"cssp-{mode}", lambda mode=mode: self._cx(
                ms.cssp(A, k, mode=mode, seed=sd), k, False, exact=True)))
        return out

    def _frobenius_error(self, C):
        """||A - Q (Q^T A)_k||_F for Q an orthonormal basis of col(C)."""
        U, s, _ = np.linalg.svd(C, full_matrices=False)
        Q = U[:, s > s[0] * max(C.shape) * 2.2e-16]
        Ub, sb, Vbt = np.linalg.svd(Q.T @ self.A, full_matrices=False)
        t = min(self.k, sb.size)
        return float(np.linalg.norm(self.A - Q @ (Ub[:, :t] * sb[:t]) @ Vbt[:t]))

    def _cx(self, res, r, certified, exact=False):
        return lambda: self._check_cx(res, r, certified, exact)

    def _check_cx(self, res, r, certified, exact):
        A, plan = self.A, res.plan
        err_s, err_f = res.rank_k_error_spectral, res.rank_k_error_frobenius
        err_f_out = self._frobenius_error(res.C)
        err = err_s if res.norm == "spectral" else err_f
        base = self.sigma if res.norm == "spectral" else self.tail_f
        digest = _plan_bytes(plan) + repr((err_s, err_f)).encode()
        return _ok(err / base, digest, [
            (len(plan) != r if exact else len(plan) > r)
            and f"{len(plan)} columns for r={r}",
            not np.allclose(res.C, A[:, plan.indices] * plan.weights,
                            rtol=1e-12, atol=0)
            and "C is not the plan's weighted columns",
            not abs(err_f - err_f_out) <= 1e-6 * err_f_out
            and f"reported Frobenius error {err_f} != recomputed {err_f_out}",
            not err_s >= self.sigma * (1 - _TOL)
            and f"spectral error {err_s} below sigma_k+1",
            not err_f >= self.tail_f * (1 - _TOL)
            and f"Frobenius error {err_f} below ||A-A_k||_F",
            not err_s <= err_f * (1 + _TOL)
            and "spectral error exceeds Frobenius error",
            certified and not err <= res.bound_value * (1 + _TOL)
            and f"error {err} > certified bound {res.bound_value}",
        ])

    def _id(self, C, X, plan):
        return lambda: self._check_id(C, X, plan)

    def _check_id(self, C, X, plan):
        A, k, sel = self.A, self.k, plan.indices
        err_f = float(np.linalg.norm(A - C @ X))
        digest = _plan_bytes(plan) + X.tobytes() + repr(err_f).encode()
        return _ok(err_f / self.tail_f, digest, [
            len(plan) != k and f"{len(plan)} columns for k={k}",
            not np.array_equal(C, A[:, sel]) and "C is not the picked columns",
            not np.array_equal(X[:, sel], np.eye(k))
            and "X lacks the identity block",
            not np.abs(X).max() <= 2.0 * (1 + 1e-6)
            and f"max |X_ij| = {np.abs(X).max()} > 2",
            not err_f >= self.tail_f * (1 - _TOL)
            and "error below ||A-A_k||_F",
        ])


# ----------------------------------------------------------------- cli-files


def report_hash(report):
    """The CLI's documented determinism hash, recomputed from a report:
    SHA-256 of the canonical JSON without the hash and `*_seconds` keys."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if not k.endswith("_seconds")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    body = {k: v for k, v in report.items() if k != "determinism_hash"}
    canon = json.dumps(strip(body), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class CliFiles:
    """The user's path: matrix files on disk, one `matsketch` command each.

    Every call parses its input file again, so `mmio` leads; the rest is
    SRHT/FWHT, NNLS, Lloyd, power-iterated sketches and report hashing,
    which the other two workloads never run.
    """

    name = "cli-files"
    nominal_pass_s = 6.0

    def __init__(self, ms):
        self.ms = ms

    def setup(self, seed, workdir):
        ms = self.ms
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        g = np.random.default_rng([seed, 0])
        A = g.standard_normal((32768, 8))
        b = np.abs(A @ g.standard_normal(8) + 0.1 * g.standard_normal(32768))
        ms.save_matrix(self.dir / "ab.mtx", np.column_stack([A, b]))
        ms.save_matrix(self.dir / "lowrank.mtx",
                       ms.lowrank_plus_noise(800, 500, 5, 0.1, seed=seed))
        pts, _ = ms.blobs(4000, 60, 4, 10.0, seed=seed)
        ms.save_matrix(self.dir / "blobs.csv", pts, format="csv")

    def calls(self):
        d = self.dir
        ab, lr, bl = str(d / "ab.mtx"), str(d / "lowrank.mtx"), str(d / "blobs.csv")
        argvs = [
            ("kmeans-svd", ["kmeans", "-k", "4", "--eps", "0.3", "--method",
                            "svd", "--in", bl]),
            ("coreset-srht", ["coreset", "--method", "srht", "--mode",
                              "nonnegative", "--eps", "0.5", "-r", "2000",
                              "--trials", "20", "--in", ab]),
            ("coreset-subspace", ["coreset", "--method", "subspace", "--eps",
                                  "0.5", "-r", "2000", "--trials", "20",
                                  "--in", ab]),
            ("sketch-svd-spectral", ["sketch-svd", "-k", "5", "--mode",
                                     "spectral", "--trials", "10", "--in", lr]),
            ("sketch-svd-frobenius", ["sketch-svd", "-k", "5", "--mode",
                                      "frobenius", "--trials", "10",
                                      "--in", lr]),
            ("kmeans-rp", ["kmeans", "-k", "4", "--eps", "0.3", "--method",
                           "rp", "--c0", "1", "--in", bl]),
            ("kmeans-select", ["kmeans", "-k", "4", "--eps", "0.3", "--method",
                               "select", "--c0", "0.04", "--in", bl]),
            ("cx-frobenius-fast", ["cx", "frobenius", "--mode", "fast",
                                   "-k", "5", "-r", "20", "--in", lr]),
        ]
        return [Call(label, lambda label=label, argv=argv: self._one(label, argv))
                for label, argv in argvs]

    def _one(self, label, argv):
        out = self.dir / f"{label}.json"
        out.unlink(missing_ok=True)
        code = self.ms.cli.main(argv + ["--seed", str(self.seed), "--out", str(out)])
        return lambda: self._check(code, out)

    def _check(self, code, out):
        if code != 0:
            return Checked(False, f"exit code {code}", None, b"")
        try:
            rep = json.loads(out.read_text())
        except (OSError, ValueError) as e:
            return Checked(False, f"report unreadable: {e}", None, b"")
        h = rep.get("determinism_hash")
        res = rep.get("results", {})
        ratio = next((res[k] for k in ("mean_ratio", "mean_stat", "ratio")
                      if isinstance(res.get(k), float)), None)
        return _ok(ratio, str(h).encode(), [
            h != report_hash(rep) and "determinism_hash does not recompute",
            ratio is None and "report has no finite error ratio",
        ])


WORKLOADS = {w.name: w for w in (CoresetBarrier, CxDense, CliFiles)}
