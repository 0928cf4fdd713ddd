"""Least squares on a few reweighted rows instead of all of them.

A coreset is a small weighted row subset whose solution is almost as
good as the full solve, measured on the full data. The deterministic
builder certifies (1+eps) on every run through the measured distortion
kappa of its rows; the samplers trade that for speed and win with high
probability.
"""

import time

import numpy as np

from matsketch import RegressionProblem, build_coreset, evaluate_coreset

gen = np.random.default_rng(5)
m, n, eps = 6000, 3, 1.0 / 3.0
A = gen.standard_normal((m, n))
b = A @ gen.standard_normal(n) + 0.1 * gen.standard_normal(m)
p = RegressionProblem(A, b)

t0 = time.perf_counter()
# the builder stops at its first certified round, far short of the formula's
# 225(n+1)/eps^2 = 8100 steps: kappa bounds the ratio on every run
core = build_coreset(p, eps, method="barrier")
rep = evaluate_coreset(p, core)
print(f"barrier coreset: {rep['distinct_rows']} distinct rows of {m}, "
      f"ratio {rep['ratio']:.6f} <= kappa {rep['kappa']:.4f} <= {1 + eps:.4f} "
      f"after {rep['steps']} barrier steps "
      f"({time.perf_counter() - t0:.2f}s)")

for s in range(3):
    core = build_coreset(p, eps, method="subspace", delta=0.1, seed=s)
    rep = evaluate_coreset(p, core)
    print(f"leverage-score coreset seed {s}: {rep['coreset_rows']} rows, "
          f"ratio {rep['ratio']:.6f}")

# mixed rows: each kept row is a signed blend of all input rows
core = build_coreset(p, eps, method="srht", delta=0.1, seed=0, r_override=2000)
rep = evaluate_coreset(p, core)
print(f"hadamard-mixed coreset: {rep['coreset_rows']} rows, "
      f"ratio {rep['ratio']:.6f}")

# the same machinery under a nonnegativity constraint
q = RegressionProblem(A, b, constraint="nonnegative")
core = build_coreset(q, 0.5, method="barrier")
rep = evaluate_coreset(q, core)
print(f"nonnegative LS, eps=0.5: ratio {rep['ratio']:.6f} "
      f"<= kappa {rep['kappa']:.4f} <= 1.5 after {rep['steps']} steps")
