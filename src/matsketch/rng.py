"""Seeding scheme shared by every randomized operation.

All randomness comes from Philox, a counter-based generator, keyed by
(user seed; operation tag, extra indices...). Distinct tags give provably
disjoint streams, so a composite algorithm can hand the same user seed to
several primitives without collisions, and results never depend on call
order. Matrices are drawn row-major in a single vectorized call.
"""

import numpy as np

# one tag per randomized operation; values are part of the reproducibility
# contract (changing them changes every seeded result)
GAUSSIAN = 1
SIGN = 2
SRHT = 3
ADDITIVE = 4
ADAPTIVE = 5
SUBSPACE = 6
TRIAL = 7
LLOYD = 8
SYNTH = 9
FAST_SVD = 10
CSSP = 11
CORESET = 12
KMEANS = 13
SUITE = 14
TOP_K = 15

_MASK64 = (1 << 64) - 1


def stream(seed, *key):
    """Generator for the stream identified by (seed; key)."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=tuple(int(t) & _MASK64 for t in key)
    )
    return np.random.Generator(np.random.Philox(seed=ss))


def derive_seed(seed, *key):
    """Collapse (seed; key) to a fresh 64-bit seed for a sub-operation."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=tuple(int(t) & _MASK64 for t in key)
    )
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])
