"""Shared helpers for the test suite."""

import hashlib
import os
import pathlib

import numpy as np

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def rand(seed):
    """Test-local generator, independent of the package streams."""
    return np.random.default_rng(seed)


def digest(*arrays):
    """Stable fingerprint of a tuple of float arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def plan_digest(plan):
    return digest(plan.indices.astype(float), plan.weights)


def src_env():
    """The environment with the checkout's src/ first on PYTHONPATH, so a
    child Python imports the package under test, installed or not."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + os.pathsep + old if old else SRC
    return env
