"""Gaussian, sign, and Hadamard sketches: distributional and isometry checks."""

import math

import numpy as np
import pytest

from matsketch import (ArgumentError, fwht, gaussian_sketch, pseudo_inverse,
                       rng, sign_sketch, srht_rows)
from matsketch.synthetic import random_orthonormal

from conftest import rand


# ---------------------------------------------------------------------------
# gaussian_sketch


def test_gaussian_zero_input_gives_zero():
    out = gaussian_sketch(np.zeros((4, 6)), 3, seed=1)
    assert out.shape == (4, 3)
    np.testing.assert_array_equal(out, 0.0)


def test_gaussian_identity_input_reproduces_operator():
    # sketch(A) = A R with the same R that sketch(I) returns for this seed
    R = gaussian_sketch(np.eye(6), 4, seed=9)
    A = rand(2).normal(size=(5, 6))
    np.testing.assert_allclose(gaussian_sketch(A, 4, seed=9), A @ R, atol=1e-12)


def test_gaussian_output_stays_in_column_space():
    g = rand(3)
    A = g.normal(size=(50, 8)) @ g.normal(size=(8, 30))
    Y = gaussian_sketch(A, 10, seed=4)
    Q = np.linalg.qr(A)[0][:, :8]
    resid = Y - Q @ (Q.T @ Y)
    assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(Y)


def test_gaussian_rejects_bad_width():
    with pytest.raises(ArgumentError):
        gaussian_sketch(np.eye(3), 0, seed=0)


# ---------------------------------------------------------------------------
# sign_sketch


def test_sign_entries_on_one_hot_row():
    A = np.zeros((1, 5))
    A[0, 2] = 1.0
    out = sign_sketch(A, 8, seed=7)
    np.testing.assert_allclose(np.abs(out), 1.0 / math.sqrt(8))


def test_sign_preserves_frobenius_norm_on_average():
    X = rand(11).normal(size=(20, 40))
    target = np.linalg.norm(X) ** 2
    vals = [np.linalg.norm(sign_sketch(X, 8, seed=s)) ** 2 for s in range(200)]
    assert abs(np.mean(vals) - target) <= 0.05 * target


def test_sign_near_isometry_on_orthonormal_columns():
    # r = c0 k / eps^2 with k=3, eps=1/3, c0=100
    k, eps, r = 3, 1.0 / 3.0, 2700
    ok = 0
    for s in range(100):
        V = random_orthonormal(40, k, seed=1000 + s)
        VR = sign_sketch(V.T, r, seed=s)
        sv = np.linalg.svd(VR, compute_uv=False)
        ok += bool(np.all(sv >= 1 - eps) and np.all(sv <= 1 + eps))
    assert ok >= 95


def test_sign_matrix_multiplication_bound():
    g = rand(15)
    X = g.normal(size=(10, 30))
    Y = g.normal(size=(30, 7))
    r = 12
    bound = (2.0 / r) * np.linalg.norm(X) ** 2 * np.linalg.norm(Y) ** 2
    errs = []
    for s in range(300):
        XR = sign_sketch(X, r, seed=s)
        RtY = sign_sketch(Y.T, r, seed=s).T  # same operator, applied left
        errs.append(np.linalg.norm(X @ Y - XR @ RtY) ** 2)
    assert np.mean(errs) <= bound * 1.1


def test_sign_pinv_close_to_transpose_when_premise_holds():
    # whenever all singular values land in [1-eps, 1+eps] the pseudo-inverse
    # is within 3 eps of the transpose
    k, eps, r = 3, 1.0 / 3.0, 2700
    checked = 0
    for s in range(20):
        V = random_orthonormal(40, k, seed=2000 + s)
        VR = sign_sketch(V.T, r, seed=s)
        sv = np.linalg.svd(VR, compute_uv=False)
        if np.all(sv >= 1 - eps) and np.all(sv <= 1 + eps):
            gap = np.linalg.norm(pseudo_inverse(VR) - VR.T, 2)
            assert gap <= 3 * eps
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# fwht / srht_rows


def test_fwht_is_an_isometry():
    g = rand(16)
    for m in [1, 2, 8, 64, 1024]:
        x = g.normal(size=m)
        assert np.linalg.norm(fwht(x)) == pytest.approx(
            np.linalg.norm(x), rel=1e-12
        )


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ArgumentError):
        fwht(np.ones(6))


def test_fwht_matches_explicit_hadamard():
    H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    H4 = np.kron(H2, H2)
    X = rand(17).normal(size=(4, 3))
    np.testing.assert_allclose(fwht(X), H4 @ X, atol=1e-12)


def test_fwht_leaves_its_input_unwritten():
    X = rand(19).normal(size=(16, 3))
    X0 = X.copy()
    for x in (X, X[:, 1]):
        fwht(x)
    assert X.tobytes() == X0.tobytes()


def _old_fwht(Y):
    """The butterfly as it was: a fresh copy of each level's top half."""
    n, h = Y.shape[0], 1
    while h < n:
        B = Y.reshape(n // (2 * h), 2, h, -1)
        a = B[:, 0].copy()
        B[:, 0] += B[:, 1]
        np.subtract(a, B[:, 1], out=B[:, 1])
        h *= 2
    Y /= math.sqrt(n)


def _old_srht_rows(A, b, r, seed, pad=None):
    """srht_rows as the hstack -> zero pad -> sign flip -> fwht chain of
    copies it was, for the bytes its outputs must keep; pad, if given,
    overwrites the sign-flipped padding rows."""
    m = A.shape[0]
    m_pad = 1 << max(0, (m - 1).bit_length())
    gen = rng.stream(seed, rng.SRHT)
    signs = 2.0 * gen.integers(0, 2, size=m_pad) - 1.0
    idx = gen.integers(0, m_pad, size=int(r))
    scale = math.sqrt(m_pad / r)
    stack = A if b is None else np.hstack([A, b.reshape(-1, 1)])
    padded = np.zeros((m_pad, stack.shape[1]))
    padded[:m] = stack
    mixed = padded * signs.reshape(-1, 1)
    if pad is not None:
        mixed[m:] = pad
    _old_fwht(mixed)
    sk = mixed[idx] * scale
    return (sk, None, idx) if b is None else (sk[:, :-1], sk[:, -1].copy(), idx)


@pytest.mark.parametrize("m", [256, 257, 300])
@pytest.mark.parametrize("with_b", [False, True])
def test_srht_rows_keep_the_bytes_of_the_copying_chain(m, with_b):
    # A's zero column sums only signed zeros, so its bytes can see whether
    # the padding rows are 0 * sign (-0.0 under a negative sign): at
    # m = 257 and seed 9 they do, in two of the 512 rows
    g = rand(20)
    A = g.normal(size=(m, 4))
    A[:, 2] = 0.0
    b = g.normal(size=m) if with_b else None
    r = 1 << (m - 1).bit_length()
    got = srht_rows(A, b, r, seed=9)
    want = _old_srht_rows(A, b, r, seed=9)
    assert got[0].tobytes() == want[0].tobytes()
    assert with_b == (got[1] is not None)
    if with_b:
        assert got[1].tobytes() == want[1].tobytes()
    assert np.array_equal(got[2].indices, want[2])
    if m == 257:
        unsigned = _old_srht_rows(A, b, r, seed=9, pad=0.0)
        assert unsigned[0].tobytes() != want[0].tobytes()


def test_srht_rows_refuse_b_of_another_length():
    with pytest.raises(ArgumentError, match="b has length 9, expected 10"):
        srht_rows(np.ones((10, 2)), np.ones(9), 4, seed=0)


def test_srht_single_row_is_trivial():
    A = np.array([[3.0, -1.0]])
    sk, none, plan = srht_rows(A, None, 1, seed=5)
    assert none is None
    np.testing.assert_allclose(np.abs(sk), np.abs(A))  # H_1 = 1, D = +-1
    assert len(plan) == 1


def test_srht_sketches_b_with_same_rows():
    g = rand(18)
    A = g.normal(size=(10, 3))
    b = g.normal(size=10)
    skA, skb, plan = srht_rows(A, b, 6, seed=8)
    skAB, _, _ = srht_rows(np.hstack([A, b.reshape(-1, 1)]), None, 6, seed=8)
    np.testing.assert_allclose(np.hstack([skA, skb.reshape(-1, 1)]), skAB)


def test_srht_preserves_orthonormal_singular_values():
    m, k, r = 1024, 4, 400
    delta = 0.1
    width = math.sqrt(8 * k * math.log(2 * k / delta) * math.log2(40 * k * m) / r)
    ok = 0
    for s in range(100):
        U = random_orthonormal(m, k, seed=3000 + s)
        sk, _, _ = srht_rows(U, None, r, seed=s)
        sv2 = np.linalg.svd(sk, compute_uv=False) ** 2
        ok += bool(np.all(sv2 >= 1 - width) and np.all(sv2 <= 1 + width))
    assert ok >= 90


def test_srht_rejects_oversampling_beyond_padded_dim():
    with pytest.raises(ArgumentError):
        srht_rows(np.ones((3, 2)), None, 5, seed=0)  # m_pad = 4 < r
