"""Exact-arithmetic tests of the soft-max matrix family."""

from fractions import Fraction

import numpy as np
import pytest

from softmech.smmatrix import (
    SoftMaxMatrix,
    build_softmax_matrix,
    harmonic,
    recursion_identity_exact,
)

F = Fraction


def column_sums_are_zero(sm: SoftMaxMatrix) -> bool:
    """Exact check that every column sums to zero, over a per-column common
    denominator (the lcm of the small denominators involved fits in int64)."""
    lcms = np.lcm.reduce(sm.den, axis=0)
    scaled = sm.num * (lcms // sm.den)
    return bool(np.all(scaled.sum(axis=0) == 0))


# the four d=4 instances, written out entry by entry
SM_1_4 = [[F(0)] * 4 for _ in range(4)]
SM_2_4 = [
    [F(1, 2), F(-1, 2), F(0), F(0)],
    [F(-1, 2), F(1, 2), F(0), F(0)],
    [F(0), F(0), F(0), F(0)],
    [F(0), F(0), F(0), F(0)],
]
SM_3_4 = [
    [F(2, 3), F(-1, 2), F(-1, 6), F(0)],
    [F(-1, 3), F(1, 2), F(-1, 6), F(0)],
    [F(-1, 3), F(0), F(1, 3), F(0)],
    [F(0), F(0), F(0), F(0)],
]
SM_4_4 = [
    [F(3, 4), F(-1, 2), F(-1, 6), F(-1, 12)],
    [F(-1, 4), F(1, 2), F(-1, 6), F(-1, 12)],
    [F(-1, 4), F(0), F(1, 3), F(-1, 12)],
    [F(-1, 4), F(0), F(0), F(1, 4)],
]


@pytest.mark.parametrize("k,expected", [(1, SM_1_4), (2, SM_2_4), (3, SM_3_4), (4, SM_4_4)])
def test_d4_matrices_exact(k, expected):
    assert build_softmax_matrix(k, 4).as_fractions() == expected


def test_padding_is_zero():
    sm = build_softmax_matrix(3, 6)
    f = sm.to_float()
    assert np.all(f[3:, :] == 0.0)
    assert np.all(f[:, 3:] == 0.0)
    assert sm.as_fractions()[0][:3] == SM_3_4[0][:3]


def test_k1_is_zero_matrix():
    sm = build_softmax_matrix(1, 7)
    assert np.all(sm.num == 0)
    assert np.all(sm.den == 1)


def test_entries_are_reduced():
    for k, d in [(5, 5), (8, 12), (13, 20)]:
        sm = build_softmax_matrix(k, d)
        g = np.gcd(np.abs(sm.num), sm.den)
        assert np.all(g[sm.num != 0] == 1)
        assert np.all(sm.den > 0)


def test_column_sums_zero_exact():
    for d in range(2, 17):
        for k in range(1, d + 1):
            assert column_sums_are_zero(build_softmax_matrix(k, d))


def test_row_sums_zero():
    # the matrices annihilate the all-ones direction, which is what makes the
    # selector translation invariant
    for k, d in [(2, 2), (4, 4), (7, 11), (16, 16)]:
        f = build_softmax_matrix(k, d).to_float()
        assert np.allclose(f @ np.ones(d), 0.0, atol=1e-15)


def test_recursion_identity_smoke():
    for d in range(2, 17):
        for k in range(2, d + 1):
            assert recursion_identity_exact(k, d)


def test_recursion_identity_numeric_oracle():
    # float cross-check of the exact identity at one size
    k, d = 5, 8
    big = build_softmax_matrix(k, d).to_float()
    small = build_softmax_matrix(k - 1, d).to_float()
    shift = np.eye(d)
    shift[k - 1, 0] += 1.0
    shift[k - 1, k - 1] -= 1.0
    assert np.allclose(big @ shift, small, atol=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        build_softmax_matrix(0, 4)
    with pytest.raises(ValueError):
        build_softmax_matrix(5, 4)
    with pytest.raises(ValueError):
        recursion_identity_exact(1, 4)


def test_harmonic():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert abs(harmonic(4) - 25 / 12) < 1e-15
