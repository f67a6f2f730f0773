"""Exact construction of the zero-column-sum matrices behind the piecewise-linear soft-max.

The matrix family with active count k inside dimension d is

    entry (1,1)          = (k-1)/k
    entry (i,i)          = 1/i            for 2 <= i <= k
    entry (i,1)          = -1/k           for 2 <= i <= k
    entry (i,j)          = -1/(j(j-1))    for j > i, 2 <= j <= k
    everything else      = 0

(1-based indices; the nonzero off-diagonal entries sit strictly above the
diagonal, as the d=4 instances make unambiguous).  Every column sums to zero,
so adding the uniform prefix vector to (1/delta) * matrix * sorted-values
yields a probability vector.

Entries are stored as reduced integer ratios (int64 numerator/denominator
arrays) so identities such as the active-count recursion can be checked
exactly; float conversion happens only at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class SoftMaxMatrix:
    """A d x d matrix with exact rational entries num/den (den > 0, reduced)."""

    k: int
    d: int
    num: np.ndarray
    den: np.ndarray

    def to_float(self) -> np.ndarray:
        return self.num / self.den

    def fraction(self, i: int, j: int) -> Fraction:
        """Exact entry at 0-based position (i, j)."""
        return Fraction(int(self.num[i, j]), int(self.den[i, j]))

    def as_fractions(self) -> list[list[Fraction]]:
        return [[self.fraction(i, j) for j in range(self.d)] for i in range(self.d)]


def build_softmax_matrix(k: int, d: int) -> SoftMaxMatrix:
    """Exact rational matrix for active count k in dimension d.

    k=1 gives the zero matrix.  Raises ValueError unless 1 <= k <= d.
    """
    if not isinstance(k, (int, np.integer)) or not isinstance(d, (int, np.integer)):
        raise ValueError("k and d must be integers")
    if d < 1 or k < 1 or k > d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    num = np.zeros((d, d), dtype=np.int64)
    den = np.ones((d, d), dtype=np.int64)
    if k >= 2:
        # strictly-above-diagonal block: -1/(j(j-1)) in 1-based column j
        r, c = np.triu_indices(k, k=1)
        num[r, c] = -1
        den[r, c] = (c + 1) * c
        diag = np.arange(1, k)
        num[diag, diag] = 1
        den[diag, diag] = diag + 1
        num[diag, 0] = -1
        den[diag, 0] = k
    num[0, 0] = k - 1
    den[0, 0] = k if k > 1 else 1
    # all entries above are already in lowest terms with positive denominators
    num.setflags(write=False)
    den.setflags(write=False)
    return SoftMaxMatrix(k=int(k), d=int(d), num=num, den=den)


def _rat_add(n1, d1, n2, d2):
    """Reduced sum of two rational arrays (elementwise)."""
    n = n1 * d2 + n2 * d1
    dd = d1 * d2
    g = np.gcd(np.abs(n), dd)
    g = np.where(g == 0, 1, g)
    return n // g, dd // g


def recursion_identity_exact(k: int, d: int) -> bool:
    """Exactly verify that dropping the k-th active coordinate reduces the matrix.

    Right-multiplying the k-matrix by (I + E_{k,1} - E_{k,k}) adds column k
    into column 1 and zeroes column k; the result must equal the (k-1)-matrix
    entry for entry in rational arithmetic.  Requires 2 <= k <= d.
    """
    if k < 2 or k > d:
        raise ValueError(f"need 2 <= k <= d, got k={k}, d={d}")
    big = build_softmax_matrix(k, d)
    small = build_softmax_matrix(k - 1, d)
    num = big.num.copy()
    den = big.den.copy()
    j = k - 1  # 0-based index of the column being folded away
    num[:, 0], den[:, 0] = _rat_add(num[:, 0], den[:, 0], num[:, j], den[:, j])
    num[:, j] = 0
    den[:, j] = 1
    return bool(np.array_equal(num, small.num) and np.array_equal(den, small.den))


def harmonic(k: int) -> float:
    """k-th harmonic number."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(np.sum(1.0 / np.arange(1, k + 1))) if k else 0.0
