"""Input validation for value vectors and probability-simplex points."""

from __future__ import annotations

import numpy as np

NEGATIVE_CLAMP = 1e-12
SUM_TOLERANCE = 1e-9
SUPPORT_EPS = 1e-12


def as_values(x, *, positive: bool = False) -> np.ndarray:
    """Validate and return a 1-D float vector of option values.

    Raises ValueError on non-finite entries, and on non-positive entries when
    ``positive`` is set (the multiplicative-mode mechanisms need x > 0).
    """
    return value_range(x, positive=positive)[0]


def value_range(x, *, positive: bool = False) -> tuple[np.ndarray, float, float]:
    """:func:`as_values`, also giving the vector's min and max as Python
    floats, which the checks find anyway."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    lo, hi = _checked_range(v, positive)
    return v, lo, hi


def as_value_rows(x, *, positive: bool = False) -> np.ndarray:
    """Validate and return an (n, d) float array whose rows are value vectors.

    Every row gets :func:`as_values`' checks, with the same exceptions.
    """
    return value_rows_range(x, positive=positive)[0]


def value_rows_range(x, *, positive: bool = False) -> tuple[np.ndarray, float, float]:
    """:func:`as_value_rows`, also giving the min and max over all rows as
    Python floats (inf and -inf for no rows)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected rows of values, got shape {v.shape}")
    lo, hi = _checked_range(v, positive)
    return v, lo, hi


_INF = np.inf
_min_of, _max_of = np.minimum.reduce, np.maximum.reduce


def _checked_range(v: np.ndarray, positive: bool) -> tuple[float, float]:
    # the ufunc reductions are called directly, bound once: on small vectors
    # the method and function wrappers around them, and even the attribute
    # lookups, cost a good part of the reduction.  The values are finite
    # exactly when their min and max are (a nan propagates to both).  An
    # array of no rows has the range (inf, -inf).
    if v.shape[-1] < 1:
        raise ValueError("value vector must be non-empty")
    if not v.size:
        return _INF, -_INF
    lo = float(_min_of(v, None))
    hi = float(_max_of(v, None))
    if not (-_INF < lo and hi < _INF):
        raise ValueError("value vector must be finite")
    if positive and not lo > 0:
        raise ValueError("value vector must be strictly positive")
    return lo, hi


def finalize_distribution(raw: np.ndarray) -> np.ndarray:
    """Clamp rounding residue and renormalize a near-simplex vector.

    Entries in (-1e-12, 0) are set to 0 and the vector is renormalized; any
    entry at or below -1e-12 indicates a real bug and raises AssertionError.
    """
    p = np.asarray(raw, dtype=float)
    p = clamp_residue(p, np.minimum.reduce(p, None) if p.size else 0.0)  # an empty p fails the sum check
    return p / checked_total(p)


def clamp_residue(p: np.ndarray, low) -> np.ndarray:
    """:func:`finalize_distribution`'s clamp of p, given its minimum low:
    AssertionError at or below -NEGATIVE_CLAMP, p itself when nothing is
    negative, else a copy with the negative entries set to 0."""
    if low <= -NEGATIVE_CLAMP:
        raise AssertionError(f"distribution entry {low} below clamping range")
    return np.where(p < 0.0, 0.0, p) if low < 0.0 else p


def checked_total(p: np.ndarray):
    """The sum of all of p's entries, numpy's pairwise sum in index order;
    AssertionError unless it is positive and finite."""
    total = np.add.reduce(p, None)
    if not 0.0 < total < np.inf:
        raise AssertionError(f"distribution sums to {total}")
    return total


def finalize_rows(raw: np.ndarray) -> np.ndarray:
    """:func:`finalize_distribution` applied to each row of an (n, d) array.

    The same clamp, the same AssertionError checks, and per row the same
    sum, so each row equals the 1-D result bit for bit.
    """
    p = np.asarray(raw, dtype=float)
    low = p.min(axis=1, initial=0.0)
    if (low <= -NEGATIVE_CLAMP).any():
        raise AssertionError(f"distribution entry {low[low <= -NEGATIVE_CLAMP][0]} below clamping range")
    if (low < 0.0).any():
        p = np.where(p < 0.0, 0.0, p)
    total = p.sum(axis=1, keepdims=True)
    bad = ~(np.isfinite(total) & (total > 0.0))
    if bad.any():
        raise AssertionError(f"distribution sums to {total[bad][0]}")
    return p / total


def distribution_rows_ok(p) -> np.ndarray:
    """Per row of an (n, d) array, whether :func:`check_distribution` would
    accept that row."""
    q = np.asarray(p, dtype=float)
    finite = np.isfinite(q).all(axis=1)
    with np.errstate(invalid="ignore"):
        lowest = q.min(axis=1, initial=np.inf)  # a row of width 0 sums to 0 and is refused
        return finite & (lowest >= -NEGATIVE_CLAMP) & (np.abs(q.sum(axis=1) - 1.0) <= SUM_TOLERANCE)


def check_distribution(p) -> np.ndarray:
    """Validate a simplex point: entries >= -NEGATIVE_CLAMP and total within
    SUM_TOLERANCE of 1."""
    q = np.asarray(p, dtype=float)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("distribution must be a non-empty 1-D vector")
    if not np.isfinite(q).all():
        raise ValueError("distribution must be finite")
    if q.min() < -NEGATIVE_CLAMP:
        raise ValueError(f"distribution entry {q.min()} is negative beyond tolerance")
    if abs(q.sum() - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"distribution sums to {q.sum()}, not 1")
    return q
