"""Soft-max mechanisms: maps from option values to distributions over options.

Four smooth selectors plus a sparse baseline:

* ``exp_mechanism``   -- weights proportional to exp(lambda * value); translation invariant.
* ``power_mechanism`` -- weights proportional to value**lambda; scale invariant.
* ``plsoftmax``       -- piecewise-linear selector: the zero-column-sum
  matrices of :mod:`softmech.smmatrix` applied by an O(k) sorted-piece
  kernel; every option it can return is within ``delta`` of the maximum value.
* ``log_plsoftmax``   -- ``plsoftmax`` on log-values; multiplicative guarantee.
* ``sparsemax``       -- Euclidean projection onto the simplex.

Approximation diagnostics (``additive_gap``, ``multiplicative_gap``,
``worst_case_support_ok``) quantify how much value each selector gives up.
All functions are pure; randomness never enters this module.  The 1-D
selectors call numpy's ufuncs directly: on small vectors wrappers such as
v.max() cost as much as the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distances import parse_metric_id, pq_bound_factor
from .simplex import (SUPPORT_EPS, as_value_rows, as_values, finalize_distribution, finalize_rows, value_range,
                      value_rows_range)
from .smmatrix import harmonic


_RANK_TABLE_START = 64
_rank_tables_now = (np.ones(1), np.empty(0))


def _rank_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranks 1, 2, ..., m and the pair products (j + 1) j for
    j = 1, ..., m - 1 (m >= 1), as float views of module tables that grow by
    doubling: the divisors of the sorted-piece kernel and of sparsemax's
    threshold.  Every entry is an integer below 2**53 for m up to about 9e7,
    so a quotient by these views equals the quotient by the integer
    np.arange they replace."""
    global _rank_tables_now
    ranks, pairs = _rank_tables_now
    if m > ranks.size:
        n = ranks.size
        while n < m:
            n *= 2
        ranks = np.arange(1.0, n + 1.0)
        pairs = ranks[1:] * ranks[:-1]
        _rank_tables_now = ranks, pairs
    return ranks[:m], pairs[: m - 1]


_rank_tables(_RANK_TABLE_START)


def _check_param(value: float, name: str) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


# A spread of values past the float range sends the far entries of v - max
# to -inf, where every selector gives weight 0.  numpy's overflow warning is
# silenced in that case only, because errstate costs about a microsecond per
# call.  The spread (hi - lo over all the values checked) bounds every row's.


# Bound on |math.log(y) - np.log(y)| summed over both ends of a log spread:
# each is within a few ulp of log(y), and |log(y)| < 745.
_LOG_SLACK = 1e-9


def _less_max(v: np.ndarray, top, spread: float) -> np.ndarray:
    """v - top, top being v's max (per row for rows)."""
    if spread < np.inf:
        return v - top
    with np.errstate(over="ignore"):
        return v - top


def _exp_weights(v: np.ndarray, top, lam: float, spread: float) -> np.ndarray:
    """exp(lam * (v - top)), top being v's max (per row for rows)."""
    if float(lam) * spread < np.inf:
        return np.exp(lam * (v - top))
    with np.errstate(over="ignore"):
        return np.exp(lam * (v - top))


def exp_mechanism(x, lam: float) -> np.ndarray:
    """Normalized exp(lam * x).  The max is subtracted first, which is exact
    by translation invariance and keeps the exponentials in range."""
    v, lo, hi = value_range(x)
    _check_param(lam, "lambda")
    w = _exp_weights(v, hi, lam, hi - lo)
    return w / np.add.reduce(w)


def _exp_rows(x, lam: float) -> np.ndarray:
    v, lo, hi = value_rows_range(x)
    _check_param(lam, "lambda")
    w = _exp_weights(v, v.max(axis=1, keepdims=True), lam, hi - lo)
    return w / w.sum(axis=1, keepdims=True)


def power_mechanism(x, lam: float) -> np.ndarray:
    """Normalized x**lam for nonnegative x with at least one positive entry.

    0**lam is taken as 0.  Evaluated through logs of the positive entries so
    large powers do not overflow.
    """
    v, lo, hi = value_range(x)
    _check_param(lam, "lambda")
    if lo < 0:
        raise ValueError("power mechanism needs nonnegative values")
    if lo > 0:  # no zeros to mask
        logs = np.log(v)
        # the log spread from the range; math.log and np.log may differ in
        # the last bits, which _LOG_SLACK covers
        w = _exp_weights(logs, np.maximum.reduce(logs), lam, math.log(hi) - math.log(lo) + _LOG_SLACK)
        return w / np.add.reduce(w)
    pos = v > 0
    logs = np.log(v[pos])
    if not logs.size:
        raise ValueError("power mechanism needs at least one positive value")
    top = np.maximum.reduce(logs)
    w = np.zeros(v.size)
    w[pos] = _exp_weights(logs, top, lam, float(top - np.minimum.reduce(logs)))
    return w / np.add.reduce(w)


def _power_rows(x, lam: float) -> np.ndarray:
    v = as_value_rows(x)
    _check_param(lam, "lambda")
    if (v < 0).any():
        raise ValueError("power mechanism needs nonnegative values")
    if not (v > 0).any(axis=1).all():
        raise ValueError("power mechanism needs at least one positive value")
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(v)  # -inf at the zeros, which exp maps back to 0
        w = np.exp(lam * (logs - logs.max(axis=1, keepdims=True)))
    return w / w.sum(axis=1, keepdims=True)


def _piece_apply(xs: np.ndarray, k) -> np.ndarray:
    """The k-active matrix A_k applied along the last axis of values in rank
    order, in float.

    Computes A_k (xs - xs[0]), which equals A_k xs because every row of A_k
    sums to zero; shifting first keeps the sums small at large offsets.  With
    t = xs - xs[0], entry i < k is t[i]/(i+1) - sum_{j=i+1..k-1} t[j] / ((j+1) j),
    a suffix sum in O(k).  Entries at and beyond k are zero.

    For one vector, or (n, d) rows that share one count, k is an int and the
    work is O(k) slices of each row.  For (n, d) rows k may also be an (n, 1)
    array of per-row counts: the work covers the first max(k) columns, with
    each row's t masked to zero beyond its own k, so every sum gains only
    leading zeros.  Either way each row equals the 1-D result bit for bit.
    """
    if isinstance(k, np.ndarray):
        m = int(np.maximum.reduce(k, None, initial=1))  # 1 for a block of no rows
        ranks, pairs = _rank_tables(m)
        t = np.where(ranks <= k, xs[:, :m] - xs[:, :1], 0.0)
    else:
        m = k
        ranks, pairs = _rank_tables(m)
        t = xs[:m] - xs[0] if xs.ndim == 1 else xs[:, :m] - xs[:, :1]
    y = np.zeros(xs.shape)
    y[..., :m] = t / ranks
    y[..., : m - 1] -= np.add.accumulate((t[..., 1:] / pairs)[..., ::-1], -1)[..., ::-1]
    return y


def _piece_apply_transpose(rs: np.ndarray, k: int) -> np.ndarray:
    """A_k^T applied to a vector in rank order, by a prefix sum in O(k).

    Entry 0 is rs[0] - sum_{i<k} rs[i]/k; entry j in 1..k-1 is
    rs[j]/(j+1) - sum_{i<j} rs[i] / ((j+1) j).  Entries at and beyond k are zero.
    """
    y = np.zeros(rs.size)
    head = rs[:k]
    ranks = _rank_tables(k)[0]
    y[0] = head[0] - np.add.reduce(head) / k
    y[1:k] = (head[1:] - np.add.accumulate(head[:-1]) / ranks[:-1]) / ranks[1:]
    return y


def plsoftmax(x, delta: float) -> np.ndarray:
    """Piecewise-linear soft-max with worst-case additive slack delta.

    Only the k entries within delta of the max can carry weight, so only
    they are sorted: O(d + k log k).  The exact k-active matrix scaled by
    1/delta is applied to them in rank order, the uniform prefix 1/k is
    added, and the result is scattered back; every other entry is 0.  The
    stable sort of the active entries gives them the order they take in a
    stable sort of all of x.  Everything works on x - max(x), so the result
    for x and for x - max(x) is the same to the last bit.
    """
    v, lo, hi = value_range(x)
    return _plsoftmax(_less_max(v, hi, hi - lo), delta)


def _plsoftmax(v: np.ndarray, delta: float) -> np.ndarray:
    """plsoftmax on a checked value vector less its max."""
    _check_param(delta, "delta")
    active = (v >= -delta).nonzero()[0]
    order = active[(-v[active]).argsort(kind="stable")]
    k = order.size
    f_sorted = _piece_apply(v[order], k) / delta
    f_sorted += 1.0 / k
    out = np.zeros(v.size)
    out[order] = f_sorted
    return finalize_distribution(out)


def _plsoftmax_rows(x, delta: float) -> np.ndarray:
    v, lo, hi = value_rows_range(x)
    _check_param(delta, "delta")
    v = _less_max(v, v.max(axis=1, keepdims=True), hi - lo)
    order = np.argsort(-v, axis=1, kind="stable")
    xs = np.take_along_axis(v, order, axis=1)
    k = np.count_nonzero(xs[:, :1] - xs <= delta, axis=1, keepdims=True)
    f_sorted = _piece_apply(xs, k) / delta
    np.add(f_sorted, 1.0 / k, out=f_sorted, where=_rank_tables(v.shape[1])[0] <= k)
    out = np.empty_like(v)
    np.put_along_axis(out, order, f_sorted, axis=1)
    return finalize_rows(out)


def log_plsoftmax(x, delta: float) -> np.ndarray:
    """plsoftmax on coordinatewise logs; needs strictly positive values.

    Worst-case multiplicative slack is 1 - exp(-delta) <= delta; see
    :func:`multiplicative_guarantee`.
    """
    logs = np.log(as_values(x, positive=True))
    return _plsoftmax(logs - np.maximum.reduce(logs), delta)


def _log_plsoftmax_rows(x, delta: float) -> np.ndarray:
    return _plsoftmax_rows(np.log(as_value_rows(x, positive=True)), delta)


def multiplicative_guarantee(delta: float) -> float:
    """Worst-case multiplicative slack of a log-domain selector with additive
    slack delta: 1 - exp(-delta).  Reported in diagnostics rather than the
    looser bound delta itself."""
    _check_param(delta, "delta")
    return float(-np.expm1(-delta))


def sparsemax(x) -> np.ndarray:
    """Euclidean projection of x onto the probability simplex.

    The threshold tau is at least max - 1, so no entry at or below max - 1
    is in the support; sort-and-threshold runs over the k entries above it
    only, O(d + k log k): find the largest prefix whose shifted values stay
    positive, subtract the prefix threshold, clip at zero.  The max is
    subtracted first, which is exact by translation invariance and keeps the
    prefix sums from overflowing.
    """
    v, lo, hi = value_range(x)
    v = _less_max(v, hi, hi - lo)
    z = v[v > -1.0]
    z.sort()
    z = z[::-1]
    cssv = np.add.accumulate(z) - 1.0
    rho = int(np.count_nonzero(z - cssv / _rank_tables(z.size)[0] > 0))
    tau = cssv[rho - 1] / rho
    return finalize_distribution(np.maximum(v - tau, 0.0))


def _sparsemax_rows(x) -> np.ndarray:
    v, lo, hi = value_rows_range(x)
    v = _less_max(v, v.max(axis=1, keepdims=True), hi - lo)
    # entries at or below max - 1 are never in the support; clamped to -1 they
    # leave every prefix sum the threshold reads unchanged and cannot overflow
    z = np.maximum(np.sort(v, axis=1)[:, ::-1], -1.0)
    cssv = np.add.accumulate(z, 1) - 1.0
    rho = np.count_nonzero((z - cssv / _rank_tables(v.shape[1])[0] > 0) & (z > -1.0), axis=1, keepdims=True)
    tau = np.take_along_axis(cssv, rho - 1, axis=1) / rho
    return finalize_rows(np.maximum(v - tau, 0.0))


def additive_gap(x, p) -> float:
    """max(x) minus the expected value under p."""
    v = as_values(x)
    q = np.asarray(p, dtype=float)
    if q.shape != v.shape:
        raise ValueError("dimension mismatch")
    return float(v.max() - v @ q)


def multiplicative_gap(x, p) -> float:
    """1 - (expected value under p) / max(x); needs a positive maximum."""
    v = as_values(x)
    q = np.asarray(p, dtype=float)
    if q.shape != v.shape:
        raise ValueError("dimension mismatch")
    mx = v.max()
    if mx <= 0:
        raise ValueError("multiplicative gap needs a positive maximum value")
    return float(1.0 - (v @ q) / mx)


_SUPPORT_SLACK = 1e-9  # rounding allowed below max - delta


def worst_case_support_ok(x, p, delta: float) -> bool:
    """True iff every coordinate carrying probability is within delta of the max."""
    v = as_values(x)
    q = np.asarray(p, dtype=float)
    if q.shape != v.shape:
        raise ValueError("dimension mismatch")
    support = q > SUPPORT_EPS
    return bool((v[support] >= v.max() - delta - _SUPPORT_SLACK).all())


class MechanismKind(NamedTuple):
    """One mechanism kind: its function of (x, param); its row form, a
    function of (X, param) mapping (n, d) value rows to (n, d) distribution
    rows, each equal bit for bit to the function on that row and raising the
    same exception types; the name of its positive parameter (None if it
    takes none); and whether it needs positive values, which for these kinds
    is the same as being scale invariant.

    The rest are the kind's claims, each on the kind's own domain: values
    measured in log-lp when positive_domain is true, in lp otherwise.
    lipschitz is the proven Lipschitz constant into an l_q range as a
    function of (param, p, q_or_alpha, cap), where cap bounds the
    dimension-dependent term (or is inf for a dimension-free constant), or
    None if no constant is proven; renyi is true when that constant also
    holds into every Renyi range order; worst_case is true when every option
    with weight is within param of the maximum value."""

    function: Callable[[np.ndarray, float | None], np.ndarray]
    rows: Callable[[np.ndarray, float | None], np.ndarray]
    param: str | None
    positive_domain: bool
    lipschitz: Callable[[float, float, float, float], float] | None = None
    renyi: bool = False
    worst_case: bool = False


def _exp_lipschitz(lam: float, p: float, q: float, cap: float) -> float:
    return 2.0 * lam


def _pl_lipschitz(delta: float, p: float, q: float, cap: float) -> float:
    return (2.0 / delta) * pq_bound_factor(p, q, cap)


# pow is exp on log values and logplsoftmax is plsoftmax on log values, so
# each carries its linear twin's claims on the log domain
MECHANISM_KINDS = {
    "exp": MechanismKind(exp_mechanism, _exp_rows, "lambda", False, _exp_lipschitz, renyi=True),
    "pow": MechanismKind(power_mechanism, _power_rows, "lambda", True, _exp_lipschitz, renyi=True),
    "plsoftmax": MechanismKind(plsoftmax, _plsoftmax_rows, "delta", False, _pl_lipschitz, worst_case=True),
    "logplsoftmax": MechanismKind(log_plsoftmax, _log_plsoftmax_rows, "delta", True, _pl_lipschitz, worst_case=True),
    "sparsemax": MechanismKind(lambda x, _: sparsemax(x), lambda x, _: _sparsemax_rows(x), None, False),
}


@dataclass(frozen=True)
class MechanismSpec:
    """Dispatchable mechanism description: kind plus its positive parameter.

    Canonical spellings: ``exp:lambda=V``, ``pow:lambda=V``,
    ``plsoftmax:delta=V``, ``logplsoftmax:delta=V``, ``sparsemax``.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        needs = MECHANISM_KINDS[self.kind].param
        if needs is None:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            if self.param is None or not 0 < self.param < np.inf:
                raise ValueError(f"{self.kind} needs a positive finite {needs}")

    @classmethod
    def parse(cls, text: str) -> "MechanismSpec":
        name, sep, rest = text.strip().partition(":")
        name = name.lower()
        if name not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism {name!r}")
        expected = MECHANISM_KINDS[name].param
        if not sep:
            return cls(name, None)
        key, eq, value = rest.partition("=")
        if expected is None or key != expected or not eq:
            raise ValueError(f"bad mechanism spec {text!r}; expected "
                             f"{name if expected is None else f'{name}:{expected}=VALUE'}")
        return cls(name, float(value))

    def label(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{MECHANISM_KINDS[self.kind].param}={self.param:.12g}"

    @property
    def positive_domain(self) -> bool:
        return MECHANISM_KINDS[self.kind].positive_domain

    @property
    def worst_case(self) -> bool:
        return MECHANISM_KINDS[self.kind].worst_case

    def lipschitz_bound(self, domain: str, range_: str, d: int | None = None) -> float:
        """The kind's proven Lipschitz constant from the domain metric to the
        range metric, two ids as parse_metric_id reads them, in dimension d:
        the dimension term is capped at the harmonic number H_d, or left
        uncapped (a dimension-free constant) when d is None.  d < 2 raises
        ValueError.  plsoftmax's pieces are the k-active matrices over delta
        with k <= d, each within sm_norm_bound's 2*min(p+1, q/(q-1), H_k); a
        log d cap would be false at small d, where the exact (inf, 1)
        constant 2/delta at d = 2 is above (2/delta) log 2.

        +inf (no claim) when the domain family is not the kind's own (log-lp
        for the positive kinds, lp for the others), when the range is log-lp,
        when the range is Renyi and the kind's constant does not cover Renyi
        orders (the worst-case kinds: no worst-case-approximate selector is
        divergence-Lipschitz), or when the kind has no constant.
        """
        (domain_family, p), (range_family, q) = parse_metric_id(domain), parse_metric_id(range_)
        if d is not None and d < 2:
            raise ValueError("d must be >= 2")
        kind = MECHANISM_KINDS[self.kind]
        if (kind.lipschitz is None or domain_family != ("log-lp" if kind.positive_domain else "lp")
                or range_family == "log-lp" or (range_family == "renyi" and not kind.renyi)):
            return float("inf")
        return kind.lipschitz(self.param, p, q, float("inf") if d is None else harmonic(d))

    def __call__(self, x) -> np.ndarray:
        return MECHANISM_KINDS[self.kind].function(x, self.param)

    def rows(self, X) -> np.ndarray:
        """The mechanism on each row of an (n, d) value array; see MechanismKind."""
        return MECHANISM_KINDS[self.kind].rows(X, self.param)
