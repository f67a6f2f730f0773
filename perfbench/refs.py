"""Reference computations, written from the formulas and kept apart from softmech.

Nothing here imports softmech: the benchmark checks the library's outputs
against these, so a fault shared by both would hide.  Speed does not matter;
the workloads cache what they reuse.
"""

from __future__ import annotations

import math

import numpy as np

_MATRICES: dict[int, np.ndarray] = {}


def softmax_matrix(k: int) -> np.ndarray:
    """The k x k active block of the paper's zero-column-sum matrix.

    1-based entries: (1,1) = (k-1)/k; (i,i) = 1/i and (i,1) = -1/k for
    2 <= i <= k; (i,j) = -1/(j(j-1)) for 2 <= j <= k and i < j.
    """
    if k not in _MATRICES:
        a = np.zeros((k, k))
        a[0, 0] = (k - 1) / k
        for i in range(2, k + 1):
            a[i - 1, i - 1] = 1.0 / i
            a[i - 1, 0] = -1.0 / k
        for j in range(2, k + 1):
            for i in range(1, j):
                a[i - 1, j - 1] = -1.0 / (j * (j - 1))
        _MATRICES[k] = a
    return _MATRICES[k]


def exp_ref(x, lam: float) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    w = np.exp(lam * (v - v.max()))
    return w / math.fsum(w)


def pow_ref(x, lam: float) -> np.ndarray:
    w = np.asarray(x, dtype=float) ** lam
    return w / math.fsum(w)


def plsoftmax_ref(x, delta: float) -> np.ndarray:
    """uniform_k + A_k (sorted x - max) / delta on the k values within delta
    of the max, zero elsewhere.  Subtracting the max is exact, because every
    column of A_k sums to zero."""
    v = np.asarray(x, dtype=float)
    order = np.argsort(-v, kind="stable")
    xs = v[order]
    k = int(np.count_nonzero(xs[0] - xs <= delta))
    out = np.zeros_like(v)
    out[order[:k]] = 1.0 / k + softmax_matrix(k) @ (xs[:k] - xs[0]) / delta
    return out


def logplsoftmax_ref(x, delta: float) -> np.ndarray:
    return plsoftmax_ref(np.log(np.asarray(x, dtype=float)), delta)


def sparsemax_ref(x) -> np.ndarray:
    """Simplex projection max(x - tau, 0), tau found by bisection on
    sum(max(x - tau, 0)) = 1 over [max(x) - 1, max(x)]."""
    v = np.asarray(x, dtype=float)
    lo, hi = v.max() - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def selector_ref(kind: str, param, x) -> np.ndarray:
    if kind == "exp":
        return exp_ref(x, param)
    if kind == "pow":
        return pow_ref(x, param)
    if kind == "plsoftmax":
        return plsoftmax_ref(x, param)
    if kind == "logplsoftmax":
        return logplsoftmax_ref(x, param)
    if kind == "sparsemax":
        return sparsemax_ref(x)
    raise ValueError(f"no reference for {kind!r}")


def lp_ref(a, b, p: float) -> float:
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if math.isinf(p):
        return float(diff.max())
    return float(math.fsum(diff**p) ** (1.0 / p))


def renyi_ref(p, q, order: float) -> float:
    """Order-alpha Renyi divergence D(p || q) over the support of p."""
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    support = pa > 0
    if np.any(qa[support] <= 0):
        return math.inf
    ps, qs = pa[support], qa[support]
    if math.isinf(order):
        return float(np.log(np.max(ps / qs)))
    if order == 1:
        return float(math.fsum(ps * np.log(ps / qs)))
    return math.log(math.fsum(ps**order / qs ** (order - 1.0))) / (order - 1.0)


def metric_ref(metric_id: str):
    """Reference distance and its exponent for the metric ids the lab uses."""
    if metric_id == "dinf":
        return (lambda a, b: renyi_ref(a, b, math.inf)), math.inf
    p = math.inf if metric_id == "linf" else float(metric_id[1:])
    return (lambda a, b: lp_ref(a, b, p)), p


def lipschitz_bound(kind: str, param, d: int, p: float, q: float) -> float:
    """Proven upper bound: 2*lambda for exp (any l_q or Renyi range);
    (2/delta) * min(p+1, q/(q-1), log d) for plsoftmax into l_q; sqrt(d) for
    sparsemax l2 -> l1 (a projection is l2-nonexpansive and
    ||v||_1 <= sqrt(d) ||v||_2).  +inf where none is claimed."""
    if kind == "exp":
        return 2.0 * param
    if kind == "plsoftmax":
        p_term = math.inf if math.isinf(p) else p + 1.0
        q_term = math.inf if q == 1 else (1.0 if math.isinf(q) else q / (q - 1.0))
        return (2.0 / param) * min(p_term, q_term, math.log(d))
    if kind == "sparsemax" and p == 2 and q == 1:
        return math.sqrt(d)
    return math.inf


def lipschitz_floor(kind: str, param, d: int, p: float, q: float) -> float:
    """Witness floor the estimate must reach; 0 where the lab has none.

    exp, l_inf -> l_1: the single-coordinate pair at log(d)/lambda moves the
    output at 2*lambda*d(d-1)/(2d-1)^2 (about lambda/2); one percent is left
    for the finite difference.  sparsemax, l_p -> l_1: d^(1-1/p)/2.
    """
    if kind == "exp" and math.isinf(p) and q == 1:
        return 0.99 * 2.0 * param * d * (d - 1) / (2 * d - 1) ** 2
    if kind == "sparsemax" and q == 1:
        return 0.5 * d ** (1.0 - 1.0 / p)
    return 0.0


def union_size(sets) -> int:
    """Number of distinct elements in the union of the given sets."""
    covered: set[int] = set()
    for s in sets:
        covered |= set(s)
    return len(covered)


def first_step_gains(sets) -> list[int]:
    """Marginal gain of each set when nothing is selected yet."""
    return [union_size([s]) - union_size([]) for s in sets]


def unlimited_revenue(bids, price: float) -> float:
    """Posted-price revenue with unlimited supply: price * #{bids >= price}."""
    return price * sum(1 for b in bids if b >= price)
