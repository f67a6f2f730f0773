"""Distances, divergences and subordinate matrix norms.

Vector side: p-norm distances, Renyi divergences on the simplex (order 1 is
KL, order inf is the log max likelihood ratio), and log-domain p-norm
distances for positive vectors.

Matrix side: the (p,q)-subordinate norm max ||Ax||_q / ||x||_p.  Computing it
is NP-hard in general; for q=1 and even p (or p=inf) it reduces to a maximum
over sign vectors of the rows' dual norm, which we enumerate exactly for up
to 24 rows.  A row-wise dual-norm upper bound and a seeded Monte-Carlo lower
bound sandwich the exact value everywhere else.
"""

from __future__ import annotations

import numpy as np

from .seeding import spawn_rng
from .simplex import check_distribution, distribution_rows_ok
from .smmatrix import harmonic

_SIGN_ROW_CAP = 24
_SIGN_CHUNK = 1 << 14


def lp_distance(x, y, p: float):
    """p-norm of x - y along the last axis; p may be any real >= 1 or inf.

    Two vectors give a float; two (n, d) arrays give the n row distances as
    an array, each equal bit for bit to the 1-D call on that row.  The rows'
    p-th roots are taken with Python's float power, the libm pow of the 1-D
    path, because numpy's array power can differ from it in the last bit.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    diff = np.abs(a - b)
    if np.isinf(p):
        dist = diff.max(axis=-1, initial=0.0)
    elif p == 1:
        dist = diff.sum(axis=-1)
    else:
        sums = (diff**p).sum(axis=-1)
        if sums.ndim == 0:
            return float(sums ** (1.0 / p))
        dist = np.array([s ** (1.0 / p) for s in sums.tolist()])
    return float(dist) if dist.ndim == 0 else dist


def renyi_divergence(x, y, order: float):
    """Order-alpha Renyi divergence between simplex points, along the last axis.

    order=1 is the KL divergence (terms with x_i = 0 contribute 0), order=inf
    is log max_i x_i/y_i over the support of x, and a finite order a > 1 is
    logsumexp_i(log x_i + (a-1) log(x_i/y_i)) / (a-1) over that support, which
    stays finite at any order and approaches the order-inf value as a grows.
    Returns +inf when y misses mass where x has some; infinity is a value,
    not an error.

    Two vectors give a float and raise ValueError unless both are simplex
    points.  Two (n, d) arrays give the n row divergences, with nan for a
    pair of rows where the 1-D call raises; a vector runs through the same
    body as a single row, so each row equals its 1-D call bit for bit.
    """
    rows = np.ndim(x) == 2
    p = np.asarray(x, dtype=float) if rows else check_distribution(x)
    q = np.asarray(y, dtype=float) if rows else check_distribution(y)
    if p.shape != q.shape:
        raise ValueError("dimension mismatch")
    if not order >= 1:
        raise ValueError("order must be >= 1")
    ok = distribution_rows_ok(p) & distribution_rows_ok(q) if rows else True
    p = np.maximum(p[ok], 0.0)  # p[True] is the vector as one row
    q = np.maximum(q[ok], 0.0)
    support = p > 0
    ratio = p / np.where(q > 0, q, 1.0)
    if np.isinf(order):
        div = np.log(ratio.max(axis=1))
    elif order == 1:
        div = (p * np.log(np.where(support, ratio, 1.0))).sum(axis=1)
    else:
        # logsumexp shifted by the largest log ratio, so no term exceeds log x_i;
        # off the support both logs are -inf, and so is the term
        with np.errstate(divide="ignore", over="ignore"):
            log_ratio = np.log(ratio)
            top = log_ratio.max(axis=1, keepdims=True)
            terms = np.log(p) + (order - 1.0) * (log_ratio - top)
        lead = terms.max(axis=1)
        total = lead + np.log(np.exp(terms - lead[:, None]).sum(axis=1))
        div = top[:, 0] + total / (order - 1.0)
    div = np.where(np.any(support & (q == 0), axis=1), np.inf, div)
    if not rows:
        return float(div[0])
    out = np.full(ok.shape, np.nan)
    out[ok] = div
    return out


def log_lp_distance(x, y, p: float):
    """p-norm distance between coordinatewise logs; needs positive vectors.

    Two vectors with a non-positive entry raise ValueError.  Two (n, d)
    arrays give the n row distances, with nan for a pair of rows that has a
    non-positive entry.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    outside = np.any(a <= 0, axis=-1) | np.any(b <= 0, axis=-1)
    if np.ndim(outside) == 0:
        if outside:
            raise ValueError("log-domain distance needs strictly positive entries")
        return lp_distance(np.log(a), np.log(b), p)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = lp_distance(np.log(a), np.log(b), p)
    return np.where(outside, np.nan, dist)


def _dual_exponent(p: float) -> float:
    if np.isinf(p):
        return 1.0
    if p == 1:
        return float("inf")
    return p / (p - 1.0)


def _vector_norm(v: np.ndarray, p: float, axis=None) -> np.ndarray:
    if np.isinf(p):
        return np.abs(v).max(axis=axis)
    if p == 1:
        return np.abs(v).sum(axis=axis)
    return (np.abs(v) ** p).sum(axis=axis) ** (1.0 / p)


def subordinate_norm_exact(A, p: float) -> float:
    """Exact ||A||_{p,1} for even p or p=inf, by sign enumeration.

    The maximizing input can be assumed to make every row product nonzero,
    and first-order conditions then pin it to a sign pattern: the norm equals
    max over s in {-1,1}^t of the dual-norm ||s^T A||_{p/(p-1)} (1 for
    p=inf).  The s -> -s symmetry halves the enumeration; more than 24 rows
    raises a capacity error pointing at subordinate_norm_sampled.
    """
    if not (np.isinf(p) or (float(p).is_integer() and p >= 2 and int(p) % 2 == 0)):
        raise ValueError("p must be an even integer >= 2 or inf")
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise ValueError("A must be a matrix")
    t = M.shape[0]
    if t > _SIGN_ROW_CAP:
        raise ValueError(
            f"{t} rows exceeds the sign-enumeration cap {_SIGN_ROW_CAP}; "
            "use subordinate_norm_sampled for a lower bound"
        )
    r = _dual_exponent(p)
    total = 1 << (t - 1)  # fix s[0] = +1
    best = 0.0
    bits = np.arange(t - 1, dtype=np.int64)
    for start in range(0, total, _SIGN_CHUNK):
        codes = np.arange(start, min(start + _SIGN_CHUNK, total), dtype=np.int64)
        signs = np.ones((codes.size, t))
        signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> bits[None, :]) & 1)
        vals = _vector_norm(signs @ M, r, axis=1)
        best = max(best, float(vals.max(initial=0.0)))
    return best


def subordinate_norm_row_bound(A, p: float, q: float) -> float:
    """Row-wise dual-norm upper bound on ||A||_{p,q}.

    Each output coordinate is a row inner product, bounded by the row's
    p-dual norm; combining the per-row bounds with the q-norm gives
    (sum_i ||a_i||_{p/(p-1)}^q)^{1/q}.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise ValueError("A must be a matrix")
    if not p >= 1 or not q >= 1:
        raise ValueError("p and q must be >= 1")
    rows = _vector_norm(M, _dual_exponent(p), axis=1)
    return float(_vector_norm(rows, q))


def subordinate_norm_sampled(A, p: float, q: float, trials: int, rng_seed: int) -> float:
    """Seeded Monte-Carlo lower bound on ||A||_{p,q}.

    Evaluates ||Ax||_q over unit-p-norm directions: all coordinate
    directions, random sign vectors, and Gaussian draws.  Any returned value
    is attained by a concrete direction, so it certifies a lower bound.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise ValueError("A must be a matrix")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = M.shape[1]
    rng = spawn_rng(rng_seed)
    dirs = [np.eye(d)]
    n_signs = max(1, trials // 2)
    dirs.append(1.0 - 2.0 * rng.integers(0, 2, size=(n_signs, d)))
    dirs.append(rng.standard_normal((max(1, trials - n_signs), d)))
    best = 0.0
    for block in dirs:
        norms = _vector_norm(block, p, axis=1)
        keep = norms > 0
        unit = block[keep] / norms[keep, None]
        vals = _vector_norm(unit @ M.T, q, axis=1)
        best = max(best, float(vals.max(initial=0.0)))
    return best


def pq_bound_factor(p: float, q: float, cap: float) -> float:
    """min(p+1, q/(q-1), cap): the factor shared by the (p,q) bounds on the
    soft-max matrices and on plsoftmax.  p=inf drops the first term, q=1 the
    second."""
    return min(p + 1.0, _dual_exponent(q), cap)


def sm_norm_bound(k: int, p: float, q: float) -> float:
    """Closed-form bound 2 * min(p+1, q/(q-1), H_k) on the (p,q)-subordinate
    norm of the k-active soft-max matrix.

    H_k is the harmonic number: the enumeration proof bounds each |s^T
    column_j| by twice the diagonal 2/j, and summing gives 2*H_k.  The
    harmonic sum is the rigorous small-k constant (2*log k already fails at
    k=2, where the exact (inf,1) norm is 2).  q=1 disables the middle term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not p >= 1 or not q >= 1:
        raise ValueError("p and q must be >= 1")
    return 2.0 * pq_bound_factor(p, q, harmonic(k))


def parse_metric_id(metric_id: str) -> tuple[str, float]:
    """Split a metric id into its family and exponent.

    ``l1``, ``l2``, ``linf``, ``lP`` and ``lp:P`` give ("lp", P); the same ids
    behind ``log-`` give ("log-lp", P); ``kl``, ``dinf`` and ``renyi:ALPHA``
    give ("renyi", 1), ("renyi", inf) and ("renyi", ALPHA).  Unknown ids and
    exponents below 1 raise ValueError.
    """
    mid = metric_id.strip().lower()
    mid = {"kl": "renyi:1", "dinf": "renyi:inf"}.get(mid, mid)
    if mid.startswith("renyi:"):
        family, text = "renyi", mid[6:]
    else:
        family = "log-lp" if mid.startswith("log-") else "lp"
        core = mid.removeprefix("log-")
        if not core.startswith("l"):
            raise ValueError(f"unknown metric id {metric_id!r}")
        text = core[3:] if core.startswith("lp:") else core[1:]
    try:
        exponent = float(text)
    except ValueError:
        raise ValueError(f"unknown metric id {metric_id!r}") from None
    if not exponent >= 1:
        raise ValueError(f"metric id {metric_id!r}: exponent must be >= 1")
    return family, exponent


def metric_from_id(metric_id: str):
    """Resolve a metric id (see :func:`parse_metric_id`) to a distance callable."""
    family, e = parse_metric_id(metric_id)
    if family == "renyi":
        return lambda a, b: renyi_divergence(a, b, e)
    if family == "log-lp":
        return lambda a, b: log_lp_distance(a, b, e)
    return lambda a, b: lp_distance(a, b, e)
