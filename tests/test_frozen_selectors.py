"""The 1-D selectors, their validation and the sorted-piece kernel against
frozen copies of an earlier version of each, bit for bit and exception for
exception.

The copies below are the bodies of the selectors before they called numpy's
ufuncs directly and read rank tables.  Unlike the oracles in
test_mechanisms.py they share no code with the package, so a change to the
kernel, to validation or to finalize_distribution shows here.
"""

import numpy as np
import pytest

from softmech import mechanisms as live
from softmech import simplex
from test_mechanisms import support_edge_inputs

NEGATIVE_CLAMP = 1e-12


def as_values(x, *, positive: bool = False) -> np.ndarray:
    """Validate and return a 1-D float vector of option values.

    Raises ValueError on non-finite entries, and on non-positive entries when
    ``positive`` is set (the multiplicative-mode mechanisms need x > 0).
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return _checked_values(v, positive)


def _checked_values(v: np.ndarray, positive: bool) -> np.ndarray:
    if v.shape[-1] < 1:
        raise ValueError("value vector must be non-empty")
    if not np.isfinite(v).all():
        raise ValueError("value vector must be finite")
    if positive and not (v > 0).all():
        raise ValueError("value vector must be strictly positive")
    return v


def finalize_distribution(raw: np.ndarray) -> np.ndarray:
    """Clamp rounding residue and renormalize a near-simplex vector.

    Entries in (-1e-12, 0) are set to 0 and the vector is renormalized; any
    entry at or below -1e-12 indicates a real bug and raises AssertionError.
    """
    p = np.asarray(raw, dtype=float)
    low = p.min(initial=0.0)
    if low <= -NEGATIVE_CLAMP:
        raise AssertionError(f"distribution entry {low} below clamping range")
    if low < 0.0:
        p = np.where(p < 0.0, 0.0, p)
    total = p.sum()
    if not 0.0 < total < np.inf:
        raise AssertionError(f"distribution sums to {total}")
    return p / total


def _check_param(value: float, name: str) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


def exp_mechanism(x, lam: float) -> np.ndarray:
    """Normalized exp(lam * x).  The max is subtracted first, which is exact
    by translation invariance and keeps the exponentials in range."""
    v = as_values(x)
    _check_param(lam, "lambda")
    w = np.exp(lam * (v - v.max()))
    return w / w.sum()


def power_mechanism(x, lam: float) -> np.ndarray:
    """Normalized x**lam for nonnegative x with at least one positive entry.

    0**lam is taken as 0.  Evaluated through logs of the positive entries so
    large powers do not overflow.
    """
    v = as_values(x)
    _check_param(lam, "lambda")
    if (v < 0).any():
        raise ValueError("power mechanism needs nonnegative values")
    pos = v > 0
    if not pos.any():
        raise ValueError("power mechanism needs at least one positive value")
    logs = np.log(v[pos])
    w = np.zeros_like(v)
    w[pos] = np.exp(lam * (logs - logs.max()))
    return w / w.sum()


def _piece_apply(xs: np.ndarray, k) -> np.ndarray:
    """The k-active matrix A_k applied along the last axis of values in rank
    order, in float.

    Computes A_k (xs - xs[0]), which equals A_k xs because every row of A_k
    sums to zero; shifting first keeps the sums small at large offsets.  With
    t = xs - xs[0], entry i < k is t[i]/(i+1) - sum_{j=i+1..k-1} t[j] / ((j+1) j),
    a suffix sum in O(k).  Entries at and beyond k are zero.

    For one vector k is an int and the work is O(k) slices.  For (n, d) rows
    k is an (n, 1) array of per-row counts: the work covers the first max(k)
    columns, with each row's t masked to zero beyond its own k, so every sum
    gains only leading zeros and each row equals the 1-D result bit for bit.
    """
    if isinstance(k, np.ndarray):
        m = int(k.max())
        t = np.where(np.arange(m) < k, xs[:, :m] - xs[:, :1], 0.0)
    else:
        m = k
        t = xs[:m] - xs[0]
    y = np.zeros(xs.shape)
    cols = np.arange(1, m)
    y[..., :m] = t / np.arange(1, m + 1)
    y[..., : m - 1] -= np.cumsum((t[..., 1:] / ((cols + 1) * cols))[..., ::-1], axis=-1)[..., ::-1]
    return y


def _piece_apply_transpose(rs: np.ndarray, k: int) -> np.ndarray:
    """A_k^T applied to a vector in rank order, by a prefix sum in O(k).

    Entry 0 is rs[0] - sum_{i<k} rs[i]/k; entry j in 1..k-1 is
    rs[j]/(j+1) - sum_{i<j} rs[i] / ((j+1) j).  Entries at and beyond k are zero.
    """
    y = np.zeros(rs.size)
    head = rs[:k]
    cols = np.arange(1, k)
    y[0] = head[0] - head.sum() / k
    y[1:k] = (head[1:] - np.cumsum(head[:-1]) / cols) / (cols + 1)
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
    v = as_values(x)
    _check_param(delta, "delta")
    v = v - v.max()
    active = np.flatnonzero(v >= -delta)
    order = active[np.argsort(-v[active], kind="stable")]
    k = order.size
    f_sorted = _piece_apply(v[order], k) / delta
    f_sorted += 1.0 / k
    out = np.zeros_like(v)
    out[order] = f_sorted
    return finalize_distribution(out)


def log_plsoftmax(x, delta: float) -> np.ndarray:
    """plsoftmax on coordinatewise logs; needs strictly positive values.

    Worst-case multiplicative slack is 1 - exp(-delta) <= delta; see
    :func:`multiplicative_guarantee`.
    """
    v = as_values(x, positive=True)
    return plsoftmax(np.log(v), delta)


def sparsemax(x) -> np.ndarray:
    """Euclidean projection of x onto the probability simplex.

    The threshold tau is at least max - 1, so no entry at or below max - 1
    is in the support; sort-and-threshold runs over the k entries above it
    only, O(d + k log k): find the largest prefix whose shifted values stay
    positive, subtract the prefix threshold, clip at zero.  The max is
    subtracted first, which is exact by translation invariance and keeps the
    prefix sums from overflowing.
    """
    v = as_values(x)
    v = v - v.max()
    z = np.sort(v[v > -1.0])[::-1]
    cssv = np.cumsum(z) - 1.0
    ind = np.arange(1, z.size + 1)
    rho = int(np.count_nonzero(z - cssv / ind > 0))
    tau = cssv[rho - 1] / rho
    return finalize_distribution(np.maximum(v - tau, 0.0))


FROZEN = {
    "exp": exp_mechanism,
    "pow": power_mechanism,
    "plsoftmax": plsoftmax,
    "logplsoftmax": log_plsoftmax,
    "sparsemax": lambda x, _: sparsemax(x),
}
PARAMS = {"exp": (0.5, 1.0, 4.0), "pow": (1.0, 2.0), "plsoftmax": (0.5, 1.0, 2.0),
          "logplsoftmax": (0.5, 1.0, 2.0), "sparsemax": (None,)}
START = live._RANK_TABLE_START
DIMS = sorted({1, 2, 3, 4, 16, 64, 1024, START - 1, START, START + 1})


def outcome(fn, *args):
    """("ok", output bytes) or ("raise", exception type, message)."""
    try:
        return "ok", np.asarray(fn(*args)).tobytes()
    except Exception as exc:
        return "raise", type(exc), str(exc)


def kind_inputs(kind, d, rng):
    """support_edge_inputs in the kind's domain: for the positive-domain
    kinds exp(x - max x), and for pow the same with some entries set to 0."""
    xs = support_edge_inputs(d, rng)
    if kind not in ("pow", "logplsoftmax"):
        return xs
    ys = [np.exp(x - x.max()) for x in xs]
    if kind == "pow" and d > 1:
        for y in ys[::3]:
            y[rng.random(d) < 0.3] = 0.0
            y[np.argmax(y)] = 1.0
    return ys


@pytest.mark.parametrize("kind", sorted(FROZEN))
@pytest.mark.parametrize("d", DIMS)
def test_selectors_equal_frozen_copies(kind, d):
    spec_fn = live.MECHANISM_KINDS[kind].function
    for x in kind_inputs(kind, d, np.random.default_rng(d)):
        for param in PARAMS[kind]:
            assert spec_fn(x, param).tobytes() == FROZEN[kind](x, param).tobytes()


@pytest.mark.parametrize("kind", sorted(FROZEN))
@pytest.mark.parametrize("d", [1, 3, START, 1024])
def test_rows_equal_frozen_copies(kind, d):
    # one row per input, so plsoftmax's rows mix every active count k
    entry = live.MECHANISM_KINDS[kind]
    x = np.vstack(kind_inputs(kind, d, np.random.default_rng(d + 1)))
    for param in PARAMS[kind]:
        for row, out in zip(x, entry.rows(x, param)):
            assert out.tobytes() == FROZEN[kind](row, param).tobytes()


@pytest.mark.parametrize("d", [1, 2, START - 1, START, START + 1, 3 * START])
def test_kernels_equal_frozen_copies(d):
    rng = np.random.default_rng(d)
    rows = -np.sort(-rng.normal(0.0, 2.0, size=(40, d)), axis=1) + 1e8
    k = rng.integers(1, d + 1, size=(40, 1))
    k[:2, 0] = (1, d)
    for row, kr, out in zip(rows, k[:, 0], live._piece_apply(rows, k)):
        want = _piece_apply(row, int(kr))
        assert out.tobytes() == want.tobytes()
        assert live._piece_apply(row, int(kr)).tobytes() == want.tobytes()
        want = _piece_apply_transpose(row, int(kr))
        assert live._piece_apply_transpose(row, int(kr)).tobytes() == want.tobytes()


def test_rank_tables_grow_from_one_entry(monkeypatch):
    monkeypatch.setattr(live, "_rank_tables_now", (np.ones(1), np.empty(0)))
    for m in (1, 2, START - 1, START, START + 1, 1000, 3):
        ranks, pairs = live._rank_tables(m)
        j = np.arange(1, m + 1)
        assert ranks.tobytes() == j.astype(float).tobytes()
        assert pairs.tobytes() == (j[1:] * j[:-1]).astype(float).tobytes()
    assert live._rank_tables_now[0].size == 1024


def test_finalize_distribution_equals_frozen_copy():
    raws = [[0.5, 0.5], [0.7, 0.3 + 1e-13, -1e-13], [0.2, 0.2, 0.2], [3.0], [0.0, 5e-13, -9e-13],
            [0.5, 0.6, -1e-9], [0.0, 0.0], [np.nan, 0.5], [np.inf, 0.5], [-np.inf, 1.0], [1e308, 1e308], [],
            0.25, [[0.25, 0.5], [0.0, 0.25]]]
    for raw in raws:
        raw = np.array(raw, dtype=float)
        with np.errstate(all="ignore"):
            assert outcome(simplex.finalize_distribution, raw) == outcome(finalize_distribution, raw)


BAD_VALUES = [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf], [], [[1.0, 0.0], [0.0, 1.0]], [-1.0, -2.0],
              [0.0, 0.0], [0.0, 1.0], [1.0, -0.5], 3.0, [1e308, -1e308]]


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_errors_equal_frozen_copies(kind):
    spec_fn = live.MECHANISM_KINDS[kind].function
    for x in BAD_VALUES:
        for param in PARAMS[kind][:1] + ((0.0, -1.0, np.inf, np.nan) if PARAMS[kind][0] else ()):
            with np.errstate(all="ignore"):
                assert outcome(spec_fn, x, param) == outcome(FROZEN[kind], x, param), (x, param)
