"""Training loss tied to the piecewise-linear soft-max.

For scores x and a target distribution q the loss has three nonnegative
parts: an order part (hinges on score inversions along q's sort order, up to
and including the first zero-probability coordinate), a support part (hinges
forcing exactly the delta-close scores to carry probability), and a square
part (squared distance between q and the linear selector piece indexed by
q's own order and support).  The total is zero exactly when the selector
applied to x returns q, and it is convex in x for fixed q.

The parts have one body, ``_parts``, for one score vector and for (n, d)
rows against one target: the 1-D losses validate once and read it, and the
row form that the gradient and convexity probes use reads it on rows.
"""

from __future__ import annotations

import numpy as np

from .mechanisms import _check_param, _piece_apply, _piece_apply_transpose, plsoftmax
from .seeding import trial_draws
from .simplex import as_value_rows, as_values, check_distribution

# Trials of the convexity probe evaluated per row-form loss call (three
# points each); bounds the probe's memory at any trial count.
_PROBE_BLOCK = 512
_PROBE_SCALE = 2.0  # the probe's normal draws have sd _PROBE_SCALE * max(delta, 1)
_FD_STEP = 1e-5  # central-difference step of subgradient_check


def _target_piece(q: np.ndarray) -> tuple[np.ndarray, int, int]:
    """An already validated q's stable non-increasing sort order, its support
    size k, and the last rank the order part reaches: the first rank outside
    the support, capped at d - 1."""
    order = np.argsort(-q, kind="stable")
    k = int(np.count_nonzero(q > 0))
    return order, k, min(k, q.size - 1)


def _validated(x, q, delta: float | None = None, rows: bool = False):
    xx = as_value_rows(x) if rows else as_values(x)
    qq = check_distribution(q)
    if xx.shape[-1:] != qq.shape:
        raise ValueError("scores and target must share a dimension")
    if delta is not None:
        _check_param(delta, "delta")
    return xx, qq


def _parts(x: np.ndarray, q: np.ndarray, delta: float, piece: tuple[np.ndarray, int, int]):
    """The order, support and square parts of the loss at validated scores x,
    one vector or (n, d) rows, against one validated target q whose
    _target_piece is piece.  Their sum is the total loss.

    Each row's parts equal the parts of that row alone bit for bit: every
    reduction runs on a C-contiguous row, as on one vector (a fancy-indexed
    column selection is not C-contiguous, and numpy sums such rows in
    another order), and the square part is a stack of r @ r row products,
    which numpy computes with the 1-D dot product (einsum rounds
    differently).
    """
    order, k, last = piece
    xs = np.ascontiguousarray(x[..., order])
    ord_part = np.maximum(xs[..., 1 : last + 1] - xs[..., :last], 0.0).sum(axis=-1)

    top = x[..., int(np.argmax(q)), None]  # first max index, matching the tie rule
    in_support = q > 0
    inside = np.maximum(top - np.ascontiguousarray(x[..., in_support]) - delta, 0.0).sum(axis=-1)
    outside = np.maximum(np.ascontiguousarray(x[..., ~in_support]) - top + delta, 0.0).sum(axis=-1)

    r = _piece_residual(xs, q[order], delta, k)
    return ord_part, inside + outside, (r[..., None, :] @ r[..., :, None])[..., 0, 0]


def _validated_parts(x, q, delta: float, rows: bool = False):
    """_parts of scores and a target validated here."""
    xx, qq = _validated(x, q, delta, rows)
    return _parts(xx, qq, delta, _target_piece(qq))


def loss_ord(x, q) -> float:
    """Hinge penalty on score inversions along the target's sort order.

    Sums max(x[pi(i+1)] - x[pi(i)], 0) over consecutive ranks i from the top
    through the first coordinate outside q's support.  Ranks entirely outside
    the support are unordered by q (all ties at zero), so inversions there
    are not penalized; without this cut the loss could not vanish at the
    selector's own output.
    """
    return float(_validated_parts(x, q, 1.0)[0])  # the order part reads no delta


def loss_supp(x, q, delta: float) -> float:
    """Hinge penalty for support mismatch.

    Coordinates carrying probability must score within delta of the top
    target coordinate's score; coordinates carrying none must not.
    """
    return float(_validated_parts(x, q, delta)[1])


def _piece_residual(xs: np.ndarray, qs: np.ndarray, delta: float, k: int) -> np.ndarray:
    """q minus its own selector piece (support size k) applied to x, with the
    scores xs (one vector or (n, d) rows) and qs = q[order] in q's rank order."""
    r = qs - _piece_apply(xs, k if xs.ndim == 1 else np.full((xs.shape[0], 1), k)) / delta
    r[..., :k] -= 1.0 / k
    return r


def loss_sqr(x, q, delta: float) -> float:
    """Squared distance between q and its own selector piece applied to x."""
    return float(_validated_parts(x, q, delta)[2])


def loss_total(x, q, delta: float) -> float:
    """Sum of the order, support and square parts."""
    return float(sum(_validated_parts(x, q, delta)))


def _loss_rows(X, q, delta: float) -> np.ndarray:
    """loss_total of each row of an (n, d) score array against one target q.

    q is validated and sorted once.  Each entry equals loss_total(X[i], q,
    delta) bit for bit, and a row loss_total would reject (a non-finite
    entry) raises the same ValueError.
    """
    return sum(_validated_parts(X, q, delta, rows=True))


def loss_grad(x, q, delta: float) -> np.ndarray:
    """Gradient of the total loss in x (a subgradient at hinge corners)."""
    xx, qq = _validated(x, q, delta)
    return _piece_grad(xx, qq, delta, _target_piece(qq))


def _piece_grad(xx: np.ndarray, qq: np.ndarray, delta: float, piece: tuple[np.ndarray, int, int]) -> np.ndarray:
    """loss_grad of a validated point and target, given q's _target_piece."""
    g = np.zeros_like(xx)
    order, k, last = piece
    lo, hi = order[:last], order[1 : last + 1]
    inverted = xx[hi] - xx[lo] > 0
    g[hi[inverted]] += 1.0
    g[lo[inverted]] -= 1.0

    top = int(np.argmax(qq))
    in_support = qq > 0
    too_low = in_support & (xx[top] - xx - delta > 0)
    too_high = ~in_support & (xx - xx[top] + delta > 0)
    g[too_low] -= 1.0
    g[too_high] += 1.0
    g[top] += np.count_nonzero(too_low) - np.count_nonzero(too_high)

    r = _piece_residual(xx[order], qq[order], delta, k)
    g[order] -= (2.0 / delta) * _piece_apply_transpose(r, k)
    return g


def _is_smooth_point(
    x: np.ndarray, q: np.ndarray, delta: float, tol: float, piece: tuple[np.ndarray, int, int]
) -> bool:
    """Whether every hinge argument at x is farther than tol from its corner;
    piece is q's _target_piece."""
    order, _, last = piece
    xs = x[order]
    if np.any(np.abs(xs[1 : last + 1] - xs[:last]) <= tol):
        return False
    top = x[int(np.argmax(q))]
    in_support = q > 0
    args = np.concatenate([top - x[in_support] - delta, x[~in_support] - top + delta])
    return not np.any(np.abs(args) <= tol)


def subgradient_check(x, q, delta: float) -> float | None:
    """Max relative error of the analytic gradient against central differences.

    Returns None (skip signal) when some hinge argument sits within
    2 * _FD_STEP of its corner: there the central difference straddles a
    point where the loss is not differentiable.
    """
    xx, qq = _validated(x, q, delta)
    piece = _target_piece(qq)
    if not _is_smooth_point(xx, qq, delta, 2.0 * _FD_STEP, piece):
        return None
    grad = _piece_grad(xx, qq, delta, piece)
    d, idx = xx.size, np.arange(xx.size)
    steps = np.tile(xx, (2 * d, 1))  # rows i and d + i step coordinate i up and down
    steps[idx, idx] += _FD_STEP
    steps[d + idx, idx] -= _FD_STEP
    losses = sum(_parts(steps, qq, delta, piece))
    fds = (losses[:d] - losses[d:]) / (2.0 * _FD_STEP)
    worst = 0.0
    for g, fd in zip(grad.tolist(), fds.tolist()):
        scale = max(abs(fd), abs(g), 1.0)
        worst = max(worst, abs(g - fd) / scale)
    return worst


def convexity_probe(q, delta: float, trials: int, rng_seed: int) -> float:
    """Max observed convexity violation of the loss in x for fixed q.

    Draws random (x1, x2, t) triples and measures
    loss(t x1 + (1-t) x2) - t loss(x1) - (1-t) loss(x2); for a convex loss
    the max stays at numerical-noise level.  Trial i draws x1 and x2 from
    ``normal(0.0, sd, size=d)`` and then t from ``random()`` on the
    generator of spawn_rng(rng_seed, i); ``seeding.trial_draws`` replays
    these draws into rows _PROBE_BLOCK trials at a time, and the loss is
    evaluated by the row form, one call per block.
    """
    qq = check_distribution(q)
    _check_param(delta, "delta")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d, sd = qq.size, _PROBE_SCALE * max(delta, 1.0)
    worst = -np.inf
    for start in range(0, trials, _PROBE_BLOCK):
        n = min(_PROBE_BLOCK, trials - start)
        z, _, t = trial_draws(rng_seed, start, np.full(n, sd), np.full(n, 2 * d), np.empty((n, 0)))
        x1, x2 = z[:, :d], z[:, d:]
        mid = t[:, None] * x1 + (1 - t[:, None]) * x2
        l_mid, l1, l2 = np.split(_loss_rows(np.concatenate([mid, x1, x2]), qq, delta), 3)
        worst = max(worst, *(l_mid - t * l1 - (1 - t) * l2).tolist())
    return float(worst)


def zero_iff_residual(x, delta: float) -> float:
    """loss_total at the selector's own output; zero up to float noise."""
    xx = as_values(x)
    return loss_total(xx, plsoftmax(xx, delta), delta)
