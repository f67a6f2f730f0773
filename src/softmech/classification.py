"""Training loss tied to the piecewise-linear soft-max.

For scores x and a target distribution q the loss has three nonnegative
parts: an order part (hinges on score inversions along q's sort order, up to
and including the first zero-probability coordinate), a support part (hinges
forcing exactly the delta-close scores to carry probability), and a square
part (squared distance between q and the linear selector piece indexed by
q's own order and support).  The total is zero exactly when the selector
applied to x returns q, and it is convex in x for fixed q.
"""

from __future__ import annotations

import numpy as np

from .mechanisms import _piece_apply, _piece_apply_transpose, plsoftmax
from .seeding import spawn_rng
from .simplex import as_values, check_distribution


def target_sort_permutation(q) -> np.ndarray:
    """Non-increasing sort order of the target, ties by ascending index."""
    qq = check_distribution(q)
    return np.argsort(-qq, kind="stable")


def _target_piece(q: np.ndarray) -> tuple[np.ndarray, int, int]:
    """q's sort order, its support size k, and the last rank the order part
    reaches: the first rank outside the support, capped at d - 1."""
    order = target_sort_permutation(q)
    k = int(np.count_nonzero(q > 0))
    return order, k, min(k, q.size - 1)


def _validated(x, q, delta: float | None = None):
    xx = as_values(x)
    qq = check_distribution(q)
    if xx.shape != qq.shape:
        raise ValueError("scores and target must share a dimension")
    if delta is not None and delta <= 0:
        raise ValueError("delta must be positive")
    return xx, qq


def loss_ord(x, q) -> float:
    """Hinge penalty on score inversions along the target's sort order.

    Sums max(x[pi(i+1)] - x[pi(i)], 0) over consecutive ranks i from the top
    through the first coordinate outside q's support.  Ranks entirely outside
    the support are unordered by q (all ties at zero), so inversions there
    are not penalized; without this cut the loss could not vanish at the
    selector's own output.
    """
    xx, qq = _validated(x, q)
    order, _, last = _target_piece(qq)
    xs = xx[order]
    diffs = xs[1 : last + 1] - xs[:last]
    return float(np.maximum(diffs, 0.0).sum())


def loss_supp(x, q, delta: float) -> float:
    """Hinge penalty for support mismatch.

    Coordinates carrying probability must score within delta of the top
    target coordinate's score; coordinates carrying none must not.
    """
    xx, qq = _validated(x, q, delta)
    top = xx[int(np.argmax(qq))]  # first max index, matching the tie rule
    in_support = qq > 0
    inside = np.maximum(top - xx[in_support] - delta, 0.0).sum()
    outside = np.maximum(xx[~in_support] - top + delta, 0.0).sum()
    return float(inside + outside)


def _piece_residual(x: np.ndarray, q: np.ndarray, delta: float, order: np.ndarray, k: int) -> np.ndarray:
    """q minus the selector piece indexed by q's order and support, applied to x;
    entries are in q's rank order."""
    r = q[order] - _piece_apply(x[order], k) / delta
    r[:k] -= 1.0 / k
    return r


def loss_sqr(x, q, delta: float) -> float:
    """Squared distance between q and its own selector piece applied to x."""
    xx, qq = _validated(x, q, delta)
    order, k, _ = _target_piece(qq)
    r = _piece_residual(xx, qq, delta, order, k)
    return float(r @ r)


def loss_total(x, q, delta: float) -> float:
    """Sum of the order, support and square parts."""
    return loss_ord(x, q) + loss_supp(x, q, delta) + loss_sqr(x, q, delta)


def loss_grad(x, q, delta: float) -> np.ndarray:
    """Gradient of the total loss in x (a subgradient at hinge corners)."""
    xx, qq = _validated(x, q, delta)
    g = np.zeros_like(xx)

    order, k, last = _target_piece(qq)
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

    r = _piece_residual(xx, qq, delta, order, k)
    g[order] -= (2.0 / delta) * _piece_apply_transpose(r, k)
    return g


def _is_smooth_point(x: np.ndarray, q: np.ndarray, delta: float, tol: float) -> bool:
    order, _, last = _target_piece(q)
    xs = x[order]
    if np.any(np.abs(xs[1 : last + 1] - xs[:last]) <= tol):
        return False
    top = x[int(np.argmax(q))]
    in_support = q > 0
    args = np.concatenate([top - x[in_support] - delta, x[~in_support] - top + delta])
    return not np.any(np.abs(args) <= tol)


def subgradient_check(x, q, delta: float, fd_step: float = 1e-5) -> float | None:
    """Max relative error of the analytic gradient against central differences.

    Returns None (skip signal) when some hinge argument sits within
    2 * fd_step of its corner: there the central difference straddles a
    point where the loss is not differentiable.
    """
    xx, qq = _validated(x, q)
    if not _is_smooth_point(xx, qq, delta, 2.0 * fd_step):
        return None
    grad = loss_grad(xx, qq, delta)
    worst = 0.0
    for i in range(xx.size):
        hi = xx.copy()
        lo = xx.copy()
        hi[i] += fd_step
        lo[i] -= fd_step
        fd = (loss_total(hi, qq, delta) - loss_total(lo, qq, delta)) / (2.0 * fd_step)
        scale = max(abs(fd), abs(grad[i]), 1.0)
        worst = max(worst, abs(grad[i] - fd) / scale)
    return worst


def convexity_probe(q, delta: float, trials: int, rng_seed: int, loss=None, scale: float = 2.0) -> float:
    """Max observed convexity violation of the loss in x for fixed q.

    Draws random (x1, x2, t) triples and measures
    loss(t x1 + (1-t) x2) - t loss(x1) - (1-t) loss(x2); for a convex loss
    the max stays at numerical-noise level.  A custom ``loss(x)`` callable can
    be probed instead, e.g. to confirm the probe flags a concave double.
    """
    qq = check_distribution(q)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if loss is None:
        loss = lambda xv: loss_total(xv, qq, delta)
    d = qq.size
    worst = -np.inf
    for i in range(trials):
        rng = spawn_rng(rng_seed, i)
        x1 = rng.normal(0.0, scale * max(delta, 1.0), size=d)
        x2 = rng.normal(0.0, scale * max(delta, 1.0), size=d)
        t = rng.random()
        violation = loss(t * x1 + (1 - t) * x2) - t * loss(x1) - (1 - t) * loss(x2)
        worst = max(worst, violation)
    return float(worst)


def zero_iff_residual(x, delta: float) -> float:
    """loss_total at the selector's own output; zero up to float noise."""
    xx = as_values(x)
    return loss_total(xx, plsoftmax(xx, delta), delta)
