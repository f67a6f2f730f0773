"""Training loss tied to the piecewise-linear soft-max.

For scores x and a target distribution q the loss has three nonnegative
parts: an order part (hinges on score inversions along q's sort order, up to
and including the first zero-probability coordinate), a support part (hinges
forcing exactly the delta-close scores to carry probability), and a square
part (squared distance between q and the linear selector piece indexed by
q's own order and support).  The total is zero exactly when the selector
applied to x returns q, and it is convex in x for fixed q.

Everything the loss reads of q (its order, support size, top index,
support indices and q in rank order) is built once per target, by
``_target_piece``.  The hinge arguments of a point, or of (n, d) rows, are
computed once, by ``_hinges``; the parts (``_parts``, one body for a vector
and for rows), the gradient (the signs of the arguments) and the smoothness
test of ``subgradient_check`` (the smallest |argument|) all read them.  The
1-D losses validate once and read ``_parts``, and the row form that the
gradient and convexity probes use reads it on rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .mechanisms import _check_param, _piece_apply, _piece_apply_transpose, plsoftmax
from .seeding import spawn_rng
from .simplex import as_value_rows, as_values, check_distribution

# Trials of the convexity probe drawn together and evaluated per row-form loss
# call (three points each); bounds the probe's memory at any trial count.  A
# block is also the unit of seeding, so retuning it changes seeded outputs.
_PROBE_BLOCK = 512
_PROBE_SCALE = 2.0  # the probe's normal draws have sd _PROBE_SCALE * max(delta, 1)
_FD_STEP = 1e-5  # central-difference step of subgradient_check


class _Piece(NamedTuple):
    """What the loss reads of a validated target q, built once per target."""

    order: np.ndarray  # q's stable non-increasing sort order
    k: int  # support size
    last: int  # last rank of the order part: the first outside the support, capped at d - 1
    top: int  # q's first max index (order[0]), matching the tie rule
    support: np.ndarray  # the indices with q > 0, ascending
    outside: np.ndarray  # the indices with q == 0, ascending
    qs: np.ndarray  # q[order]


def _target_piece(q: np.ndarray) -> _Piece:
    """The _Piece of an already validated q."""
    order = np.argsort(-q, kind="stable")
    in_support = q > 0
    k = int(np.count_nonzero(in_support))
    return _Piece(order, k, min(k, q.size - 1), int(order[0]), np.flatnonzero(in_support),
                  np.flatnonzero(~in_support), q[order])


def _validated(x, q, delta: float | None = None, rows: bool = False):
    xx = as_value_rows(x) if rows else as_values(x)
    qq = check_distribution(q)
    if xx.shape[-1:] != qq.shape:
        raise ValueError("scores and target must share a dimension")
    if delta is not None:
        _check_param(delta, "delta")
    return xx, qq


def _hinges(x: np.ndarray, delta: float, piece: _Piece):
    """The hinge pass of validated scores x, one vector or (n, d) rows,
    against a target whose _Piece is piece: x in q's rank order, and the
    arguments of the three hinge families, each active where it is > 0.

    - order: xs[i + 1] - xs[i] for ranks i below piece.last;
    - inside: top - x[j] - delta for j in the support;
    - outside: x[j] - top + delta for j outside it;

    top being the score of q's top coordinate.  Every array is C-contiguous
    (take, unlike a fancy-indexed column selection, returns C order), so
    each row reduces as one vector does.
    """
    xs = x.take(piece.order, -1)
    top = xs[..., :1]
    return (xs, xs[..., 1 : piece.last + 1] - xs[..., : piece.last],
            top - x.take(piece.support, -1) - delta, x.take(piece.outside, -1) - top + delta)


def _parts(x: np.ndarray, delta: float, piece: _Piece):
    """The order, support and square parts of the loss at validated scores x,
    one vector or (n, d) rows, against one validated target whose _Piece is
    piece.  Their sum is the total loss.

    Each row's parts equal the parts of that row alone bit for bit: every
    reduction runs on a C-contiguous row, as on one vector (numpy sums rows
    of another layout in another order), and the square part is a stack of
    r @ r row products, which numpy computes with the 1-D dot product
    (einsum rounds differently).
    """
    xs, ord_args, inside, outside = _hinges(x, delta, piece)
    ord_part = np.maximum(ord_args, 0.0).sum(axis=-1)
    supp_part = np.maximum(inside, 0.0).sum(axis=-1) + np.maximum(outside, 0.0).sum(axis=-1)
    r = _piece_residual(xs, piece.qs, delta, piece.k)
    return ord_part, supp_part, (r[..., None, :] @ r[..., :, None])[..., 0, 0]


def _validated_parts(x, q, delta: float, rows: bool = False):
    """_parts of scores and a target validated here."""
    xx, qq = _validated(x, q, delta, rows)
    return _parts(xx, delta, _target_piece(qq))


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
    r = qs - _piece_apply(xs, k) / delta
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
    piece = _target_piece(qq)
    return _hinge_grad(_hinges(xx, delta, piece), delta, piece)


def _hinge_grad(hinges, delta: float, piece: _Piece) -> np.ndarray:
    """loss_grad at one point, read off its _hinges: each active hinge
    contributes +-1, then the square part its residual through A_k^T."""
    xs, ord_args, inside, outside = hinges
    order, k, last = piece.order, piece.k, piece.last
    g = np.zeros(xs.size)
    inverted = ord_args > 0
    g[order[1 : last + 1]] = inverted
    g[order[:last]] -= inverted
    too_low, too_high = inside > 0, outside > 0
    g[piece.support] -= too_low
    g[piece.outside] += too_high
    g[piece.top] += np.count_nonzero(too_low) - np.count_nonzero(too_high)
    r = _piece_residual(xs, piece.qs, delta, k)
    g[order] -= (2.0 / delta) * _piece_apply_transpose(r, k)
    return g


def _is_smooth(hinges, tol: float) -> bool:
    """Whether every hinge argument of one point's _hinges is farther than
    tol from its corner: the smallest |argument| is above tol."""
    return all(np.minimum.reduce(np.abs(args), initial=np.inf) > tol for args in hinges[1:])


def subgradient_check(x, q, delta: float) -> float | None:
    """Max relative error of the analytic gradient against central differences.

    Returns None (skip signal) when some hinge argument sits within
    2 * _FD_STEP of its corner: there the central difference straddles a
    point where the loss is not differentiable.  The loss is translation
    invariant, so everything runs at x - max(x): at a large offset,
    x +- _FD_STEP would round to x +- ulp.  One hinge pass at that point
    serves the test and the gradient; the 2d difference points are the rows
    of one _parts call.
    """
    xx, qq = _validated(x, q, delta)
    xx = xx - np.maximum.reduce(xx)
    piece = _target_piece(qq)
    hinges = _hinges(xx, delta, piece)
    if not _is_smooth(hinges, 2.0 * _FD_STEP):
        return None
    grad = _hinge_grad(hinges, delta, piece)
    d = xx.size
    steps = np.empty((2 * d, d))
    steps[:] = xx
    flat = steps.reshape(-1)
    flat[: d * d : d + 1] += _FD_STEP  # row i steps coordinate i up
    flat[d * d :: d + 1] -= _FD_STEP  # row d + i steps it down
    losses = sum(_parts(steps, delta, piece))
    fds = (losses[:d] - losses[d:]) / (2.0 * _FD_STEP)
    scale = np.maximum(np.maximum(np.abs(fds), np.abs(grad)), 1.0)
    return float(np.maximum.reduce(np.abs(grad - fds) / scale, initial=0.0))


def convexity_probe(q, delta: float, trials: int, rng_seed: int) -> float:
    """Max observed convexity violation of the loss in x for fixed q.

    Draws random (x1, x2, t) triples and measures
    loss(t x1 + (1-t) x2) - t loss(x1) - (1-t) loss(x2); for a convex loss
    the max stays at numerical-noise level.  The trials come in draw blocks
    of B = _PROBE_BLOCK: block b draws one ``standard_normal((n, 2 d))``
    call on spawn_rng(rng_seed, b, 0), n being its trials, and one
    ``random(n)`` call on spawn_rng(rng_seed, b, 1).  Trial i = bB + j takes
    x1 and x2 from row j of the normals, times sd, and t from uniform j, so a
    run of n trials is a prefix of any longer run.  The loss is evaluated by
    the row form, one call per block.
    """
    qq = check_distribution(q)
    _check_param(delta, "delta")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d, sd = qq.size, _PROBE_SCALE * max(delta, 1.0)
    worst = -np.inf
    for block, start in enumerate(range(0, trials, _PROBE_BLOCK)):
        n = min(_PROBE_BLOCK, trials - start)
        z = spawn_rng(rng_seed, block, 0).standard_normal((n, 2 * d))
        z *= sd
        t = spawn_rng(rng_seed, block, 1).random(n)
        x1, x2 = z[:, :d], z[:, d:]
        mid = t[:, None] * x1 + (1 - t[:, None]) * x2
        l_mid, l1, l2 = np.split(_loss_rows(np.concatenate([mid, x1, x2]), qq, delta), 3)
        worst = max(worst, *(l_mid - t * l1 - (1 - t) * l2).tolist())
    return float(worst)


def zero_iff_residual(x, delta: float) -> float:
    """loss_total at the selector's own output; zero up to float noise."""
    xx = as_values(x)
    return loss_total(xx, plsoftmax(xx, delta), delta)
