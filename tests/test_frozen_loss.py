"""The loss, its gradient and its smoothness test against frozen copies of an
earlier version of each, bit for bit.

The copies below are the bodies from before one hinge pass served all three:
each gathered the hinge arguments itself (the support by boolean masks), and
the square part's kernel took an array of per-row counts for rows.  The
smoothness test's copy is test_classification.is_smooth_point.  They share
only the frozen kernels of test_frozen_selectors.py, so a change to how the
hinge arguments, the gradient or the square part are computed shows here.
"""

import numpy as np
import pytest

from softmech.classification import _hinges, _is_smooth, _loss_rows, _target_piece, loss_grad, loss_total
from softmech.mechanisms import plsoftmax
from test_classification import is_smooth_point, random_target, targets
from test_frozen_selectors import _piece_apply, _piece_apply_transpose
from test_mechanisms import support_edge_inputs


def target_piece(q):
    order = np.argsort(-q, kind="stable")
    k = int(np.count_nonzero(q > 0))
    return order, k, min(k, q.size - 1)


def parts(x, q, delta, piece):
    order, k, last = piece
    xs = np.ascontiguousarray(x[..., order])
    ord_part = np.maximum(xs[..., 1 : last + 1] - xs[..., :last], 0.0).sum(axis=-1)

    top = x[..., int(np.argmax(q)), None]  # first max index, matching the tie rule
    in_support = q > 0
    inside = np.maximum(top - np.ascontiguousarray(x[..., in_support]) - delta, 0.0).sum(axis=-1)
    outside = np.maximum(np.ascontiguousarray(x[..., ~in_support]) - top + delta, 0.0).sum(axis=-1)

    r = piece_residual(xs, q[order], delta, k)
    return ord_part, inside + outside, (r[..., None, :] @ r[..., :, None])[..., 0, 0]


def piece_residual(xs, qs, delta, k):
    r = qs - _piece_apply(xs, k if xs.ndim == 1 else np.full((xs.shape[0], 1), k)) / delta
    r[..., :k] -= 1.0 / k
    return r


def frozen_loss_total(x, q, delta):
    return float(sum(parts(x, q, delta, target_piece(q))))


def frozen_loss_grad(xx, qq, delta):
    g = np.zeros_like(xx)
    order, k, last = target_piece(qq)
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

    r = piece_residual(xx[order], qq[order], delta, k)
    g[order] -= (2.0 / delta) * _piece_apply_transpose(r, k)
    return g


def cases(d, rng):
    """(x, q, delta): support_edge_inputs (random scores, ties, k = 1 and
    k = d selector outputs, entries moved by ulps around max - delta, at
    offsets 0, 1e8 and 1e12) and the same at offset 1e4, against targets
    of every support size with and without ties and against the selector's
    own output; plus points with one hinge argument near the smoothness
    test's tolerance."""
    xs = support_edge_inputs(d, rng)
    xs += [x + 1e4 for x in xs[::3]]
    for j, x in enumerate(xs):
        delta = (0.5, 1.0, 2.0)[j % 3]
        for q in (*targets(d, rng), plsoftmax(x, delta)):
            yield x, q, delta
    for delta in (0.5, 1.0):
        for gap in (1e-5, 2e-5, 3e-5):
            for offset in (0.0, 1e4):
                x = rng.normal(0.0, 2.0, size=d) + offset
                q = random_target(d, rng)
                order, _, last = target_piece(q)
                if d > 1 and last:
                    x[order[1]] = x[order[0]] - gap  # an order hinge
                x[order[-1]] = x[order[0]] - delta + (gap if q[order[-1]] > 0 else -gap)  # a support hinge
                yield x, q, delta


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
def test_loss_gradient_and_smoothness_equal_frozen_copies(d):
    rng = np.random.default_rng(d + 100)
    smooth = 0
    for x, q, delta in cases(d, rng):
        assert np.float64(loss_total(x, q, delta)).tobytes() == np.float64(frozen_loss_total(x, q, delta)).tobytes()
        assert loss_grad(x, q, delta).tobytes() == frozen_loss_grad(x, q, delta).tobytes()
        piece = _target_piece(q)
        for tol in (0.0, 1e-5, 2e-5):
            want = is_smooth_point(x, q, delta, tol)
            assert _is_smooth(_hinges(x, delta, piece), tol) == want
            smooth += want
    assert smooth  # some points are smooth, and the ties make others not


@pytest.mark.parametrize("d", [1, 3, 32])
def test_row_losses_equal_frozen_copy(d):
    rng = np.random.default_rng(d + 200)
    X = np.vstack(support_edge_inputs(d, rng))
    for q in targets(d, rng):
        for delta in (0.5, 2.0):
            want = sum(parts(X, q, delta, target_piece(q)))
            assert _loss_rows(X, q, delta).tobytes() == want.tobytes()
