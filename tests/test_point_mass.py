"""The point mass of the support-first selectors: when the max is the only
entry within delta (within 1 for sparsemax), plsoftmax, logplsoftmax and
sparsemax return e_max without running the piece map or the threshold.
Their outputs there, and on the near misses next to it, are checked against
the frozen copies of test_frozen_selectors.py, bit for bit; a digest of those
copies' source pins them."""

import hashlib
import inspect

import numpy as np
import pytest

import test_frozen_selectors as frozen
from softmech.mechanisms import log_plsoftmax, plsoftmax, sparsemax

# numpy's pairwise sum changes shape at 8 and 128 entries, the rank tables
# start at 64 entries
DIMS = [1, 2, 3, 4, 7, 8, 9, 16, 63, 64, 65, 127, 128, 129, 500, 1023, 1024]
OFFSETS = (0.0, 1e8, 1e12)
DELTAS = (0.5, 1.0, 2.0)
FROZEN_SOURCES = (frozen.as_values, frozen._checked_values, frozen.finalize_distribution, frozen._check_param,
                  frozen._piece_apply, frozen.plsoftmax, frozen.log_plsoftmax, frozen.sparsemax)
FROZEN_DIGEST = "947b5e87646f76bf33a514df59042c9b65627d74d330aa38f409f0d5405220e4"


def test_frozen_copies_unedited():
    source = "".join(inspect.getsource(fn) for fn in FROZEN_SOURCES)
    assert hashlib.sha256(source.encode()).hexdigest() == FROZEN_DIGEST


def steps(edge, ulps):
    """edge moved by 1 to ulps ulp either way."""
    out = []
    for direction in (-np.inf, np.inf):
        y = edge
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def check_edge(select, oracle, d, top, edge, rest, ulps=1):
    """select against oracle, bit for bit, with the top entry at the first, a
    middle and the last position and the others at rest, below the edge of
    the active set: the top alone, then with a second entry tied with it or
    up to ulps ulp either side of the edge.  The lone top gives the point
    mass, and the second entry is active on one side of the edge only."""
    supports = set()
    for i in sorted({0, d // 2, d - 1}):
        x = np.full(d, rest)
        x[i] = top
        out = select(x)
        assert out.tobytes() == oracle(x).tobytes()
        assert out.tolist() == (x == top).astype(float).tolist()
        for second in (top, *steps(edge, ulps)):
            x = np.full(d, rest)
            x[(i + 1) % d] = second
            x[i] = top
            out = select(x)
            assert out.tobytes() == oracle(x).tobytes()
            supports.add(int(np.count_nonzero(out)))
    assert supports == ({1} if d == 1 else {1, 2})


@pytest.mark.parametrize("d", DIMS)
def test_plsoftmax_point_mass(d):
    for offset in OFFSETS:
        for delta in DELTAS:
            check_edge(lambda x: plsoftmax(x, delta), lambda x: frozen.plsoftmax(x, delta), d, offset, offset - delta,
                       offset - 3.0 * delta)


@pytest.mark.parametrize("d", DIMS)
def test_log_plsoftmax_point_mass(d):
    # the offsets become scales: the log kind sees log(scale) + log(x).  Where
    # log(x) crosses log(scale) - delta is known only to a few ulp of x
    for scale in (1.0, *OFFSETS[1:]):
        for delta in DELTAS:
            check_edge(lambda x: log_plsoftmax(x, delta), lambda x: frozen.log_plsoftmax(x, delta), d, scale,
                       scale * np.exp(-delta), scale * np.exp(-3.0 * delta), ulps=4)


@pytest.mark.parametrize("d", DIMS)
def test_sparsemax_point_mass(d):
    for offset in OFFSETS:
        check_edge(sparsemax, frozen.sparsemax, d, offset, offset - 1.0, offset - 3.0)
