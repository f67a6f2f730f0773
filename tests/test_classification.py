"""Loss components: zero-iff fixed point, convexity, gradients."""

import numpy as np
import pytest

from softmech import classification
from softmech.classification import (
    _loss_rows,
    _target_piece,
    convexity_probe,
    loss_grad,
    loss_ord,
    loss_sqr,
    loss_supp,
    loss_total,
    subgradient_check,
    zero_iff_residual,
)
from softmech.mechanisms import plsoftmax
from softmech.seeding import spawn_rng
from softmech.smmatrix import build_softmax_matrix


def dense_piece_map(q, delta):
    """Affine map (M, b) of the selector piece indexed by q's order and support,
    built densely from the exact matrix: M = P^T A_k P / delta, b = P^T 1_k/k."""
    d = q.size
    order = np.argsort(-q, kind="stable")  # non-increasing, ties by ascending index
    k = int(np.count_nonzero(q > 0))
    P = np.zeros((d, d))
    P[np.arange(d), order] = 1.0  # row r picks the rank-r coordinate
    M = P.T @ build_softmax_matrix(k, d).to_float() @ P / delta
    return M, P.T @ np.where(np.arange(d) < k, 1.0 / k, 0.0)


def is_smooth_point(x, q, delta, tol):
    """Whether every hinge argument at x is farther than tol from its corner
    (the package's own test before the hinge pass, kept as the oracle)."""
    order = np.argsort(-q, kind="stable")
    last = min(int(np.count_nonzero(q > 0)), q.size - 1)
    xs = x[order]
    if np.any(np.abs(xs[1 : last + 1] - xs[:last]) <= tol):
        return False
    top = x[int(np.argmax(q))]
    in_support = q > 0
    args = np.concatenate([top - x[in_support] - delta, x[~in_support] - top + delta])
    return not np.any(np.abs(args) <= tol)


def per_point_subgradient_check(x, q, delta, fd_step=1e-5):
    """subgradient_check with one loss_total call per finite-difference point,
    at x - max(x) as it is."""
    xx, qq = np.asarray(x, dtype=float), np.asarray(q, dtype=float)
    xx = xx - xx.max()
    if not is_smooth_point(xx, qq, delta, 2.0 * fd_step):
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


def per_trial_convexity_probe(q, delta, trials, rng_seed, scale=2.0, loss=None):
    """convexity_probe with three loss calls (loss_total by default) per trial.

    Each draw block of _PROBE_BLOCK trials takes its normals and its
    uniforms in one numpy call each; the chords are built one trial at a
    time."""
    d = q.size
    if loss is None:
        loss = lambda xv: loss_total(xv, q, delta)
    sd = scale * max(delta, 1.0)
    block = classification._PROBE_BLOCK
    worst = -np.inf
    for b, start in enumerate(range(0, trials, block)):
        n = min(block, trials - start)
        normals = spawn_rng(rng_seed, b, 0).standard_normal((n, 2 * d))
        uniforms = spawn_rng(rng_seed, b, 1).random(n)
        for z, t in zip(normals, uniforms.tolist()):
            x1, x2 = z[:d] * sd, z[d:] * sd
            worst = max(worst, loss(t * x1 + (1 - t) * x2) - t * loss(x1) - (1 - t) * loss(x2))
    return float(worst)


def concave(x):
    return -float(x @ x)


def concave_rows(X, q, delta):
    """A concave double of ``_loss_rows``: ``concave`` on each row."""
    return np.array([concave(x) for x in X])


def random_target(d, rng):
    ts = list(targets(d, rng))
    return ts[int(rng.integers(len(ts)))]


def targets(d, rng):
    """Targets with every support size 1..d: equal weights (uniform at k = d)
    and weights 1 or 2 (ties) on k random coordinates."""
    for k in range(1, d + 1):
        for weights in (np.ones(k), rng.integers(1, 3, size=k).astype(float)):
            q = np.zeros(d)
            q[rng.permutation(d)[:k]] = weights / weights.sum()
            yield q


class TestOrder:
    def test_aligned_is_zero(self):
        x = np.array([3.0, 2.0, 1.0])
        q = np.array([0.6, 0.3, 0.1])
        assert loss_ord(x, q) == 0.0

    def test_single_inversion(self):
        assert loss_ord(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 1.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.normal(size=5)
            q = plsoftmax(rng.normal(size=5), 1.0)
            assert np.isclose(loss_ord(x + 3.7, q), loss_ord(x, q))

    def test_tail_inversions_not_penalized(self):
        # coordinates with zero target mass are mutually unordered
        x = np.array([5.0, 0.1, 0.2])
        q = np.array([1.0, 0.0, 0.0])
        assert loss_ord(x, q) == 0.0
        # but the support-to-tail junction is still checked
        x_bad = np.array([5.0, 6.0, 0.2])
        assert loss_ord(x_bad, q) == 1.0

    def test_tie_break_ascending_index(self):
        q = np.array([0.5, 0.0, 0.5, 0.0])
        assert _target_piece(q)[0].tolist() == [0, 2, 1, 3]


class TestSupport:
    def test_hinge_example(self):
        assert loss_supp(np.array([0.0, 2.0]), np.array([1.0, 0.0]), 1.0) == 3.0

    def test_zero_cases(self):
        x = np.array([1.0, 0.8, -5.0])
        q = np.array([0.7, 0.3, 0.0])
        assert loss_supp(x, q, 1.0) == 0.0
        assert loss_supp(np.array([0.3, 0.1, 0.2]), np.full(3, 1 / 3), 1.0) == 0.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.normal(size=4)
            q = plsoftmax(rng.normal(size=4), 0.5)
            assert np.isclose(loss_supp(x - 11.0, q, 0.5), loss_supp(x, q, 0.5))


class TestSquare:
    def test_zero_at_uniform(self):
        assert loss_sqr(np.zeros(4), np.full(4, 0.25), 1.0) == 0.0

    def test_zero_at_selector_output(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=6)
            q = plsoftmax(x, 1.0)
            assert loss_sqr(x, q, 1.0) <= 1e-24

    def test_translation_invariant_by_zero_row_sums(self):
        # the piece matrix annihilates the all-ones direction (that is what
        # makes the selector translation invariant), so the square part
        # cannot distinguish shifted scores either
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.normal(size=5)
            q = plsoftmax(rng.normal(size=5), 1.0)
            assert np.isclose(loss_sqr(x + 2.5, q, 1.0), loss_sqr(x, q, 1.0), atol=1e-12)


class TestTotal:
    def test_zero_iff_forward(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(2, 17))
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.normal(0.0, 2.0 * delta, size=d)
            assert zero_iff_residual(x, delta) <= 1e-12

    def test_positive_off_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=6)
            q = plsoftmax(x, 1.0)
            bad = q.copy()
            j = int(np.argmin(x))
            i = int(np.argmax(q))
            shift = min(0.2, bad[i] / 2)
            bad[i] -= shift
            bad[j] += shift  # support now includes a far coordinate
            assert loss_total(x, bad, 1.0) > 1e-6

    def test_nonnegative_components(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            x = rng.normal(size=d)
            q = rng.dirichlet(np.ones(d))
            assert loss_ord(x, q) >= 0.0
            assert loss_supp(x, q, 1.0) >= 0.0
            assert loss_sqr(x, q, 1.0) >= 0.0
            assert loss_total(x, q, 1.0) >= 0.0


class TestConvexity:
    def test_probe_passes(self):
        for d in (2, 4, 8, 16):
            q = np.full(d, 1.0 / d)
            assert convexity_probe(q, 1.0, 400, 0) <= 1e-9

    def test_probe_flags_concave_double(self, monkeypatch):
        monkeypatch.setattr(classification, "_loss_rows", concave_rows)
        assert convexity_probe(np.full(4, 0.25), 1.0, 200, 0) > 1e-3

    def test_sparse_targets(self):
        q = np.array([0.7, 0.3, 0.0, 0.0])
        assert convexity_probe(q, 0.5, 400, 1) <= 1e-9


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            d = 8
            x = rng.normal(0.0, 2.0, size=d)
            q = plsoftmax(rng.normal(0.0, 2.0, size=d), 1.0)
            err = subgradient_check(x, q, 1.0)
            if err is None:
                continue
            assert err <= 1e-4
            checked += 1

    @pytest.mark.parametrize("offset", [1e8, 1e10, 1e12])
    def test_large_offsets_match_finite_differences(self, offset):
        # x +- 1e-5 would round to x +- ulp at these offsets; the check runs at
        # x - max(x), where the loss is the same by translation invariance
        rng = np.random.default_rng(5)
        worst, checked = 0.0, 0
        for _ in range(50):
            x = rng.normal(0.0, 2.0, size=8)
            q = plsoftmax(rng.normal(0.0, 2.0, size=8), 1.0)
            err = subgradient_check(x + offset, q, 1.0)
            if err is not None:
                worst, checked = max(worst, err), checked + 1
        assert checked >= 40
        assert worst <= 1e-8

    def test_skip_within_difference_step_of_a_corner(self):
        # a support hinge sits 6.5e-6 from its corner: inside the central
        # difference's reach (a step of 1e-5), so the point must be skipped
        rng = np.random.default_rng([5, 892])
        x = rng.normal(0.0, 2.0, size=32)
        q = plsoftmax(rng.normal(0.0, 2.0, size=32), 1.0)
        assert subgradient_check(x, q, 1.0) is None

    def test_skip_signal_at_ties(self):
        q = np.array([0.6, 0.4, 0.0])
        x = np.array([2.0, 2.0, 0.0])  # exact tie along q's order
        assert subgradient_check(x, q, 1.0) is None

    def test_inactive_hinges_zero_gradient(self):
        # deep inside the aligned region only the square part contributes
        x = np.array([3.0, 2.5, -10.0])
        q = plsoftmax(np.array([3.0, 2.5, -10.0]), 1.0)
        g = loss_grad(x, q, 1.0)
        M, b = dense_piece_map(q, 1.0)
        assert np.allclose(g, -2.0 * M.T @ (q - M @ x - b), atol=1e-12)

    def test_pure_square_region_matches_affine_formula(self):
        rng = np.random.default_rng(8)
        x = np.array([1.0, 0.7, 0.4])
        q = plsoftmax(x, 2.0)
        M, b = dense_piece_map(q, 2.0)
        y = x + rng.normal(0.0, 0.01, size=3)
        g = loss_grad(y, q, 2.0)
        assert np.allclose(g, -2.0 * M.T @ (q - M @ y - b), atol=1e-9)


class TestLossRows:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 16, 32, 64])
    def test_each_row_equals_loss_total_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for j, q in enumerate(targets(d, rng)):
            delta = (0.25, 1.0, 3.0)[j % 3]
            offset = (0.0, 1e4, 1e8, 1e12)[j % 4]
            X = rng.normal(0.0, 2.0 * delta, size=(4, d))
            X[1] = np.round(X[1] * 2.0) / 2.0  # ties among the scores
            X[2] = X[0]
            X += offset
            rows = _loss_rows(X, q, delta)
            assert rows.tolist() == [loss_total(x, q, delta) for x in X]

    def test_rejects_what_loss_total_rejects(self):
        q = np.full(3, 1 / 3)
        X = np.zeros((2, 3))
        X[1, 2] = np.inf
        with pytest.raises(ValueError, match="value vector must be finite"):
            loss_total(X[1], q, 1.0)
        with pytest.raises(ValueError, match="value vector must be finite"):
            _loss_rows(X, q, 1.0)
        for delta in (0.0, -1.0, np.inf, np.nan):
            for call in (lambda: loss_total(X[0], q, delta), lambda: _loss_rows(X[:1], q, delta)):
                with pytest.raises(ValueError, match="delta must be positive and finite"):
                    call()
        with pytest.raises(ValueError, match="share a dimension"):
            _loss_rows(np.zeros((2, 4)), q, 1.0)
        with pytest.raises(ValueError, match="sums to"):
            _loss_rows(X[:1], np.full(3, 0.5), 1.0)


class TestProbesMatchPerPointLoops:
    def test_subgradient_check(self):
        rng = np.random.default_rng(12)
        results = []
        for j in range(320):
            d = int(rng.choice([1, 2, 3, 8, 9, 16, 32, 64]))
            delta = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
            x = rng.normal(0.0, 2.0 * delta, size=d) + float(rng.choice([0.0, 1e4]))
            if j % 5 == 0 and d > 1:
                x[1] = x[0]  # a tie: some hinge may sit at its corner
            q = plsoftmax(rng.normal(0.0, 2.0 * delta, size=d), delta) if j % 2 else random_target(d, rng)
            got = subgradient_check(x, q, delta)
            assert got == per_point_subgradient_check(x, q, delta)
            results.append(got)
        assert 0 < results.count(None) < len(results)

    @pytest.mark.parametrize("block", [1, 7, 512])
    def test_convexity_probe(self, monkeypatch, block):
        monkeypatch.setattr(classification, "_PROBE_BLOCK", block)
        rng = np.random.default_rng(block)
        for d in (1, 2, 3, 8, 16):
            for q in (np.full(d, 1 / d), random_target(d, rng), plsoftmax(rng.normal(size=d), 0.5)):
                for delta, trials in ((0.5, 1), (1.0, 20), (2.0, 45)):
                    seed = int(rng.integers(1000))
                    assert convexity_probe(q, delta, trials, seed) == per_trial_convexity_probe(q, delta, trials, seed)

    def test_convexity_probe_custom_loss(self, monkeypatch):
        # a concave double of the row loss, over rows drawn a block at a time
        monkeypatch.setattr(classification, "_loss_rows", concave_rows)
        q = np.full(5, 0.2)
        for trials in (classification._PROBE_BLOCK - 1, classification._PROBE_BLOCK + 1):
            got = convexity_probe(q, 1.5, trials, 3)
            ref = per_trial_convexity_probe(q, 1.5, trials, 3, loss=concave)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
            assert got > 1e-3

    @pytest.mark.parametrize("block", [7, 512])
    def test_convexity_probe_run_is_a_prefix_of_a_longer_run(self, monkeypatch, block):
        # numpy fills each block's two streams in order, so the chords of a
        # run of n trials are the first n chords of any longer run
        monkeypatch.setattr(classification, "_PROBE_BLOCK", block)
        evaluated = []

        def recording(X, q, delta):
            evaluated.append(np.split(X, 3))  # the midpoints, then x1, then x2
            return _loss_rows(X, q, delta)

        def chords(trials):
            evaluated.clear()
            convexity_probe(np.full(4, 0.25), 1.0, trials, 8)
            return np.concatenate([np.concatenate(parts, axis=1) for parts in evaluated])

        monkeypatch.setattr(classification, "_loss_rows", recording)
        for n in (1, block - 1, block, block + 1):
            got, longer = chords(n), chords(n + block + 1)
            assert got.shape == (n, 12)
            assert got.tobytes() == longer[:n].tobytes(), n

    def test_convexity_probe_takes_two_generators_per_block(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return spawn_rng(*args)

        monkeypatch.setattr(classification, "spawn_rng", counting)
        block = classification._PROBE_BLOCK
        for trials in (1, block, block + 1, 3 * block):
            calls.clear()
            convexity_probe(np.full(3, 1 / 3), 1.0, trials, 4)
            assert calls == [(4, b, stream) for b in range(-(-trials // block)) for stream in (0, 1)], trials

    def test_convexity_probe_refuses_a_negative_seed(self):
        with pytest.raises(ValueError):
            convexity_probe(np.full(3, 1 / 3), 1.0, 5, -1)

    def test_probes_reject_bad_delta(self):
        q = np.full(4, 0.25)
        for delta in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                subgradient_check(np.arange(4.0), q, delta)
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                convexity_probe(q, delta, 5, 0)
