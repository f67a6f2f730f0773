"""Distance/divergence examples and subordinate-norm oracles."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from softmech.distances import (
    log_lp_distance,
    lp_distance,
    metric_from_id,
    parse_metric_id,
    renyi_divergence,
    sm_norm_bound,
    subordinate_norm_exact,
    subordinate_norm_row_bound,
    subordinate_norm_sampled,
)
from softmech.smmatrix import build_softmax_matrix, harmonic

INF = float("inf")


def random_simplex(rng, d, conc=1.0):
    return rng.dirichlet(np.full(d, conc))


def decimal_renyi(x, y, order):
    """The order's divergence in the current decimal precision, from the
    floats' exact values: sum x log(x/y), or log(sum x (x/y)**(a-1)) / (a-1)."""
    pairs = [(Decimal(a), Decimal(b)) for a, b in zip(x.tolist(), y.tolist()) if a > 0]
    if order == 1:
        return sum(a * (a / b).ln() for a, b in pairs)
    power = Decimal(order) - 1
    return sum(a * ((a / b).ln() * power).exp() for a, b in pairs).ln() / power


class TestLp:
    def test_examples(self):
        assert lp_distance([1.0, 2.0], [1.0, 2.0], 3.0) == 0.0
        assert lp_distance([1.0, 0.0], [0.0, 1.0], 1.0) == 2.0
        assert lp_distance([3.0, 0.0], [0.0, 4.0], 2.0) == 5.0
        assert lp_distance([1.0, -7.0], [2.0, 3.0], INF) == 10.0

    def test_errors(self):
        with pytest.raises(ValueError):
            lp_distance([1.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            lp_distance([1.0, 2.0], [1.0], 2.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_scales_past_the_float_range_of_the_powers(self, p, c):
        # the p-th powers of c * (a - b) overflow (c = 1e200) or underflow (1e-200)
        x, y = np.random.default_rng(7).normal(size=(2, 30, 4))
        expected = c * lp_distance(x, y, p)
        np.testing.assert_allclose(lp_distance(c * x, c * y, p), expected, rtol=1e-15, atol=0.0)
        assert np.isclose(lp_distance(c * x[0], c * y[0], p), expected[0], rtol=1e-15, atol=0.0)
        assert lp_distance(c * x[0], c * x[0], p) == 0.0


class TestRenyi:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        for alpha in [1.0, 1.5, 2.0, 10.0, INF]:
            x = random_simplex(rng, 6)
            assert abs(renyi_divergence(x, x, alpha)) < 1e-12

    def test_examples(self):
        assert np.isclose(renyi_divergence([1.0, 0.0], [0.5, 0.5], INF), np.log(2))
        kl = renyi_divergence([0.5, 0.5], [0.25, 0.75], 1.0)
        assert np.isclose(kl, 0.5 * np.log(2) + 0.5 * np.log(2 / 3))

    def test_infinite_when_mass_unmatched(self):
        assert renyi_divergence([0.5, 0.5], [1.0, 0.0], 1.0) == INF
        assert renyi_divergence([0.5, 0.5], [1.0, 0.0], 2.0) == INF
        assert renyi_divergence([0.5, 0.5], [1.0, 0.0], INF) == INF
        # zero-mass coordinates of the first argument contribute nothing
        assert np.isfinite(renyi_divergence([1.0, 0.0], [0.5, 0.5], 1.0))

    def test_monotone_in_order(self):
        rng = np.random.default_rng(1)
        orders = [1.0, 1.3, 2.0, 4.0, 16.0, INF]
        for _ in range(200):
            d = int(rng.integers(2, 8))
            x, y = random_simplex(rng, d), random_simplex(rng, d)
            vals = [renyi_divergence(x, y, a) for a in orders]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    @pytest.mark.filterwarnings("error")
    def test_large_orders_stay_finite_below_order_inf(self):
        # p**a / q**(a-1) overflows here; the log-sum-exp form does not
        rng = np.random.default_rng(3)
        orders = [1e3, 1e6, 1e12, INF]
        for _ in range(100):
            d = int(rng.integers(8, 33))
            x, y = random_simplex(rng, d, conc=0.5), random_simplex(rng, d, conc=0.5)
            x[rng.random(d) < 0.3] = 0.0
            x /= x.sum()
            rows = renyi_divergence(np.stack([x, y]), np.stack([y, x]), 1e6)
            assert np.isfinite(rows[0]) and np.isinf(rows[1]) == (x == 0).any()
            vals = [renyi_divergence(x, y, a) for a in orders]
            assert all(np.isfinite(vals))
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            for a in orders[:-1]:
                assert abs(renyi_divergence(x, x, a)) <= 1e-15

    def test_matches_a_60_digit_reference(self):
        # absolute bound 1e-14, about 45 eps: a few tens of roundings in the logs, exps and sums
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(300):
            d = int(rng.integers(2, 65))
            x = random_simplex(rng, d, conc=float(rng.choice([0.3, 1.0, 3.0])))
            y = random_simplex(rng, d, conc=float(rng.choice([0.3, 1.0, 3.0])))
            x[rng.random(d) < 0.2] = 0.0
            if x.sum() == 0.0:
                continue
            x /= x.sum()
            order = float(rng.choice([1.0, 1.5, 2.0, 3.0, 10.0, 50.0]))
            with localcontext() as ctx:
                ctx.prec = 60
                worst = max(worst, abs(Decimal(renyi_divergence(x, y, order)) - decimal_renyi(x, y, order)))
        assert worst <= Decimal("1e-14")

    def test_l1_dominated_by_two_sided_sup_divergence(self):
        # the transfer from divergence-Lipschitz to l1-Lipschitz uses the
        # two-sided bound; the one-sided form fails, e.g. at the pair below
        x, y = np.array([0.99, 0.01]), np.array([0.5, 0.5])
        assert lp_distance(x, y, 1.0) > renyi_divergence(x, y, INF)
        rng = np.random.default_rng(2)
        for _ in range(500):
            d = int(rng.integers(2, 7))
            a = random_simplex(rng, d, conc=float(rng.choice([0.3, 1.0, 3.0])))
            b = random_simplex(rng, d, conc=float(rng.choice([0.3, 1.0, 3.0])))
            two_sided = max(renyi_divergence(a, b, INF), renyi_divergence(b, a, INF))
            assert lp_distance(a, b, 1.0) <= two_sided + 1e-9


class TestRows:
    def test_rows_equal_vector_calls(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 40, 7))
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            loop = np.array([lp_distance(a, b, p) for a, b in zip(x, y)])
            assert lp_distance(x, y, p).tobytes() == loop.tobytes()
            loop = np.array([log_lp_distance(a, b, p) for a, b in zip(np.exp(x), np.exp(y))])
            assert log_lp_distance(np.exp(x), np.exp(y), p).tobytes() == loop.tobytes()
        for d in (7, 9, 16):
            x, y = rng.normal(size=(2, 40, d))
            p, q = np.exp(3.0 * x), np.exp(y)
            p[::3, :2] = 0.0
            p[1::4, d - 3:] = 0.0
            q[::5, 3] = 0.0
            p, q = p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)
            for order in (1.0, 1.5, 2.0, 50.0, 1e6, INF):
                loop = np.array([renyi_divergence(a, b, order) for a, b in zip(p, q)])
                assert np.isinf(loop).any() and np.isfinite(loop).any()
                assert renyi_divergence(p, q, order).tobytes() == loop.tobytes()

    def test_more_dimensions_equal_vector_calls(self):
        # one distance per last-axis row; at 1 < p < inf the roots are taken entry by entry
        x, y = np.random.default_rng(8).normal(size=(2, 2, 3, 4))
        y[1, 2] *= 1e200  # this row's cubes overflow and take the scaled path
        for p in (1.0, 3.0, INF):
            loop = np.array([[lp_distance(a, b, p) for a, b in zip(xs, ys)] for xs, ys in zip(x, y)])
            got = lp_distance(x, y, p)
            assert got.shape == (2, 3) and got.tobytes() == loop.tobytes()

    def test_rows_outside_the_domain_give_nan(self):
        x = np.exp(np.random.default_rng(6).normal(size=(4, 3)))
        y = x[::-1] / x[::-1].sum(axis=1, keepdims=True)
        x[1, 2] = 0.0
        with pytest.raises(ValueError):
            log_lp_distance(x[1], y[1], 2.0)
        assert np.isnan(log_lp_distance(x, y, 2.0)).tolist() == [False, True, False, False]
        with pytest.raises(ValueError):
            renyi_divergence(x[0], y[0], 1.0)
        p = x / x.sum(axis=1, keepdims=True)
        p[3] *= 2.0
        for order in (1.0, INF):
            assert np.isnan(renyi_divergence(p, y, order)).tolist() == [False, False, False, True]
        for order in (1.0, 2.0, INF):
            assert np.isnan(renyi_divergence(np.zeros((3, 0)), np.zeros((3, 0)), order)).tolist() == [True] * 3
            assert renyi_divergence(np.zeros((0, 3)), np.zeros((0, 3)), order).shape == (0,)


class TestLogLp:
    def test_examples(self):
        assert log_lp_distance([2.0, 3.0], [2.0, 3.0], 2.0) == 0.0
        assert np.isclose(log_lp_distance([np.e, 1.0], [1.0, 1.0], 1.0), 1.0)
        x, y = np.array([2.0, 5.0]), np.array([1.0, 7.0])
        assert np.isclose(log_lp_distance(3.0 * x, 3.0 * y, 2.0), log_lp_distance(x, y, 2.0))

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            x, y, z = (np.exp(rng.normal(size=d)) for _ in range(3))
            for p in [1.0, 2.0, INF]:
                dxy = log_lp_distance(x, y, p)
                assert np.isclose(dxy, log_lp_distance(y, x, p))
                assert dxy <= log_lp_distance(x, z, p) + log_lp_distance(z, y, p) + 1e-12

    def test_positivity_error(self):
        with pytest.raises(ValueError):
            log_lp_distance([1.0, 0.0], [1.0, 1.0], 2.0)


class TestExactNorm:
    def test_zero_matrix(self):
        assert subordinate_norm_exact(np.zeros((3, 3)), 2) == 0.0
        assert subordinate_norm_exact(np.zeros((3, 3)), INF) == 0.0

    def test_identity_p2_vs_circle_oracle(self):
        # independent oracle: maximize ||x||_1 over a fine grid of the unit circle
        thetas = np.linspace(0.0, 2 * np.pi, 20001)
        oracle = max(abs(np.cos(t)) + abs(np.sin(t)) for t in thetas)
        exact = subordinate_norm_exact(np.eye(2), 2)
        assert np.isclose(exact, np.sqrt(2))
        assert np.isclose(exact, oracle, atol=1e-6)

    def test_sm22_pinf_vs_vertex_oracle(self):
        # the (inf,1) norm is attained at a vertex of the sup-norm ball
        A = build_softmax_matrix(2, 2).to_float()
        vertices = [np.array([a, b]) for a in (-1, 1) for b in (-1, 1)]
        oracle = max(np.abs(A @ v).sum() for v in vertices)
        exact = subordinate_norm_exact(A, INF)
        assert exact == 2.0
        assert np.isclose(exact, oracle)

    def test_random_matrices_vs_input_vertex_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.normal(size=(t, d))
            exact = subordinate_norm_exact(A, INF)
            oracle = 0.0
            for code in range(2**d):
                v = np.array([1.0 if (code >> i) & 1 else -1.0 for i in range(d)])
                oracle = max(oracle, np.abs(A @ v).sum())
            assert np.isclose(exact, oracle, atol=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            subordinate_norm_exact(np.eye(2), 3)
        with pytest.raises(ValueError) as err:
            subordinate_norm_exact(np.eye(30), 2)
        assert "sampled" in str(err.value)


class TestBounds:
    def test_row_bound_examples(self):
        assert np.isclose(subordinate_norm_row_bound(np.eye(2), 2, 2), np.sqrt(2))
        assert subordinate_norm_row_bound(np.zeros((4, 4)), 2, 1) == 0.0

    def test_sampled_examples(self):
        assert subordinate_norm_sampled(np.zeros((3, 3)), 2, 2, 50, 0) == 0.0
        for p in [1.0, 2.0, INF]:
            assert np.isclose(subordinate_norm_sampled(np.eye(4), p, p, 50, 0), 1.0)

    def test_sandwich_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t, d = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            A = rng.normal(size=(t, d))
            for p in [2.0, 4.0, INF]:
                exact = subordinate_norm_exact(A, p)
                low = subordinate_norm_sampled(A, p, 1.0, 300, 7)
                high = subordinate_norm_row_bound(A, p, 1.0)
                assert low <= exact + 1e-9
                assert exact <= high + 1e-9

    def test_sampled_below_row_bound_general_q(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            for p, q in [(2.0, 2.0), (3.0, 1.5), (INF, 2.0)]:
                assert subordinate_norm_sampled(A, p, q, 200, 1) <= subordinate_norm_row_bound(A, p, q) + 1e-9

    def test_sm_norm_bound_values(self):
        assert np.isclose(sm_norm_bound(10**6, 2, 2), 4.0)  # min(6, 4, large harmonic)
        assert np.isclose(sm_norm_bound(2, INF, 1), 3.0)  # 2 * H_2
        assert sm_norm_bound(1, 2, 1) == 2.0
        assert sm_norm_bound(5, 1, 1) == 4.0  # p-term: 2*(1+1)

    def test_sm_norms_within_bound(self):
        for d in range(2, 9):
            for k in range(1, d + 1):
                A = build_softmax_matrix(k, d).to_float()
                for p in [2.0, 4.0, INF]:
                    exact = subordinate_norm_exact(A, p)
                    assert exact <= sm_norm_bound(k, p, 1.0) + 1e-9
                    assert exact <= 2.0 * min(p + 1 if np.isfinite(p) else INF, harmonic(k)) + 1e-9


class TestMetricIds:
    def test_resolution(self):
        assert metric_from_id("l1")([1.0, 0.0], [0.0, 1.0]) == 2.0
        assert metric_from_id("linf")([1.0, 0.0], [0.0, 3.0]) == 3.0
        assert np.isclose(metric_from_id("lp:3")([1.0, 1.0], [0.0, 0.0]), 2 ** (1 / 3))
        assert np.isclose(metric_from_id("log-l1")([np.e, 1.0], [1.0, 1.0]), 1.0)
        assert np.isclose(metric_from_id("kl")([0.5, 0.5], [0.25, 0.75]), renyi_divergence([0.5, 0.5], [0.25, 0.75], 1.0))
        assert metric_from_id("dinf")([1.0, 0.0], [0.5, 0.5]) == np.log(2)
        assert np.isfinite(metric_from_id("renyi:2")([0.5, 0.5], [0.25, 0.75]))
        for bad in ["manhattan", "x2", "l0.5", "lp:0.5", "renyi:0.5", "log-kl", "lp:", "lnan"]:
            with pytest.raises(ValueError):
                metric_from_id(bad)

    def test_exponents(self):
        assert parse_metric_id("l2") == ("lp", 2.0)
        assert parse_metric_id("linf") == ("lp", INF)
        assert parse_metric_id("log-lp:4") == ("log-lp", 4.0)
        assert parse_metric_id("kl") == ("renyi", 1.0)
        assert parse_metric_id("dinf") == ("renyi", INF)
        assert parse_metric_id("renyi:2") == ("renyi", 2.0)
        for bad in ["x2", "l0.5", "renyi:0.5"]:
            with pytest.raises(ValueError):
                parse_metric_id(bad)
