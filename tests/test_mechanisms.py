"""Mechanism examples and invariants, cross-checked against direct matrix evaluation."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from softmech.mechanisms import (
    MECHANISM_KINDS,
    MechanismSpec,
    _piece_apply,
    _piece_apply_transpose,
    additive_gap,
    exp_mechanism,
    log_plsoftmax,
    multiplicative_gap,
    multiplicative_guarantee,
    plsoftmax,
    power_mechanism,
    selection_distribution,
    sparsemax,
    worst_case_support_ok,
)
from softmech.simplex import as_values, check_distribution, finalize_distribution, finalize_rows
from softmech.smmatrix import build_softmax_matrix


def plsoftmax_reference(x, delta, order=None):
    """Direct evaluation through the exact matrix and permutation matrices."""
    x = np.asarray(x, dtype=float)
    d = x.size
    if order is None:
        order = np.argsort(-x, kind="stable")
    P = np.zeros((d, d))
    P[np.arange(d), order] = 1.0
    xs = P @ x
    k = int(np.count_nonzero(xs[0] - xs <= delta))
    smf = build_softmax_matrix(k, d).to_float()
    uniform_prefix = np.where(np.arange(d) < k, 1.0 / k, 0.0)
    return P.T @ (smf @ xs / delta + uniform_prefix)


class TestExamples:
    def test_exp(self):
        assert np.allclose(exp_mechanism([np.log(2), 0.0], 1.0), [2 / 3, 1 / 3])
        assert np.allclose(exp_mechanism([5.0] * 4, 3.0), 0.25)
        assert np.array_equal(exp_mechanism([1.0, 0.0], 2.0), exp_mechanism([6.0, 5.0], 2.0))

    def test_power(self):
        assert np.allclose(power_mechanism([2.0, 1.0], 1.0), [2 / 3, 1 / 3])
        assert np.allclose(power_mechanism([4.0, 1.0], 0.5), [2 / 3, 1 / 3])
        assert np.allclose(power_mechanism([3.0, 3.0, 3.0], 2.0), 1 / 3)
        assert np.allclose(power_mechanism([1.0, 0.0], 2.0), [1.0, 0.0])

    def test_plsoftmax(self):
        assert np.allclose(plsoftmax([0.5, 0.0], 1.0), [0.75, 0.25])
        assert np.allclose(plsoftmax([2.0, 0.0, 0.0], 1.0), [1.0, 0.0, 0.0])
        assert np.allclose(plsoftmax([3.0] * 6, 0.7), 1 / 6)

    def test_log_plsoftmax(self):
        assert np.allclose(log_plsoftmax([np.exp(0.5), 1.0], 1.0), [0.75, 0.25])
        assert np.allclose(log_plsoftmax([2.0, 2.0, 2.0], 1.0), 1 / 3)
        x = np.array([3.0, 1.0, 0.5])
        assert np.allclose(log_plsoftmax(7.3 * x, 0.8), log_plsoftmax(x, 0.8), atol=1e-12)
        with pytest.raises(ValueError):
            log_plsoftmax([1.0, 0.0], 1.0)

    def test_sparsemax(self):
        assert np.allclose(sparsemax(np.zeros(5)), 0.2)
        d = 8
        y = np.zeros(d)
        y[: d // 2] = 2.0 / d
        assert np.allclose(sparsemax(y), y)
        p = np.array([0.1, 0.2, 0.7])
        assert np.allclose(sparsemax(p), p, atol=1e-12)
        assert sparsemax([1e308, 1e308]).tolist() == [0.5, 0.5]

    def test_gaps(self):
        assert additive_gap([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert np.isclose(additive_gap([0.5, 0.0], [0.75, 0.25]), 0.125)
        assert additive_gap([3.0, 3.0], [0.4, 0.6]) == 0.0
        assert np.isclose(multiplicative_gap([2.0, 1.0], [2 / 3, 1 / 3]), 1 / 6)
        assert multiplicative_gap([2.0, 1.0], [1.0, 0.0]) == 0.0
        assert multiplicative_gap([5.0, 5.0], [0.3, 0.7]) == 0.0
        with pytest.raises(ValueError):
            multiplicative_gap([-1.0, -2.0], [0.5, 0.5])

    def test_worst_case_support(self):
        x = np.random.default_rng(3).normal(size=12)
        assert worst_case_support_ok(x, plsoftmax(x, 0.6), 0.6)
        delta = 0.01
        assert not worst_case_support_ok([2 * delta, 0.0], exp_mechanism([2 * delta, 0.0], 1.0), delta)
        assert worst_case_support_ok([3.0, 1.0], [1.0, 0.0], 0.5)

    def test_multiplicative_guarantee(self):
        assert np.isclose(multiplicative_guarantee(1.0), 1 - np.exp(-1))
        assert multiplicative_guarantee(0.3) < 0.3
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="delta"):
                multiplicative_guarantee(bad)


class TestValidation:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_mechanism([np.inf, 0.0], 1.0)
        with pytest.raises(ValueError):
            exp_mechanism([1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            power_mechanism([1.0, -0.5], 1.0)
        with pytest.raises(ValueError):
            power_mechanism([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            plsoftmax([1.0, 0.0], -1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                exp_mechanism([1.0, 0.0], bad)
            with pytest.raises(ValueError):
                power_mechanism([1.0, 0.5], bad)
            with pytest.raises(ValueError):
                plsoftmax([1e308, -1e308], bad)


class TestAgainstMatrixEvaluation:
    def test_piece_kernel_matches_exact_matrix(self):
        rng = np.random.default_rng(12)
        for d in range(1, 13):
            for k in range(1, d + 1):
                A = build_softmax_matrix(k, d).to_float()
                v = rng.normal(0.0, 2.0, size=d)
                assert np.allclose(_piece_apply(v, k), A @ v, atol=1e-12)
                assert np.allclose(_piece_apply_transpose(v, k), A.T @ v, atol=1e-12)

    def test_piece_kernel_rows_equal_vector_calls(self):
        rng = np.random.default_rng(13)
        for d in (1, 2, 5, 12, 64):
            rows = -np.sort(-rng.normal(0.0, 2.0, size=(50, d)), axis=1)
            k = rng.integers(1, d + 1, size=(50, 1))
            out = _piece_apply(rows, k)
            for row, kr, o in zip(rows, k[:, 0], out):
                assert o.tobytes() == _piece_apply(row, int(kr)).tobytes()

    def test_random_inputs_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(2, 20))
            delta = float(rng.choice([0.1, 1.0, 10.0]))
            x = rng.normal(0.0, 2.0 * delta, size=d)
            ref = plsoftmax_reference(x, delta)
            assert np.allclose(plsoftmax(x, delta), ref, atol=1e-12)

    def test_tie_order_does_not_matter(self):
        # equal coordinates may be sorted in any order without changing the output
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(3, 10))
            x = rng.normal(size=d).round(1)  # rounding forces ties
            base = np.argsort(-x, kind="stable")
            swapped = base.copy()
            ties = np.flatnonzero(x[base][:-1] == x[base][1:])
            if ties.size == 0:
                continue
            t = ties[0]
            swapped[[t, t + 1]] = swapped[[t + 1, t]]
            out_a = plsoftmax_reference(x, 1.0, order=base)
            out_b = plsoftmax_reference(x, 1.0, order=swapped)
            assert np.allclose(out_a, out_b, atol=1e-12)
            assert np.allclose(plsoftmax(x, 1.0), out_b, atol=1e-12)

    def test_equal_coordinates_equal_outputs(self):
        # a tied block in the input yields a tied block in the image,
        # exactly in rational arithmetic and to rounding noise in float
        from fractions import Fraction

        xf = [Fraction(4), Fraction(5, 2), Fraction(5, 2), Fraction(5, 2), Fraction(1)]
        rows = build_softmax_matrix(5, 5).as_fractions()
        yf = [sum(r[j] * xf[j] for j in range(5)) for r in rows]
        assert yf[1] == yf[2] == yf[3]
        p = plsoftmax(np.array([4.0, 2.5, 2.5, 2.5, 1.0]), 5.0)
        assert np.allclose(p[1:4], p[1], atol=1e-15)


class TestInvariants:
    def test_simplex_validity_random(self):
        rng = np.random.default_rng(0)
        specs = [
            MechanismSpec("exp", 2.0),
            MechanismSpec("pow", 1.5),
            MechanismSpec("plsoftmax", 1.0),
            MechanismSpec("logplsoftmax", 0.5),
            MechanismSpec("sparsemax"),
        ]
        for _ in range(400):
            d = int(rng.integers(2, 65))
            z = rng.normal(0.0, 2.0, size=d)
            for mech in specs:
                x = np.exp(z) if mech.positive_domain else z
                check_distribution(mech(x))

    def test_plsoftmax_worst_case_approximation(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            d = int(rng.integers(2, 65))
            delta = float(rng.choice([0.1, 1.0, 10.0]))
            x = rng.normal(0.0, 2.0 * delta, size=d)
            assert worst_case_support_ok(x, plsoftmax(x, delta), delta)

    def test_log_plsoftmax_multiplicative_worst_case(self):
        # supported coordinates stay above exp(-delta) * max, i.e. within the
        # 1 - exp(-delta) multiplicative slack
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(2, 33))
            delta = float(rng.choice([0.25, 1.0, 3.0]))
            x = np.exp(rng.normal(0.0, 2.0, size=d))
            p = log_plsoftmax(x, delta)
            support = p > 1e-12
            floor = (1.0 - multiplicative_guarantee(delta)) * x.max()
            assert np.all(x[support] >= floor * (1 - 1e-12))
            assert multiplicative_gap(x, p) <= multiplicative_guarantee(delta) + 1e-12

    def test_exp_expected_approximation(self):
        # with lam = log(d)/delta the expected value is within delta of the max
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = int(rng.integers(2, 65))
            delta = float(rng.choice([0.1, 1.0, 10.0]))
            x = rng.normal(0.0, 5.0 * delta, size=d)
            gap = additive_gap(x, exp_mechanism(x, np.log(max(d, 2)) / delta))
            assert gap <= delta + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(2, 30))
            x = rng.normal(size=d)
            sigma = rng.permutation(d)
            assert np.allclose(plsoftmax(x[sigma], 0.8), plsoftmax(x, 0.8)[sigma], atol=1e-14)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 20))
            x = rng.normal(size=d)
            c = float(rng.normal(0.0, 3.0))
            assert np.allclose(plsoftmax(x + c, 1.0), plsoftmax(x, 1.0), atol=1e-12)
            assert np.allclose(exp_mechanism(x + c, 2.0), exp_mechanism(x, 2.0), atol=1e-12)

    def test_plsoftmax_exact_at_large_offsets(self):
        # subtracting the max is exact; the output must not move by one bit
        for offset in (1e4, 1e8, 1e10, 1e12):
            for d in range(2, 1025):
                y = np.random.default_rng([d, int(np.log10(offset))]).normal(0.0, 0.5, size=d) + offset
                assert np.array_equal(plsoftmax(y, 1.0), plsoftmax(y - y.max(), 1.0)), (offset, d)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 20))
            x = np.exp(rng.normal(size=d))
            c = float(np.exp(rng.normal()))
            assert np.allclose(power_mechanism(c * x, 2.0), power_mechanism(x, 2.0), atol=1e-12)
            assert np.allclose(log_plsoftmax(c * x, 1.0), log_plsoftmax(x, 1.0), atol=1e-12)

    def test_continuity_at_seams(self):
        # straddling pairs 1e-6 apart move the output by at most
        # (2/delta) * H_d * 1e-6; the log-d form of the same constant is
        # only valid from d=4 up (at d=2 the worst seam direction moves the
        # output by 2h/delta > 2 log(2) h/delta)
        from softmech.smmatrix import harmonic

        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(200):
            d = int(rng.integers(2, 33))
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.normal(0.0, delta, size=d)
            order = np.argsort(-x, kind="stable")
            a, b = x.copy(), x.copy()
            if rng.random() < 0.5 and d >= 2:
                j = int(rng.integers(1, d))
                edge = x[order[0]] - delta
                a[order[j]] = edge + h / 2
                b[order[j]] = edge - h / 2
            else:
                i, j = rng.choice(d, size=2, replace=False)
                mid = (x[i] + x[j]) / 2
                a[i], a[j] = mid + h / 2, mid - h / 2
                b[i], b[j] = mid - h / 2, mid + h / 2
            l1 = np.abs(plsoftmax(a, delta) - plsoftmax(b, delta)).sum()
            assert l1 <= (2.0 / delta) * harmonic(d) * h + 1e-9
            if d >= 4:
                assert l1 <= (2.0 / delta) * np.log(d) * h + 1e-9

    def test_sparsemax_idempotent_and_prefix_support(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 20))
            x = rng.normal(size=d)
            p = sparsemax(x)
            assert np.allclose(sparsemax(p), p, atol=1e-12)
            support = p > 1e-12
            if support.any() and (~support).any():
                assert x[support].min() >= x[~support].max()


class TestSpecParsing:
    def test_parse_roundtrip(self):
        for text in ["exp:lambda=1.5", "pow:lambda=2", "plsoftmax:delta=0.25", "logplsoftmax:delta=3", "sparsemax"]:
            spec = MechanismSpec.parse(text)
            assert MechanismSpec.parse(spec.label()) == spec

    def test_parse_errors(self):
        for bad in ["nope", "exp", "exp:delta=1", "plsoftmax:delta=-1", "sparsemax:delta=1", "exp:lambda",
                    "exp:lambda=inf", "plsoftmax:delta=inf", "pow:lambda=nan"]:
            with pytest.raises(ValueError):
                MechanismSpec.parse(bad)
        with pytest.raises(ValueError, match="lambda"):
            MechanismSpec("exp", float("inf"))

    def test_dispatch(self):
        x = np.array([2.0, 1.0])
        assert np.allclose(MechanismSpec.parse("pow:lambda=1")(x), [2 / 3, 1 / 3])
        assert np.allclose(MechanismSpec.parse("sparsemax")(np.zeros(4)), 0.25)


PARAMS = {"exp": 1.5, "pow": 2.0, "plsoftmax": 0.5, "logplsoftmax": 1.0, "sparsemax": None}


def parity_rows(kind, d, rng):
    """Value rows for a kind: ties, rows of equal entries, offsets up to 1e12
    (scales up to 1e12 for the positive kinds), and zeros for pow."""
    z = rng.normal(0.0, 1.0, size=(60, d))
    z[::4] = np.round(z[::4])
    z[1::4] = z[1::4, :1]
    shift = rng.choice([0.0, 1e4, 1e8, 1e10, 1e12], size=(60, 1))
    if kind == "pow":
        x = np.maximum(z, 0.0)
        x[np.arange(60), rng.integers(d, size=60)] += 1.0
        return x * np.maximum(shift, 1.0)
    if kind == "logplsoftmax":
        return np.exp(z) * np.maximum(shift, 1.0)
    return z + shift


def raising_rows(kind, d):
    """Rows on which the 1-D call raises."""
    rows = [np.full(d, np.nan), np.full(d, np.inf)]
    if kind == "pow":
        rows += [np.zeros(d), -np.ones(d)]
    if kind == "logplsoftmax":
        rows.append(np.zeros(d))
    return rows


class TestSpreadPastTheFloatRange:
    """Finite values whose spread overflows a float: the far entries get
    weight 0, with no numpy warning, in the 1-D and the row form alike."""

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_no_overflow_warning(self, kind):
        spec = MechanismSpec(kind, PARAMS[kind])
        extreme = np.array([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if spec.positive_domain:
                # refused for its negative entry before any arithmetic
                with pytest.raises(ValueError, match="positive|nonnegative"):
                    spec(extreme)
                with pytest.raises(ValueError, match="positive|nonnegative"):
                    spec.rows(np.vstack([extreme, [0.3, 0.2]]))
                extreme, ordinary = np.array([1e308, 5e-324]), np.array([0.3, 0.2])
            else:
                ordinary = np.array([0.3, -0.2])
            assert spec(extreme).tolist() == [1.0, 0.0]
            block = np.vstack([extreme, ordinary, extreme[::-1], ordinary[::-1]])
            out = spec.rows(block)
        assert out[0].tolist() == out[2].tolist()[::-1] == [1.0, 0.0]
        for row, o in zip(block, out):
            assert o.tobytes() == spec(row).tobytes()

    def test_exp_exponent_past_the_float_range(self):
        # the spread is finite, but lambda times it is not
        spec = MechanismSpec("exp", 1e300)
        x = np.array([1e10, 0.0, 1e10 - 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec(x).tolist() == [1.0, 0.0, 0.0]
            assert spec.rows(np.vstack([x, x[::-1]])).tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_pow_exponent_past_the_float_range(self):
        # the log spread is finite, but lambda times it is not
        spec = MechanismSpec("pow", 1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([1e308, 1.0], [1e308, 1.0, 0.0], [1.0, 1e308 * (1 - 1e-15)]):
                x = np.array(x)
                want = (x == x.max()).astype(float)
                assert spec(x).tolist() == want.tolist()
                assert spec.rows(x[None]).tolist() == [want.tolist()]


class TestRowForms:
    @pytest.mark.parametrize("kind", sorted(PARAMS))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 16, 64, 1024])
    def test_rows_equal_vector_calls(self, kind, d):
        entry, param = MECHANISM_KINDS[kind], PARAMS[kind]
        x = parity_rows(kind, d, np.random.default_rng(d))
        out = entry.rows(x, param)
        assert out.shape == x.shape
        for row, o in zip(x, out):
            assert o.tobytes() == entry.function(row, param).tobytes()

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    @pytest.mark.parametrize("d", [1, 4, 64])
    def test_rows_of_no_rows(self, kind, d):
        out = MechanismSpec(kind, PARAMS[kind]).rows(np.empty((0, d)))
        assert out.shape == (0, d)

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    @pytest.mark.parametrize("d", [1, 4, 64])
    def test_rows_raise_like_vector_calls(self, kind, d):
        entry, param = MECHANISM_KINDS[kind], PARAMS[kind]
        x = parity_rows(kind, d, np.random.default_rng(d))
        for bad in raising_rows(kind, d):
            with pytest.raises(Exception) as one:
                entry.function(bad, param)
            x[1] = bad
            with pytest.raises(one.type):
                entry.rows(x, param)
        if param is not None:
            for bad_param in (0.0, np.inf, np.nan):
                with pytest.raises(ValueError):
                    entry.rows(x[2:], bad_param)

    def test_finalize_rows_clamps_and_raises_like_vector_calls(self):
        raw = np.array([[0.5, 0.5, 0.0], [0.7, 0.3 + 1e-13, -1e-13], [0.2, 0.2, 0.2]])
        out = finalize_rows(raw)
        for row, o in zip(raw, out):
            assert o.tobytes() == finalize_distribution(row).tobytes()
        for bad in ([0.5, 0.6, -1e-9], [0.0, 0.0, 0.0], [np.nan, 0.5, 0.5]):
            with pytest.raises(AssertionError):
                finalize_distribution(np.array(bad))
            with pytest.raises(AssertionError):
                finalize_rows(np.vstack([raw, bad]))


def plsoftmax_full_sort(x, delta):
    """The former plsoftmax body, which stable-sorts all d entries."""
    v = as_values(x)
    v = v - v.max()
    order = np.argsort(-v, kind="stable")
    xs = v[order]
    k = int(np.count_nonzero(xs[0] - xs <= delta))
    f_sorted = _piece_apply(xs, k) / delta
    f_sorted[:k] += 1.0 / k
    out = np.empty_like(v)
    out[order] = f_sorted
    return finalize_distribution(out)


def sparsemax_full_sort(x):
    """The former sparsemax body, which sorts all d entries, with the exact
    cut: no entry at or below max - 1 can be in the support."""
    v = as_values(x)
    v = v - v.max()
    z = np.sort(v)[::-1]
    cssv = np.cumsum(z) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = int(np.count_nonzero((z - cssv / ind > 0) & (z > -1.0)))
    tau = cssv[rho - 1] / rho
    return finalize_distribution(np.maximum(v - tau, 0.0))


def sparsemax_exact(x):
    """Euclidean projection onto the simplex in exact rational arithmetic."""
    v = [Fraction(float(t)) for t in x]
    z = sorted(v, reverse=True)
    total, tau = Fraction(0), None
    for j, zj in enumerate(z, start=1):
        total += zj
        if zj - (total - 1) / j > 0:
            tau = (total - 1) / j
    return [max(t - tau, Fraction(0)) for t in v]


# values just below max - 1 at which a threshold test over all entries
# passes through rounding in its prefix sums; the exact projection gives
# them no weight
SPARSEMAX_ROUNDING_EDGE = np.concatenate([[0.0], np.full(40, -1.0 - 9 * 2.0**-52)])


def support_edge_inputs(d, rng):
    """Value vectors of dimension d for the support-first selectors: random,
    one active entry (k = 1), all entries active (k = d), ties, entries at
    max - delta and max - 1 moved by up to 3 ulp either way, and each of
    these again at offsets 1e8 and 1e12."""
    base = [rng.normal(0.0, 1.0, size=d), np.round(rng.normal(0.0, 2.0, size=d)), np.zeros(d),
            rng.uniform(-0.4, 0.0, size=d)]
    lone = np.full(d, -50.0)
    lone[rng.integers(d)] = 0.0
    base.append(lone)
    for edge in (0.5, 1.0, 2.0):
        z = rng.normal(0.0, 1.0, size=d)
        at = rng.random(d) < 0.5
        at[np.argmax(z)] = False
        z[at] = z.max() - edge
        z[at] += rng.integers(-3, 4, size=d)[at] * np.spacing(z[at])
        base.append(z)
    return [x + offset for x in base for offset in (0.0, 1e8, 1e12)]


class TestSupportFirst:
    @pytest.mark.parametrize("d", [1, 2, 4, 64, 1024])
    def test_plsoftmax_equals_full_sort(self, d):
        for x in support_edge_inputs(d, np.random.default_rng(d)):
            for delta in (0.5, 1.0, 2.0):
                assert plsoftmax(x, delta).tobytes() == plsoftmax_full_sort(x, delta).tobytes()
                y = np.exp(x - x.max())
                assert log_plsoftmax(y, delta).tobytes() == plsoftmax_full_sort(np.log(y), delta).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 4, 64, 1024])
    def test_sparsemax_equals_full_sort(self, d):
        for x in support_edge_inputs(d, np.random.default_rng(d)):
            assert sparsemax(x).tobytes() == sparsemax_full_sort(x).tobytes()

    def test_active_counts_span_one_to_d(self):
        x = support_edge_inputs(64, np.random.default_rng(64))
        counts = {int(np.count_nonzero(plsoftmax(v, 2.0))) for v in x}
        assert {1, 64} <= counts

    def test_sparsemax_drops_entries_passing_by_rounding(self):
        x = SPARSEMAX_ROUNDING_EDGE
        point_mass = [1.0] + [0.0] * (x.size - 1)
        assert [float(t) for t in sparsemax_exact(x)] == point_mass
        assert sparsemax(x).tolist() == point_mass
        assert MechanismSpec("sparsemax").rows(np.vstack([x, x])).tolist() == [point_mass, point_mass]
        assert sparsemax(x).tobytes() == sparsemax_full_sort(x).tobytes()

    def test_sparsemax_ignores_far_entries_whose_sums_overflow(self):
        x = np.array([0.0, -1e308, -1e308, -1e308])
        y = np.array([0.0, 1e308, -5.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sparsemax(x).tolist() == [1.0, 0.0, 0.0, 0.0]
            assert MechanismSpec("sparsemax").rows(np.vstack([x, x[::-1]])).tolist() == [[1.0, 0, 0, 0], [0, 0, 0, 1.0]]
            assert sparsemax(y).tolist() == [0.0, 1.0, 0.0, 0.0]
            assert MechanismSpec("sparsemax").rows(np.vstack([y, x])).tolist() == [[0, 1.0, 0, 0], [1.0, 0, 0, 0]]

    @pytest.mark.parametrize("kind", ["plsoftmax", "logplsoftmax", "sparsemax"])
    def test_rows_equal_vector_calls_at_1024(self, kind):
        spec = MechanismSpec(kind, PARAMS[kind])
        x = np.vstack(support_edge_inputs(1024, np.random.default_rng(7)))
        if spec.positive_domain:
            x = np.exp(x - x.max(axis=1, keepdims=True))
        for row, o in zip(x, spec.rows(x)):
            assert o.tobytes() == spec(row).tobytes()


class TestSelectionDistribution:
    def test_logplsoftmax_gives_zero_entries_weight_0(self):
        # log 0 is never within delta of a finite max, as a vanishing entry is not
        mech = MechanismSpec("logplsoftmax", 0.5)
        values = np.array([[0.0, 0.3, 0.25, 0.0], [0.0] * 4, [0.3, 0.1, 0.2, 0.4], [0.0, 0.0, 0.7, 0.0]])
        out = selection_distribution(mech, values)
        vanishing = np.where(values[0] == 0.0, 1e-300, values[0])
        assert out[0].tobytes() == log_plsoftmax(vanishing, 0.5).tobytes()
        assert out[0].tolist() == [0.0, *log_plsoftmax([0.3, 0.25], 0.5), 0.0]
        assert out[1].tolist() == [0.25] * 4  # no positive entry: uniform
        assert out[2].tobytes() == log_plsoftmax(values[2], 0.5).tobytes()
        assert out[3].tolist() == [0.0, 0.0, 1.0, 0.0]
        for row, expected in zip(values, out):
            assert selection_distribution(mech, row).tobytes() == expected.tobytes()

    def test_logplsoftmax_still_refuses_a_negative_entry(self):
        with pytest.raises(ValueError, match="strictly positive"):
            selection_distribution(MechanismSpec("logplsoftmax", 0.5), np.array([0.0, -1.0, 2.0]))


class TestInputSafety:
    """The 1-D selectors do their arithmetic in place, on arrays they allocate
    themselves only: on a read-only input every kind, 1-D and rows alike,
    gives the bytes it gives on a writable copy, and neither input changes."""

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    @pytest.mark.parametrize("d", [1, 4, 64, 1024])
    def test_read_only_input(self, kind, d):
        entry, param = MECHANISM_KINDS[kind], PARAMS[kind]
        rng = np.random.default_rng(d)
        lone = np.full((1, d), -50.0)
        lone[0, rng.integers(d)] = 0.0  # one active entry: the point mass
        x = np.vstack([parity_rows(kind, d, rng), np.exp(lone) if entry.positive_domain else lone])
        frozen = x.copy()
        frozen.setflags(write=False)
        for row, writable in zip(frozen, x.copy()):
            assert entry.function(row, param).tobytes() == entry.function(writable, param).tobytes()
            assert writable.tobytes() == row.tobytes()
        writable = x.copy()
        assert entry.rows(frozen, param).tobytes() == entry.rows(writable, param).tobytes()
        assert frozen.tobytes() == writable.tobytes() == x.tobytes()
