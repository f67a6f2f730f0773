"""Smoothness lab: estimator behavior, bounds, and witness floors."""

import tracemalloc

import numpy as np
import pytest

from softmech import smoothness, submodular
from softmech.distances import (
    lp_distance,
    metric_from_id,
    parse_metric_id,
    pq_bound_factor,
    renyi_divergence,
    subordinate_norm_exact,
)
from softmech.mechanisms import MECHANISM_KINDS, MechanismSpec, exp_mechanism, plsoftmax, sparsemax
from softmech.seeding import spawn_rng
from softmech.smmatrix import build_softmax_matrix, harmonic
from softmech.smoothness import (
    _BOUNDARY_STEP,
    _PERTURB_STEPS,
    empirical_lipschitz,
    exp_l1_lb_witness,
    forbidden_region_slope,
    kl_lb_witness,
    measured_ratio,
    multiplicative_lb_probe,
    sparsegen_lb_witness,
)

INF = float("inf")


class ConstantMechanism:
    """Test double: point mass on the first coordinate, whatever the input."""

    kind = "constant"
    param = None
    positive_domain = False
    worst_case = False

    def label(self):
        return "constant"

    def __call__(self, x):
        out = np.zeros(np.asarray(x).size)
        out[0] = 1.0
        return out

    def rows(self, X):
        out = np.zeros(np.shape(X))
        out[:, 0] = 1.0
        return out


class TestEstimator:
    def test_constant_mechanism_estimate_zero(self):
        est = empirical_lipschitz(ConstantMechanism(), 6, "l2", "l1", 200, 0)
        assert est.max_ratio == 0.0

    def test_plsoftmax_linf_l1_within_log_bound(self):
        mech = MechanismSpec("plsoftmax", 1.0)
        est = empirical_lipschitz(mech, 16, "linf", "l1", 2000, 0)
        assert est.max_ratio <= (2.0 / 1.0) * np.log(16) + 1e-9

    def test_exp_witness_direction_found(self):
        mech = MechanismSpec("exp", 1.0)
        est = empirical_lipschitz(mech, 100, "l2", "l1", 300, 0)
        assert est.max_ratio >= 0.49

    def test_witness_ratio_reproducible(self):
        mech = MechanismSpec("plsoftmax", 0.5)
        est = empirical_lipschitz(mech, 8, "l2", "l2", 500, 3)
        recomputed = lp_distance(mech(est.witness_x), mech(est.witness_y), 2.0) / lp_distance(
            est.witness_x, est.witness_y, 2.0
        )
        assert abs(est.max_ratio - recomputed) <= 1e-9

    def test_determinism(self):
        mech = MechanismSpec("pow", 2.0)
        a = empirical_lipschitz(mech, 6, "log-l2", "l1", 400, 9)
        b = empirical_lipschitz(mech, 6, "log-l2", "l1", 400, 9)
        for field in ("mechanism", "domain_metric", "range_metric", "trials", "skipped", "max_ratio"):
            assert getattr(a, field) == getattr(b, field)
        assert np.array_equal(a.witness_x, b.witness_x)
        assert np.array_equal(a.witness_y, b.witness_y)

    def test_infinite_range_distance_recorded(self):
        mech = MechanismSpec("plsoftmax", 0.5)
        est = empirical_lipschitz(mech, 8, "linf", "kl", 300, 0)
        assert est.max_ratio == INF
        p = mech(est.witness_x)
        q = mech(est.witness_y)
        assert renyi_divergence(p, q, 1.0) == INF


# The lab's pair families one trial at a time, each trial built from its row
# of its block's normals and from its own calls on its block's integer stream:
# the oracle below checks the draws as well as the evaluation.


def _to_domain(z: np.ndarray, positive: bool) -> np.ndarray:
    return np.exp(z) if positive else z


def _random_pair(z, d, positive):
    return _to_domain(z[:d], positive), _to_domain(z[d:], positive)


def _perturbation_pair(z, ints, d, positive, step):
    x = z[:d]
    y = x.copy()
    y[ints.integers(d)] += step
    return _to_domain(x, positive), _to_domain(y, positive)


def _boundary_pair(z, ints, d, positive, delta):
    """Pair with gap 1e-6 in the sup norm, straddling a selector seam.

    For delta-parameterized mechanisms (delta not None) the straddle crosses
    the active-count boundary (a coordinate placed just inside/outside
    max - delta); otherwise it crosses an order-change boundary (two
    coordinates swapping rank).
    """
    z = z[:d]
    h = _BOUNDARY_STEP
    if delta is not None and d >= 2:
        order = np.argsort(-z, kind="stable")
        j = int(ints.integers(1, d))
        edge = z[order[0]] - delta
        a, b = z.copy(), z.copy()
        a[order[j]] = edge + h / 2
        b[order[j]] = edge - h / 2
        return _to_domain(a, positive), _to_domain(b, positive)
    i, j = ints.choice(d, size=2, replace=False)
    mid = (z[i] + z[j]) / 2
    a, b = z.copy(), z.copy()
    a[i], a[j] = mid + h / 2, mid - h / 2
    b[i], b[j] = mid - h / 2, mid + h / 2
    return _to_domain(a, positive), _to_domain(b, positive)


def per_pair_lipschitz(mech, d, domain_metric, range_metric, trials, rng_seed):
    """The lab as a loop that builds and evaluates one pair at a time with
    the 1-D distances and selector calls: the reference for the row-block
    lab.  Each draw block of ``_block_rows(d)`` trials takes its normals in
    one numpy call, and each trial takes its integers from the block's second
    generator with numpy's scalar ``integers`` and ``choice`` calls.  Returns
    (max_ratio, witness_x, witness_y, evaluated, skipped)."""
    dom = metric_from_id(domain_metric)
    rng_m = metric_from_id(range_metric)
    positive = mech.positive_domain
    name = MECHANISM_KINDS[mech.kind].param if mech.kind in MECHANISM_KINDS else None
    delta = mech.param if name == "delta" else None
    base_scale = delta if delta is not None else 1.0 / mech.param if name == "lambda" else 1.0
    best, witness, evaluated, drawn = -1.0, None, 0, 0

    def consider(x, y):
        nonlocal best, witness, evaluated, drawn
        drawn += 1
        try:
            dxy = dom(x, y)
        except ValueError:
            return
        if not np.isfinite(dxy) or dxy == 0.0:
            return
        rxy = rng_m(mech(x), mech(y))
        evaluated += 1
        ratio = float("inf") if np.isinf(rxy) else rxy / dxy
        if ratio > best:
            best = ratio
            witness = (np.array(x), np.array(y))

    if mech.kind == "exp":
        consider(*exp_l1_lb_witness(d, mech.param))
    if mech.kind == "sparsemax" and d % 2 == 0:
        consider(*sparsegen_lb_witness(d, 2.0)[:2])
    block = smoothness._block_rows(d)
    for b, start in enumerate(range(0, trials, block)):
        n = min(block, trials - start)
        normals = spawn_rng(rng_seed, b, 0).standard_normal((n, 2 * d))
        ints = spawn_rng(rng_seed, b, 1)
        for i in range(start, start + n):
            z = normals[i - start] * (base_scale * (0.5, 1.0, 2.0)[(i // 3) % 3])
            family = i % 3
            if family == 0:
                x, y = _random_pair(z, d, positive)
            elif family == 1:
                x, y = _perturbation_pair(z, ints, d, positive, _PERTURB_STEPS[(i // 3) % len(_PERTURB_STEPS)])
            else:
                x, y = _boundary_pair(z, ints, d, positive, delta)
            consider(x, y)
    if witness is None:
        raise ValueError("no usable pair")
    return max(best, 0.0), witness[0], witness[1], evaluated, drawn - evaluated


ORACLE_MECHS = [
    MechanismSpec("exp", 1.5),
    MechanismSpec("pow", 2.0),
    MechanismSpec("plsoftmax", 0.5),
    MechanismSpec("logplsoftmax", 1.0),
    MechanismSpec("sparsemax"),
    ConstantMechanism(),
]
ORACLE_METRICS = [("l1", "l1"), ("l2", "l2"), ("linf", "l1"), ("l2", "dinf"), ("linf", "kl"), ("log-l2", "l1")]


class TestRowBlocksMatchPerPairLoop:
    @pytest.mark.parametrize("mech", ORACLE_MECHS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("domain, range_", ORACLE_METRICS, ids=lambda m: m)
    def test_same_estimate_witness_and_counts(self, mech, domain, range_):
        # trials straddle the block edge the block rule sets at d (at d = 100,
        # the floor of _MIN_BLOCK_ROWS pairs); the exp and sparsemax designed
        # pairs sit in a block of their own ahead of the trials
        for d in (6, 100):
            rows = smoothness._block_rows(d)
            for trials in (1, rows - 1, rows, rows + 1):
                seed = 1000 + trials
                try:
                    ref = per_pair_lipschitz(mech, d, domain, range_, trials, seed)
                except ValueError:
                    with pytest.raises(ValueError):
                        empirical_lipschitz(mech, d, domain, range_, trials, seed)
                    continue
                est = empirical_lipschitz(mech, d, domain, range_, trials, seed)
                got = (est.max_ratio, est.witness_x, est.witness_y, est.trials, est.skipped)
                assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes(), (d, trials)
                assert got[1].tobytes() == ref[1].tobytes() and got[2].tobytes() == ref[2].tobytes(), (d, trials)
                assert got[3:] == ref[3:], (d, trials)

    @pytest.mark.parametrize("mech", ORACLE_MECHS[:5], ids=lambda m: m.kind)
    @pytest.mark.parametrize("d", [1, 2, 3, 17])
    def test_other_dimensions(self, mech, d):
        # d = 1 has no seam to straddle: the draws raise ValueError from trial 2 on
        for trials in (2, smoothness._block_rows(d) + 1):
            try:
                ref = per_pair_lipschitz(mech, d, "l2", "l1", trials, d)
            except ValueError:
                with pytest.raises(ValueError):
                    empirical_lipschitz(mech, d, "l2", "l1", trials, d)
                continue
            est = empirical_lipschitz(mech, d, "l2", "l1", trials, d)
            assert np.float64(est.max_ratio).tobytes() == np.float64(ref[0]).tobytes()
            assert est.witness_x.tobytes() == ref[1].tobytes() and est.witness_y.tobytes() == ref[2].tobytes()
            assert (est.trials, est.skipped) == ref[3:]

    @pytest.mark.parametrize("mech", [MechanismSpec("exp", 1.5), MechanismSpec("plsoftmax", 0.5)], ids=lambda m: m.kind)
    def test_across_a_seeding_block_edge(self, mech):
        # three draw blocks at d = 100, the last one partial: block numbers
        # past 1 seed their own streams
        trials = 2 * smoothness._block_rows(100) + 3
        ref = per_pair_lipschitz(mech, 100, "l2", "l2", trials, 77)
        est = empirical_lipschitz(mech, 100, "l2", "l2", trials, 77)
        assert np.float64(est.max_ratio).tobytes() == np.float64(ref[0]).tobytes()
        assert est.witness_x.tobytes() == ref[1].tobytes() and est.witness_y.tobytes() == ref[2].tobytes()
        assert (est.trials, est.skipped) == ref[3:]

    def test_memory_bounded_by_the_block(self):
        # all 20 000 pairs at once would hold more than 20 MB of rows at d = 64;
        # at small d the block's rows are capped, and with them its arrays.
        # The bound is scaled to the d = 64 block (about 1.1 MiB at peak);
        # without the cap the d = 2 blocks of 8192 rows peak near 1.7 MiB
        for d in (2, 16, 64):
            tracemalloc.start()
            try:
                est = empirical_lipschitz(MechanismSpec("sparsemax"), d, "l2", "l1", 20_000, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert est.trials == 20_001
            assert peak < 1.5 * 2**20, d

    @pytest.mark.parametrize("d", [3, 100])
    def test_a_run_is_a_prefix_of_a_longer_run(self, monkeypatch, d):
        # numpy fills each block's two streams in order, so the pairs of a
        # run of n trials are the first n pairs of any longer run
        drawn = []
        pair_rows = smoothness._pair_rows

        def recording(*args):
            rows = pair_rows(*args)
            drawn.append(rows)
            return rows

        def pairs(trials):
            drawn.clear()
            empirical_lipschitz(MechanismSpec("plsoftmax", 0.5), d, "l2", "l1", trials, 21)
            return np.concatenate([x for x, _ in drawn]), np.concatenate([y for _, y in drawn])

        monkeypatch.setattr(smoothness, "_pair_rows", recording)
        block = smoothness._block_rows(d)
        for n in (1, block - 1, block, block + 1):
            (x, y), (long_x, long_y) = pairs(n), pairs(n + block + 1)
            assert x.shape == (n, d)
            assert x.tobytes() == long_x[:n].tobytes() and y.tobytes() == long_y[:n].tobytes(), n

    def test_two_generators_per_block(self, monkeypatch):
        # one generator per trial cost most of the lab's time
        calls = []

        def counting(*args):
            calls.append(args)
            return spawn_rng(*args)

        monkeypatch.setattr(smoothness, "spawn_rng", counting)
        for d in (2, 16, 64):
            block = smoothness._block_rows(d)
            for trials in (1, block, block + 1, 3 * block):
                calls.clear()
                empirical_lipschitz(MechanismSpec("exp", 1.0), d, "l2", "l1", trials, 5)
                blocks = -(-trials // block)
                assert calls == [(5, b, stream) for b in range(blocks) for stream in (0, 1)], (d, trials)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError):
            empirical_lipschitz(MechanismSpec("exp", 1.0), 4, "l2", "l1", 10, -1)

    def test_skipped_pairs_counted(self):
        # plsoftmax draws pairs on the whole line; log-l2 needs positive entries
        est = empirical_lipschitz(MechanismSpec("plsoftmax", 1.0), 4, "log-l2", "l1", 600, 0)
        assert est.trials + est.skipped == 600
        assert est.skipped > est.trials > 0


def former_theoretical_bound(mech, d, p, q):
    """The (l_p, l_q) bound as it was written before the mechanism table held
    the constants: one branch per kind, with the dimension cap H_d (none for
    d = None, the dimension-free constant)."""
    if mech.kind == "exp":
        return 2.0 * mech.param
    if mech.kind == "plsoftmax":
        return (2.0 / mech.param) * pq_bound_factor(p, q, INF if d is None else harmonic(d))
    return INF


def former_bound_for_metrics(mech, d, domain_metric, range_metric):
    """The metric-id bound as it was written before the table held the claims:
    the delta kinds had no Renyi claim, and every other pair of ids read only
    the two exponents, whatever the families."""
    if MECHANISM_KINDS[mech.kind].param == "delta" and parse_metric_id(range_metric)[0] == "renyi":
        return INF
    return former_theoretical_bound(mech, d, parse_metric_id(domain_metric)[1], parse_metric_id(range_metric)[1])


def former_privacy_link_margin(inst_a, inst_b, mech, contexts):
    """privacy_link_margin as it was written before the table held the
    claims, with its own 2 lambda."""
    worst = -INF
    for selected in contexts:
        _, ga = submodular.marginal_gains(inst_a, selected)
        _, gb = submodular.marginal_gains(inst_b, selected)
        if ga.size == 0:
            continue
        pa = submodular._mechanism_distribution(mech, ga)
        pb = submodular._mechanism_distribution(mech, gb)
        div = max(renyi_divergence(pa, pb, INF), renyi_divergence(pb, pa, INF))
        gap = submodular._log_linf_gap(ga, gb) if mech.positive_domain else float(np.abs(ga - gb).max())
        bound = 2.0 * mech.param * gap
        worst = max(worst, -INF if np.isinf(bound) else div - bound)
    return worst


# every (family, exponent) pair a metric id can name
METRIC_IDS = [f"{family}{e}" for family in ("l", "log-l", "renyi:") for e in ("1", "1.5", "2", "3", "inf")]
LOG_TWIN = {"pow": "exp", "logplsoftmax": "plsoftmax"}  # the kind each is on log values


def privacy_neighbors():
    """Neighbor coverage instances, one set edited in each; some leave a
    gain at zero on one side only, where pow's log gap is infinite."""
    pairs = []
    for seed in range(6):
        a = submodular.synthetic_coverage_instance(8, 30, seed)
        sets = [list(s) for s in a.sets]
        sets[seed] = sets[seed][: len(sets[seed]) // 2] if seed % 3 else []
        pairs.append((a, submodular.make_instance(30, sets)))
    return pairs


class TestTheoreticalBound:
    @pytest.mark.parametrize("kind", sorted(MECHANISM_KINDS))
    def test_table_equals_former_branches(self, kind):
        params = [None] if MECHANISM_KINDS[kind].param is None else [1e-3, 0.3, 0.5, 1.0, 7.0, 1e3]
        ids = [(m, parse_metric_id(m)[0]) for m in METRIC_IDS]
        for param in params:
            mech = MechanismSpec(kind, param)
            twin = MechanismSpec(LOG_TWIN.get(kind, kind), param)
            for d in (2, 3, 7, 8, 1024, None):
                # plain domains keep every former bound; a log kind on log values
                # has its twin's former bound on plain values; the rest is no claim
                for dom, dom_family in ids:
                    for rng, rng_family in ids:
                        if rng_family == "log-lp" or dom_family == "renyi":
                            expected = INF
                        elif dom_family == "lp":
                            expected = former_bound_for_metrics(mech, d, dom, rng)
                        elif kind in LOG_TWIN:
                            expected = former_bound_for_metrics(twin, d, dom.removeprefix("log-"), rng)
                        else:
                            expected = INF
                        assert mech.lipschitz_bound(dom, rng, d) == expected, (param, d, dom, rng)
            contexts = [[], [0], [1, 2]]
            for a, b in privacy_neighbors():
                if kind in ("exp", "pow"):
                    assert submodular.privacy_link_margin(a, b, mech, contexts) == former_privacy_link_margin(
                        a, b, mech, contexts)
                else:
                    with pytest.raises(ValueError, match="max-divergence"):
                        submodular.privacy_link_margin(a, b, mech, contexts)

    def test_exp_bound(self):
        mech = MechanismSpec("exp", 3.0)
        assert mech.lipschitz_bound("l2", "linf", 50) == 6.0
        assert mech.lipschitz_bound("l1", "l1", 4) == 6.0

    def test_plsoftmax_bound(self):
        mech = MechanismSpec("plsoftmax", 0.5)
        assert np.isclose(mech.lipschitz_bound("l2", "l2", 10), 4.0 * min(3.0, 2.0, np.log(10)))
        assert np.isclose(mech.lipschitz_bound("linf", "l1", 32), 4.0 * harmonic(32))
        assert np.isclose(mech.lipschitz_bound("linf", "l1", 3), 4.0 * (1 + 1 / 2 + 1 / 3))

    def test_plsoftmax_bound_covers_the_exact_constant(self):
        # plsoftmax's (p, q) constant is max_k ||A_k||_{p->q} / delta over the
        # k-active matrices; at small d it passes (2/delta) log d
        for d in range(2, 9):
            mats = [build_softmax_matrix(k, d).to_float() for k in range(1, d + 1)]
            exact = {
                ("linf", "l1"): max(subordinate_norm_exact(A, INF) for A in mats),
                ("l2", "l1"): max(subordinate_norm_exact(A, 2.0) for A in mats),
                ("l1", "l1"): max(np.abs(A).sum(axis=0).max() for A in mats),
                ("l2", "l2"): max(np.linalg.norm(A, 2) for A in mats),
            }
            for delta in (0.5, 1.0, 3.0):
                mech = MechanismSpec("plsoftmax", delta)
                for (dom, rng), norm in exact.items():
                    assert norm / delta <= mech.lipschitz_bound(dom, rng, d) * (1 + 1e-12), (d, dom, rng, delta)

    def test_unclaimed_mechanisms(self):
        assert MechanismSpec("pow", 1.0).lipschitz_bound("l2", "l2", 8) == INF
        assert MechanismSpec("sparsemax").lipschitz_bound("l2", "l2", 8) == INF

    def test_bound_for_metrics(self):
        assert MechanismSpec("plsoftmax", 1.0).lipschitz_bound("linf", "kl", 8) == INF
        assert MechanismSpec("exp", 2.0).lipschitz_bound("l2", "dinf", 8) == 4.0
        assert np.isclose(MechanismSpec("plsoftmax", 1.0).lipschitz_bound("l2", "l2", 8), 4.0)

    @pytest.mark.parametrize("domain, range_", [("l0.5", "l1"), ("l1", "tv"), ("log-kl", "l1"), ("l2", "renyi:")])
    def test_unknown_metric_id_rejected(self, domain, range_):
        with pytest.raises(ValueError, match="metric id"):
            MechanismSpec("exp", 1.0).lipschitz_bound(domain, range_, 8)

    @pytest.mark.parametrize("mech", [MechanismSpec("exp", 1.0), MechanismSpec("sparsemax")], ids=lambda m: m.kind)
    def test_d_below_two_rejected(self, mech):
        # the dimension is checked even for a kind with no claim
        for d in (1, 0, -3):
            with pytest.raises(ValueError, match="d must be >= 2"):
                mech.lipschitz_bound("l1", "l1", d)


class TestLogDomainClaims:
    """pow and logplsoftmax are exp and plsoftmax on log values, so the table
    gives them their twins' constants on log metrics: the lab stays below
    them, and exp's witness moved to log values attains the same ratio."""

    @pytest.mark.parametrize("kind, params, ranges", [
        ("pow", (0.5, 1.0, 3.0), ("l1", "l2", "kl", "dinf", "renyi:2")),
        ("logplsoftmax", (0.25, 1.0, 2.0), ("l1", "l2", "linf")),
    ])
    def test_lab_estimates_below_the_log_bounds(self, kind, params, ranges):
        for param in params:
            mech = MechanismSpec(kind, param)
            for d in (2, 3, 4, 8, 16):
                for domain in ("log-l1", "log-l2", "log-linf"):
                    for range_metric in ranges:
                        bound = mech.lipschitz_bound(domain, range_metric, d)
                        assert np.isfinite(bound)
                        for seed in (0, 1):
                            est = empirical_lipschitz(mech, d, domain, range_metric, 150, seed)
                            assert est.skipped == 0
                            assert est.max_ratio <= bound + 1e-9, (param, d, domain, range_metric, seed)

    def test_exp_witness_on_log_values(self):
        for d in (2, 4, 16, 100):
            for lam in (0.5, 1.0, 3.0):
                x, y = exp_l1_lb_witness(d, lam)
                pw = MechanismSpec("pow", lam)
                for p, domain in ((2.0, "log-l2"), (INF, "log-linf")):
                    exp_ratio = measured_ratio(MechanismSpec("exp", lam), x, y, p)
                    pow_ratio = lp_distance(pw(np.exp(x)), pw(np.exp(y)), 1.0) / metric_from_id(domain)(
                        np.exp(x), np.exp(y))
                    assert abs(pow_ratio - exp_ratio) <= 1e-9
                    # the witness's derivative 2 lambda d(d-1)/(2d-1)^2, within the step's error
                    assert 0.999 * 2 * lam * d * (d - 1) / (2 * d - 1) ** 2 <= pow_ratio
                    assert pow_ratio <= pw.lipschitz_bound(domain, "l1", d)


class TestKlWitness:
    def test_construction(self):
        x, y, floor = kl_lb_witness(4, 1.0)
        assert np.array_equal(x, np.zeros(4))
        assert np.array_equal(y, [2.0, 0.0, 0.0, 0.0])
        assert np.isclose(floor, (np.log(4) - 2.0) / 2.0)
        with pytest.raises(ValueError):
            kl_lb_witness(3, 1.0)
        for delta in (0.0, -1.0, np.nan, INF):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                kl_lb_witness(8, delta)

    def test_exp_meets_floor_at_large_d(self):
        d, delta = 1024, 1.0
        x, y, floor = kl_lb_witness(d, delta)
        mech = MechanismSpec("exp", np.log(d) / delta)
        kl = renyi_divergence(mech(y), mech(x), 1.0)
        assert kl >= floor
        assert kl / lp_distance(x, y, 2.0) >= (np.log(d) - 2.0) / (4.0 * delta)

    def test_plsoftmax_infinite_at_witness(self):
        # Lipschitz continuity quantifies over ordered pairs, and the
        # uniform-against-point-mass direction is already infinite
        x, y, _ = kl_lb_witness(8, 1.0)
        assert renyi_divergence(plsoftmax(x, 1.0), plsoftmax(y, 1.0), 1.0) == INF


class TestExpWitness:
    @pytest.mark.parametrize("lam", [1.0, 2.0, np.log(100)])
    def test_ratio_near_half_lambda(self, lam):
        x, y = exp_l1_lb_witness(100, lam)
        ratio = measured_ratio(MechanismSpec("exp", lam), x, y, 2.0)
        assert 0.49 * lam <= ratio <= 0.51 * lam

    def test_ratio_scales_with_lambda(self):
        base = measured_ratio(MechanismSpec("exp", 1.0), *exp_l1_lb_witness(100, 1.0), 2.0)
        doubled = measured_ratio(MechanismSpec("exp", 2.0), *exp_l1_lb_witness(100, 2.0), 2.0)
        assert np.isclose(doubled / base, 2.0, rtol=1e-3)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, INF])
    def test_rejects_a_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            exp_l1_lb_witness(8, lam)

    def test_delta_parameterization(self):
        d, delta = 100, 0.5
        lam = np.log(d) / delta
        ratio = measured_ratio(MechanismSpec("exp", lam), *exp_l1_lb_witness(d, lam), 2.0)
        assert ratio >= np.log(d) / (2.1 * delta)


class TestMultiplicativeProbe:
    def test_pow_ratio_grows_inverse_to_scale(self):
        points = multiplicative_lb_probe(MechanismSpec("pow", 1.5), 4, [1.0, 0.1, 0.01])
        ratios = [r for _, r in points]
        assert np.isclose(ratios[1] / ratios[0], 10.0, rtol=1e-9)
        assert np.isclose(ratios[2] / ratios[1], 10.0, rtol=1e-9)

    def test_logplsoftmax_same_growth(self):
        points = multiplicative_lb_probe(MechanismSpec("logplsoftmax", 1.0), 4, [1.0, 0.1])
        assert np.isclose(points[1][1] / points[0][1], 10.0, rtol=1e-9)

    def test_scale_mode_rejects_translation_invariant(self):
        with pytest.raises(ValueError):
            multiplicative_lb_probe(MechanismSpec("exp", 1.0), 4, [1.0])


class TestSparsegenWitness:
    def test_d4_values(self):
        x, y, floor1 = sparsegen_lb_witness(4, 1.0)
        ratio1 = lp_distance(sparsemax(x), sparsemax(y), 1.0) / lp_distance(x, y, 1.0)
        assert np.isclose(ratio1, 1.0)
        assert ratio1 >= floor1 == 0.5
        _, _, floor2 = sparsegen_lb_witness(4, 2.0)
        ratio2 = lp_distance(sparsemax(x), sparsemax(y), 1.0) / lp_distance(x, y, 2.0)
        assert np.isclose(ratio2, np.sqrt(2))
        assert ratio2 >= floor2 == 1.0

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            sparsegen_lb_witness(5, 2.0)


class TestForbiddenRegion:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_two_option_slope_floor(self, delta):
        a = 2.0
        pl_slope = forbidden_region_slope(lambda v: plsoftmax(v, delta), a)
        assert pl_slope >= 1.0 / (8.0 * delta)
        lam = np.log(2) / delta
        exp_slope = forbidden_region_slope(lambda v: exp_mechanism(v, lam), a)
        assert exp_slope >= 1.0 / (8.0 * delta)
