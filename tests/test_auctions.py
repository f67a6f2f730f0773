"""Reserve grids, ground-auction rules, soft-max selection, IC audit."""

import json

import numpy as np
import pytest

from softmech import auctions
from softmech.auctions import (
    AuctionInstance,
    ic_audit,
    ic_epsilon_for,
    load_auction_json,
    reserve_grid,
    revenue_of_reserve,
    revenue_vector,
    sensitivity_l1_revenue,
    soft_maximizer,
    worst_case_revenue_check,
    write_audit_csv,
)
from softmech.cli import main
from softmech.mechanisms import MechanismSpec


def per_price_outcome(bids, H, k, r):
    """The ground auction at one reserve, one bidder at a time: the rule
    ``ic_audit`` was first written against, kept as the oracle."""
    n = bids.size
    wins = np.zeros(n, dtype=bool)
    payments = np.zeros(n)
    eligible = bids >= r
    if k >= n:
        wins[:] = eligible
        payments[wins] = r
    else:
        order = np.lexsort((np.arange(n), -bids))
        winners = [i for i in order if eligible[i]][:k]
        runner_up = np.sort(bids)[::-1][k]
        wins[winners] = True
        payments[winners] = max(r, float(runner_up))
    return float(payments.sum()), wins, payments


def per_deviation_ic_audit(inst, grid, mech, resolution):
    """One full auction per deviation and one scalar pass over the grid per
    expected utility; ``ic_audit`` must return exactly what this returns."""

    def revenues(bids):
        return np.array([per_price_outcome(bids, inst.H, inst.supply_k, float(p))[0] for p in grid.prices])

    def utility(true_value, bidder, bids, dist):
        total = 0.0
        for j, p in enumerate(grid.prices):
            if dist[j] == 0.0:
                continue
            _, wins, payments = per_price_outcome(bids, inst.H, inst.supply_k, float(p))
            if wins[bidder]:
                total += dist[j] * (true_value - payments[bidder])
        return total

    truthful_dist = mech(revenues(inst.bids))
    records = []
    max_gain = 0.0
    for i in range(inst.n):
        true_value = float(inst.bids[i])
        base = utility(true_value, i, inst.bids, truthful_dist)
        for dev in np.linspace(0.0, inst.H, resolution):
            reported = inst.bids.copy()
            reported[i] = dev
            dist = mech(revenues(reported))
            gain = (utility(true_value, i, reported, dist) - base) / inst.H
            records.append((i, float(dev), float(gain)))
            max_gain = max(max_gain, gain)
    return float(max_gain), records


SELECTORS = [
    MechanismSpec("exp", 0.7),
    MechanismSpec("exp", 40.0),
    MechanismSpec("pow", 2.0),
    MechanismSpec("plsoftmax", 0.05),
    MechanismSpec("plsoftmax", 4.0),
    MechanismSpec("logplsoftmax", 0.5),
    MechanismSpec("sparsemax"),
]


def _outcome(fn, *args):
    """(result, None) or (None, exception type)."""
    try:
        return fn(*args), None
    except (ValueError, AssertionError) as exc:
        return None, type(exc)


class TestGrid:
    def test_example(self):
        grid = reserve_grid(1.0, 0.5, 0.1)
        assert np.allclose(grid.prices, [0.5, 0.25, 0.125, 0.0625])

    def test_size_bound(self):
        for H, delta, alpha in [(1.0, 0.5, 0.1), (10.0, 0.25, 0.5), (2.0, 0.05, 0.01)]:
            grid = reserve_grid(H, delta, alpha)
            assert grid.size <= 2.0 * np.log(H / alpha) / delta
            assert np.all(np.diff(grid.prices) < 0)
            assert grid.prices[-1] <= alpha < grid.prices[0] < H

    def test_small_delta_ratio_near_one(self):
        grid = reserve_grid(1.0, 0.01, 0.9)
        assert np.allclose(grid.prices[1:] / grid.prices[:-1], 0.99)

    def test_validation(self):
        for H, delta, alpha in [(1.0, 0.6, 0.1), (1.0, 0.0, 0.1), (1.0, 0.5, 1.5), (0.0, 0.5, 0.1)]:
            with pytest.raises(ValueError):
                reserve_grid(H, delta, alpha)

    def test_size_capped(self):
        # about 1.6e6 prices, past the cap of 10**6
        with pytest.raises(ValueError, match="exceeds 1000000 prices"):
            reserve_grid(1.0, 1e-6, 0.2)
        # 1 - 1e-300 == 1 in floats: the price never falls to the floor
        with pytest.raises(ValueError, match="exceeds 1000000 prices"):
            reserve_grid(1.0, 1e-300, 0.5)

    def test_accepted_grids_keep_their_prices(self):
        def uncapped(H, delta, alpha):
            prices, p = [], H
            while True:
                p *= 1.0 - delta
                prices.append(p)
                if p <= alpha:
                    return prices

        # the last grid has about 8e5 prices, close to the cap
        for args in [(1.0, 0.5, 0.1), (10.0, 0.25, 0.5), (2.0, 0.05, 0.01), (1.0, 2e-6, 0.2)]:
            assert reserve_grid(*args).prices.tolist() == uncapped(*args)


class TestGroundAuction:
    def test_unlimited_posted_price(self):
        inst = AuctionInstance(np.array([0.9, 0.4]), 1.0, 2)
        revenue, wins, payments = revenue_of_reserve(inst, 0.5)
        assert revenue == 0.5
        assert wins.tolist() == [True, False]
        assert payments.tolist() == [0.5, 0.0]

    def test_limited_uniform_price(self):
        inst = AuctionInstance(np.array([0.9, 0.8, 0.4]), 1.0, 1)
        revenue, wins, payments = revenue_of_reserve(inst, 0.5)
        assert wins.tolist() == [True, False, False]
        assert revenue == payments[0] == 0.8  # max(reserve, runner-up)

    def test_reserve_above_all_bids(self):
        inst = AuctionInstance(np.array([0.3, 0.2]), 1.0, 2)
        assert revenue_of_reserve(inst, 0.9)[0] == 0.0

    def test_limited_tie_break_by_index(self):
        inst = AuctionInstance(np.array([0.7, 0.7, 0.7]), 1.0, 2)
        _, wins, _ = revenue_of_reserve(inst, 0.5)
        assert wins.tolist() == [True, True, False]

    def test_individual_rationality_truthful(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            inst = AuctionInstance(rng.uniform(0, 1, size=n), 1.0, k)
            r = float(rng.uniform(0.05, 1.0))
            _, wins, payments = revenue_of_reserve(inst, r)
            assert np.all(inst.bids * wins - payments >= -1e-12)
            assert np.all(payments[wins] >= r - 1e-12)
            assert np.all(payments[~wins] == 0.0)
            assert wins.sum() <= k


class TestRevenueVector:
    def test_single_bidder(self):
        inst = AuctionInstance(np.array([0.3]), 1.0, 1)
        grid = reserve_grid(1.0, 0.5, 0.05)
        x = revenue_vector(inst, grid)
        assert np.allclose(x, [p if p <= 0.3 else 0.0 for p in grid.prices])

    def test_zero_bids(self):
        inst = AuctionInstance(np.zeros(3), 1.0, 3)
        grid = reserve_grid(1.0, 0.5, 0.1)
        assert np.all(revenue_vector(inst, grid) == 0.0)

    def test_scaling_homogeneity(self):
        bids = np.array([0.8, 0.35, 0.6])
        inst1 = AuctionInstance(bids, 1.0, 3)
        inst2 = AuctionInstance(2.0 * bids, 2.0, 3)
        g1 = reserve_grid(1.0, 0.25, 0.1)
        g2 = reserve_grid(2.0, 0.25, 0.2)
        assert np.allclose(revenue_vector(inst2, g2), 2.0 * revenue_vector(inst1, g1))


class TestSoftMaximizer:
    def test_plsoftmax_support_near_optimal(self):
        inst = AuctionInstance(np.array([0.9, 0.5, 0.45]), 1.0, 3)
        grid = reserve_grid(1.0, 0.25, 0.05)
        eta = 0.2
        out = soft_maximizer(inst, grid, MechanismSpec("plsoftmax", eta), 0)
        x = revenue_vector(inst, grid)
        support = out.selection_distribution > 1e-12
        assert np.all(x[support] >= x.max() - eta - 1e-9)

    def test_exp_full_support(self):
        inst = AuctionInstance(np.array([0.9, 0.5]), 1.0, 2)
        grid = reserve_grid(1.0, 0.5, 0.1)
        out = soft_maximizer(inst, grid, MechanismSpec("exp", 1.0), 0)
        assert np.all(out.selection_distribution > 0)

    def test_single_price_grid_deterministic(self):
        inst = AuctionInstance(np.array([0.9]), 1.0, 1)
        grid = reserve_grid(1.0, 0.5, 0.6)
        assert grid.size == 1
        out = soft_maximizer(inst, grid, MechanismSpec("pow", 1.0), 3)
        assert out.chosen_price_index == 0
        assert out.selection_distribution.tolist() == [1.0]

    def test_outcome_is_that_of_the_chosen_reserve(self):
        grid = reserve_grid(1.0, 0.25, 0.05)
        for supply in (1, 2, 3):
            inst = AuctionInstance(np.array([0.9, 0.6, 0.2]), 1.0, supply)
            chosen = set()
            for seed in range(20):
                out = soft_maximizer(inst, grid, MechanismSpec("exp", 1.0), seed)
                revenue, wins, payments = revenue_of_reserve(inst, float(grid.prices[out.chosen_price_index]))
                assert out.revenue == revenue
                assert out.allocations.tolist() == wins.tolist() and out.payments.tolist() == payments.tolist()
                chosen.add(out.chosen_price_index)
            assert len(chosen) > 1

    def test_seed_determinism(self):
        inst = AuctionInstance(np.array([0.9, 0.6, 0.2]), 1.0, 3)
        grid = reserve_grid(1.0, 0.25, 0.05)
        a = soft_maximizer(inst, grid, MechanismSpec("exp", 3.0), 11)
        b = soft_maximizer(inst, grid, MechanismSpec("exp", 3.0), 11)
        assert a.chosen_price_index == b.chosen_price_index


class TestSensitivity:
    def test_formula(self):
        assert sensitivity_l1_revenue(reserve_grid(1.0, 0.5, 0.1)) == 1.0
        assert sensitivity_l1_revenue(reserve_grid(2.0, 0.25, 0.1)) == 6.0
        # tail shrinks as the grid coarsens
        assert sensitivity_l1_revenue(reserve_grid(1.0, 0.5, 0.1)) < sensitivity_l1_revenue(
            reserve_grid(1.0, 0.25, 0.1)
        )

    def test_enumerated_one_bid_deviations_within_bound(self):
        # digital-goods mode: one bid change moves the revenue vector by at
        # most the sum of all grid prices
        rng = np.random.default_rng(1)
        grid = reserve_grid(1.0, 0.5, 0.05)
        bound = sensitivity_l1_revenue(grid)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            bids = rng.uniform(0, 1, size=n)
            inst = AuctionInstance(bids, 1.0, n)
            x = revenue_vector(inst, grid)
            for i in range(n):
                for dev in np.linspace(0, 1, 21):
                    other = bids.copy()
                    other[i] = dev
                    x2 = revenue_vector(AuctionInstance(other, 1.0, n), grid)
                    assert np.abs(x - x2).sum() <= bound + 1e-12


class TestICEpsilon:
    def test_values(self):
        grid = reserve_grid(1.0, 0.5, 0.1)
        assert np.isclose(ic_epsilon_for(MechanismSpec("plsoftmax", 2.0), grid, 1.0), 2.0)
        assert np.isclose(ic_epsilon_for(MechanismSpec("exp", 1.5), grid, 1.0), 3.0)
        # slack decays as the selector smooths out
        assert ic_epsilon_for(MechanismSpec("plsoftmax", 50.0), grid, 1.0) < ic_epsilon_for(
            MechanismSpec("plsoftmax", 2.0), grid, 1.0
        )
        with pytest.raises(ValueError):
            ic_epsilon_for(MechanismSpec("sparsemax"), grid, 1.0)

    def test_table_equals_former_constants(self):
        # the constants ic_epsilon_for stated before the mechanism table held them
        for grid in (reserve_grid(1.0, 0.5, 0.1), reserve_grid(3.0, 0.125, 0.01)):
            s1 = sensitivity_l1_revenue(grid)
            for v in np.geomspace(1e-3, 1e3, 61):
                assert ic_epsilon_for(MechanismSpec("plsoftmax", v), grid, grid.H) == 4.0 / v * s1
                assert ic_epsilon_for(MechanismSpec("exp", v), grid, grid.H) == 2.0 * v * s1

    @pytest.mark.parametrize("mech", [MechanismSpec("pow", 1.0), MechanismSpec("logplsoftmax", 1.0),
                                      MechanismSpec("sparsemax")], ids=lambda m: m.kind)
    def test_kinds_without_a_constant(self, mech):
        # none of these has a constant on plain values: pow's and logplsoftmax's
        # hold on log values only, so the auction's revenue vector gets no IC bound
        for domain, range_, d in (("l1", "l1", None), ("l2", "l2", 3), ("linf", "l1", 2)):
            assert mech.lipschitz_bound(domain, range_, d) == float("inf")
        with pytest.raises(ValueError, match="no proven"):
            ic_epsilon_for(mech, reserve_grid(1.0, 0.5, 0.1), 1.0)


class TestAudit:
    def test_gain_within_epsilon(self):
        rng = np.random.default_rng(2)
        grid = reserve_grid(1.0, 0.5, 0.1)
        for mech in (MechanismSpec("plsoftmax", 8.0), MechanismSpec("exp", 0.25)):
            eps = ic_epsilon_for(mech, grid, 1.0)
            for _ in range(5):
                n = int(rng.integers(2, 5))
                inst = AuctionInstance(rng.uniform(0, 1, size=n), 1.0, n)
                gain, records = ic_audit(inst, grid, mech, resolution=41)
                assert gain <= eps + 1e-9
                assert any(abs(dev - inst.bids[b]) < 0.05 for b, dev, _ in records)

    def test_posted_price_truthful_at_fixed_price(self):
        # one-price grid: the selection cannot move, so no deviation helps
        inst = AuctionInstance(np.array([0.9, 0.3]), 1.0, 2)
        grid = reserve_grid(1.0, 0.5, 0.6)
        gain, _ = ic_audit(inst, grid, MechanismSpec("exp", 5.0), resolution=51)
        assert gain <= 1e-12

    def test_capacity_error(self):
        inst = AuctionInstance(np.full(7, 0.5), 1.0, 7)
        grid = reserve_grid(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            ic_audit(inst, grid, MechanismSpec("exp", 1.0))

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "audit.csv"
        write_audit_csv([(0, 0.5, 0.001), (1, 0.25, 0.0)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bidder,deviation_bid,utility_gain"
        assert lines[1] == "0,0.5,0.001"


class TestWorstCaseRevenue:
    def test_large_eta_trivially_true(self):
        inst = AuctionInstance(np.array([0.9, 0.5]), 1.0, 2)
        grid = reserve_grid(1.0, 0.5, 0.1)
        assert worst_case_revenue_check(inst, grid, MechanismSpec("plsoftmax", 100.0))

    def test_sharp_revenue_support_collapses(self):
        inst = AuctionInstance(np.array([0.9, 0.88, 0.86]), 1.0, 3)
        grid = reserve_grid(1.0, 0.25, 0.05)
        assert worst_case_revenue_check(inst, grid, MechanismSpec("plsoftmax", 0.3))

    def test_exp_fails_for_small_lambda(self):
        inst = AuctionInstance(np.array([0.9, 0.88, 0.86]), 1.0, 3)
        grid = reserve_grid(1.0, 0.25, 0.05)
        assert not worst_case_revenue_check(inst, grid, MechanismSpec("exp", 0.5), eta=0.3)
        with pytest.raises(ValueError):
            worst_case_revenue_check(inst, grid, MechanismSpec("exp", 0.5))


class TestIO:
    def test_json_loader(self, tmp_path):
        path = tmp_path / "auction.json"
        path.write_text(json.dumps({"H": 1.0, "k": 2, "bids": [0.9, 0.4]}), encoding="utf-8")
        inst = load_auction_json(path)
        assert inst.H == 1.0 and inst.supply_k == 2 and inst.n == 2
        path.write_text(json.dumps({"H": 1.0, "bids": [0.5]}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_auction_json(path)

    def test_non_finite_instance_rejected(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="H must be positive and finite"):
                AuctionInstance(np.array([0.5]), bad, 1)
            with pytest.raises(ValueError, match="bids must be finite"):
                AuctionInstance(np.array([bad, 0.5]), 1.0, 2)
        with pytest.raises(ValueError, match="bids must be finite"):
            AuctionInstance(np.array([-np.inf, 0.5]), 1.0, 2)

    def test_non_finite_grid_rejected(self):
        for bad in (float("inf"), float("nan"), float("-inf")):
            with pytest.raises(ValueError, match="H must be positive and finite"):
                reserve_grid(bad, 0.25, 0.05)

    @pytest.mark.parametrize("field", ["H", "bids", "k"])
    def test_non_finite_file_exits_2(self, tmp_path, capsys, field):
        spec = {"H": 1.0, "k": 1, "bids": [0.9, 0.4]}
        spec[field] = [float("inf"), 0.4] if field == "bids" else float("inf")
        path = tmp_path / "auction.json"
        path.write_text(json.dumps(spec), encoding="utf-8")  # writes Infinity
        code = main(["auction", "--instance-file", str(path), "--mech", "plsoftmax:delta=4",
                     "--grid-delta", "0.25", "--grid-floor", "0.05"])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["command"] == "auction" and err["error"]

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            AuctionInstance(np.array([1.5]), 1.0, 1)
        with pytest.raises(ValueError):
            AuctionInstance(np.array([0.5]), 1.0, 2)
        with pytest.raises(ValueError):
            AuctionInstance(np.array([-0.1]), 1.0, 1)


class TestRowAuditMatchesPerDeviationLoop:
    """ic_audit's row blocks against the per-deviation oracle, compared with ==."""

    @staticmethod
    def _compare(inst, grid, mech, resolution):
        got, got_exc = _outcome(ic_audit, inst, grid, mech, resolution)
        want, want_exc = _outcome(per_deviation_ic_audit, inst, grid, mech, resolution)
        assert got_exc is want_exc
        assert got == want
        return got_exc is None

    @pytest.mark.parametrize("mech", SELECTORS, ids=lambda m: m.label())
    @pytest.mark.parametrize("grid_size", [1, 7, 12])
    def test_random_instances(self, mech, grid_size):
        rng = np.random.default_rng(grid_size)
        grid = reserve_grid(1.0, 0.5, 0.6) if grid_size == 1 else reserve_grid(
            1.0, {7: 0.25, 12: 0.15}[grid_size], {7: 0.14, 12: 0.15}[grid_size])
        assert grid.size == grid_size
        ran = 0
        for trial in range(6):
            n = int(rng.integers(1, 7))
            k = n if trial % 2 == 0 else int(rng.integers(1, n + 1))
            bids = rng.uniform(0.0, 1.0, size=n)
            if n > 2:
                bids[1] = bids[0]  # a tie
            if trial == 3:
                bids[-1] = grid.prices[grid_size // 2]  # a bid on a grid price
            ran += self._compare(AuctionInstance(bids, 1.0, k), grid, mech, int(rng.integers(2, 30)))
        if mech.kind in ("exp", "plsoftmax", "sparsemax"):
            assert ran == 6  # these selectors accept every revenue row

    @pytest.mark.parametrize("supply_k", [2, 4])
    def test_tied_bids_on_grid_prices(self, supply_k):
        grid = reserve_grid(1.0, 0.25, 0.14)
        bids = np.array([grid.prices[2], grid.prices[2], grid.prices[4], 0.0])
        for mech in SELECTORS:
            self._compare(AuctionInstance(bids, 1.0, supply_k), grid, mech, 17)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_resolution_straddling_a_block_edge(self, extra):
        grid = reserve_grid(1.0, 0.25, 0.14)
        inst = AuctionInstance(np.array([0.8, 0.55, 0.3]), 1.0, 2)
        mech = MechanismSpec("plsoftmax", 0.3)
        resolution = auctions._AUDIT_BLOCK + extra
        assert self._compare(inst, grid, mech, resolution)

    def test_small_block_size(self, monkeypatch):
        monkeypatch.setattr(auctions, "_AUDIT_BLOCK", 4)
        grid = reserve_grid(1.0, 0.25, 0.14)
        inst = AuctionInstance(np.array([0.9, 0.7, 0.7, 0.2]), 1.0, 4)
        for resolution in (3, 4, 5, 9, 41):
            assert self._compare(inst, grid, MechanismSpec("exp", 3.0), resolution)

    @pytest.mark.parametrize("block", [5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_blocks_split_a_bidders_deviations(self, monkeypatch, block, n):
        # resolutions that are not multiples of the block: blocks start and
        # end inside one bidder's deviations and hold several bidders' rows
        monkeypatch.setattr(auctions, "_AUDIT_BLOCK", block)
        rng = np.random.default_rng([n, block])
        grid = reserve_grid(1.0, 0.25, 0.14)
        for k, resolution in ((n, 9), (max(1, n - 1), 13)):
            bids = rng.uniform(0.0, 1.0, size=n)
            for mech in (MechanismSpec("plsoftmax", 0.3), MechanismSpec("exp", 3.0), MechanismSpec("sparsemax")):
                assert self._compare(AuctionInstance(bids, 1.0, k), grid, mech, resolution)

    @pytest.mark.parametrize("supply_k", [1, 3])
    def test_selector_error_inside_a_shared_block(self, monkeypatch, supply_k):
        # bidder 1 deviating to 0 leaves no revenue at any price (the others
        # bid below the grid), a row pow refuses; it sits mid-block, after
        # rows of bidder 0 and before rows of bidder 2
        monkeypatch.setattr(auctions, "_AUDIT_BLOCK", 7)
        grid = reserve_grid(1.0, 0.25, 0.14)
        inst = AuctionInstance(np.array([0.05, 0.6, 0.1]), 1.0, supply_k)
        assert not self._compare(inst, grid, MechanismSpec("pow", 2.0), 3)

    def test_working_rows_bounded_by_the_block(self, monkeypatch):
        seen = []
        kernel = auctions._outcome_rows

        def recording(bids, prices, supply_k):
            seen.append(bids.shape[0])
            return kernel(bids, prices, supply_k)

        monkeypatch.setattr(auctions, "_outcome_rows", recording)
        inst = AuctionInstance(np.array([0.8, 0.3]), 1.0, 2)
        _, records = ic_audit(inst, reserve_grid(1.0, 0.5, 0.1), MechanismSpec("exp", 1.0),
                              3 * auctions._AUDIT_BLOCK + 5)
        assert len(records) == 2 * (3 * auctions._AUDIT_BLOCK + 5)
        assert max(seen) == auctions._AUDIT_BLOCK
        assert sum(seen) == 1 + len(records)  # the truthful row, then every deviation once

    def test_selector_error_matches(self):
        # a deviation to 0 leaves no revenue at any price: pow and
        # logplsoftmax refuse that row on both paths
        grid = reserve_grid(1.0, 0.25, 0.14)
        inst = AuctionInstance(np.array([0.5]), 1.0, 1)
        for mech in (MechanismSpec("pow", 2.0), MechanismSpec("logplsoftmax", 0.5)):
            assert not self._compare(inst, grid, mech, 11)

    def test_revenue_views_match_per_price_rule(self):
        rng = np.random.default_rng(5)
        grid = reserve_grid(1.0, 0.15, 0.15)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            bids = np.round(rng.uniform(0.0, 1.0, size=n), 1)  # many ties
            inst = AuctionInstance(bids, 1.0, k)
            want = [per_price_outcome(bids, 1.0, k, float(p)) for p in grid.prices]
            assert revenue_vector(inst, grid).tolist() == [w[0] for w in want]
            for p, (rev, wins, pay) in zip(grid.prices, want):
                got = revenue_of_reserve(inst, float(p))
                assert got[0] == rev
                assert got[1].tolist() == wins.tolist()
                assert got[2].tolist() == pay.tolist()
