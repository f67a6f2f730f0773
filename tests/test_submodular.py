"""Coverage objective, greedy loops, privacy accounting, manipulation test."""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from softmech import seeding, submodular
from softmech.distances import renyi_divergence
from softmech.mechanisms import MechanismSpec
from softmech.seeding import spawn_rng
from softmech.submodular import (
    brute_force_opt,
    compose_privacy,
    exp_error_bound,
    greedy,
    insensitivity_t,
    load_set_family,
    make_instance,
    manipulation_records,
    marginal_gains,
    pow_error_bound,
    privacy_link_margin,
    private_greedy,
    save_set_family,
    sensitivity_linf,
    synthetic_coverage_instance,
)

POW2 = MechanismSpec("pow", 2.0)
EXP1 = MechanismSpec("exp", 1.0)


def coverage_value(inst, items):
    """Number of ids the chosen sets cover, read off the coverage matrix."""
    return int(np.bitwise_count(np.bitwise_or.reduce(inst.words[list(items)], axis=0)).sum())


def first_step_distribution(inst, mech):
    """Exact distribution of private_greedy's first pick (all items available)."""
    return submodular._mechanism_distribution(mech, marginal_gains(inst, [])[1])


class TestCoverage:
    def test_examples(self):
        inst = make_instance(5, [[1, 2], [2, 3]])
        assert coverage_value(inst, []) == 0
        assert coverage_value(inst, [0, 1]) == 3
        assert coverage_value(inst, [0]) <= coverage_value(inst, [0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_instance(3, [[0, 5], [1]])
        with pytest.raises(ValueError):
            make_instance(3, [[0]])
        inst = make_instance(4, [[0], [1]])
        with pytest.raises(ValueError):
            marginal_gains(inst, [7])

    def test_marginal_gains(self):
        inst = make_instance(6, [[0, 1, 2], [2, 3], [4]])
        items, gains = marginal_gains(inst, [])
        assert items == [0, 1, 2]
        assert gains.tolist() == [3.0, 2.0, 1.0]
        items, gains = marginal_gains(inst, [0])
        assert dict(zip(items, gains)) == {1: 1.0, 2: 1.0}
        inst2 = make_instance(6, [[0, 1], [0, 1], [2]])
        _, g = marginal_gains(inst2, [0])
        assert g[0] == 0.0  # duplicate set fully covered

    def test_submodularity_brute(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = synthetic_coverage_instance(6, 20, int(rng.integers(1000)))
            base_items, base_gains = marginal_gains(inst, [])
            u = int(rng.integers(6))
            bigger_items, bigger_gains = marginal_gains(inst, [u])
            lookup = dict(zip(bigger_items, bigger_gains))
            for v, g in zip(base_items, base_gains):
                if v in lookup:
                    assert lookup[v] <= g + 1e-12


def per_element_masks(sets, elements):
    """One bit set at a time: set r's mask has bit j for each of its ids
    equal to elements[j], the rule the word matrix must match."""
    column = {e: j for j, e in enumerate(elements)}
    masks = []
    for s in sets:
        mask = 0
        for e in s:
            mask |= 1 << column[e]
        masks.append(mask)
    return tuple(masks)


def word_masks(inst):
    return tuple(int.from_bytes(row.astype("<u8").tobytes(), "little") for row in inst.words)


def random_family(rng, universe):
    """Unsorted sets with repeated ids, one empty and one with the extreme ids."""
    sets = [rng.integers(0, universe, size=int(rng.integers(0, 2 * universe + 2))).tolist()
            for _ in range(int(rng.integers(2, 9)))]
    sets[0] = []
    sets[1] = [0, universe - 1, universe - 1, 0]
    return sets


class TestMasksMatchPerElementLoop:
    @pytest.mark.parametrize("universe", [1, 7, 8, 9, 63, 64, 65, 1001])
    def test_random_families(self, universe):
        rng = np.random.default_rng(universe)
        for _ in range(10):
            sets = random_family(rng, universe)
            inst = make_instance(universe, sets)
            assert inst.elements.tolist() == sorted({e for s in sets for e in s})
            assert inst.words.shape == (len(sets), -(-inst.elements.size // 64))
            assert word_masks(inst) == per_element_masks(sets, inst.elements.tolist())
            assert all(m.bit_count() == len(set(s)) for m, s in zip(word_masks(inst), sets))

    @pytest.mark.parametrize("drop_prob", [0.0, 0.5, 0.999])
    @pytest.mark.parametrize("universe", [1, 9, 64, 65, 1001])
    def test_thinned_sets_match_comprehension(self, universe, drop_prob):
        rng = np.random.default_rng(universe)
        for trial in range(10):
            inst = make_instance(universe, random_family(rng, universe))
            thinned = submodular.drop_elements(inst, drop_prob, spawn_rng(trial, 0))
            keep = (spawn_rng(trial, 0).random(universe) >= drop_prob).tolist()
            assert thinned.sets == tuple(tuple(e for e in s if keep[e]) for s in inst.sets)
            assert_same_instance(thinned, make_instance(universe, thinned.sets), trial)

    def test_all_empty_sets(self):
        inst = make_instance(5, [[], [], []])
        assert inst.words.shape == (3, 0) and inst.elements.size == 0
        assert coverage_value(inst, [0, 2]) == 0
        assert marginal_gains(inst, [1])[1].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [-1, 9, 10**30, -(10**30)])
    def test_out_of_universe_id_message(self, bad):
        with pytest.raises(ValueError) as err:
            make_instance(9, [[0, 8], [3, bad, 4], [-5]])
        assert str(err.value) == f"element id {bad} outside universe [0, 9)"
        if bad > 0:
            with pytest.raises(ValueError, match=f"element id {bad} outside"):
                make_instance(9, [[0, 8], [3, bad]])

    def test_first_offending_id_reported(self):
        with pytest.raises(ValueError, match=r"element id 12 outside universe \[0, 10\)"):
            make_instance(10, [[1, 2], [12, -1], [10**30]])


class TestUniverseCap:
    def test_cap_is_inclusive(self):
        inst = make_instance(submodular.UNIVERSE_CAP, [[0], [submodular.UNIVERSE_CAP - 1]])
        assert inst.elements.tolist() == [0, submodular.UNIVERSE_CAP - 1]
        assert inst.words.tolist() == [[1], [2]]

    def test_top_id_allocates_one_word_per_set(self):
        top = submodular.UNIVERSE_CAP - 1
        tracemalloc.start()
        try:
            inst = make_instance(submodular.UNIVERSE_CAP, [[top, 5]] * 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inst.words.shape == (100, 1) and coverage_value(inst, [7]) == 2
        assert peak < 1_000_000  # a 2 MB mask per set would be 200 MB

    @pytest.mark.parametrize("size", [2**24 + 1, 10**12, 10**30 + 1])
    def test_beyond_cap_refused_before_masks(self, size):
        with pytest.raises(ValueError, match=f"universe_size {size} outside"):
            make_instance(size, [[0], [size - 1]])

    def test_synthetic_refused_before_drawing(self):
        with pytest.raises(ValueError, match=f"universe_size {10**12} outside"):
            synthetic_coverage_instance(10, 10**12, 0)

    def test_file_with_huge_id(self, tmp_path):
        fam = tmp_path / "sets.txt"
        fam.write_text(f"0 1\n{10**30}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"universe_size {10**30 + 1} outside"):
            load_set_family(str(fam))


def per_set_choice_instance(num_sets, universe_size, rng_seed):
    """The former loop, one numpy ``choice`` per set: the oracle of the raw-word replay."""
    rng = spawn_rng(rng_seed, 0)
    top = max(2, universe_size // 3)
    sets = []
    for i in range(num_sets):
        size = max(1, int(round(top * (i + 1) ** (-submodular._SIZE_EXPONENT))))
        sets.append(tuple(sorted(rng.choice(universe_size, size=size, replace=False).tolist())))
    return make_instance(universe_size, sets)


def assert_same_instance(got, ref, note=""):
    assert got.universe_size == ref.universe_size and got.sets == ref.sets, note
    for name in ("words", "elements", "ids", "lengths"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (name, note)
        assert not a.flags.writeable, (name, note)


class TestSyntheticMatchesPerSetChoice:
    def test_benchmark_shape(self):
        # seeds 82, 429, 453 and 504 each hit one Lemire rejection at this shape
        for seed in [*range(200), 429, 453, 504]:
            assert_same_instance(synthetic_coverage_instance(300, 2000, seed),
                                 per_set_choice_instance(300, 2000, seed), seed)

    @pytest.mark.parametrize("universe", [2, 3, 7, 50])
    def test_small_universes(self, universe):
        for num_sets in (2, 5, 40):
            for seed in range(5):
                assert_same_instance(synthetic_coverage_instance(num_sets, universe, seed),
                                     per_set_choice_instance(num_sets, universe, seed), (num_sets, seed))

    @pytest.mark.parametrize("universe", [10**4, 10**4 + 1])
    def test_either_side_of_numpys_floyd_limit(self, universe):
        for seed in range(2):
            assert_same_instance(synthetic_coverage_instance(12, universe, seed),
                                 per_set_choice_instance(12, universe, seed), seed)

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_runs_longer_than_one_block(self, monkeypatch, block):
        monkeypatch.setattr(seeding, "_DRAW_BLOCK", block)
        for seed in (0, 82):
            assert_same_instance(synthetic_coverage_instance(60, 300, seed),
                                 per_set_choice_instance(60, 300, seed), seed)

    def test_benchmark_shape_spans_blocks(self):
        top = 2000 // 3
        draws = sum(2 * max(1, int(round(top * (i + 1) ** -submodular._SIZE_EXPONENT))) - 1 for i in range(300))
        assert draws > 1.5 * seeding._DRAW_BLOCK

    @pytest.mark.parametrize("num_sets, universe, needle", [
        (1, 50, "num_sets 1 outside [2, 100000]"),
        (submodular.SET_CAP + 1, 50, f"num_sets {submodular.SET_CAP + 1} outside"),
        (10**9, 50, f"num_sets {10**9} outside"),
        (5, 1, "universe_size 1 outside [2, "),
        (5, 0, "universe_size 0 outside"),
    ])
    def test_refused_before_any_draw(self, monkeypatch, num_sets, universe, needle):
        def no_draws(*args):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(submodular, "spawn_rng", no_draws)
        with pytest.raises(ValueError) as exc:
            synthetic_coverage_instance(num_sets, universe, 0)
        assert needle in str(exc.value)

    def test_set_cap_is_inclusive(self):
        inst = synthetic_coverage_instance(submodular.SET_CAP, 2, 0)
        assert inst.num_sets == submodular.SET_CAP


class TestGreedy:
    def test_all_items(self):
        inst = make_instance(8, [[0, 1], [2], [3, 4]])
        tr = greedy(inst, 3)
        assert sorted(tr.chosen) == [0, 1, 2]
        assert tr.objective_values[-1] == coverage_value(inst, [0, 1, 2])

    def test_tie_break_lowest_index(self):
        inst = make_instance(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
        tr = greedy(inst, 2)
        assert tr.chosen == [0, 1]

    def test_ratio_vs_brute_force(self):
        for seed in range(8):
            inst = synthetic_coverage_instance(10, 40, seed)
            tr = greedy(inst, 3)
            opt, _ = brute_force_opt(inst, 3)
            assert tr.objective_values[-1] >= (1 - 1 / np.e) * opt

    def test_family_of_empty_sets(self):
        # no words to count: every gain is 0, the argmax takes the lowest
        # index and both mechanisms draw uniformly
        inst = make_instance(5, [[], [], []])
        tr = greedy(inst, 2)
        assert tr.chosen == [0, 1] and tr.objective_values == [0, 0]
        for mech in (POW2, EXP1):
            tr = private_greedy(inst, 3, mech, 0)
            assert sorted(tr.chosen) == [0, 1, 2] and tr.objective_values == [0, 0, 0]
            assert [dist.tolist() for dist in tr.step_distributions] == [[1 / 3] * 3, [0.5, 0.5], [1.0]]
        with pytest.raises(ValueError, match="greedy baseline covers 0 elements"):
            manipulation_records(inst, 2, [EXP1, POW2], 0.5, [0, 1])

    def test_trace_shape(self):
        inst = synthetic_coverage_instance(8, 30, 1)
        tr = greedy(inst, 4)
        assert len(set(tr.chosen)) == 4
        assert all(b >= a for a, b in zip(tr.objective_values, tr.objective_values[1:]))
        for dist in tr.step_distributions:
            assert np.isclose(dist.sum(), 1.0)


class TestPrivateGreedy:
    def test_sharp_exp_matches_greedy_first_pick(self):
        inst = synthetic_coverage_instance(10, 50, 2)
        dist = first_step_distribution(inst, MechanismSpec("exp", 500.0))
        assert np.isclose(dist[greedy(inst, 1).chosen[0]], 1.0)

    def test_pow_first_pick_example(self):
        inst = make_instance(8, [[0, 1], [2], [3]])
        dist = first_step_distribution(inst, MechanismSpec("pow", 1.0))
        assert np.allclose(dist, [0.5, 0.25, 0.25])

    def test_uniform_gains_uniform_pick(self):
        inst = make_instance(9, [[0], [1], [2]])
        for mech in (POW2, EXP1):
            assert np.allclose(first_step_distribution(inst, mech), 1 / 3)

    def test_pow_zero_gain_fallback(self):
        inst = make_instance(4, [[0, 1], [0, 1], [0, 1]])
        tr = private_greedy(inst, 3, POW2, 0)
        assert np.allclose(tr.step_distributions[1], 0.5)  # both leftovers gain 0
        assert len(set(tr.chosen)) == 3

    def test_determinism_and_validity(self):
        inst = synthetic_coverage_instance(12, 60, 3)
        a = private_greedy(inst, 5, POW2, 42)
        b = private_greedy(inst, 5, POW2, 42)
        assert a.chosen == b.chosen
        assert len(set(a.chosen)) == 5
        assert all(y >= x for x, y in zip(a.objective_values, a.objective_values[1:]))
        for items, dist in zip(a.step_items, a.step_distributions):
            assert len(items) == dist.size
            assert np.isclose(dist.sum(), 1.0) and dist.min() >= 0

    def test_mechanism_kinds_restricted(self):
        inst = make_instance(4, [[0], [1]])
        with pytest.raises(ValueError):
            private_greedy(inst, 1, MechanismSpec("plsoftmax", 1.0), 0)


def exhaustive_opt(inst, k):
    """Every k-subset in lexicographic order, unions of Python sets: the
    first subset of largest coverage."""
    best_val, best_set = -1, ()
    for combo in combinations(range(inst.num_sets), k):
        val = len(set().union(*(inst.sets[v] for v in combo)))
        if val > best_val:
            best_val, best_set = val, combo
    return best_val, best_set


class TestBruteForce:
    def test_small_cases(self):
        inst = make_instance(10, [[0, 1, 2], [3], [4, 5]])
        val, items = brute_force_opt(inst, 1)
        assert val == 3 and items == (0,)
        val, items = brute_force_opt(inst, 3)
        assert val == 6 and items == (0, 1, 2)

    @pytest.mark.parametrize("universe", [1, 6, 40, 130])
    def test_matches_exhaustive_oracle(self, universe):
        rng = np.random.default_rng(universe)
        for _ in range(15):
            sets = [rng.integers(0, universe, size=int(rng.integers(0, universe + 2))).tolist()
                    for _ in range(int(rng.integers(2, 11)))]
            inst = make_instance(universe, sets)
            for k in range(1, inst.num_sets + 1):
                assert brute_force_opt(inst, k) == exhaustive_opt(inst, k)
        for seed in range(3):
            inst = synthetic_coverage_instance(16, max(universe, 16), seed)
            for k in (2, 4, 7):
                assert brute_force_opt(inst, k) == exhaustive_opt(inst, k)

    def test_first_of_tied_optima(self):
        inst = make_instance(8, [[0, 1], [2, 3], [0, 1], [4, 5], [2, 3]])
        assert brute_force_opt(inst, 2) == (4, (0, 1))
        assert brute_force_opt(make_instance(4, [[], [], []]), 2) == (0, (0, 1))

    def test_capacity_error(self):
        rng = np.random.default_rng(0)
        inst = make_instance(50, [rng.choice(50, size=10, replace=False).tolist() for _ in range(40)])
        with pytest.raises(ValueError, match="exceeds the node cap"):
            brute_force_opt(inst, 15)


class TestPrivacyAccounting:
    def test_basic(self):
        b = compose_privacy(0.1, 1e-6, 5, 0.01)
        assert np.isclose(b.eps_total_basic, 0.5)
        assert np.isclose(b.delta_total_basic, 5e-6)
        assert np.isclose(b.delta_total, 0.01 + 5e-6)

    def test_advanced_as_printed(self):
        b = compose_privacy(0.1, 1e-6, 5, 0.01)
        expected = 0.5 * (5 * 0.1) ** 2 + np.sqrt(2 * np.log(100)) * 0.1
        assert np.isclose(b.eps_total_advanced, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            compose_privacy(0.0, 0.0, 1, 0.5)
        with pytest.raises(ValueError):
            compose_privacy(0.1, 0.0, 1, 1.5)


class TestSensitivityAndPrivacyLink:
    def make_neighbors(self):
        a = make_instance(6, [[0, 1, 2], [2, 3], [4, 5], [1, 5]])
        b = make_instance(6, [[0, 1, 2], [2], [4, 5], [1, 5]])  # one element dropped from set 1
        return a, b

    def test_sensitivity_examples(self):
        a, b = self.make_neighbors()
        assert sensitivity_linf(a, a, [[]]) == 0.0
        assert sensitivity_linf(a, b, [[], [0], [2]]) <= 1.0
        c = make_instance(6, [[0, 1, 2], [], [4, 5], [1, 5]])
        assert sensitivity_linf(a, c, [[]]) == 2.0  # whole set emptied

    NEIGHBOR_CALLS = {
        "sensitivity_linf": lambda a, b: sensitivity_linf(a, b, [[]]),
        "privacy_link_margin": lambda a, b: privacy_link_margin(a, b, EXP1),
        "insensitivity_t": lambda a, b: insensitivity_t(a, b, 2.0, 5.0),
    }

    def test_neighbor_validation(self):
        a, b = self.make_neighbors()
        reordered = make_instance(6, [[2, 1, 0], [3, 2], [5, 4], [5, 1]])  # the same sets, ids in another order
        repeated = make_instance(6, [[0, 1, 1, 2], [2, 3, 2], [4, 5], [5, 1, 5]])  # the same sets, ids repeated
        shared = "^neighboring instances must share universe and set count$"
        for call in self.NEIGHBOR_CALLS.values():
            call(a, b)
            call(a, reordered)
            call(repeated, b)
            with pytest.raises(ValueError, match=shared):
                call(a, make_instance(7, [[0, 1, 2], [2, 3], [4, 5], [1, 5]]))
            with pytest.raises(ValueError, match=shared):
                call(a, make_instance(6, [[0, 1, 2], [2, 3], [4, 5]]))
            with pytest.raises(ValueError, match="^instances differ in 2 sets; neighbors differ in at most one$"):
                call(a, make_instance(6, [[0, 1, 2], [2], [4], [1, 5]]))

    @pytest.mark.parametrize("universe", [1, 5, 40])
    def test_differing_sets_match_the_set_comparison(self, universe):
        rng = np.random.default_rng(universe)
        for _ in range(30):
            num_sets = int(rng.integers(2, 7))
            fam = [rng.integers(universe, size=rng.integers(0, 6)).tolist() for _ in range(num_sets)]
            edited = [rng.permutation(s + s[:1]).tolist() if rng.random() < 0.5 else
                      rng.integers(universe, size=rng.integers(0, 6)).tolist() for s in fam]
            a, b = make_instance(universe, fam), make_instance(universe, edited)
            thinned = submodular.drop_elements(a, 0.4, rng)
            for x, y in ((a, b), (b, a), (a, thinned), (thinned, b), (a, a)):
                expected = sum(set(s) != set(t) for s, t in zip(x.sets, y.sets))
                assert submodular._differing_sets(x, y) == expected

    def test_privacy_link_refuses_the_kind_before_the_instances(self):
        a, _ = self.make_neighbors()
        far = make_instance(6, [[0], [1], [2], [3]])
        with pytest.raises(ValueError, match="proven max-divergence constant"):
            privacy_link_margin(a, far, MechanismSpec("plsoftmax", 1.0))

    def test_insensitivity_checks_the_neighbors_before_s_inf_and_opt(self):
        a, b = self.make_neighbors()
        far = make_instance(6, [[0], [1], [2], [3]])
        with pytest.raises(ValueError, match="differ in 4 sets"):
            insensitivity_t(a, far, -1.0, 0.0)
        with pytest.raises(ValueError, match="s_inf and opt must be positive"):
            insensitivity_t(a, b, -1.0, 0.0)

    def test_privacy_link_enumerated(self):
        a, b = self.make_neighbors()
        contexts = [[]] + [[v] for v in range(4)] + [[0, 2]]
        for lam in (0.5, 2.0):
            assert privacy_link_margin(a, b, MechanismSpec("pow", lam), contexts) <= 1e-9
            assert privacy_link_margin(a, b, MechanismSpec("exp", lam), contexts) <= 1e-9

    def test_privacy_link_when_gains_move_both_ways(self):
        # the gains after set 0 go from [1, 3, 3] to [3, 1, 1]: pow's divergence
        # passes lambda times the log gap, and stays within twice it
        a = make_instance(7, [[0, 1], [0, 1, 4], [2, 3, 5], [2, 3, 6]])
        b = make_instance(7, [[2, 3], [0, 1, 4], [2, 3, 5], [2, 3, 6]])
        for lam in (0.5, 1.0, 2.0):
            for kind in ("pow", "exp"):
                assert privacy_link_margin(a, b, MechanismSpec(kind, lam), [[0]]) <= 1e-9
            pa, pb = MechanismSpec("pow", lam)(np.array([1.0, 3, 3])), MechanismSpec("pow", lam)(np.array([3.0, 1, 1]))
            assert renyi_divergence(pb, pa, float("inf")) > lam * np.log(3.0)

    def test_insensitivity_t(self):
        a, b = self.make_neighbors()
        opt = float(brute_force_opt(a, 2)[0])
        t = insensitivity_t(a, b, 2.0, opt, [[]])
        # set 1 shrinks from gain 2 to 1: ratio 1/2, so t = (s/opt) / (1/2)
        assert np.isclose(t, (2.0 / opt) * 2.0)
        assert insensitivity_t(a, a, 2.0, opt, [[]]) == float("inf")


class TestErrorBounds:
    def test_pow_below_exp_from_k4(self):
        for k in range(4, 26):
            p = pow_error_bound(k, 30, 1.0, 1.0, 60.0, t=1.0)
            e = exp_error_bound(k, 30, 1.0, 1.0, 60.0)
            assert p <= e + 1e-12
            if k >= 5:
                assert p < e
        assert np.isclose(
            pow_error_bound(4, 30, 1.0, 1.0, 60.0, t=1.0), exp_error_bound(4, 30, 1.0, 1.0, 60.0)
        )

    def test_caps_at_one(self):
        assert pow_error_bound(100, 30, 1e-6, 10.0, 1.0) == 1.0


class TestManipulation:
    def test_zero_drop_zero_distance(self):
        inst = synthetic_coverage_instance(10, 40, 4)
        recs = manipulation_records(inst, 3, [POW2], 0.0, [0, 1, 2])
        assert all(r["l1_dist"] == 0.0 and r["linf_dist"] == 0.0 for r in recs)
        assert 0.0 < np.mean([r["obj_ratio"] for r in recs]) <= 1.0

    def test_argmax_limit_distances_binary(self):
        inst = synthetic_coverage_instance(10, 40, 5)
        recs = manipulation_records(inst, 3, [MechanismSpec("exp", 500.0)], 0.2, range(20))
        for r in recs:
            assert min(r["l1_dist"], abs(r["l1_dist"] - 2.0)) <= 1e-9

    def test_original_distribution_computed_once(self, monkeypatch):
        calls = Counter()

        def counting(name):
            real = getattr(submodular, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(submodular, name, wrapper)

        for name in ("_greedy_rows", "drop_elements", "marginal_gains"):
            counting(name)
        post_init = submodular.CoverageInstance.__post_init__

        def counting_post_init(self):
            calls["CoverageInstance"] += 1
            post_init(self)

        monkeypatch.setattr(submodular.CoverageInstance, "__post_init__", counting_post_init)
        inst = synthetic_coverage_instance(10, 40, 6)
        calls.clear()
        work = Counter()
        recs = manipulation_records(inst, 3, [POW2, EXP1], 0.05, [0, 1, 2, 3], work=work)
        assert len(recs) == 8
        # the baseline and all 8 private runs are the rows of one body call;
        # every first step is read off the coverage matrix, no instance is built
        assert calls == {"_greedy_rows": 1}
        # one gain vector per step of each run (baseline and private), the
        # original first step and one thinned first step per seed
        assert work == {"greedy_runs": 9, "thinned_instances": 4, "gain_evaluations": 3 + 1 + 4 + 8 * 3}

    def test_thinned_gains_match_the_thinned_instances(self, monkeypatch):
        distributions = []

        def recording(mech, gains):
            distributions.append(gains)
            return real(mech, gains)

        real = submodular._mechanism_distribution
        monkeypatch.setattr(submodular, "_mechanism_distribution", recording)
        seeds = range(7)
        for inst in (synthetic_coverage_instance(10, 40, 6), synthetic_coverage_instance(30, 300, 9),
                     make_instance(70, [[], [69, 0, 69], [], [2, 3, 2], [5]])):
            for drop_prob in (0.0, 0.3, 0.9):
                manipulation_records(inst, 2, [POW2], drop_prob, seeds)
                original, thinned = distributions[-2:]  # after the greedy rows' own calls
                assert original.tolist() == marginal_gains(inst, [])[1].tolist()
                assert thinned.shape == (len(seeds), inst.num_sets)
                for seed, row in zip(seeds, thinned):
                    ref = marginal_gains(submodular.drop_elements(inst, drop_prob, spawn_rng(seed, 0)), [])[1]
                    assert row.tolist() == ref.tolist(), (drop_prob, seed)

    def test_mechanisms_match_separate_calls(self):
        inst = synthetic_coverage_instance(12, 60, 8)
        mechs = [POW2, EXP1, MechanismSpec("pow", 8.0)]
        together = manipulation_records(inst, 4, mechs, 0.1, range(5))
        assert together == [r for m in mechs for r in manipulation_records(inst, 4, [m], 0.1, range(5))]
        base = greedy(inst, 4).objective_values[-1]
        for i, rec in enumerate(together):
            mech, seed = mechs[i // 5], i % 5
            thinned = submodular.drop_elements(inst, 0.1, spawn_rng(seed, 0))
            move = first_step_distribution(inst, mech) - first_step_distribution(thinned, mech)
            assert (rec["mechanism"], rec["param"], rec["seed"]) == (mech.kind, mech.param, seed)
            assert rec["l1_dist"] == float(np.abs(move).sum()) and rec["linf_dist"] == float(np.abs(move).max())
            assert rec["obj_ratio"] == private_greedy(inst, 4, mech, seed).objective_values[-1] / base
        with pytest.raises(ValueError, match="exp or pow"):
            manipulation_records(inst, 4, [POW2, MechanismSpec("plsoftmax", 1.0)], 0.1, range(5))

    def test_sweep_memory_is_bounded(self):
        inst = synthetic_coverage_instance(40, 8000, 3)
        mechs, seeds = [POW2, EXP1], range(2000)
        # all the sweep's rows at once would hold several times the constant
        # in (rows, sets, words) temporaries alone
        assert (1 + len(mechs) * len(seeds)) * inst.words.nbytes > 4 * submodular._SWEEP_BYTES
        tracemalloc.start()
        try:
            recs = manipulation_records(inst, 3, mechs, 0.05, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recs) == 4000
        assert peak < submodular._SWEEP_BYTES + 4 * 2**20  # 4 MiB for the records and the thinned gains

    def test_rows_memory_is_bounded_when_one_row_is_over_it(self):
        inst = synthetic_coverage_instance(1500, 65536, 4)
        # one row's (words, sets) temporaries, and the coverage matrix itself,
        # are over the constant
        assert inst.words.nbytes > submodular._SWEEP_BYTES
        assert inst.num_sets * 9 * inst.words.shape[1] > submodular._SWEEP_BYTES
        tracemalloc.start()
        try:
            chosen, picked, _ = submodular._greedy_rows(inst, 4, [POW2, EXP1], [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < submodular._SWEEP_BYTES + 2**20  # 1 MiB for the outputs and rounding of the row state
        assert chosen.shape == picked.shape == (5, 4)
        for items, gained in zip(chosen, picked):  # each run's gains add up to the coverage of its picks
            assert len(set(items.tolist())) == 4
            assert gained.sum() == np.bitwise_count(np.bitwise_or.reduce(inst.words[items])).sum()
        # a one-step sweep holds the matrix-sized temporary of one first-step
        # count at a time, never a thinned instance or all seeds' masks at once
        tracemalloc.start()
        try:
            recs = manipulation_records(inst, 1, [POW2, EXP1], 0.05, [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recs) == 4
        assert peak < 1.5 * inst.words.nbytes

    @pytest.mark.parametrize("sweep_bytes", [1, 2500, 200_000])
    def test_blocks_do_not_change_the_records(self, monkeypatch, sweep_bytes):
        inst = synthetic_coverage_instance(30, 300, 9)
        mechs = [POW2, EXP1, MechanismSpec("pow", 1e-9)]
        whole = manipulation_records(inst, 4, mechs, 0.1, range(25))
        # one row per block and one set per span, one row and two spans, or
        # blocks of 66 rows that split a mechanism's runs
        monkeypatch.setattr(submodular, "_SWEEP_BYTES", sweep_bytes)
        assert manipulation_records(inst, 4, mechs, 0.1, range(25)) == whole

    def test_no_seeds(self):
        inst = synthetic_coverage_instance(10, 40, 6)
        work = Counter()
        assert manipulation_records(inst, 3, [POW2, MechanismSpec("plsoftmax", 1.0)], 0.05, [], work=work) == []
        assert work == {"greedy_runs": 1, "thinned_instances": 0, "gain_evaluations": 3 + 1}

    def test_determinism(self):
        inst = synthetic_coverage_instance(10, 40, 6)
        a = manipulation_records(inst, 3, [POW2], 0.05, [0, 1])
        b = manipulation_records(inst, 3, [POW2], 0.05, [0, 1])
        assert a == b


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        inst = synthetic_coverage_instance(8, 25, 7)
        path = tmp_path / "family.txt"
        save_set_family(inst, path)
        loaded = load_set_family(path)
        assert loaded.sets == inst.sets

    def test_blank_lines_and_inference(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("0 1 2\n\n3 4\n", encoding="utf-8")
        inst = load_set_family(path)
        assert inst.universe_size == 5
        assert inst.sets == ((0, 1, 2), (3, 4))

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("0 1\n2 x\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_set_family(path)
        assert "line 2" in str(err.value)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("0 -1\n2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_set_family(path)
