"""spawn_rngs against numpy's SeedSequence: states and draws, bit for bit.

The block port reimplements SeedSequence's hash, so these tests pin numpy's
algorithm: a numpy release that changed it would fail here instead of
changing seeded outputs silently.
"""

import numpy as np
import pytest

from softmech import seeding
from softmech.seeding import spawn_rng, spawn_rngs

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**199 + 12345, np.int64(7)]


def numpy_rng(seed, i):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))


def assert_same_generators(seed, start, n):
    got = list(spawn_rngs(seed, start, n))
    assert len(got) == n
    for i, g in zip(range(start, start + n), got):
        ref = numpy_rng(seed, i)
        assert g.bit_generator.state == ref.bit_generator.state, i
        assert g.normal(size=7).tobytes() == ref.normal(size=7).tobytes(), i
        assert g.integers(0, 2**62, size=3).tolist() == ref.integers(0, 2**62, size=3).tolist(), i
        assert g.random() == ref.random(), i


@pytest.mark.parametrize("seed", SEEDS, ids=str)
@pytest.mark.parametrize("start", [0, 255, 256, 999_900])
@pytest.mark.parametrize("n", [1, 256, 1000])
def test_states_and_draws_match_seed_sequence(seed, start, n):
    assert_same_generators(seed, start, n)


@pytest.mark.parametrize("seed", [3, 2**64 + 5])
def test_across_key_block_edges(seed):
    assert_same_generators(seed, seeding._KEY_BLOCK - 2, 2 * seeding._KEY_BLOCK + 5)


@pytest.mark.parametrize("start, n", [(2**32 - 3, 6), (2**32, 2), (2**40 + 7, 3)])
def test_two_word_keys_take_numpy_path(start, n):
    assert_same_generators(11, start, n)


def test_seeds_outside_the_port_take_numpy_path():
    assert_same_generators([1, 2], 0, 3)
    assert_same_generators(True, 5, 3)
    for seed in (-1, 1.5, "7", np.bool_(True)):
        with pytest.raises(Exception) as numpy_error:
            spawn_rng(seed, 0)
        with pytest.raises(type(numpy_error.value)):
            list(spawn_rngs(seed, 0, 3))
    with pytest.raises(ValueError):
        list(spawn_rngs(5, -1, 3))


def test_empty_run():
    assert list(spawn_rngs(5, 10, 0)) == []


def choice_loop(rng, population, sizes):
    """The per-set numpy loop that ``sorted_choices`` replays."""
    return [sorted(rng.choice(population, size=s, replace=False).tolist()) for s in sizes]


def live_state(rng):
    """PCG64's state and the 32-bit half it holds; numpy keeps a used half's stale value."""
    state = rng.bit_generator.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


def assert_same_choices(seed, population, sizes):
    got_rng, ref_rng = numpy_rng(seed, 0), numpy_rng(seed, 0)
    ids, lengths = seeding.sorted_choices(got_rng, population, sizes)
    ref = choice_loop(ref_rng, population, sizes)
    assert lengths.tolist() == [len(s) for s in ref]
    assert ids.tolist() == [e for s in ref for e in s]
    # the generator is left where the loop leaves it, carried half included
    assert live_state(got_rng) == live_state(ref_rng)
    assert got_rng.integers(0, 2**32 - 1, size=3).tolist() == ref_rng.integers(0, 2**32 - 1, size=3).tolist()


class TestSortedChoices:
    @pytest.mark.parametrize("population", [2, 3, 5, 64, 999, 10**4])
    def test_random_sizes(self, population):
        rng = np.random.default_rng(population)
        for seed in range(8):
            sizes = rng.integers(1, population + 1, size=int(rng.integers(1, 12))).tolist()
            assert_same_choices(seed, population, sizes)

    @pytest.mark.parametrize("population", [2, 3, 17, 300])
    def test_whole_population_draws_take_no_half(self, population):
        # s = P makes Floyd's first step a draw in [0, 0], which numpy takes without a half
        for seed in range(4):
            assert_same_choices(seed, population, [population, 1, population, 2, population])

    @pytest.mark.parametrize("population", [10**4 + 1, 20000])
    def test_above_floyd_limit_runs_numpy(self, population):
        assert_same_choices(3, population, [population // 3, 5, 1])

    def test_blocks_carry_the_half(self, monkeypatch):
        for block in (1, 2, 3, 50):
            monkeypatch.setattr(seeding, "_DRAW_BLOCK", block)
            for seed in range(3):
                assert_same_choices(seed, 40, [1, 2, 3, 13, 40, 7, 1, 1, 20])

    def test_no_sets(self):
        ids, lengths = seeding.sorted_choices(numpy_rng(1, 0), 10, [])
        assert ids.size == 0 and lengths.size == 0

    @pytest.mark.parametrize("sizes", [[0], [11], [3, 12]])
    def test_size_outside_population(self, sizes):
        with pytest.raises(ValueError, match="set sizes"):
            seeding.sorted_choices(numpy_rng(1, 0), 10, sizes)


class TestBoundedDraws:
    @pytest.mark.parametrize("n", [2, 3, 1000, 3 * 2**30, 2**31 + 1, 2**32 - 1])
    def test_matches_integers(self, n):
        # at 3 * 2**30 a quarter of the halves are rejected, at 2**31 + 1 nearly half
        for seed in range(3):
            values, half = seeding._bounded_draws(np.random.PCG64(seed), [n] * 501, None)
            ref = np.random.Generator(np.random.PCG64(seed))
            assert values.tolist() == ref.integers(n, size=501).tolist()
            state = ref.bit_generator.state
            assert half == (state["uinteger"] if state["has_uint32"] else None)

    def test_mixed_bounds_and_carried_half(self):
        bounds = [1, 2**31 + 1, 5, 1, 1, 3 * 2**30, 7, 2**32 - 1, 1] * 40
        for seed in range(5):
            ref = np.random.Generator(np.random.PCG64(seed))
            expected = [int(ref.integers(n)) for n in bounds]
            bitgen = np.random.PCG64(seed)
            first, half = seeding._bounded_draws(bitgen, bounds[:101], None)
            second, half = seeding._bounded_draws(bitgen, bounds[101:], half)
            assert first.tolist() + second.tolist() == expected
