"""The seeding helpers against numpy, bit for bit: the generators of
spawn_rng against SeedSequence, sorted_choices against choice, integers on
an array of bounds against scalar calls, and weighted_choices against choice
with probabilities.

sorted_choices and weighted_choices rest on what numpy's own calls draw
(integers on an array of bounds, choice's cdf search), and so do the seeded
probes' draw blocks, so these tests pin both: a numpy release that changed
either would fail here instead of changing seeded outputs silently.
"""

import numpy as np
import pytest

from softmech import seeding
from softmech.seeding import spawn_rng


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**199 + 12345, np.int64(7)]


def numpy_rng(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def assert_same_generators(seed, start, n, streams=((),)):
    """spawn_rng(seed, i, *stream) for i in [start, start + n) against the
    generator SeedSequence(seed, spawn_key=(i, *stream)) gives: the same
    state, and the same normal, integers and random draws."""
    for i in range(start, start + n):
        for stream in streams:
            got, ref = spawn_rng(seed, i, *stream), numpy_rng(seed, i, *stream)
            assert got.bit_generator.state == ref.bit_generator.state, (i, stream)
            assert got.normal(size=7).tobytes() == ref.normal(size=7).tobytes(), (i, stream)
            assert got.integers(0, 2**62, size=3).tolist() == ref.integers(0, 2**62, size=3).tolist(), (i, stream)
            assert got.random() == ref.random(), (i, stream)


@pytest.mark.parametrize("seed", SEEDS, ids=str)
@pytest.mark.parametrize("start", [0, 255, 256, 999_900])
@pytest.mark.parametrize("n", [1, 256, 1000])
def test_states_and_draws_match_seed_sequence(seed, start, n):
    assert_same_generators(seed, start, n)


@pytest.mark.parametrize("seed", [3, 2**64 + 5])
def test_across_key_block_edges(seed):
    # the two streams (b, 0) and (b, 1) of each draw block b the seeded probes use
    assert_same_generators(seed, 1022, 2 * 1024 + 5, streams=((0,), (1,)))


@pytest.mark.parametrize("start, n", [(2**32 - 3, 6), (2**32, 2), (2**40 + 7, 3)])
def test_two_word_keys_take_numpy_path(start, n):
    # SeedSequence hashes a counter of 2**32 or more as two 32-bit words
    assert_same_generators(11, start, n, streams=((), (0,), (1,)))


def test_seeds_outside_the_port_take_numpy_path():
    assert_same_generators([1, 2], 0, 3)
    assert_same_generators(True, 5, 3)
    for seed in (-1, 1.5, "7", np.bool_(True)):
        with pytest.raises(Exception) as numpy_error:
            numpy_rng(seed, 0)
        with pytest.raises(type(numpy_error.value)):
            spawn_rng(seed, 0)
        with pytest.raises(type(numpy_error.value)):
            spawn_rng(seed, 0, 1)
    with pytest.raises(ValueError):
        spawn_rng(5, -1)


def test_empty_run():
    assert_same_generators(5, 10, 0)
    assert spawn_rng(5).bit_generator.state == numpy_rng(5).bit_generator.state  # no counters


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
    """numpy's ``integers`` on an array of bounds, which ``sorted_choices``
    and the smoothness lab's draw blocks rely on, is one scalar
    ``integers(b)`` call per bound, in order: the same values, the same
    buffered 32-bit half, and so the same later draws."""

    @staticmethod
    def assert_same_as_scalar_calls(seed, calls):
        got, ref = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        carried = []  # whether a half is buffered after each call
        for bounds in calls:
            assert got.integers(np.array(bounds, dtype=np.intp)).tolist() == [int(ref.integers(n)) for n in bounds]
            assert live_state(got) == live_state(ref)
            carried.append(live_state(ref)[1] is not None)
        assert got.integers(0, 2**32 - 1, size=3).tolist() == ref.integers(0, 2**32 - 1, size=3).tolist()
        return carried

    @pytest.mark.parametrize("n", [2, 3, 1000, 3 * 2**30, 2**31 + 1, 2**32 - 1])
    def test_matches_integers(self, n):
        # at 3 * 2**30 a quarter of the halves are rejected, at 2**31 + 1 nearly half
        for seed in range(3):
            self.assert_same_as_scalar_calls(seed, [[n] * 501])

    def test_mixed_bounds_and_carried_half(self):
        bounds = [1, 2**31 + 1, 5, 1, 1, 3 * 2**30, 7, 2**32 - 1, 1] * 40
        for seed in range(5):
            # bound 2 rejects no half, so its 101 draws flip whether a half is carried
            carried = self.assert_same_as_scalar_calls(seed, [bounds[:101], [2] * 101, bounds[101:]])
            assert carried[0] != carried[1]


class TestWeightedChoices:
    @pytest.mark.parametrize("d", [1, 2, 7, 50, 300])
    def test_matches_generator_choice(self, d):
        rng = np.random.default_rng(d)
        dists = rng.dirichlet(np.full(d, 0.3), size=120)
        dists[::3, :d // 2] = 0.0  # zeros up front, where the cdf stays flat
        dists[1::4] = 1.0 / d
        dists[2::5] = np.eye(d)[rng.integers(d, size=len(dists[2::5]))]
        dists /= dists.sum(axis=1, keepdims=True)
        uniforms, expected = [], []
        for i, row in enumerate(dists):
            uniforms.append(spawn_rng(i, 1).random())
            expected.append(int(spawn_rng(i, 1).choice(d, p=row)))
        assert seeding.weighted_choices(dists, np.array(uniforms)).tolist() == expected

    def test_uniforms_at_the_ends(self):
        dists = np.array([[0.25, 0.5, 0.25]] * 3)
        # u = 0, exactly the first cdf step (searchsorted's side="right"
        # moves on past it) and the largest random() below 1
        assert seeding.weighted_choices(dists, np.array([0.0, 0.25, 1 - 2**-53])).tolist() == [0, 1, 2]
