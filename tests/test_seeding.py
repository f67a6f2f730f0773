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
