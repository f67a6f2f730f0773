"""The seeding helpers against numpy, bit for bit: the hashed seed words of
_key_runs against SeedSequence, sorted_choices against choice, trial_draws
against the per-trial normal, integers and random calls, and
weighted_choices against choice with probabilities.

_key_runs and trial_draws port numpy's algorithms, and sorted_choices and
weighted_choices rest on what numpy's own calls draw (integers on an array of
bounds, choice's cdf search), so these tests pin both: a numpy release that
changed either would fail here instead of changing seeded outputs silently.
"""

import numpy as np
import pytest

from softmech import seeding
from softmech.seeding import spawn_rng
from softmech.smoothness import empirical_lipschitz
from test_smoothness import ORACLE_MECHS, per_pair_lipschitz

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**199 + 12345, np.int64(7)]


def numpy_rng(seed, i):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))


def spawn_rngs(seed, start, n):
    """The generators of spawn_rng(seed, i), i in [start, start + n), from
    the seed words of ``_key_runs``, each built as ``trial_draws`` builds it."""
    for lo, hi, seeds in seeding._key_runs(seed, start, n):
        if seeds is None:
            yield from (spawn_rng(seed, i) for i in range(lo, hi))
        else:
            yield from (np.random.Generator(np.random.PCG64(seeding._Words(words))) for words in seeds)


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
    for lo, hi, seeds in seeding._key_runs(11, start, n):
        assert (seeds is None) == (lo >= 2**32) and (hi <= 2**32 or lo >= 2**32)


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
    """numpy's ``integers`` on an array of bounds, which ``sorted_choices``
    relies on, is one scalar ``integers(b)`` call per bound, in order: the
    same values, the same buffered 32-bit half, and so the same later draws."""

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


def numpy_trials(seed, start, scales, widths, bounds):
    """The per-trial numpy calls that ``trial_draws`` replays, padded as it pads."""
    n = len(widths)
    normals = np.zeros((n, max(widths, default=0)))
    picks = np.zeros((n, len(bounds[0]) if n else 0), dtype=np.intp)
    uniforms = np.empty(n)
    for j in range(n):
        rng, alt = spawn_rng(seed, start + j), spawn_rng(seed, start + j)
        normals[j, :widths[j]] = rng.normal(0.0, scales[j], size=widths[j])
        picks[j] = [rng.integers(b) for b in bounds[j]]
        alt.normal(0.0, scales[j], size=widths[j])
        uniforms[j] = alt.random()
    return normals, picks, uniforms


def assert_same_trials(seed, start, scales, widths, bounds):
    got = seeding.trial_draws(seed, start, scales, widths, np.array(bounds, dtype=np.int64))
    ref = numpy_trials(seed, start, scales, widths, bounds)
    assert got[0].tobytes() == ref[0].tobytes()  # the sign of zero included
    assert got[1].tolist() == ref[1].tolist()
    assert got[2].tobytes() == ref[2].tobytes()


class TestTrialDraws:
    @pytest.mark.parametrize("n", [2, 3, 5, 3 * 2**30, 2**31 + 1, 2**32])
    def test_integers_match_numpy(self, n):
        # at 3 * 2**30 a quarter of the halves are rejected, at 2**31 + 1 nearly half,
        # so many trials run out of the halves fetched and take numpy's calls
        for seed, start in ((0, 0), (5, 7), (2**40 + 3, 256)):
            rng = np.random.default_rng(seed)
            widths = rng.integers(0, 9, size=40).tolist()
            bounds = [[n, 1, n], [1, 1, 1], [n, n, 2]] * 13 + [[1, n, 1]]
            assert_same_trials(seed, start, rng.uniform(0.5, 2.0, size=40).tolist(), widths, bounds)

    def test_mixed_widths_and_bounds(self):
        rng = np.random.default_rng(11)
        for seed in range(6):
            n = int(rng.integers(1, 60))
            widths = rng.choice([0, 1, 2, 16, 32, 200], size=n).tolist()
            bounds = rng.integers(1, [2**32, 4, 2, 2**31 + 2], size=(n, 4)).tolist()
            assert_same_trials(seed, int(rng.integers(1000)), [0.5] * n, widths, bounds)

    @pytest.mark.parametrize("start, n", [(seeding._KEY_BLOCK - 2, seeding._KEY_BLOCK + 5), (2**32 - 3, 7)])
    def test_across_key_edges(self, start, n):
        # the keys are hashed _KEY_BLOCK at a time, and a key of 2**32 or more takes numpy's path
        rng = np.random.default_rng(n)
        widths = rng.integers(0, 9, size=n).tolist()
        bounds = rng.integers(1, 50, size=(n, 2)).tolist()
        assert_same_trials(4, start, rng.uniform(0.5, 2.0, size=n).tolist(), widths, bounds)

    def test_no_integers_and_no_trials(self):
        assert_same_trials(3, 9, [2.0, 0.25, 1.0], [4, 0, 7], [[], [], []])
        normals, picks, uniforms = seeding.trial_draws(3, 9, [], [], np.empty((0, 2)))
        assert normals.shape == (0, 0) and picks.shape == (0, 2) and uniforms.size == 0

    def test_zero_scale_gives_positive_zeros(self):
        # numpy's normal is 0.0 + scale * z, so -0.0 from 0 * z comes out +0.0
        assert_same_trials(1, 0, [0.0, 0.0], [6, 6], [[2], [3]])

    @pytest.mark.parametrize("bound", [0, -3, 2**32 + 1])
    def test_bounds_outside_the_port_refused(self, bound):
        with pytest.raises(ValueError, match="bounds"):
            seeding.trial_draws(1, 0, [1.0, 1.0], [2, 2], [[2], [bound]])

    def test_seeds_outside_the_port_get_numpy_error(self):
        for seed in (-1, 1.5):
            with pytest.raises(Exception) as numpy_error:
                spawn_rng(seed, 0)
            with pytest.raises(type(numpy_error.value)):
                seeding.trial_draws(seed, 0, [1.0], [3], [[3]])


class TestRowDraws:
    def test_zero_low_half_is_rejected(self):
        # low32(0 * 3) = 0 is below (2**32 - 3) % 3 = 1: the draw takes the high half
        values, short = seeding._row_draws(np.array([[2**31 << 32]], dtype=np.uint64), np.array([[1, 3]]))
        assert values.tolist() == [[0, 1]] and not short.any()  # (2**31 * 3) >> 32

    def test_rows_run_out_of_halves(self):
        words = np.array([[0], [2**31 << 32], [0]], dtype=np.uint64)
        _, short = seeding._row_draws(words, np.array([[3], [3], [1]]))
        assert short.tolist() == [True, False, False]
        # the rejection passes the draw on to the next half, leaving none for a second draw
        _, short = seeding._row_draws(words[1:2], np.array([[3, 2]]))
        assert short.tolist() == [True]

    def test_lab_falls_back_to_numpy_calls(self, monkeypatch):
        row_draws = seeding._row_draws

        def every_fifth_row_short(words, bounds):
            values, short = row_draws(words, bounds)
            short[::5] = True
            values[::5] = -1  # numpy's calls must overwrite these
            return values, short

        monkeypatch.setattr(seeding, "_row_draws", every_fifth_row_short)
        for mech in ORACLE_MECHS:
            for d in (2, 5):
                ref = per_pair_lipschitz(mech, d, "l2", "l1", 300, 17)
                est = empirical_lipschitz(mech, d, "l2", "l1", 300, 17)
                assert np.float64(est.max_ratio).tobytes() == np.float64(ref[0]).tobytes()
                assert est.witness_x.tobytes() == ref[1].tobytes() and est.witness_y.tobytes() == ref[2].tobytes()
                assert (est.trials, est.skipped) == ref[3:]


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
