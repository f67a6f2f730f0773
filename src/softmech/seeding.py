"""Deterministic fan-out from a master seed to per-task generators.

Sub-task number i of master seed s uses SeedSequence(s, spawn_key=(i,)); the
derivation is a pure function of (s, i), so trials can run in any order or in
parallel and reductions by max/mean stay reproducible.

``spawn_rng`` builds one such generator through numpy.  ``_key_runs`` gives
the PCG64 seed words of a run of them, ``spawn_rng(s, i)`` for consecutive
i, at a fraction of the cost: it ports SeedSequence's hash (O'Neill's
``seed_seq_fe``, numpy's seeding policy since NEP 19) to uint32 words and
runs it on a whole block of spawn keys at once.  The hash is exact 32-bit
arithmetic, so the port gives numpy's words bit for bit: the master seed
fills a 4-word pool (zero-padded to the pool size, as numpy pads when a
spawn key follows), the pool is mixed, each key word is mixed into its own
copy of the pool, and the pool is stretched into the 4 uint64 words that
seed PCG64.  The words reach PCG64 through a minimal ``ISeedSequence``, so
the generators' states and draws are numpy's.  Seeds and keys outside the
port (not a non-negative integer, or a key of 2**32 or more) take numpy's
own path, and so get numpy's values or numpy's error.

``trial_draws`` is the second port: the draws of a run of seeded trials,
each on its own ``spawn_rng(s, i)``, that take normals and then bounded
integers or one uniform.  It builds each trial's PCG64 straight from the
seed words of ``_key_runs``, the one place where the port and numpy's own
path part, in one loop over the block.  The normals are still numpy's: its
ziggurat tables ship only inside the compiled library, so each trial fills
its row with one ``standard_normal`` call, and the block is scaled once
(``normal(0.0, s)`` is ``0.0 + s * z`` in numpy, which turns -0.0 into
+0.0).  The rest is replayed from one ``random_raw`` call per trial, a
fraction of the cost of an ``integers`` call on the trial's bounds.  A fresh
generator holds no 32-bit half, and the normals take whole words, so the
integer draws read the next words' halves, low half first, with numpy's
Lemire rule for ``integers(n)``, n < 2**32, on PCG64's 32-bit stream: a
bound of 1 takes no half, the draw is the high 32 bits of ``half * n``, and
a rejected half (``(half * n) mod 2**32 < (2**32 - n) mod n``) passes the
draw on to the next one.  This runs for the whole block at once;
``random()`` is the next word's top 53 bits times 2**-53.  Each trial
fetches a spare half at least, so only a trial with two rejections (under
1e-14 per trial for bounds up to 200) can run out; it makes numpy's own
calls instead.

The coverage instances and the private greedy draw through numpy itself.
``sorted_choices`` gives the sets of a loop of numpy's
``Generator.choice(P, s, replace=False)`` calls, many sets at a time.  For P
<= 10**4 numpy draws each set with Floyd's algorithm, one ``integers(j +
1)`` draw for j = P - s, ..., P - 1 (a step whose draw is already taken
takes j instead), then shuffles it with s - 1 more draws of bounds s, s - 1,
..., 2.  ``integers`` on an array of bounds makes one such draw per entry,
in order, as a run of scalar calls does (a bound of 1 takes no draw, and a
spare 32-bit half stays in the generator), so one call gives a block of
sets their draws, and one sort resolves their Floyd steps.
``weighted_choices`` is ``Generator.choice(n, p=dist)`` for many rows at
once, given each row's uniform: numpy takes ``cdf = dist.cumsum(); cdf /=
cdf[-1]`` and returns ``cdf.searchsorted(random(), side="right")``, the
count of cdf entries at or below the uniform.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # numpy's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash constants
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_KEY_BLOCK = 1024  # spawn keys hashed together: vector speed, bounded memory at any n
_FLOYD_POPULATION = 10**4  # numpy's choice without replacement runs Floyd's algorithm for any size up to here
_DRAW_BLOCK = 2**13  # bounded draws taken together (plus one set's): vector speed, bounded memory
_DOUBLE_UNIT = 2.0**-53  # random() is the top 53 bits of a raw word times this


def spawn_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Generator for sub-task ``counters`` of ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(counters)))


def _key_runs(master_seed: int, start: int, n: int):
    """The keys [start, start + n) as runs (lo, hi, seeds), in order.

    ``seeds`` holds the PCG64 seed words of keys lo .. hi - 1, one row of 4
    uint64 words per key, hashed _KEY_BLOCK keys at a time; it is None for a
    run that takes numpy's own path (``spawn_rng``), and so gets numpy's
    values or numpy's error: every key of a seed that is not a non-negative
    integer, and keys of 2**32 or more.
    """
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (master_seed, start)):
        yield start, start + n, None
        return
    run = _int_words(int(master_seed))
    run += [0] * (_POOL_SIZE - len(run))  # numpy pads the run entropy when a spawn key follows
    for lo in range(start, start + n, _KEY_BLOCK):
        hi = min(lo + _KEY_BLOCK, start + n)
        ported = min(hi, 2**32)  # a key of 2**32 or more is two words: numpy's path
        if lo < ported:
            keys = np.arange(lo, ported, dtype=np.uint64).astype(np.uint32)
            yield lo, ported, _pcg64_seed_words(_mix_entropy(run + [keys]))
        if ported < hi:
            yield max(lo, ported), hi, None


class _Words(ISeedSequence):
    """A seed sequence whose state is given: the 4 uint64 words PCG64 asks for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype != np.uint64:
            raise ValueError("holds 4 uint64 words only")
        return self.words


def _int_words(value: int) -> list[int]:
    """A non-negative integer as little-endian uint32 words; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value, h: int):
    """SeedSequence's hashmix; returns the hashed value and the next hash constant.

    ``value`` is a word, as an int or a uint32 array, and the result is of the
    same kind.  Every product is reduced to 32 bits, as numpy's uint32
    arithmetic does.
    """
    value = value ^ h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x, y):
    """SeedSequence's mix of two words (ints or uint32 arrays)."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _mix_entropy(entropy: list) -> list:
    """SeedSequence.mix_entropy of an entropy word list into a fresh pool.

    A word that is a uint32 array stands for one entropy list per element, so
    the pool words after it are arrays as well: one hash over many keys.
    """
    h = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, h = _hashmix(entropy[i] if i < len(entropy) else 0, h)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, h = _hashmix(extra, h)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _pcg64_seed_words(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of array pools: one row per key."""
    h = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        word = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        word = word * h & _MASK32
        state.append(word ^ word >> 16)
    # numpy reads the uint32 words in little-endian pairs
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def sorted_choices(rng: np.random.Generator, population: int, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Flat ids and lengths of ``sorted(rng.choice(population, s, replace=False))`` for s in ``sizes``.

    The sets are drawn in turn from one PCG64 generator, as that loop draws
    them, and the generator is left where the loop leaves it.  Up to
    _FLOYD_POPULATION the Floyd and shuffle draws come from one
    ``rng.integers`` call on an array of about _DRAW_BLOCK bounds at a time;
    above it the loop itself runs.
    """
    sizes = np.array(sizes, dtype=np.intp)
    if sizes.size and not (1 <= sizes.min() and sizes.max() <= population):
        raise ValueError(f"set sizes must lie in [1, {population}]")
    if population > _FLOYD_POPULATION:
        sets = [np.sort(rng.choice(population, size=s, replace=False)) for s in sizes.tolist()]
        return np.concatenate(sets or [np.empty(0, np.intp)]).astype(np.intp, copy=False), sizes
    draws = 2 * sizes - 1  # s Floyd steps, s - 1 shuffle swaps
    block = (np.cumsum(draws) - draws) // _DRAW_BLOCK  # the block a set starts in
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), sizes.size]
    ids = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        group, count = sizes[lo:hi], draws[lo:hi]
        s = np.repeat(group, count)
        k = np.arange(s.size) - np.repeat(np.cumsum(count) - count, count)  # draw k of its set
        floyd = k < s  # bounds P - s + 1, ..., P, then the shuffle's s, s - 1, ..., 2
        values = rng.integers(np.where(floyd, population - s + 1 + k, 2 * s - k))
        ids.append(_floyd_sets(population, group, values[floyd]))
    return np.concatenate(ids or [np.empty(0, np.intp)]), sizes


def _floyd_sets(population: int, sizes: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The sorted sets Floyd's algorithm makes from each set's step draws, flat.

    Step t of a set of size s has j = population - s + t and draw v in
    [0, j].  It collides when v equals an earlier draw of its set (found by
    one sort of (set, v, step) keys) or the j of an earlier colliding step,
    and then takes j instead of v; the second rule is applied until no
    collision changes.
    """
    owner = np.repeat(np.arange(sizes.size), sizes)
    t = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    low = population - sizes[owner]  # j - t
    shift = owner.size.bit_length()
    ranked = np.sort((owner * population + draws) << shift | np.arange(owner.size))  # stable: ties by step
    collided = np.empty(owner.size, dtype=bool)
    collided[ranked & ((1 << shift) - 1)] = np.concatenate(([False], ranked[1:] >> shift == ranked[:-1] >> shift))
    earlier = draws - low  # the step whose j equals the draw
    steps = np.flatnonzero((earlier >= 0) & (earlier < t))
    targets = steps - t[steps] + earlier[steps]
    repeated = collided[steps]
    while True:
        now = repeated | collided[targets]
        if np.array_equal(now, collided[steps]):
            break
        collided[steps] = now
    key = owner * population + np.where(collided, low + t, draws)
    key.sort()
    return key - owner * population


def trial_draws(master_seed: int, start: int, scales, widths, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of trials start .. start + n - 1, trial i on ``spawn_rng(master_seed, i)``.

    Trial j draws ``normal(0.0, scales[j], size=widths[j])``, then
    ``integers(b)`` for each b in row j of the (n, m) ``bounds``, in turn (a
    bound of 1 gives 0 and draws nothing).  Returns the normals as
    (n, max width) rows, zero past each trial's width; the integers as
    (n, m); and the ``random()`` each trial would draw after its normals in
    place of the integers.
    """
    scales, widths = np.asarray(scales, dtype=float), np.asarray(widths, dtype=np.intp)
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.size and not (1 <= bounds.min() and bounds.max() <= 2**32):
        raise ValueError(f"integer bounds must lie in [1, 2**32], got {bounds.min()} to {bounds.max()}")
    n = widths.size
    z = np.zeros((n, int(widths.max(initial=0))))
    rows = [z[j, :width] for j, width in enumerate(widths.tolist())]
    k = bounds.shape[1] // 2 + 1  # halves for every draw plus one rejection
    raw = []
    for lo, hi, seeds in _key_runs(master_seed, start, n):
        if seeds is None:
            bits = (spawn_rng(master_seed, i).bit_generator for i in range(lo, hi))
        else:
            bits = map(np.random.PCG64, map(_Words, seeds))
        for row, bit in zip(rows[lo - start:hi - start], bits):
            np.random.Generator(bit).standard_normal(out=row)
            raw.append(bit.random_raw(k))
    words = np.array(raw, dtype=np.uint64).reshape(n, k)
    # the padding is left alone: 0 * inf would warn
    np.multiply(z, scales[:, None], out=z, where=np.arange(z.shape[1]) < widths[:, None])
    z += 0.0
    picks, short = _row_draws(words, bounds)
    for j in np.flatnonzero(short).tolist():
        rng = spawn_rng(master_seed, start + j)
        rng.standard_normal(widths[j])
        picks[j] = [rng.integers(b) for b in bounds[j].tolist()]
    return z, picks, (words[:, 0] >> np.uint64(11)) * _DOUBLE_UNIT


def _row_draws(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire-bounded draws in [0, b) for each b in a row of ``bounds``, from that row's raw words.

    Row j's 32-bit stream is the halves of ``words[j]``, low half first; a
    bound of 1 gives 0 and takes no half, and a rejected half passes the
    draw on to the next one, as numpy's ``integers(b)`` does.  Returns the
    draws and the rows that ran out of halves, whose draws are not set.
    """
    halves = words.astype("<u8").view("<u4").astype(np.uint64)
    values = np.zeros(bounds.shape, dtype=np.intp)
    at = np.zeros(len(bounds), dtype=np.intp)  # each row's next unused half
    short = np.zeros(len(bounds), dtype=bool)
    for c in range(bounds.shape[1]):
        rows = np.flatnonzero(bounds[:, c] > 1)
        while rows.size:
            out = at[rows] == halves.shape[1]
            short[rows[out]] = True
            rows = rows[~out]
            n = bounds[rows, c].astype(np.uint64)
            m = halves[rows, at[rows]] * n
            at[rows] += 1
            values[rows, c] = m >> np.uint64(32)
            rows = rows[m & np.uint64(_MASK32) < (np.uint64(2**32) - n) % n]
    return values, short


def weighted_choices(dists: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of the (n, d) ``dists``, ``Generator.choice(d, p=row)`` on a
    generator whose next ``random()`` is ``u[row]``."""
    cdf = np.add.accumulate(dists, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)
