"""Deterministic fan-out from a master seed to per-task generators.

Sub-task number i of master seed s uses SeedSequence(s, spawn_key=(i,)); the
derivation is a pure function of (s, i), so trials can run in any order or in
parallel and reductions by max/mean stay reproducible.

``spawn_rng`` builds one such generator through numpy.  ``spawn_rngs`` builds
a run of them, ``spawn_rng(s, i)`` for consecutive i, at a fraction of the
cost: it ports SeedSequence's hash (O'Neill's ``seed_seq_fe``, numpy's
seeding policy since NEP 19) to uint32 words and runs it on a whole block of
spawn keys at once.  The hash is exact 32-bit arithmetic, so the port gives
numpy's words bit for bit: the master seed fills a 4-word pool (zero-padded
to the pool size, as numpy pads when a spawn key follows), the pool is mixed,
each key word is mixed into its own copy of the pool, and the pool is
stretched into the 4 uint64 words that seed PCG64.  The words reach PCG64
through a minimal ``ISeedSequence``, so the generators' states and draws are
numpy's.  Seeds and keys outside the port (not a non-negative integer, or a
key of 2**32 or more) take numpy's own path, and so get numpy's values or
numpy's error.
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


def spawn_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Generator for sub-task ``counters`` of ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(counters)))


def spawn_rngs(master_seed: int, start: int, n: int):
    """Generators of ``spawn_rng(master_seed, i)`` for i in [start, start + n), in order.

    Each has the state, and so the draws, of its ``spawn_rng`` counterpart.
    The keys are hashed _KEY_BLOCK at a time; the generators are built as
    they are consumed.
    """
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (master_seed, start)):
        for i in range(start, start + n):  # numpy's values, or numpy's error
            yield spawn_rng(master_seed, i)
        return
    run = _int_words(int(master_seed))
    run += [0] * (_POOL_SIZE - len(run))  # numpy pads the run entropy when a spawn key follows
    for lo in range(start, start + n, _KEY_BLOCK):
        hi = min(lo + _KEY_BLOCK, start + n)
        ported = min(hi, 2**32)  # a key of 2**32 or more is two words: numpy's path
        if lo < ported:
            keys = np.arange(lo, ported, dtype=np.uint64).astype(np.uint32)
            for words in _pcg64_seed_words(_mix_entropy(run + [keys])):
                yield np.random.Generator(np.random.PCG64(_Words(words)))
        for i in range(max(lo, ported), hi):
            yield spawn_rng(master_seed, i)


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
