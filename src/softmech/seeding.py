"""Deterministic fan-out from a master seed to per-task generators.

Sub-task ``counters`` of master seed s uses SeedSequence(s, spawn_key=counters);
the derivation is a pure function of (s, counters), so sub-tasks can run in any
order or in parallel and reductions by max/mean stay reproducible.  A seed
numpy refuses raises numpy's error (ValueError for a negative one) when the
first generator is built, before anything is drawn.

The two seeded probes, the smoothness lab and the loss's convexity probe, seed
by draw block, not by trial.  Trial i of a probe whose block is B trials
belongs to block b = i // B; its normals are row i - bB of one
``standard_normal((n, w))`` call on ``spawn_rng(s, b, 0)``, n being the trials
of the block, and its other draws come from one call for the whole block on
``spawn_rng(s, b, 1)``.  numpy fills each stream in order, so a run of n trials
is a prefix of any longer run; but the block size is part of the rule, so
retuning a probe's block changes its seeded outputs.

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

_FLOYD_POPULATION = 10**4  # numpy's choice without replacement runs Floyd's algorithm for any size up to here
_DRAW_BLOCK = 2**13  # bounded draws taken together (plus one set's): vector speed, bounded memory


def spawn_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Generator for sub-task ``counters`` of ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(counters)))


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


def weighted_choices(dists: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of the (n, d) ``dists``, ``Generator.choice(d, p=row)`` on a
    generator whose next ``random()`` is ``u[row]``."""
    cdf = np.add.accumulate(dists, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)
