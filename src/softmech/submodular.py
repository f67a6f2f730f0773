"""Private greedy maximization of coverage under a cardinality constraint.

A coverage instance is a family of element sets over a finite universe; the
objective of a selection is the size of its union (monotone submodular).  The
private greedy loop replaces the argmax step with a soft-max draw over the
marginal gains, recording the exact per-step selection distributions, and the
manipulation test measures how much those distributions move when the ground
set is randomly thinned.

An instance is its arrays: every set's ids back to back, the set lengths,
the distinct ids and the coverage matrix.  ``make_instance`` is the checked
builder; the synthetic and thinned instances pass their trusted ids through
the same ``_from_ids``, and ``sets`` is built from the arrays only when read.
The neighbour checks (sensitivity, privacy link, insensitivity) share
``_neighbor_gains``, which checks the pair and yields each context's gains.
Every greedy run of a manipulation sweep, the argmax baseline included, is
a row of one k-step loop, ``_greedy_rows``; ``greedy`` and
``private_greedy`` are its one-row views.  Thinning keeps each universe
element by one rule, ``_kept``: ``drop_elements`` applies it to the ids,
and the sweep reads each seed's thinned first-step gains off the coverage
matrix with the dropped columns masked out, building no instance.

Set-family file format: one line per set, whitespace-separated nonnegative
integer element ids, blank lines ignored, UTF-8.  The universe is capped at
``UNIVERSE_CAP`` = 2**24 elements, so ids run below 2**24.  The coverage
matrix has one column per distinct id, so it takes num_sets * ceil(distinct
ids / 64) * 8 bytes whatever the largest id; ``_kept`` draws one float per
universe element, 128 MB at the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .distances import renyi_divergence
from .mechanisms import MechanismSpec, selection_distribution
from .seeding import sorted_choices, spawn_rng, weighted_choices

_NODE_CAP = 10**5
_SIZE_EXPONENT = 0.8
UNIVERSE_CAP = 2**24
SET_CAP = 10**5  # sets in a synthetic instance
ID_CAP = 10**7  # ids in a synthetic instance, summed over its sets
_SWEEP_BYTES = 2**23  # a greedy sweep's row blocks keep their temporaries under this


def _check_universe(universe_size: int) -> None:
    if not 1 <= universe_size <= UNIVERSE_CAP:
        raise ValueError(f"universe_size {universe_size} outside [1, {UNIVERSE_CAP}]")


@dataclass(frozen=True, eq=False)
class CoverageInstance:
    """Family of element-id sets over the universe [0, universe_size).

    ``ids`` holds every set's ids back to back, ``lengths`` the number of
    ids in each set.  ``words`` is the coverage matrix: row r holds set r as
    bits, one column per id in ``elements``, column j in bit j % 64 of word
    j // 64.  ``elements`` holds the sorted distinct ids of the family.  The
    arrays are trusted as given and made read-only; ``make_instance`` is the
    checked builder.
    """

    universe_size: int
    ids: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)
    words: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.ids, self.lengths, self.elements, self.words):
            a.flags.writeable = False

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """The family as tuples of ids, built from ``ids`` when read."""
        flat = self.ids.tolist()
        ends = np.cumsum(self.lengths).tolist()
        return tuple([tuple(flat[a:b]) for a, b in zip([0, *ends], ends)])

    @property
    def num_sets(self) -> int:
        return self.lengths.size


def _from_ids(universe_size: int, ids: np.ndarray, lengths: np.ndarray) -> CoverageInstance:
    """The instance of the sets ``ids`` holds back to back, for ids known to be valid."""
    elements, cols = np.unique(ids, return_inverse=True)
    words = np.zeros((lengths.size, -(-elements.size // 64)), dtype=np.uint64)
    rows = np.repeat(np.arange(lengths.size), lengths)
    np.bitwise_or.at(words, (rows, cols >> 6), np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64)))
    return CoverageInstance(universe_size, ids, lengths, elements, words)


def make_instance(universe_size: int, sets) -> CoverageInstance:
    """The instance of ``sets``, iterables of integer ids, checked: at least
    2 sets, every id in [0, universe_size), universe_size in [1, UNIVERSE_CAP]."""
    sets = [list(map(int, s)) for s in sets]
    _check_universe(universe_size)
    if len(sets) < 2:
        raise ValueError("need at least 2 sets")
    flat = list(chain.from_iterable(sets))
    if flat and not (0 <= min(flat) and max(flat) < universe_size):
        e = next(e for e in flat if not 0 <= e < universe_size)
        raise ValueError(f"element id {e} outside universe [0, {universe_size})")
    ids = np.fromiter(flat, dtype=np.intp, count=len(flat))
    return _from_ids(universe_size, ids, np.fromiter(map(len, sets), dtype=np.intp, count=len(sets)))


def synthetic_coverage_instance(num_sets: int, universe_size: int, rng_seed: int) -> CoverageInstance:
    """Random instance with power-law set sizes: the rank-i set has about
    (universe/3) * (i+1)**-_SIZE_EXPONENT elements drawn without replacement.

    Set i is ``sorted(rng.choice(universe_size, size_i, replace=False))``,
    the sets drawn in turn from ``spawn_rng(rng_seed, 0)``; ``sorted_choices``
    takes those draws from numpy, many sets per call.  Needs 2 <= num_sets
    <= SET_CAP, 2 <= universe_size <= UNIVERSE_CAP and at most ID_CAP ids in
    all, checked before any draw.
    """
    if not 2 <= num_sets <= SET_CAP:
        raise ValueError(f"num_sets {num_sets} outside [2, {SET_CAP}]")
    if not 2 <= universe_size <= UNIVERSE_CAP:
        raise ValueError(f"universe_size {universe_size} outside [2, {UNIVERSE_CAP}]")
    top = max(2, universe_size // 3)
    sizes = [max(1, int(round(top * (i + 1) ** (-_SIZE_EXPONENT)))) for i in range(num_sets)]
    if sum(sizes) > ID_CAP:
        raise ValueError(f"num_sets {num_sets} and universe_size {universe_size} give {sum(sizes)} ids, "
                         f"above {ID_CAP}")
    ids, lengths = sorted_choices(spawn_rng(rng_seed, 0), universe_size, sizes)
    return _from_ids(universe_size, ids, lengths)


def load_set_family(path) -> CoverageInstance:
    """Read the one-line-per-set text format; the universe is max id + 1."""
    sets = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                ids = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise ValueError(f"{path}: line {ln}: {exc}") from None
            if any(e < 0 for e in ids):
                raise ValueError(f"{path}: line {ln}: negative element id")
            sets.append(ids)
    if not sets:
        raise ValueError(f"{path}: no sets found")
    return make_instance(1 + max((max(s) for s in sets if s), default=0), sets)


def save_set_family(inst: CoverageInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in inst.sets:
            fh.write(" ".join(str(e) for e in s) + "\n")


def _union_words(inst: CoverageInstance, items) -> np.ndarray:
    items = list(items)
    for v in items:
        if not 0 <= v < inst.num_sets:
            raise ValueError(f"item index {v} out of range")
    return np.bitwise_or.reduce(inst.words[items], axis=0)


def _uncovered_counts(words: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Per row of ``words``, the number of its bits outside ``covered``."""
    return np.bitwise_count(words & ~covered).sum(axis=1)


def marginal_gains(inst: CoverageInstance, selected) -> tuple[list[int], np.ndarray]:
    """Remaining item indices and their marginal coverage gains at ``selected``."""
    covered = _union_words(inst, selected)
    remaining = np.ones(inst.num_sets, dtype=bool)
    remaining[list(selected)] = False
    gains = _uncovered_counts(inst.words[remaining], covered).astype(float)
    return np.flatnonzero(remaining).tolist(), gains


@dataclass
class SelectionTrace:
    """Chosen items with the per-step selection distributions that produced them."""

    chosen: list[int]
    step_items: list[list[int]]
    step_distributions: list[np.ndarray]
    objective_values: list[int]


# the greedy step's distributions, under the name its callers and tests read
_mechanism_distribution = selection_distribution


def _check_k(inst: CoverageInstance, k: int) -> None:
    if not 1 <= k <= inst.num_sets:
        raise ValueError("need 1 <= k <= number of sets")


def _check_private(mech: MechanismSpec) -> None:
    if np.isinf(_divergence_constant(mech)):
        raise ValueError("private greedy expects a mechanism with a proven max-divergence constant (exp or pow)")


def _greedy_rows(inst: CoverageInstance, k: int, mechs=(), seeds=(), baseline=True, record=False):
    """The argmax greedy and each mechanism's private greedy from each seed,
    stepped together as the rows of one k-step loop.

    With ``baseline`` row 0 is the argmax greedy, ties to the lowest item
    index; row b + m * len(seeds) + j, b = 1 with the baseline and 0
    without, is mechanism m's private greedy from seeds[j].  At each step a
    row's gains are the uncovered bit counts of all sets, one broadcast over
    the (rows, words, sets) block, compacted to its remaining items; at step
    0 every row is at the empty selection, so one row is counted for all.
    Each mechanism's rows in a block get their distributions from
    one ``_mechanism_distribution`` call, and a private row draws with
    ``weighted_choices`` from its next ``random()`` of ``spawn_rng(seed, 1)``:
    the pick ``Generator.choice`` makes there.

    Rows run in blocks, and a block's counts in spans of sets, so that the
    (rows, words, sets) temporaries and the rows' per-set state stay under
    _SWEEP_BYTES (for a family of at most _SWEEP_BYTES // 64 sets).  The
    word-major copy of the coverage matrix is made only when it fits in
    _SWEEP_BYTES too; a larger matrix is read in place.

    Returns the chosen items and the gains of the picks as (rows, k)
    arrays, and with ``record`` set each step's remaining items and
    distributions as (rows, n - t) arrays.
    """
    n, words = inst.num_sets, inst.words
    # word-major: the counts sum over whole rows of sets
    columns = np.ascontiguousarray(words.T) if words.nbytes <= _SWEEP_BYTES else words.T
    base, runs = int(baseline), max(1, len(seeds))
    total = base + len(mechs) * len(seeds)
    uniforms = np.array([spawn_rng(seed, 1).random(k) for seed in seeds]).reshape(len(seeds), k)
    chosen = np.empty((total, k), dtype=np.intp)
    picked = np.empty((total, k), dtype=np.int64)
    steps = [(np.empty((total, n - t), dtype=np.intp), np.empty((total, n - t))) for t in range(k)] if record else []
    # bytes per (row, set): 8 per word for the masked words and 1 for their
    # bit counts, 64 for the counts, gains, items, mask, distribution and cdf;
    # a family of empty sets has no words, and is counted as one
    cell, state = 9 * max(1, words.shape[1]), 64
    per_block = max(1, _SWEEP_BYTES // (n * (cell + state)))
    for lo in range(0, total, per_block):
        rows = np.arange(lo, min(total, lo + per_block))
        at = np.arange(rows.size)
        mech_of, seed_of = np.divmod(rows - base, runs)  # mech_of is -1 on the baseline row
        cuts = [0, *(np.flatnonzero(np.diff(mech_of)) + 1).tolist(), rows.size]
        span = max(1, (_SWEEP_BYTES - rows.size * n * state) // (rows.size * cell))
        covered = np.zeros((rows.size, words.shape[1]), dtype=np.uint64)
        remaining = np.ones((rows.size, n), dtype=bool)
        for t in range(k):
            live = covered if t else covered[:1]  # every row starts from the empty selection
            counts = np.empty((live.shape[0], n), dtype=np.uint64)
            free = ~live[:, :, None]
            for a in range(0, n, span):
                np.bitwise_count(columns[:, a:a + span] & free).sum(axis=1, out=counts[:, a:a + span])
            gains = np.broadcast_to(counts, remaining.shape)[remaining].reshape(rows.size, n - t).astype(float)
            items = np.nonzero(remaining)[1].reshape(rows.size, n - t)
            dists = np.zeros(gains.shape)
            picks = np.empty(rows.size, dtype=np.intp)
            for a, b in zip(cuts, cuts[1:]):
                if mech_of[a] < 0:
                    picks[a] = np.argmax(gains[a])  # first occurrence wins ties
                    dists[a, picks[a]] = 1.0
                else:
                    dists[a:b] = _mechanism_distribution(mechs[mech_of[a]], gains[a:b])
                    picks[a:b] = weighted_choices(dists[a:b], uniforms[seed_of[a:b], t])
            item = items[at, picks]
            chosen[rows, t] = item
            picked[rows, t] = gains[at, picks]
            covered |= words[item]
            remaining[at, item] = False
            if record:
                steps[t][0][rows], steps[t][1][rows] = items, dists
    return chosen, picked, steps


def _trace(run, row: int) -> SelectionTrace:
    """Row ``row`` of a recorded ``_greedy_rows`` run as a trace."""
    chosen, picked, steps = run
    return SelectionTrace(chosen[row].tolist(), [items[row].tolist() for items, _ in steps],
                          [dists[row] for _, dists in steps], np.cumsum(picked[row]).tolist())


def greedy(inst: CoverageInstance, k: int) -> SelectionTrace:
    """Deterministic argmax greedy, ties to the lowest item index."""
    _check_k(inst, k)
    return _trace(_greedy_rows(inst, k, record=True), 0)


def private_greedy(inst: CoverageInstance, k: int, mech: MechanismSpec, rng_seed: int) -> SelectionTrace:
    """Greedy loop with the argmax replaced by a soft-max draw over gains.

    Accepts the mechanisms with a proven max-divergence constant (exp, and
    pow on log gains).  Each step applies the mechanism to the gain vector
    restricted to the remaining items, records the exact distribution, and
    samples one item as ``spawn_rng(rng_seed, 1).choice`` would; one row of
    ``_greedy_rows``, deterministic per seed.
    """
    _check_private(mech)
    _check_k(inst, k)
    return _trace(_greedy_rows(inst, k, [mech], [rng_seed], baseline=False, record=True), 0)


def _top_sum(values: np.ndarray, r: int) -> int:
    """Sum of the r largest entries (all of them when there are at most r)."""
    if r < values.size:
        values = np.partition(values, values.size - r)[values.size - r:]
    return int(values.sum())


def brute_force_opt(inst: CoverageInstance, k: int) -> tuple[int, tuple[int, ...]]:
    """Exact optimum: the lexicographically first k-subset of largest coverage.

    Branch and bound over the k-subsets in lexicographic order, depth first.
    A node is a prefix of chosen items; with r items still to pick, its
    subtree covers at most the prefix's coverage plus the sum of the r
    largest marginal gains of the items after its last one, and it is pruned
    when that bound is at most the best value so far.  Only a strictly
    larger value replaces the best, so the first optimum in lexicographic
    order is kept.  Refuses to visit more than 10^5 nodes.
    """
    _check_k(inst, k)
    n, words = inst.num_sets, inst.words
    best_val, best_set = -1, ()
    nodes = 0
    # Each entry is a child still to visit: (parent prefix, its covered
    # words, the child's item, the child's coverage).  Siblings are pushed
    # last-first, so the stack pops them in lexicographic order.
    stack = [((), np.zeros(words.shape[1], dtype=np.uint64), None, 0)]
    while stack:
        prefix, covered, item, value = stack.pop()
        if item is not None:
            prefix, covered = prefix + (item,), covered | words[item]
        nodes += 1
        if nodes > _NODE_CAP:
            raise ValueError(f"branch and bound for k={k} over {n} sets exceeds the node cap {_NODE_CAP}")
        start = prefix[-1] + 1 if prefix else 0
        r = k - len(prefix)
        gains = _uncovered_counts(words[start:], covered)
        if value + _top_sum(gains, r) <= best_val:
            continue
        if r == 1:
            j = int(np.argmax(gains))  # first occurrence: lexicographically first leaf
            best_val, best_set = value + int(gains[j]), prefix + (start + j,)
            continue
        for v in range(n - r, start - 1, -1):
            stack.append((prefix, covered, v, value + int(gains[v - start])))
    return best_val, best_set


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-step and composed privacy parameters for a k-step loop.

    ``eps_total_advanced`` follows the stated composition expression
    (1/2) k^2 eps'^2 + sqrt(2 log(1/eta)) eps' verbatim.
    """

    eps_step: float
    delta_step: float
    steps: int
    eta: float
    eps_total_basic: float
    delta_total_basic: float
    eps_total_advanced: float
    delta_total: float


def compose_privacy(eps_step: float, delta_step: float, steps: int, eta: float) -> PrivacyBudget:
    """Basic and advanced composition over ``steps`` rounds."""
    if eps_step <= 0 or delta_step < 0 or steps < 1 or not 0 < eta < 1:
        raise ValueError("need eps_step > 0, delta_step >= 0, steps >= 1, eta in (0,1)")
    adv = 0.5 * (steps * eps_step) ** 2 + math.sqrt(2.0 * math.log(1.0 / eta)) * eps_step
    return PrivacyBudget(
        eps_step=eps_step,
        delta_step=delta_step,
        steps=steps,
        eta=eta,
        eps_total_basic=steps * eps_step,
        delta_total_basic=steps * delta_step,
        eps_total_advanced=adv,
        delta_total=eta + steps * delta_step,
    )


def _set_keys(inst: CoverageInstance) -> np.ndarray:
    """Sorted distinct keys set * universe_size + id, one per id of each set."""
    keys = np.sort(np.repeat(np.arange(inst.num_sets), inst.lengths) * inst.universe_size + inst.ids)
    return keys[np.diff(keys, prepend=-1) != 0]  # keys are nonnegative


def _differing_sets(inst_a: CoverageInstance, inst_b: CoverageInstance) -> int:
    """How many sets of two instances over one universe differ as sets of ids
    (order and repeats within a set aside)."""
    odd = np.setxor1d(_set_keys(inst_a), _set_keys(inst_b), assume_unique=True)  # sorted
    return np.count_nonzero(np.diff(odd // inst_a.universe_size, prepend=-1))


def _neighbor_gains(inst_a: CoverageInstance, inst_b: CoverageInstance, contexts):
    """The pair of marginal-gain vectors of two one-record neighbors at each
    context (None stands for the empty selection alone).  The neighbors are
    checked at once; the gains are computed as the pairs are read."""
    if inst_a.universe_size != inst_b.universe_size or inst_a.num_sets != inst_b.num_sets:
        raise ValueError("neighboring instances must share universe and set count")
    differing = _differing_sets(inst_a, inst_b)
    if differing > 1:
        raise ValueError(f"instances differ in {differing} sets; neighbors differ in at most one")
    contexts = [[]] if contexts is None else contexts
    return ((marginal_gains(inst_a, s)[1], marginal_gains(inst_b, s)[1]) for s in contexts)


def sensitivity_linf(inst_a: CoverageInstance, inst_b: CoverageInstance, contexts) -> float:
    """Max absolute marginal-gain change between one-record neighbors.

    ``contexts`` is an iterable of partial selections; the max runs over all
    of them and all remaining items.  For coverage the change is bounded by
    the size of the symmetric difference of the edited set.
    """
    worst = 0.0
    for ga, gb in _neighbor_gains(inst_a, inst_b, contexts):
        if ga.size:
            worst = max(worst, float(np.abs(ga - gb).max()))
    return worst


def _log_linf_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance between log-gains; one-sided zeros give +inf and
    matching zeros are skipped."""
    gap = 0.0
    for x, y in zip(a, b):
        if x == 0.0 and y == 0.0:
            continue
        if x <= 0.0 or y <= 0.0:
            return float("inf")
        gap = max(gap, abs(math.log(x) - math.log(y)))
    return gap


def _divergence_constant(mech: MechanismSpec) -> float:
    """The kind's proven Lipschitz constant from the sup distance on its own
    domain (log values for the positive kinds) to the max-divergence; +inf
    where none is proven."""
    return mech.lipschitz_bound("log-linf" if mech.positive_domain else "linf", "dinf")


def privacy_link_margin(inst_a: CoverageInstance, inst_b: CoverageInstance, mech: MechanismSpec, contexts=None) -> float:
    """Max over contexts of (selection-distribution max-divergence minus bound).

    The bound links smoothness to privacy: the divergence between neighbor
    selection distributions is at most the kind's max-divergence constant
    (2 lambda for the exponential mechanism) times the sup distance of the
    gain vectors.  The power mechanism is the exponential one on log values,
    so its constant is the same on log gains.  Nonpositive margins mean the
    link holds.
    """
    lipschitz = _divergence_constant(mech)
    if np.isinf(lipschitz):
        raise ValueError("privacy link needs a mechanism with a proven max-divergence constant (exp or pow)")
    worst = float("-inf")
    for ga, gb in _neighbor_gains(inst_a, inst_b, contexts):
        if ga.size == 0:
            continue
        pa = _mechanism_distribution(mech, ga)
        pb = _mechanism_distribution(mech, gb)
        div = max(renyi_divergence(pa, pb, float("inf")), renyi_divergence(pb, pa, float("inf")))
        gap = _log_linf_gap(ga, gb) if mech.positive_domain else float(np.abs(ga - gb).max())
        bound = lipschitz * gap
        margin = float("-inf") if np.isinf(bound) else div - bound
        worst = max(worst, margin)
    return worst


def insensitivity_t(inst_a: CoverageInstance, inst_b: CoverageInstance, s_inf: float, opt: float, contexts=None) -> float:
    """Largest t for which the one-record change keeps every shrinking gain
    above the (1 - (1/t) s_inf/opt) multiplicative floor.

    Larger t is a stronger property; +inf means no gain shrinks at all.
    """
    gain_pairs = _neighbor_gains(inst_a, inst_b, contexts)
    if s_inf <= 0 or opt <= 0:
        raise ValueError("s_inf and opt must be positive")
    t_max = float("inf")
    for ga, gb in gain_pairs:
        for hi, lo in ((ga, gb), (gb, ga)):
            drop = hi > lo
            for h, l in zip(hi[drop], lo[drop]):
                if h <= 0:
                    continue
                t_max = min(t_max, (s_inf / opt) / (1.0 - l / h))
    return t_max


def pow_error_bound(k: int, d: int, eps: float, s_inf: float, opt: float, t: float = 1.0) -> float:
    """Closed-form approximation-loss fraction of the power-mechanism loop on
    t-multiplicatively-insensitive data: min(1/e + 2 sqrt(k) log(d) s_inf /
    (t eps opt), 1)."""
    if min(k, d) < 1 or eps <= 0 or s_inf < 0 or opt <= 0 or t <= 0:
        raise ValueError("bad bound arguments")
    return min(1.0 / math.e + 2.0 * math.sqrt(k) * math.log(d) * s_inf / (t * eps * opt), 1.0)


def exp_error_bound(k: int, d: int, eps: float, s_inf: float, opt: float) -> float:
    """Matching closed form for the exponential-mechanism loop: its loss term
    carries a factor k where the power mechanism carries 2 sqrt(k)."""
    if min(k, d) < 1 or eps <= 0 or s_inf < 0 or opt <= 0:
        raise ValueError("bad bound arguments")
    return min(1.0 / math.e + k * math.log(d) * s_inf / (eps * opt), 1.0)


def _kept(universe_size: int, drop_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Which universe elements survive thinning, each dropped independently
    with probability drop_prob: one draw per element, ``rng.random(universe_size)``."""
    if not 0 <= drop_prob < 1:
        raise ValueError("drop_prob must be in [0, 1)")
    return rng.random(universe_size) >= drop_prob


def drop_elements(inst: CoverageInstance, drop_prob: float, rng: np.random.Generator) -> CoverageInstance:
    """Remove each universe element independently with probability
    drop_prob (``_kept``).  Each thinned set keeps its surviving ids in
    order, and the result equals ``make_instance`` of the thinned sets."""
    kept = _kept(inst.universe_size, drop_prob, rng)[inst.ids]
    ends = np.concatenate(([0], np.cumsum(kept)))[np.cumsum(inst.lengths)]
    return _from_ids(inst.universe_size, inst.ids[kept], np.diff(ends, prepend=0))


def manipulation_records(inst: CoverageInstance, k: int, mechs, drop_prob: float, seeds, work=None) -> list[dict]:
    """Per-mechanism, per-seed manipulation results, mechanism by mechanism.

    Each seed thins the ground set, compares each mechanism's exact
    first-pick distributions on the original vs thinned instance (l1 and sup
    distance), and runs that mechanism's private greedy on the original
    instance to get its realized objective relative to the non-private
    greedy.  The original first-step gains are counted once off the coverage
    matrix, and each seed's thinned ones off the same matrix with the
    columns of its dropped ids masked out, one seed at a time; no thinned
    instance is built.  The greedy baseline and every private run are the
    rows of one ``_greedy_rows`` call.  A ``collections.Counter`` passed as
    ``work`` gains the counts of greedy runs (baseline and private), thinned
    instances (one per seed, each read as its thinned first step) and gain
    evaluations (one per step of each greedy run, plus the original and
    each thinned first step).
    """
    mechs, seeds = list(mechs), list(seeds)
    _check_k(inst, k)
    gains = _uncovered_counts(inst.words, np.zeros(inst.words.shape[1], dtype=np.uint64)).astype(float)
    thinned = np.empty((len(seeds), inst.num_sets))
    dropped = np.zeros(inst.words.shape[1] * 64, dtype=bool)  # bit j: the id of column j is dropped
    for j, seed in enumerate(seeds):
        dropped[:inst.elements.size] = ~_kept(inst.universe_size, drop_prob, spawn_rng(seed, 0))[inst.elements]
        thinned[j] = _uncovered_counts(inst.words, np.packbits(dropped, bitorder="little").view("<u8"))
    if seeds:
        for mech in mechs:
            _check_private(mech)
    values = _greedy_rows(inst, k, mechs, seeds)[1].sum(axis=1).tolist()
    if values[0] == 0:
        raise ValueError("the greedy baseline covers 0 elements (every set is empty), so obj_ratio is undefined")
    records = []
    for m, mech in enumerate(mechs):
        move = np.abs(_mechanism_distribution(mech, gains) - _mechanism_distribution(mech, thinned))
        for j, (seed, l1, linf) in enumerate(zip(seeds, move.sum(axis=1).tolist(), move.max(axis=1).tolist())):
            records.append(
                {
                    "mechanism": mech.kind,
                    "param": mech.param,
                    "seed": int(seed),
                    "obj_ratio": values[1 + m * len(seeds) + j] / values[0],
                    "l1_dist": l1,
                    "linf_dist": linf,
                }
            )
    if work is not None:
        runs = len(records)
        work.update(greedy_runs=1 + runs, thinned_instances=len(seeds), gain_evaluations=k * (1 + runs) + 1 + len(seeds))
    return records
