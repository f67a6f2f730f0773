"""The greedy loops and the manipulation sweep against frozen copies of an
earlier version of each, bit for bit.

The copies below are the per-run loops as they were before every run of a
sweep was stepped together as a row: one ``marginal_gains`` call, one 1-D
selector call and one ``Generator.choice`` draw per step of each run.  They
share the instance, the selectors and ``drop_elements`` with the package, so
a change to how the greedy steps are computed, batched or drawn shows here.
The digests pin the traces the copies made when they were the package's own
loops, so the copies cannot drift either.
"""

import hashlib

import numpy as np
import pytest

from softmech import submodular
from softmech.mechanisms import MechanismSpec
from softmech.seeding import spawn_rng
from softmech.submodular import (
    drop_elements,
    greedy,
    make_instance,
    manipulation_records,
    private_greedy,
    synthetic_coverage_instance,
)


def marginal_gains(inst, selected):
    covered = np.bitwise_or.reduce(inst.words[list(selected)], axis=0)
    remaining = np.ones(inst.num_sets, dtype=bool)
    remaining[list(selected)] = False
    gains = np.bitwise_count(inst.words[remaining] & ~covered).sum(axis=1).astype(float)
    return np.flatnonzero(remaining).tolist(), gains


def mechanism_distribution(mech, gains):
    if mech.kind == "pow" and not np.any(gains > 0):
        return np.full(gains.size, 1.0 / gains.size)
    return mech(gains)


def frozen_greedy(inst, k):
    chosen, step_items, step_distributions, objective_values = [], [], [], []
    value = 0
    for _ in range(k):
        items, gains = marginal_gains(inst, chosen)
        best = int(np.argmax(gains))
        dist = np.zeros(len(items))
        dist[best] = 1.0
        value += int(gains[best])
        step_items.append(items)
        step_distributions.append(dist)
        chosen.append(items[best])
        objective_values.append(value)
    return chosen, step_items, step_distributions, objective_values


def frozen_private_greedy(inst, k, mech, rng_seed):
    rng = spawn_rng(rng_seed, 1)
    chosen, step_items, step_distributions, objective_values = [], [], [], []
    value = 0
    for _ in range(k):
        items, gains = marginal_gains(inst, chosen)
        dist = mechanism_distribution(mech, gains)
        pick = int(rng.choice(len(items), p=dist))
        value += int(gains[pick])
        step_items.append(items)
        step_distributions.append(dist)
        chosen.append(items[pick])
        objective_values.append(value)
    return chosen, step_items, step_distributions, objective_values


def frozen_manipulation_records(inst, k, mechs, drop_prob, seeds):
    seeds = list(seeds)
    base = frozen_greedy(inst, k)[3][-1]
    _, gains = marginal_gains(inst, [])
    thinned = [marginal_gains(drop_elements(inst, drop_prob, spawn_rng(seed, 0)), [])[1] for seed in seeds]
    records = []
    for mech in mechs:
        p_orig = mechanism_distribution(mech, gains)
        for seed, thinned_gains in zip(seeds, thinned):
            p_pert = mechanism_distribution(mech, thinned_gains)
            run = frozen_private_greedy(inst, k, mech, seed)
            records.append({"mechanism": mech.kind, "param": mech.param, "seed": int(seed),
                            "obj_ratio": run[3][-1] / base,
                            "l1_dist": float(np.abs(p_orig - p_pert).sum()),
                            "linf_dist": float(np.abs(p_orig - p_pert).max())})
    return records


def zero_gain_instance():
    """Set 0 covers everything: a run that picks it first sees all-zero gains
    from its second step on, a run that starts elsewhere does not."""
    return make_instance(8, [[0, 1, 2, 3, 4, 5], [0], [1], [2, 3], [4], [5], []])


INSTANCES = {
    "300x2000": lambda: synthetic_coverage_instance(300, 2000, 3),
    "120x500": lambda: synthetic_coverage_instance(120, 500, 1),
    "40x50": lambda: synthetic_coverage_instance(40, 50, 2),
    "8x20": lambda: synthetic_coverage_instance(8, 20, 5),
    "zero-gain": zero_gain_instance,
}
MECHS = [MechanismSpec("exp", 500.0), MechanismSpec("exp", 1e-9), MechanismSpec("exp", 0.02),
         MechanismSpec("pow", 2.0), MechanismSpec("pow", 50.0), MechanismSpec("pow", 1e-9)]
SEEDS = range(4)

# sha256 of the traces over the grid (see grid_traces), as the frozen loops made them
DIGESTS = {
    "300x2000": "f786dc90b0e5a1ef014c4e209bfdf3256efa04b42d695f9103f5dff127695c78",
    "120x500": "2c97a63df37ac0c33650cbb8245134b112bb6ec3f01a0689dda0dd5fccd262cf",
    "40x50": "15746f90a74c0da5d14a4f6ca04c0ddd7079d429d0050e27b4118f5799aab573",
    "8x20": "b467d1bfcccec3a0bd4079a4e0a4fe6240f640add00cead65ba3b017c875f516",
    "zero-gain": "b2adbc5adf1b135c4f6195948a9c53553e1a91a6d6c0af720b5bdcf476250664",
}


def ks(inst):
    return sorted({1, min(5, inst.num_sets), inst.num_sets if inst.num_sets <= 40 else 8})


def grid_traces(inst, run_greedy, run_private):
    """(label, trace) for the argmax greedy and each private run of the grid."""
    for k in ks(inst):
        yield f"greedy k={k}", run_greedy(inst, k)
        for mech in MECHS:
            for seed in SEEDS:
                yield f"{mech.label()} k={k} seed={seed}", run_private(inst, k, mech, seed)


def as_tuple(trace):
    return trace.chosen, trace.step_items, trace.step_distributions, trace.objective_values


def digest(traces) -> str:
    h = hashlib.sha256()
    for label, (chosen, step_items, step_distributions, objective_values) in traces:
        h.update(repr((label, chosen, step_items, objective_values)).encode())
        for dist in step_distributions:
            h.update(np.ascontiguousarray(dist, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_frozen_loops_match_their_digest(name):
    traces = grid_traces(INSTANCES[name](), frozen_greedy, frozen_private_greedy)
    assert digest(traces) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_greedy_traces_equal_the_frozen_loops(name):
    inst = INSTANCES[name]()
    live = grid_traces(inst, lambda *a: as_tuple(greedy(*a)), lambda *a: as_tuple(private_greedy(*a)))
    frozen = grid_traces(inst, frozen_greedy, frozen_private_greedy)
    for (label, got), (_, ref) in zip(live, frozen, strict=True):
        assert got[0] == ref[0] and got[1] == ref[1] and got[3] == ref[3], label
        assert all(type(v) is int for v in got[0] + got[3]), label
        assert len(got[2]) == len(ref[2]), label
        for a, b in zip(got[2], ref[2]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), label


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("drop_prob", [0.0, 0.05, 0.3])
def test_manipulation_records_equal_the_frozen_sweep(name, drop_prob):
    inst = INSTANCES[name]()
    for k in ks(inst):
        got = manipulation_records(inst, k, MECHS, drop_prob, range(6))
        assert got == frozen_manipulation_records(inst, k, MECHS, drop_prob, range(6)), k


def test_pow_rows_reach_all_zero_gains_apart():
    # in one sweep, some pow runs see all-zero gains mid-loop and draw
    # uniformly there while the others still draw by their gains
    inst, k, mech = zero_gain_instance(), 4, MechanismSpec("pow", 1e-9)
    seeds = range(16)
    zero_at = []
    for seed in seeds:
        chosen = frozen_private_greedy(inst, k, mech, seed)[0]
        zero_at.append(next((t for t in range(1, k) if not marginal_gains(inst, chosen[:t])[1].any()), None))
    assert any(t is None for t in zero_at) and any(t == 1 for t in zero_at)
    records = manipulation_records(inst, k, [mech, MechanismSpec("exp", 0.02)], 0.2, seeds)
    assert records == frozen_manipulation_records(inst, k, [mech, MechanismSpec("exp", 0.02)], 0.2, seeds)
    for seed in seeds:
        assert as_tuple(private_greedy(inst, k, mech, seed))[0] == frozen_private_greedy(inst, k, mech, seed)[0]


def test_the_frozen_distribution_is_the_package_rule():
    # the copy above is the rule the package's greedy step applies to one gain vector
    for gains in (np.zeros(3), np.array([0.0, 2.0, 1.0])):
        for mech in MECHS:
            assert (submodular._mechanism_distribution(mech, gains).tobytes()
                    == mechanism_distribution(mech, gains).tobytes())
