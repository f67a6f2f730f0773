"""Every check passes a true output and flags a corrupted one."""

import dataclasses
import math

import numpy as np
import pytest

import checkers
import refs
import softmech
from softmech import MechanismSpec, smmatrix, smoothness

KINDS = (("exp", 1.0), ("pow", 2.0), ("plsoftmax", 1.0), ("logplsoftmax", 0.5), ("sparsemax", None))


@pytest.mark.parametrize("k", range(1, 9))
def test_reference_matrix_is_the_papers(k):
    assert np.array_equal(refs.softmax_matrix(k), smmatrix.build_softmax_matrix(k, k).to_float())
    assert np.allclose(refs.softmax_matrix(k).sum(axis=0), 0.0, atol=1e-15)


@pytest.mark.parametrize("kind,param", KINDS)
@pytest.mark.parametrize("d", (4, 64))
def test_selector_check_flags_a_moved_probability(kind, param, d):
    x = np.exp(np.random.default_rng(d).normal(0.0, 1.0, d))
    p = MechanismSpec(kind, param)(x)
    assert checkers.check_selector(kind, param, x, p) == []
    moved = p.copy()
    top, low = int(np.argmax(p)), int(np.argmin(p))
    moved[top] -= 0.01
    moved[low] += 0.01
    assert checkers.check_simplex(moved) == []
    assert checkers.check_selector(kind, param, x, moved)


def test_support_check_flags_weight_far_below_the_max():
    x = np.array([3.0, 2.5, 0.0, -1.0])
    p = softmech.plsoftmax(x, 1.0)
    assert checkers.check_support("plsoftmax", 1.0, x, p) == []
    bad = p.copy()
    bad[0] -= 1e-6
    bad[3] += 1e-6
    assert checkers.check_support("plsoftmax", 1.0, x, bad)


def test_simplex_check_flags_negative_and_unnormalised():
    assert checkers.check_simplex([0.5, 0.5]) == []
    assert checkers.check_simplex([1.1, -0.1])
    assert checkers.check_simplex([0.5, 0.5 + 1e-9])


def test_translation_check_flags_the_offset_drift():
    x = np.random.default_rng(0).normal(0.0, 0.5, 1024) + 1e10
    shifted = softmech.plsoftmax(x - x.max(), 1.0)
    assert checkers.check_translation(shifted, shifted) == []
    assert checkers.check_translation(softmech.plsoftmax(x, 1.0), shifted)


LAB = (
    ("plsoftmax", 1.0, 16, "linf", "l1"),
    ("exp", 1.0, 16, "l2", "dinf"),
    ("exp", 1.0, 16, "linf", "l1"),
    ("sparsemax", None, 64, "l2", "l1"),
)


@pytest.mark.parametrize("kind,param,d,dom,rng_metric", LAB)
def test_lipschitz_check_flags_bound_witness_and_floor(kind, param, d, dom, rng_metric):
    est = smoothness.empirical_lipschitz(MechanismSpec(kind, param), d, dom, rng_metric, 60, 7)
    assert checkers.check_lipschitz(kind, param, d, dom, rng_metric, est) == []
    _, p = refs.metric_ref(dom)
    _, q = refs.metric_ref(rng_metric)
    bound = refs.lipschitz_bound(kind, param, d, p, q)
    above = dataclasses.replace(est, max_ratio=1.01 * bound)
    assert any("bound" in m for m in checkers.check_lipschitz(kind, param, d, dom, rng_metric, above))
    noise = np.random.default_rng(1).normal(0.0, 1e-3, d)
    moved = dataclasses.replace(est, witness_y=est.witness_y + noise)
    assert any("witness" in m for m in checkers.check_lipschitz(kind, param, d, dom, rng_metric, moved))
    low = dataclasses.replace(est, max_ratio=0.0)
    assert any("floor" in m for m in checkers.check_lipschitz(kind, param, d, dom, rng_metric, low))


def test_bounds_and_floors_match_the_paper():
    assert refs.lipschitz_bound("exp", 1.5, 16, 2, math.inf) == 3.0
    assert refs.lipschitz_bound("plsoftmax", 0.5, 16, math.inf, 1) == pytest.approx(4 * math.log(16))
    assert refs.lipschitz_bound("plsoftmax", 1.0, 16, 1, 1) == 4.0
    assert refs.lipschitz_bound("plsoftmax", 1.0, 16, 2, 2) == 4.0
    assert refs.lipschitz_floor("sparsemax", None, 64, 2, 1) == 4.0
    assert refs.lipschitz_floor("exp", 1.0, 1000, math.inf, 1) == pytest.approx(0.5, rel=0.02)


def test_loss_check_flags_each_condition():
    assert checkers.check_loss(1e-8, 0.3, 0.0) == []
    assert checkers.check_loss(None, 0.3, 0.0) == []
    assert checkers.check_loss(1e-3, 0.3, 0.0)
    assert checkers.check_loss(1e-8, -1e-3, 0.0)
    assert checkers.check_loss(1e-8, 0.3, 1e-9)


def test_distances_match_the_library():
    rng = np.random.default_rng(5)
    a, b = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
    for p in (1.0, 2.0, 3.0, math.inf):
        assert refs.lp_ref(a, b, p) == pytest.approx(softmech.lp_distance(a, b, p), rel=1e-12)
    for order in (1.0, 2.0, math.inf):
        assert refs.renyi_ref(a, b, order) == pytest.approx(softmech.renyi_divergence(a, b, order), rel=1e-12)
    assert refs.renyi_ref([0.5, 0.5], [1.0, 0.0], 1.0) == math.inf


def test_union_and_revenue_references():
    assert refs.union_size([[1, 2], [2, 3], []]) == 3
    assert refs.first_step_gains([[1, 2], [5], []]) == [2, 1, 0]
    assert refs.unlimited_revenue([0.9, 0.5, 0.3], 0.5) == 1.0


def _auction_payload(bids, delta=0.5, grid_size=7):
    prices = [0.75 ** (i + 1) for i in range(grid_size)]
    revenue = [refs.unlimited_revenue(bids, p) for p in prices]
    return {
        "grid_prices": prices,
        "selection_distribution": list(softmech.plsoftmax(np.array(revenue), delta)),
        "audit_max_gain": 0.01,
        "epsilon_ic": 24.0,
    }


def test_auction_check_flags_a_wrong_revenue_and_gain():
    bids = [0.9, 0.4, 0.3, 0.7]
    audit = "bidder,deviation_bid,utility_gain\n0,0,-0.1\n0,1,0.01\n"
    payload = _auction_payload(bids)
    assert checkers.check_auction(payload, bids, 1.0, 0.25, 7, 0.5, audit, 2) == []
    wrong_bids = [0.9, 0.4, 0.3, 0.2]  # the revenue vector of other bids
    wrong = dict(payload, selection_distribution=_auction_payload(wrong_bids)["selection_distribution"])
    assert any("selection" in m for m in checkers.check_auction(wrong, bids, 1.0, 0.25, 7, 0.5, audit, 2))
    greedy = dict(payload, audit_max_gain=25.0)
    assert checkers.check_auction(greedy, bids, 1.0, 0.25, 7, 0.5, audit, 2)
    assert checkers.check_auction(payload, bids, 1.0, 0.25, 7, 0.5, audit, 3)


FRONTIER = (
    "mechanism,param,seed,obj_ratio,l1_dist,linf_dist\n"
    "exp,0.02,4,0.9,0.2,0.1\n"
    "pow,2,4,0.8,0.3,0.05\n"
)


def test_frontier_check_flags_bad_rows():
    assert checkers.check_frontier(FRONTIER, ["exp", "pow"], [4])[0] == []
    assert checkers.check_frontier(FRONTIER, ["exp", "pow"], [4, 5])[0]
    assert checkers.check_frontier(FRONTIER.replace("0.3,0.05", "0.3,0.4"), ["exp", "pow"], [4])[0]
    assert checkers.check_frontier(FRONTIER.replace("0.8,", "0,"), ["exp", "pow"], [4])[0]


def test_l1_row_check_recomputes_from_sets():
    sets = [[0, 1, 2, 3], [2, 3], [4]]
    thinned = [[0, 1, 2], [2, 3], [4]]
    l1 = float(np.abs(refs.exp_ref([4.0, 2.0, 1.0], 0.5) - refs.exp_ref([3.0, 2.0, 1.0], 0.5)).sum())
    row = {"seed": "0", "l1_dist": f"{l1:.12g}"}
    assert checkers.check_l1_row(row, "exp", 0.5, sets, thinned) == []
    assert checkers.check_l1_row(dict(row, l1_dist=f"{1.01 * l1:.12g}"), "exp", 0.5, sets, thinned)
