"""Acceptance suite: every criterion at full scale and stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion, including its runtime budget.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from softmech.distances import (
    lp_distance,
    renyi_divergence,
    sm_norm_bound,
    subordinate_norm_exact,
    subordinate_norm_row_bound,
    subordinate_norm_sampled,
)
from softmech.mechanisms import MechanismSpec, exp_mechanism, plsoftmax, sparsemax
from softmech.simplex import SUPPORT_EPS
from softmech.smmatrix import build_softmax_matrix, recursion_identity_exact
from softmech.smoothness import (
    empirical_lipschitz,
    exp_l1_lb_witness,
    kl_lb_witness,
    measured_ratio,
    sparsegen_lb_witness,
)
import softmech
from softmech import auctions, classification, submodular

F = Fraction
INF = float("inf")


def report(num: int, desc: str, ok: bool, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s): {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_matrix_fidelity():
    t0 = time.time()
    expected = {
        1: [[F(0)] * 4 for _ in range(4)],
        2: [
            [F(1, 2), F(-1, 2), F(0), F(0)],
            [F(-1, 2), F(1, 2), F(0), F(0)],
            [F(0)] * 4,
            [F(0)] * 4,
        ],
        3: [
            [F(2, 3), F(-1, 2), F(-1, 6), F(0)],
            [F(-1, 3), F(1, 2), F(-1, 6), F(0)],
            [F(-1, 3), F(0), F(1, 3), F(0)],
            [F(0)] * 4,
        ],
        4: [
            [F(3, 4), F(-1, 2), F(-1, 6), F(-1, 12)],
            [F(-1, 4), F(1, 2), F(-1, 6), F(-1, 12)],
            [F(-1, 4), F(0), F(1, 3), F(-1, 12)],
            [F(-1, 4), F(0), F(0), F(1, 4)],
        ],
    }
    ok = all(build_softmax_matrix(k, 4).as_fractions() == expected[k] for k in range(1, 5))
    report(1, "4x4 matrices match the reference instances exactly", ok, t0, 1.0)


def test_criterion_02_recursion_identity():
    t0 = time.time()
    ok = all(recursion_identity_exact(k, d) for d in range(2, 65) for k in range(2, d + 1))
    report(2, "active-count recursion exact for all 2 <= k <= d <= 64", ok, t0, 5.0)


def test_criterion_03_simplex_and_worst_case():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    dims = rng.integers(2, 65, size=100_000)
    deltas = rng.choice([0.1, 1.0, 10.0], size=100_000)
    spreads = rng.choice([0.3, 2.0, 20.0], size=100_000)
    # every vector drawn first, in draw order, into one flat buffer; then
    # evaluated by (d, delta) blocks of rows, each row equal bit for bit to
    # the one-vector call
    starts = np.cumsum(dims) - dims
    flat = np.empty(int(dims.sum()))
    for start, d, delta, spread in zip(starts, dims, deltas, spreads):
        flat[start:start + d] = rng.normal(0.0, spread * delta, size=int(d))
    ok = True
    evaluated = 0
    for d in np.unique(dims):
        for delta in np.unique(deltas):
            rows = np.flatnonzero((dims == d) & (deltas == delta))
            if not rows.size:
                continue
            X = flat[starts[rows, None] + np.arange(d)]
            P = MechanismSpec("plsoftmax", float(delta)).rows(X)
            evaluated += len(P)
            # row by row: finite, p.min() >= 0, a total within 1e-9 of 1, and
            # every entry above SUPPORT_EPS within delta + 1e-9 of the max
            ok &= bool(np.isfinite(P).all() and (P >= 0).all())
            ok &= bool((np.abs(P.sum(axis=1) - 1.0) <= 1e-9).all())
            near_max = X >= X.max(axis=1, keepdims=True) - float(delta) - 1e-9
            ok &= bool(((P <= SUPPORT_EPS) | near_max).all())
    ok &= evaluated == 100_000
    report(3, "10^5 random draws: valid simplex output and delta-close support", ok, t0, 60.0)


def test_criterion_04_smoothness_bounds():
    t0 = time.time()
    d, trials = 16, 10_000
    ok = True
    pl = MechanismSpec("plsoftmax", 1.0)
    for domain, rng_metric in [("l1", "l1"), ("l2", "l2"), ("l2", "l1"), ("linf", "l1")]:
        est = empirical_lipschitz(pl, d, domain, rng_metric, trials, rng_seed=1)
        ok &= est.max_ratio <= pl.lipschitz_bound(domain, rng_metric, d) + 1e-9
    ex = MechanismSpec("exp", 1.0)
    est = empirical_lipschitz(ex, d, "l2", "dinf", trials, rng_seed=1)
    ok &= est.max_ratio <= ex.lipschitz_bound("l2", "dinf", d) + 1e-9
    report(4, "10^4-pair estimates never exceed the proven bounds", ok, t0, 300.0)


def test_criterion_05_norm_theorem_and_bound():
    t0 = time.time()
    ok = True
    for d in range(2, 13):
        for k in range(1, d + 1):
            A = build_softmax_matrix(k, d).to_float()
            for p in (2.0, 4.0, INF):
                exact = subordinate_norm_exact(A, p)
                low = subordinate_norm_sampled(A, p, 1.0, 100, rng_seed=5)
                high = subordinate_norm_row_bound(A, p, 1.0)
                ok &= low <= exact + 1e-9 <= high + 2e-9
                ok &= exact <= sm_norm_bound(k, p, 1.0) + 1e-9
    report(5, "sign-enumeration norms sandwiched and under 2*min(p+1, H_k)", ok, t0, 120.0)


def test_criterion_06_exp_witness():
    t0 = time.time()
    d = 100
    ok = True
    for lam in (1.0, 2.5, np.log(d)):
        x, y = exp_l1_lb_witness(d, lam)
        for p in (1.0, 2.0, INF):
            ratio = measured_ratio(MechanismSpec("exp", lam), x, y, p)
            ok &= 0.49 * lam <= ratio <= 0.51 * lam
            ok &= ratio >= 0.98 * lam / 2.0
    report(6, "exp witness ratio in [0.49, 0.51] * lambda at d=100", ok, t0, 1.0)


def test_criterion_07_kl_witness():
    t0 = time.time()
    d, delta = 1024, 1.0
    x, y, _ = kl_lb_witness(d, delta)
    mech = MechanismSpec("exp", np.log(d) / delta)
    kl = renyi_divergence(mech(y), mech(x), 1.0)
    floor = (np.log(d) - 2.0) / (4.0 * delta)
    ok = all(kl / lp_distance(x, y, p) >= floor for p in (1.0, 2.0, INF))
    report(7, "exp at the KL witness meets the (log d - 2)/(4 delta) floor", ok, t0, 1.0)


def test_criterion_08_sparsegen_gap():
    t0 = time.time()
    delta = 1.0
    ok = True
    for d in (4, 16, 64):
        for q in (1.0, 2.0):
            x, y, floor = sparsegen_lb_witness(d, q)
            ratio = lp_distance(sparsemax(x), sparsemax(y), 1.0) / lp_distance(x, y, q)
            ok &= ratio >= floor - 1e-12
            pl_ratio = lp_distance(plsoftmax(x, delta), plsoftmax(y, delta), 1.0) / lp_distance(x, y, q)
            pl_bound = INF if q == 1.0 else (2.0 / delta) * q / (q - 1.0)
            ok &= pl_ratio <= pl_bound
    report(8, "projection ratio grows with d while the selector stays bounded", ok, t0, 1.0)


def test_criterion_09_dp_submodular():
    t0 = time.time()
    k = 5
    ok = True

    # greedy ratio against exhaustive optimum on 20 seeded instances
    for seed in range(20):
        inst = submodular.synthetic_coverage_instance(30, 200, seed)
        val = submodular.greedy(inst, k).objective_values[-1]
        opt, _ = submodular.brute_force_opt(inst, k)
        ok &= val >= (1 - 1 / np.e) * opt

    # privacy link on enumerated one-record neighbor pairs
    base = submodular.synthetic_coverage_instance(12, 60, 42)
    neighbors = []
    for v in (0, 3, 7):
        edited = [list(s) for s in base.sets]
        edited[v] = edited[v][:-1] if len(edited[v]) > 1 else edited[v]
        neighbors.append(submodular.make_instance(base.universe_size, edited))
    edited = [list(s) for s in base.sets]
    edited[5] = [0, 1]
    neighbors.append(submodular.make_instance(base.universe_size, edited))
    contexts = [[]] + [[v] for v in range(12)] + [[0, 1], [2, 9]]
    for nb in neighbors:
        for lam in (0.5, 2.0):
            ok &= submodular.privacy_link_margin(base, nb, MechanismSpec("pow", lam), contexts) <= 1e-9
            ok &= submodular.privacy_link_margin(base, nb, MechanismSpec("exp", lam), contexts) <= 1e-9

    # manipulation frontier: at matched median l1 distance the power
    # mechanism's median objective dominates the exponential mechanism's
    # (drop probability raised to 5% so a 200-element universe is actually
    # perturbed at desk scale)
    inst = submodular.synthetic_coverage_instance(30, 200, 42)
    seeds = range(100)

    def frontier(kind, lams):
        recs = submodular.manipulation_records(inst, k, [MechanismSpec(kind, lam) for lam in lams], 0.05, seeds)
        pts = []
        for lam in lams:
            mine = [r for r in recs if r["param"] == lam]
            pts.append(
                (
                    float(np.median([r["l1_dist"] for r in mine])),
                    float(np.median([r["obj_ratio"] for r in mine])),
                )
            )
        return pts

    exp_pts = frontier("exp", [0.05, 0.1, 0.2, 0.4])
    pow_pts = frontier("pow", [1.0, 2.0, 4.0, 8.0, 16.0])
    compared = 0
    for l1, obj in exp_pts:
        if l1 < 1e-3:
            continue
        eligible = [o for pl1, o in pow_pts if pl1 <= l1 + 1e-12]
        ok &= bool(eligible) and max(eligible) >= obj
        compared += 1
    ok &= compared >= 2
    report(9, "greedy ratio, privacy link, and pow-over-exp frontier dominance", ok, t0, 300.0)


def test_criterion_10_auction_ic_audit():
    t0 = time.time()
    rng = np.random.default_rng(10)
    grids = [auctions.reserve_grid(1.0, 0.5, 0.1), auctions.reserve_grid(1.0, 0.25, 0.15)]
    mechs = [
        MechanismSpec("plsoftmax", 8.0),
        MechanismSpec("plsoftmax", 2.0),
        MechanismSpec("exp", 0.25),
        MechanismSpec("exp", 1.0),
    ]
    ok = all(g.size <= 8 for g in grids)
    instances = []
    for _ in range(6):
        n = int(rng.integers(2, 5))
        instances.append(auctions.AuctionInstance(rng.uniform(0.0, 1.0, size=n), 1.0, n))
    for inst in instances:
        for grid in grids:
            for mech in mechs:
                eps = auctions.ic_epsilon_for(mech, grid, 1.0)
                gain, _ = auctions.ic_audit(inst, grid, mech, resolution=101)
                ok &= gain <= eps + 1e-9
            # worst-case revenue decomposition on every sampled realization
            pl = MechanismSpec("plsoftmax", 0.4)
            ok &= auctions.worst_case_revenue_check(inst, grid, pl)
            x = auctions.revenue_vector(inst, grid)
            for seed in range(10):
                out = auctions.soft_maximizer(inst, grid, pl, seed)
                ok &= x[out.chosen_price_index] >= (1 - grid.delta_price) * x.max() - pl.param - 1e-9
    report(10, "deviation gains within L*S1 and near-optimal realized revenue", ok, t0, 120.0)


def test_criterion_11_loss_properties():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        d = int(rng.choice([2, 4, 8, 16]))
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        x = rng.normal(0.0, 2.0 * delta, size=d)
        ok &= classification.zero_iff_residual(x, delta) <= 1e-12
    for d in (2, 4, 8, 16):
        q = np.full(d, 1.0 / d)
        ok &= classification.convexity_probe(q, 1.0, 2500, rng_seed=d) <= 1e-9
    checked = 0
    while checked < 100:
        x = rng.normal(0.0, 2.0, size=8)
        q = plsoftmax(rng.normal(0.0, 2.0, size=8), 1.0)
        err = classification.subgradient_check(x, q, 1.0)
        if err is None:
            continue
        ok &= err <= 1e-4
        checked += 1
    report(11, "zero-iff residual, convexity probe, and gradient checks", ok, t0, 60.0)


def _run_cli(args, cwd):
    # Run the same softmech the test imported: put its package root first on
    # an absolute PYTHONPATH, since a relative entry (``src``) stops resolving
    # once the child runs in ``cwd``.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(softmech.__file__)))
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}
    proc = subprocess.run(
        [sys.executable, "-m", "softmech", *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, (
        f"softmech {' '.join(args)} exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    return proc.stdout


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    fam = tmp_path / "sets.txt"
    submodular.save_set_family(submodular.synthetic_coverage_instance(10, 40, 0), fam)
    auction = tmp_path / "auction.json"
    auction.write_text(json.dumps({"H": 1.0, "k": 3, "bids": [0.9, 0.6, 0.2]}), encoding="utf-8")
    commands = {
        "eval": ["eval", "--mech", "plsoftmax:delta=1", "--x", "0.5,0"],
        "lipschitz": [
            "lipschitz", "--mech", "exp:lambda=1", "--d", "8", "--domain", "l2",
            "--range", "dinf", "--trials", "150", "--seeds", "0,1",
        ],
        "submodular": [
            "submodular", "--instance-file", str(fam), "--k", "3",
            "--mechs", "pow:lambda=2,exp:lambda=0.5", "--drop-prob", "0.05", "--seeds", "0-4",
        ],
        "auction": [
            "auction", "--instance-file", str(auction), "--mech", "plsoftmax:delta=4",
            "--grid-delta", "0.5", "--grid-floor", "0.1", "--seed", "3", "--audit",
            "--resolution", "41",
        ],
        "lossfn": ["lossfn", "--d", "6", "--delta", "1", "--trials", "60", "--seeds", "0"],
    }
    ok = True
    for name, args in commands.items():
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.out"
            extra = ["--out", str(out)]
            if name == "auction":
                audit_out = tmp_path / f"{name}_{run}.audit"
                extra += ["--audit-out", str(audit_out)]
            _run_cli(args + extra, tmp_path)
            payload = out.read_bytes()
            if name == "auction":
                payload += audit_out.read_bytes()
            outputs.append(payload)
        ok &= outputs[0] == outputs[1]
    report(12, "seeded commands rerun byte-identically", ok, t0, 120.0)
