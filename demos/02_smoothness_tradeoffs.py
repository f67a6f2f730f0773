"""Approximation/smoothness tradeoffs: estimates, bounds, and witnesses.

Run: python demos/02_smoothness_tradeoffs.py
"""

import numpy as np

from softmech import (
    MechanismSpec,
    empirical_lipschitz,
    exp_l1_lb_witness,
    kl_lb_witness,
    lp_distance,
    multiplicative_lb_probe,
    renyi_divergence,
)
from softmech.smoothness import measured_ratio

d = 16
pl = MechanismSpec("plsoftmax", 1.0)
ex = MechanismSpec("exp", 1.0)

print("Empirical Lipschitz estimates (seeded max distance ratios) against the")
print("proven bounds, for the piecewise-linear selector at delta=1, d=16:\n")
for domain, rng in [("l1", "l1"), ("l2", "l2"), ("linf", "l1")]:
    est = empirical_lipschitz(pl, d, domain, rng, trials=2000, rng_seed=0)
    bound = pl.lipschitz_bound(domain, rng, d)
    print(f"  ({domain:4s} -> {rng:3s})  estimate {est.max_ratio:6.3f}   bound {bound:6.3f}")

est = empirical_lipschitz(ex, d, "l2", "dinf", trials=2000, rng_seed=0)
bound = ex.lipschitz_bound("l2", "dinf", d)
print(f"\nexp lambda=1 under (l2 -> max-divergence): estimate {est.max_ratio:.3f}, bound {bound:.3f}")

print("\nLower-bound witnesses pin the estimates from below.")
x, y = exp_l1_lb_witness(100, 1.0)
print(f"  exp single-coordinate witness at d=100: ratio {measured_ratio(ex, x, y, 2.0):.5f} (about lambda/2)")

xk, yk, floor = kl_lb_witness(1024, 1.0)
sharp = MechanismSpec("exp", np.log(1024))
kl = renyi_divergence(sharp(yk), sharp(xk), 1.0)
print(f"  KL witness at d=1024: KL/distance = {kl / lp_distance(xk, yk, 2.0):.3f} >= floor {(np.log(1024) - 2) / 4:.3f}")

print("\nNo plain-norm Lipschitz constant exists for multiplicative guarantees:")
print("shrinking a fixed pair by c leaves a scale-invariant selector's output")
print("unchanged while the input distance vanishes, so the ratio grows like 1/c:")
for c, ratio in multiplicative_lb_probe(MechanismSpec("pow", 2.0), 4, [1.0, 0.1, 0.01]):
    print(f"  scale {c:5.2f}: (linf -> l1) ratio {ratio:8.3f}")
