"""Differentially private greedy coverage maximization.

Run: python demos/03_private_coverage.py
"""

import numpy as np

from softmech.mechanisms import MechanismSpec
from softmech.submodular import (
    brute_force_opt,
    compose_privacy,
    greedy,
    manipulation_records,
    private_greedy,
    synthetic_coverage_instance,
)

inst = synthetic_coverage_instance(num_sets=30, universe_size=200, rng_seed=42)
k = 5

tr = greedy(inst, k)
opt, _ = brute_force_opt(inst, k)
print(f"coverage instance: 30 sets over 200 elements, pick k={k}")
print(f"  greedy objective      {tr.objective_values[-1]}")
print(f"  exhaustive optimum    {opt}")
print(f"  guaranteed fraction   {1 - 1 / np.e:.3f} (greedy achieves {tr.objective_values[-1] / opt:.3f})\n")

print("The private loop replaces the argmax with a soft-max draw over the")
print("marginal gains; sharper parameters recover greedy, smoother ones")
print("protect individual records:\n")
for mech in [MechanismSpec("pow", 2.0), MechanismSpec("pow", 8.0), MechanismSpec("exp", 0.1), MechanismSpec("exp", 0.5)]:
    runs = [private_greedy(inst, k, mech, seed).objective_values[-1] for seed in range(20)]
    print(f"  {mech.label():16s} mean objective over 20 seeds: {np.mean(runs):6.1f}")

budget = compose_privacy(eps_step=0.2, delta_step=1e-6, steps=k, eta=0.01)
print(f"\nper-step epsilon 0.2 over {k} steps composes to {budget.eps_total_basic:.2f} (basic)")
print(f"or {budget.eps_total_advanced:.3f} (advanced form), delta_total {budget.delta_total:.2e}\n")

print("Manipulation test: drop each universe element with probability 5% and")
print("measure how far the first-pick distribution moves (l1) vs the realized")
print("objective; at matched movement the power mechanism keeps more value:\n")
mechs = [MechanismSpec("exp", 0.1), MechanismSpec("pow", 4.0)]
records = manipulation_records(inst, k, mechs, drop_prob=0.05, seeds=range(40))
for mech in mechs:
    recs = [r for r in records if r["mechanism"] == mech.kind]
    ratio, l1, linf = (np.mean([r[key] for r in recs]) for key in ("obj_ratio", "l1_dist", "linf_dist"))
    print(f"  {mech.label():16s} obj ratio {ratio:.3f}   l1 move {l1:.4f}   sup move {linf:.4f}")
