"""Soft-max mechanisms and their approximation/smoothness diagnostics.

Numerical library for selecting one of d options from their values with a
probability distribution that trades off value loss against sensitivity to
input changes, plus three application harnesses: differentially private
greedy coverage maximization, approximately incentive-compatible reserve
auctions, and a convex classification loss whose minimum recovers the
piecewise-linear selector.
"""

from .mechanisms import (
    MechanismSpec,
    additive_gap,
    exp_mechanism,
    log_plsoftmax,
    multiplicative_gap,
    multiplicative_guarantee,
    plsoftmax,
    power_mechanism,
    sparsemax,
    worst_case_support_ok,
)
from .smmatrix import (
    SoftMaxMatrix,
    build_softmax_matrix,
    harmonic,
    recursion_identity_exact,
)
from .distances import (
    lp_distance,
    log_lp_distance,
    renyi_divergence,
    sm_norm_bound,
    subordinate_norm_exact,
    subordinate_norm_row_bound,
    subordinate_norm_sampled,
)
from .smoothness import (
    LipschitzEstimate,
    empirical_lipschitz,
    exp_l1_lb_witness,
    forbidden_region_slope,
    kl_lb_witness,
    multiplicative_lb_probe,
    sparsegen_lb_witness,
)

__version__ = "0.1.0"

__all__ = [
    "MechanismSpec",
    "SoftMaxMatrix",
    "LipschitzEstimate",
    "additive_gap",
    "build_softmax_matrix",
    "empirical_lipschitz",
    "exp_l1_lb_witness",
    "exp_mechanism",
    "forbidden_region_slope",
    "harmonic",
    "kl_lb_witness",
    "log_lp_distance",
    "log_plsoftmax",
    "lp_distance",
    "multiplicative_gap",
    "multiplicative_guarantee",
    "multiplicative_lb_probe",
    "plsoftmax",
    "power_mechanism",
    "recursion_identity_exact",
    "renyi_divergence",
    "sm_norm_bound",
    "sparsegen_lb_witness",
    "sparsemax",
    "subordinate_norm_exact",
    "subordinate_norm_row_bound",
    "subordinate_norm_sampled",
    "worst_case_support_ok",
]
