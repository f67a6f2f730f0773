"""Empirical Lipschitz estimation and lower-bound witness constructions.

``empirical_lipschitz`` measures the largest observed ratio
range_distance(f(x), f(y)) / domain_distance(x, y) over three seeded pair
families: independent random pairs, single-coordinate perturbations at three
step sizes, and pairs straddling the sort-order / active-count seams of the
piecewise-linear selector.  Trials are drawn straight into blocks of (n, d)
rows, and each block is evaluated row-wise.  The estimate is a certified
lower bound on the true Lipschitz constant; ``MechanismSpec.lipschitz_bound``
gives the proven upper bounds it is checked against.

The witness constructors return concrete input pairs at which any mechanism
of the relevant class must exhibit a known minimum of output movement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .distances import lp_distance, metric_from_id, parse_metric_id
from .mechanisms import MechanismSpec, _check_param
from .seeding import spawn_rng

_PERTURB_STEPS = (1e-2, 1e-4, 1e-6)
_BOUNDARY_STEP = 1e-6
_WITNESS_STEP = 1e-4
# Pairs are drawn and evaluated in blocks: row-wise speed, memory bounded
# whatever the trial count.  A block holds up to _BLOCK_VALUES values per side
# (256 rows at d = 64), never fewer than _MIN_BLOCK_ROWS rows, and never more
# than _MAX_BLOCK_ROWS, which bounds the block's arrays at small d (no object
# is built per row).  A block is also the unit of seeding (see _pair_rows), so
# retuning these changes the lab's seeded outputs.
_BLOCK_VALUES = 2**14
_MIN_BLOCK_ROWS, _MAX_BLOCK_ROWS = 256, 2048


@dataclass(frozen=True)
class LipschitzEstimate:
    """Largest observed distance ratio together with the pair attaining it.

    ``trials`` counts the pairs evaluated, ``skipped`` the pairs drawn but
    dropped: outside the domain metric's domain, or at a zero or non-finite
    domain distance.
    """

    mechanism: str
    domain_metric: str
    range_metric: str
    trials: int
    skipped: int
    max_ratio: float
    witness_x: np.ndarray
    witness_y: np.ndarray


def _pair_rows(mech: MechanismSpec, d: int, rng_seed: int, block: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n trials of draw block ``block`` as (n, d) rows x and y.

    Block b holds trials bB .. bB + B - 1, B = _block_rows(d).  Trial i
    cycles three families, three scales and three steps: an independent
    random pair; a single-coordinate perturbation; and a pair with gap 1e-6
    in the sup norm straddling a selector seam.  For the worst-case kinds the
    straddle crosses the active-count boundary (the coordinate of a drawn
    rank placed just inside/outside max - delta); otherwise it crosses an
    order-change boundary (two drawn coordinates swapping rank).  The block
    draws its normals as one ``standard_normal((n, 2 d))`` call on
    spawn_rng(rng_seed, b, 0), row i - bB scaled by trial i's scale (x is
    its first d entries, and a random pair's y the other d), and its other
    draws as one ``integers`` call on the (n, 3) bounds of its trials, row
    by row, on spawn_rng(rng_seed, b, 1): a coordinate below d, a rank draw
    below d - 1, or ``choice(d, 2, replace=False)``'s draws; a bound of 1
    draws nothing.  The steps and seams are placed, and positive-domain rows
    exponentiated, for the whole block at once.
    """
    start = block * _block_rows(d)
    delta = mech.param if mech.worst_case else None  # seam at max - delta
    rank = delta is not None and d >= 2  # the seam pair draws a rank, else two coordinates
    trial = np.arange(start, start + n)
    family = trial % 3
    bounds = np.ones((n, 3), dtype=np.int64)
    bounds[family == 1, 0] = d
    # the seam pair's rank is 1 plus a draw below d - 1; choice(d, 2,
    # replace=False) is a Floyd step (a below d - 1, then b below d, b == a
    # taking d - 1) and a swap draw below 2.  At d = 1 its bound d - 1 = 0
    # raises ValueError.
    bounds[family == 2] = (d - 1, 1, 1) if rank else (d - 1, d, 2)
    scale = _draw_scale(mech) * np.array((0.5, 1.0, 2.0))[(trial // 3) % 3]
    z = spawn_rng(rng_seed, block, 0).standard_normal((n, 2 * d))
    z *= scale[:, None]
    picks = spawn_rng(rng_seed, block, 1).integers(bounds)
    x = z[:, :d].copy()
    y = np.where((family == 0)[:, None], z[:, d:], x)

    rows = np.flatnonzero(family == 1)
    y[rows, picks[rows, 0]] += np.array(_PERTURB_STEPS)[(trial[rows] // 3) % len(_PERTURB_STEPS)]

    rows, h = np.flatnonzero(family == 2), _BOUNDARY_STEP
    if rank:
        order = np.argsort(-x[rows], axis=1, kind="stable")
        col = order[np.arange(rows.size), 1 + picks[rows, 0]]
        edge = x[rows, order[:, 0]] - delta
        x[rows, col] = edge + h / 2
        y[rows, col] = edge - h / 2
    else:
        a, b, swap = picks[rows].T
        b = np.where(b == a, d - 1, b)
        p, q = np.where(swap == 0, b, a), np.where(swap == 0, a, b)
        mid = (x[rows, p] + x[rows, q]) / 2
        x[rows, p], x[rows, q] = mid + h / 2, mid - h / 2
        y[rows, p], y[rows, q] = mid - h / 2, mid + h / 2
    if mech.positive_domain:
        return np.exp(x), np.exp(y)
    return x, y


def _block_rows(d: int) -> int:
    """The pairs of a block at dimension d."""
    return min(max(_BLOCK_VALUES // max(d, 1), _MIN_BLOCK_ROWS), _MAX_BLOCK_ROWS)


def _draw_scale(mech: MechanismSpec) -> float:
    """The middle of the three trial scales: delta for the worst-case kinds,
    1/lambda for the other kinds with a parameter, else 1."""
    if mech.param is None:
        return 1.0
    return mech.param if mech.worst_case else 1.0 / mech.param


def _designed_rows(mech: MechanismSpec, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs built to attain a known ratio, as (k, d) rows x and y; k may be 0."""
    pairs = []
    if mech.kind == "exp":
        pairs.append(exp_l1_lb_witness(d, mech.param))
    if mech.kind == "sparsemax" and d % 2 == 0:
        pairs.append(sparsegen_lb_witness(d, 2.0)[:2])
    x, y = np.reshape(pairs, (len(pairs), 2, d)).transpose(1, 0, 2)
    return x, y


def empirical_lipschitz(
    mech: MechanismSpec,
    d: int,
    domain_metric: str,
    range_metric: str,
    trials: int,
    rng_seed: int,
) -> LipschitzEstimate:
    """Max observed distance ratio for mech over seeded pair families.

    Deterministic per seed: the trials come in draw blocks of
    ``_block_rows(d)`` pairs (2**14 values per side, within 256 to 2048
    rows), and block b draws from two generators derived from (rng_seed, b),
    so a run of n trials is a prefix of any longer run (see _pair_rows).  The
    designed pairs form the first block of rows, then the trial blocks
    follow; each block gets one row-wise domain distance, one ``mech.rows``
    call on each side and one row-wise range distance.  The first pair with
    the largest ratio is the witness (first argmax in a block, strict >
    between blocks); a nan ratio never wins.  An infinite range distance is
    recorded as a +inf estimate with its witness; it signals a non-Lipschitz
    metric pairing rather than an error.  A parameter whose largest trial scale
    (twice the middle one) or designed witness is not a finite float is
    refused before anything is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not math.isfinite(2.0 * _draw_scale(mech)):
        raise ValueError(f"{mech.label()} gives a non-finite draw scale")
    if parse_metric_id(domain_metric)[0] == "renyi":
        raise ValueError(f"{domain_metric} is a divergence between distributions; "
                         "value vectors are not simplex points, so it cannot be a domain metric")
    dom = metric_from_id(domain_metric)
    rng_m = metric_from_id(range_metric)
    best = -1.0
    witness = None
    evaluated = drawn = 0
    rows = _block_rows(d)
    blocks = (_pair_rows(mech, d, rng_seed, b, min(rows, trials - s)) for b, s in enumerate(range(0, trials, rows)))
    for x, y in chain([_designed_rows(mech, d)], blocks):
        drawn += len(x)
        dxy = dom(x, y)  # nan where a row is outside the metric's domain
        used = np.isfinite(dxy) & (dxy != 0.0)
        if not used.any():
            continue
        x, y, dxy = x[used], y[used], dxy[used]
        rxy = rng_m(mech.rows(x), mech.rows(y))
        evaluated += dxy.size
        ratio = np.where(np.isinf(rxy), np.inf, rxy / dxy)
        ratio[np.isnan(ratio)] = -np.inf
        j = int(np.argmax(ratio))
        if ratio[j] > best:
            best = float(ratio[j])
            witness = (x[j].copy(), y[j].copy())

    if witness is None:
        raise ValueError(f"no pair gave a usable distance ratio under {domain_metric} -> {range_metric}")
    return LipschitzEstimate(
        mechanism=mech.label(),
        domain_metric=domain_metric,
        range_metric=range_metric,
        trials=evaluated,
        skipped=drawn - evaluated,
        max_ratio=max(best, 0.0),
        witness_x=witness[0],
        witness_y=witness[1],
    )


def kl_lb_witness(d: int, delta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Pair forcing KL movement in any delta-approximate selector.

    x is the all-zero vector, y bumps one coordinate to 2*delta.  Any
    permutation-invariant delta-approximate selector must put mass at least
    1 - 1/2 on the bumped coordinate, which costs KL >= (log d - 2)/2 against
    the uniform output at x.  Requires d >= 4.
    """
    if d < 4:
        raise ValueError("d must be >= 4")
    _check_param(delta, "delta")
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = 2.0 * delta
    floor = (np.log(d) - 2.0) / 2.0
    return x, y, float(floor)


def exp_l1_lb_witness(d: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-active-coordinate pair where the exponential selector moves fastest.

    At z = log(d)/lambda the derivative of the first output coordinate along
    e_1 is 2*lambda*d(d-1)/(2d-1)^2, about lambda/2 for large d; the pair
    (z, 0, ..) vs (z+h, 0, ..) with h = 1e-4 measures it by finite
    differences.
    """
    _check_param(lam, "lambda")
    if not math.isfinite(math.log(d) / lam):
        raise ValueError(f"lambda {lam} puts the witness at log(d)/lambda, beyond the float range")
    z = np.log(d) / lam
    x = np.zeros(d)
    y = np.zeros(d)
    x[0] = z
    y[0] = z + _WITNESS_STEP
    return x, y


def sparsegen_lb_witness(d: int, q: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Pair showing the simplex projection's l_q -> l_1 ratio grows with d.

    x = 0 projects to uniform; y = 2/d on the first half projects to itself.
    The l1 output distance is exactly 1 while ||x-y||_q = (2/d)^(1-1/q), so
    the ratio is (d/2)^(1-1/q) >= d^(1-1/q)/2, the returned floor.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("d must be even and >= 2")
    if not q >= 1:
        raise ValueError("q must be >= 1")
    x = np.zeros(d)
    y = np.zeros(d)
    y[: d // 2] = 2.0 / d
    floor = 0.5 * d ** (1.0 - 1.0 / q)
    return x, y, float(floor)


def measured_ratio(f, x, y, domain_p: float) -> float:
    """Output l1 distance over input l_p distance of f at a concrete pair."""
    return lp_distance(f(x), f(y), 1.0) / lp_distance(x, y, domain_p)


def multiplicative_lb_probe(mech: MechanismSpec, d: int, scales) -> list[tuple[float, float]]:
    """(l_inf, l_1) distance ratios of mech at a fixed pair shrunk by each scale.

    The pair (c*x0, c*y0) with distinct argmaxes has constant output
    distance for a scale-invariant mechanism while the input distance
    shrinks with c, so the ratio grows like 1/c: no plain-norm Lipschitz
    constant can hold.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not mech.positive_domain:
        raise ValueError("scale probe expects a scale-invariant mechanism (pow or logplsoftmax)")
    x0 = np.ones(d)
    y0 = np.ones(d)
    x0[0] = 2.0
    y0[1] = 2.0
    out = []
    for c in scales:
        if c <= 0:
            raise ValueError("scales must be positive")
        a, b = c * x0, c * y0
        ratio = lp_distance(mech(a), mech(b), 1.0) / lp_distance(a, b, float("inf"))
        out.append((float(c), float(ratio)))
    return out


def forbidden_region_slope(f, a: float, grid_points: int = 4001) -> float:
    """Max slope of the first output coordinate along the slice x1 + x2 = a.

    Any two-option selector with bounded additive slack must climb steeply
    somewhere on this slice; the probe measures the steepest finite
    difference over a uniform grid on [0, a].
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    ts = np.linspace(0.0, a, grid_points)
    vals = np.array([f(np.array([t, a - t]))[0] for t in ts])
    slopes = np.abs(np.diff(vals)) / np.diff(ts)
    return float(slopes.max())
