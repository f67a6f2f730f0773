"""Empirical Lipschitz estimation and lower-bound witness constructions.

``empirical_lipschitz`` measures the largest observed ratio
range_distance(f(x), f(y)) / domain_distance(x, y) over three seeded pair
families: independent random pairs, single-coordinate perturbations at three
step sizes, and pairs straddling the sort-order / active-count seams of the
piecewise-linear selector.  The estimate is a certified lower bound on the
true Lipschitz constant; ``theoretical_bound`` gives the proven upper bounds
it is checked against.

The witness constructors return concrete input pairs at which any mechanism
of the relevant class must exhibit a known minimum of output movement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .distances import lp_distance, metric_exponent, metric_from_id, parse_metric_id, pq_bound_factor
from .mechanisms import MECHANISM_KINDS, MechanismSpec
from .seeding import spawn_rngs

_PERTURB_STEPS = (1e-2, 1e-4, 1e-6)
_BOUNDARY_STEP = 1e-6
_WITNESS_STEP = 1e-4
_BLOCK_ROWS = 256  # pairs evaluated together: row-wise speed, memory bounded whatever the trial count


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

    def to_json(self) -> str:
        payload = {
            "mechanism": self.mechanism,
            "domain_metric": self.domain_metric,
            "range_metric": self.range_metric,
            "trials": self.trials,
            "max_ratio": "inf" if np.isinf(self.max_ratio) else self.max_ratio,
            "witness_x": [float(v) for v in self.witness_x],
            "witness_y": [float(v) for v in self.witness_y],
        }
        return json.dumps(payload, sort_keys=True)


def _to_domain(z: np.ndarray, positive: bool) -> np.ndarray:
    return np.exp(z) if positive else z


def _random_pair(rng, d, scale, positive):
    x = rng.normal(0.0, scale, size=d)
    y = rng.normal(0.0, scale, size=d)
    return _to_domain(x, positive), _to_domain(y, positive)


def _perturbation_pair(rng, d, scale, positive, step):
    x = rng.normal(0.0, scale, size=d)
    y = x.copy()
    y[rng.integers(d)] += step
    return _to_domain(x, positive), _to_domain(y, positive)


def _boundary_pair(rng, d, scale, positive, delta):
    """Pair with gap 1e-6 in the sup norm, straddling a selector seam.

    For delta-parameterized mechanisms (delta not None) the straddle crosses
    the active-count boundary (a coordinate placed just inside/outside
    max - delta); otherwise it crosses an order-change boundary (two
    coordinates swapping rank).
    """
    z = rng.normal(0.0, scale, size=d)
    h = _BOUNDARY_STEP
    if delta is not None and d >= 2:
        order = np.argsort(-z, kind="stable")
        j = int(rng.integers(1, d))
        edge = z[order[0]] - delta
        a, b = z.copy(), z.copy()
        a[order[j]] = edge + h / 2
        b[order[j]] = edge - h / 2
        return _to_domain(a, positive), _to_domain(b, positive)
    i, j = rng.choice(d, size=2, replace=False)
    mid = (z[i] + z[j]) / 2
    a, b = z.copy(), z.copy()
    a[i], a[j] = mid + h / 2, mid - h / 2
    b[i], b[j] = mid - h / 2, mid + h / 2
    return _to_domain(a, positive), _to_domain(b, positive)


def _designed_pairs(mech: MechanismSpec, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    if mech.kind == "exp":
        pairs.append(exp_l1_lb_witness(d, mech.param))
    if mech.kind == "sparsemax" and d % 2 == 0:
        x, y, _ = sparsegen_lb_witness(d, 2.0)
        pairs.append((x, y))
    return pairs


def _drawn_pairs(mech: MechanismSpec, d: int, trials: int, rng_seed: int):
    """The designed pairs, then one pair per trial from the generator of
    spawn_rng(rng_seed, i), here from spawn_rngs, cycling the three families,
    three scales and three steps."""
    positive = mech.positive_domain
    name = MECHANISM_KINDS[mech.kind].param if mech.kind in MECHANISM_KINDS else None
    delta = mech.param if name == "delta" else None  # plsoftmax kinds: seam at max - delta
    base_scale = delta if delta is not None else 1.0 / mech.param if name == "lambda" else 1.0
    yield from _designed_pairs(mech, d)
    for i, rng in enumerate(spawn_rngs(rng_seed, 0, trials)):
        scale = base_scale * (0.5, 1.0, 2.0)[(i // 3) % 3]
        family = i % 3
        if family == 0:
            yield _random_pair(rng, d, scale, positive)
        elif family == 1:
            step = _PERTURB_STEPS[(i // 3) % len(_PERTURB_STEPS)]
            yield _perturbation_pair(rng, d, scale, positive, step)
        else:
            yield _boundary_pair(rng, d, scale, positive, delta)


def empirical_lipschitz(
    mech: MechanismSpec,
    d: int,
    domain_metric: str,
    range_metric: str,
    trials: int,
    rng_seed: int,
) -> LipschitzEstimate:
    """Max observed distance ratio for mech over seeded pair families.

    Deterministic per seed: trial i draws from a generator derived from
    (rng_seed, i).  Pairs are evaluated in blocks of rows: one row-wise
    domain distance, one row-wise selector call on each side (a mechanism
    outside ``MECHANISM_KINDS`` is called row by row), one row-wise range
    distance.  The first pair with the largest ratio is the witness; a nan
    ratio never wins.  An infinite range distance is recorded as a +inf
    estimate with its witness; it signals a non-Lipschitz metric pairing
    rather than an error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dom = metric_from_id(domain_metric)
    rng_m = metric_from_id(range_metric)
    kind = MECHANISM_KINDS.get(mech.kind)

    def select(rows):
        if kind is None:
            return np.array([mech(row) for row in rows])
        return kind.rows(rows, mech.param)

    best = -1.0
    witness = None
    evaluated = drawn = 0
    pairs = _drawn_pairs(mech, d, trials, rng_seed)
    while block := list(islice(pairs, _BLOCK_ROWS)):
        drawn += len(block)
        x = np.array([a for a, _ in block])
        y = np.array([b for _, b in block])
        dxy = dom(x, y)  # nan where a row is outside the metric's domain
        used = np.isfinite(dxy) & (dxy != 0.0)
        if not used.any():
            continue
        x, y, dxy = x[used], y[used], dxy[used]
        rxy = rng_m(select(x), select(y))
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


def theoretical_bound(mech: MechanismSpec, d: int, p: float, q_or_alpha: float) -> float:
    """Proven Lipschitz upper bound for the mechanisms that carry one.

    exp: 2*lambda against any Renyi order (hence also against l1).
    plsoftmax: (2/delta) * min(p+1, q/(q-1), log d) against l_q.
    Everything else: +inf (no claim).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if mech.kind == "exp":
        return 2.0 * mech.param
    if mech.kind == "plsoftmax":
        return (2.0 / mech.param) * pq_bound_factor(p, q_or_alpha, float(np.log(d)))
    return float("inf")


def bound_for_metrics(mech: MechanismSpec, d: int, domain_metric: str, range_metric: str) -> float:
    """theoretical_bound dispatched on metric ids.

    The exponential bound 2*lambda covers every Renyi range order and, by the
    two-sided divergence domination of l1, every l_q range as well.  The
    piecewise-linear bound applies only to plain l_q ranges; pairing it with
    a divergence yields no claim (+inf), as no worst-case-approximate
    selector is divergence-Lipschitz.
    """
    if mech.kind == "plsoftmax" and parse_metric_id(range_metric)[0] == "renyi":
        return float("inf")
    return theoretical_bound(mech, d, metric_exponent(domain_metric), metric_exponent(range_metric))


def kl_lb_witness(d: int, delta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Pair forcing KL movement in any delta-approximate selector.

    x is the all-zero vector, y bumps one coordinate to 2*delta.  Any
    permutation-invariant delta-approximate selector must put mass at least
    1 - 1/2 on the bumped coordinate, which costs KL >= (log d - 2)/2 against
    the uniform output at x.  Requires d >= 4.
    """
    if d < 4:
        raise ValueError("d must be >= 4")
    if delta <= 0:
        raise ValueError("delta must be positive")
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
    if lam <= 0:
        raise ValueError("lambda must be positive")
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


def measured_ratio(f, x, y, domain_p: float, range_q: float = 1.0) -> float:
    """Output-to-input distance ratio of f at a concrete pair."""
    return lp_distance(f(x), f(y), range_q) / lp_distance(x, y, domain_p)


def multiplicative_lb_probe(
    mech: MechanismSpec, d: int, scales, mode: str = "scale"
) -> list[tuple[float, float]]:
    """(l_inf, l_1) distance ratios of mech at a fixed pair shrunk (or shifted).

    In scale mode the pair (c*x0, c*y0) with distinct argmaxes has constant
    output distance for a scale-invariant mechanism while the input distance
    shrinks with c, so the ratio grows like 1/c: no plain-norm Lipschitz
    constant can hold.  In shift mode (x0 + c, y0 + c) the ratio of a
    translation-invariant mechanism stays flat.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if mode not in ("scale", "shift"):
        raise ValueError("mode must be 'scale' or 'shift'")
    if mode == "scale" and not mech.scale_invariant:
        raise ValueError("scale probe expects a scale-invariant mechanism (pow or logplsoftmax)")
    x0 = np.ones(d)
    y0 = np.ones(d)
    x0[0] = 2.0
    y0[1] = 2.0
    out = []
    for c in scales:
        if mode == "scale":
            if c <= 0:
                raise ValueError("scales must be positive")
            a, b = c * x0, c * y0
        else:
            a, b = x0 + c, y0 + c
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
