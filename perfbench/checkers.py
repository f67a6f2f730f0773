"""Output checks.  Each returns a list of problems; an empty list means the
output passed.  The tests in ``tests/`` feed every check a corrupted output."""

from __future__ import annotations

import csv
import io

import numpy as np

import refs

SELECTOR_TOL = 1e-9  # max abs difference from the reference distribution
SIMPLEX_TOL = 1e-12
WITNESS_RTOL = 1e-6  # relative, for re-evaluating a witness ratio
GRAD_TOL = 1e-4
RESIDUAL_TOL = 1e-12
PRINTED_TOL = 1e-9  # values the CLI printed with 12 significant digits


def check_simplex(p) -> list[str]:
    """Each row (the last axis) is a probability vector."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        return ["non-finite probability"]
    problems = []
    if p.min() < 0:
        problems.append(f"negative probability {p.min():.3g}")
    drift = float(np.abs(p.sum(axis=-1) - 1.0).max())
    if drift > SIMPLEX_TOL:
        problems.append(f"probabilities sum to 1 +- {drift:.3g}")
    return problems


def check_selector(kind: str, param, x, p, ref=None) -> list[str]:
    """Simplex, match with the reference, and the support rule; x, p and ref
    are one vector or rows of vectors."""
    problems = check_simplex(p)
    if problems:
        return problems
    p = np.asarray(p, dtype=float)
    if ref is None:
        ref = np.apply_along_axis(lambda v: refs.selector_ref(kind, param, v), -1, x)
    gap = float(np.abs(p - ref).max())
    if gap > SELECTOR_TOL:
        problems.append(f"{kind} d={p.shape[-1]}: differs from reference by {gap:.3g}")
    return problems + check_support(kind, param, x, p)


def check_support(kind: str, param, x, p) -> list[str]:
    """plsoftmax and logplsoftmax put weight only within delta of the max."""
    if kind not in ("plsoftmax", "logplsoftmax"):
        return []
    base = np.log(x) if kind == "logplsoftmax" else np.asarray(x, dtype=float)
    far = (np.asarray(p) > 0) & (base < base.max(axis=-1, keepdims=True) - param - 1e-12)
    if np.any(far):
        return [f"{kind}: weight {np.asarray(p)[far].sum():.3g} more than delta below the max"]
    return []


def check_translation(p_offset, p_shifted) -> list[str]:
    """The output for x + c must equal the output for x - max(x)."""
    gap = float(np.abs(np.asarray(p_offset) - np.asarray(p_shifted)).max())
    return [] if gap <= SELECTOR_TOL else [f"offset input moved the output by {gap:.3g}"]


def check_lipschitz(kind: str, param, d: int, domain: str, range_: str, est) -> list[str]:
    """Estimate within [witness floor, proven bound], and the returned witness
    pair, re-evaluated with the references, reproduces the estimate."""
    dom, p = refs.metric_ref(domain)
    rng_dist, q = refs.metric_ref(range_)
    problems = []
    value = float(est.max_ratio)
    bound = refs.lipschitz_bound(kind, param, d, p, q)
    if not value <= bound * (1 + 1e-9) + 1e-12:
        problems.append(f"estimate {value!r} above the proven bound {bound!r}")
    floor = refs.lipschitz_floor(kind, param, d, p, q)
    if not (value >= floor and value > 0):
        problems.append(f"estimate {value!r} below the witness floor {floor!r}")
    wx, wy = np.asarray(est.witness_x), np.asarray(est.witness_y)
    again = rng_dist(refs.selector_ref(kind, param, wx), refs.selector_ref(kind, param, wy)) / dom(wx, wy)
    if not abs(again - value) <= WITNESS_RTOL * max(1.0, abs(value)):
        problems.append(f"witness pair gives {again!r}, estimate says {value!r}")
    return problems


def check_loss(grad_error, loss_at_x: float, residual_at_ref: float) -> list[str]:
    """grad_error None is a skipped non-smooth point, not a failure."""
    problems = []
    if grad_error is not None and not grad_error <= GRAD_TOL:
        problems.append(f"gradient error {grad_error!r} above {GRAD_TOL}")
    if not loss_at_x >= 0:
        problems.append(f"negative loss {loss_at_x!r}")
    if not residual_at_ref <= RESIDUAL_TOL:
        problems.append(f"loss at the reference plsoftmax is {residual_at_ref!r}")
    return problems


def check_auction(payload: dict, bids, H: float, grid_delta: float, grid_size: int, delta: float,
                  audit_csv: str, audit_rows: int) -> list[str]:
    """Grid, selection = reference plsoftmax of the reference revenue vector,
    audit gain within epsilon, and the audit file agreeing with the payload."""
    problems = []
    prices = payload["grid_prices"]
    want = [H * (1.0 - grid_delta) ** (i + 1) for i in range(grid_size)]
    if len(prices) != grid_size or not np.allclose(prices, want, rtol=PRINTED_TOL, atol=0):
        problems.append(f"grid prices {prices} differ from {want}")
        return problems
    revenue = [refs.unlimited_revenue(bids, p) for p in prices]
    ref = refs.plsoftmax_ref(revenue, delta)
    gap = float(np.abs(np.asarray(payload["selection_distribution"]) - ref).max())
    if gap > PRINTED_TOL:
        problems.append(f"selection differs from reference plsoftmax of the revenue by {gap:.3g}")
    gain, eps = payload["audit_max_gain"], payload["epsilon_ic"]
    if not gain <= eps:
        problems.append(f"audit gain {gain!r} above epsilon {eps!r}")
    rows = list(csv.DictReader(io.StringIO(audit_csv)))
    if len(rows) != audit_rows:
        problems.append(f"audit file has {len(rows)} rows, expected {audit_rows}")
    elif abs(max(0.0, max(float(r["utility_gain"]) for r in rows)) - gain) > PRINTED_TOL:
        problems.append("audit file max gain differs from audit_max_gain")
    return problems


def check_frontier(frontier_csv: str, mechs: list[str], seeds: list[int]) -> tuple[list[str], list[dict]]:
    """One row per (mechanism, seed) in order, 0 <= linf <= l1 <= 2, obj_ratio > 0."""
    rows = list(csv.DictReader(io.StringIO(frontier_csv)))
    want = [(m, s) for m in mechs for s in seeds]
    got = [(r["mechanism"], int(r["seed"])) for r in rows]
    if got != want:
        return [f"frontier rows {got} differ from {want}"], rows
    problems = []
    for r in rows:
        l1, linf, ratio = float(r["l1_dist"]), float(r["linf_dist"]), float(r["obj_ratio"])
        if not 0 <= linf <= l1 * (1 + PRINTED_TOL) <= 2 * (1 + PRINTED_TOL):
            problems.append(f"row {r['mechanism']} seed {r['seed']}: linf {linf!r}, l1 {l1!r}")
        if not ratio > 0:
            problems.append(f"row {r['mechanism']} seed {r['seed']}: obj_ratio {ratio!r}")
    return problems, rows


def check_l1_row(row: dict, kind: str, param: float, sets, thinned_sets) -> list[str]:
    """The row's l1_dist recomputed from Python-set first-step gains."""
    gains = np.array(refs.first_step_gains(sets), dtype=float)
    thinned = np.array(refs.first_step_gains(thinned_sets), dtype=float)
    l1 = float(np.abs(refs.selector_ref(kind, param, gains) - refs.selector_ref(kind, param, thinned)).sum())
    printed = float(row["l1_dist"])
    if abs(printed - l1) > PRINTED_TOL * max(1.0, l1):
        return [f"row {kind} seed {row['seed']}: l1_dist {printed!r}, recomputed {l1!r}"]
    return []
