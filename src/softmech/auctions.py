"""Reserve-price auction harness with soft-max price selection and IC audit.

The ground mechanisms are posted/second-price auctions at reserve prices on a
geometric grid below the value ceiling H.  A soft-max selector applied to the
per-reserve revenue vector picks the price to run; because the per-bidder
influence on that vector is bounded and the selector is smooth, the combined
mechanism is approximately incentive compatible, which ``ic_audit`` verifies
by exhaustive expected-utility enumeration on small instances.

One outcome rule serves every caller: ``_outcome_rows`` maps rows of bid
profiles and the grid prices to revenues, win indicators and payments at
once.  ``revenue_of_reserve`` and ``revenue_vector`` are its one-row views,
``soft_maximizer`` reads the chosen price's outcome off its grid call, and
``ic_audit`` feeds it every bidder's deviations together, as shared blocks
of rows.

Instance file format: JSON object {"H": number, "k": int, "bids": [numbers]}.
k equal to the number of bidders means unlimited supply (digital goods).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mechanisms import MechanismSpec
from .seeding import spawn_rng
from .simplex import SUPPORT_EPS

_AUDIT_MAX_BIDDERS = 6
_AUDIT_MAX_GRID = 12
# Most deviation bids per bidder in ic_audit.  Its records are kept until
# it returns, about 120 bytes each: a 6-bidder audit at the cap keeps
# 600,000 of them (about 70 MB) and takes seconds.
_AUDIT_MAX_RESOLUTION = 10**5
# Deviation rows per ic_audit block; bounds its (rows, grid, bidders) arrays
# whatever the resolution.
_AUDIT_BLOCK = 1024
# Most prices reserve_grid builds.  A step too small to move the price in
# floats (1 - 1e-300 == 1) would otherwise never reach the floor.
_GRID_CAP = 10**6
# Rounding allowed below worst_case_revenue_check's threshold
_REVENUE_TOL = 1e-9


@dataclass(frozen=True)
class AuctionInstance:
    """Bid profile with value ceiling H and supply of identical items."""

    bids: np.ndarray
    H: float
    supply_k: int

    def __post_init__(self):
        bids = np.asarray(self.bids, dtype=float)
        object.__setattr__(self, "bids", bids)
        if bids.ndim != 1 or bids.size < 1:
            raise ValueError("need at least one bid")
        if not 0 < self.H < np.inf:
            raise ValueError("H must be positive and finite")
        if not np.all(np.isfinite(bids)):
            raise ValueError("bids must be finite")
        if np.any(bids < 0) or np.any(bids > self.H):
            raise ValueError("bids must lie in [0, H]")
        if not 1 <= self.supply_k <= bids.size:
            raise ValueError("supply_k must be in [1, number of bidders]")

    @property
    def n(self) -> int:
        return int(self.bids.size)


def load_auction_json(path) -> AuctionInstance:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        return AuctionInstance(np.asarray(spec["bids"], dtype=float), float(spec["H"]), int(spec["k"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing auction field {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: bad auction field: {exc}") from None


@dataclass(frozen=True)
class PriceGrid:
    """Descending geometric reserve prices H(1-delta)^i down to the floor.

    ``floor_alpha`` is the realized smallest grid price (at or below the
    requested floor).
    """

    prices: np.ndarray
    delta_price: float
    floor_alpha: float
    H: float

    @property
    def size(self) -> int:
        return int(self.prices.size)


def reserve_grid(H: float, delta_price: float, floor_alpha: float) -> PriceGrid:
    """Grid p_i = H(1-delta)^i, stopping at the first price <= floor_alpha.

    Needs a finite H > 0, 0 < delta_price <= 1/2 and 0 < floor_alpha < H;
    the resulting size is at most 2 log(H/alpha)/delta_price.  A grid of
    more than _GRID_CAP prices raises ValueError.
    """
    if not 0 < H < np.inf:
        raise ValueError("H must be positive and finite")
    if not 0 < delta_price <= 0.5:
        raise ValueError("delta_price must be in (0, 1/2]")
    if not 0 < floor_alpha < H:
        raise ValueError("floor_alpha must be in (0, H)")
    prices = []
    p = H
    while True:
        p *= 1.0 - delta_price
        prices.append(p)
        if p <= floor_alpha:
            break
        if len(prices) == _GRID_CAP:
            raise ValueError(f"a grid from {H:.12g} down to {floor_alpha:.12g} in steps of "
                             f"{delta_price:.12g} exceeds {_GRID_CAP} prices")
    return PriceGrid(np.array(prices), delta_price, float(prices[-1]), H)


def _outcome_rows(bids: np.ndarray, prices: np.ndarray,
                  supply_k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ground-auction outcomes of (m, n) bid rows at every grid price.

    Returns revenues (m, g), win indicators (m, g, n) and payments (m, g, n).
    Unlimited supply (k >= n): every bidder at or above r wins and pays r.
    Limited supply: the eligible bidders ranked below k in a stable
    descending sort win (ties to the lower index; the eligible bidders are a
    prefix of that order) and each pays max(r, (k+1)-th highest bid), the
    uniform price that keeps the ground auction truthful.  numpy sums each
    row of payments on its own (left to right below 8 bidders), so every
    revenue equals the sum of its payment row alone, bit for bit.
    """
    r = prices[:, None]
    eligible = bids[:, None, :] >= r
    n = bids.shape[1]
    if supply_k >= n:
        wins = eligible
        price = r
    else:
        order = np.argsort(-bids, axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        wins = eligible & (rank < supply_k)[:, None, :]
        runner_up = np.take_along_axis(bids, order[:, supply_k:supply_k + 1], axis=1)
        price = np.maximum(prices, runner_up)[:, :, None]
    payments = np.where(wins, price, 0.0)
    return payments.sum(axis=-1), wins, payments


def revenue_of_reserve(inst: AuctionInstance, r: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Revenue, win indicators and payments of the reserve-r ground auction
    (the rule of ``_outcome_rows`` on the instance's bids)."""
    if not 0 < r <= inst.H:
        raise ValueError("reserve must be in (0, H]")
    revenue, wins, payments = _outcome_rows(inst.bids[None, :], np.array([float(r)]), inst.supply_k)
    return float(revenue[0, 0]), wins[0, 0], payments[0, 0]


def revenue_vector(inst: AuctionInstance, grid: PriceGrid) -> np.ndarray:
    """Per-grid-price revenue; the input the price selector sees."""
    return _outcome_rows(inst.bids[None, :], grid.prices, inst.supply_k)[0][0]


@dataclass(frozen=True)
class MechanismOutcome:
    chosen_price_index: int
    selection_distribution: np.ndarray
    revenue: float
    allocations: np.ndarray
    payments: np.ndarray


def soft_maximizer(inst: AuctionInstance, grid: PriceGrid, mech: MechanismSpec, rng_seed: int) -> MechanismOutcome:
    """Run the soft-max selector on the revenue vector and realize one price;
    the vector and the chosen price's outcome come from one ``_outcome_rows`` call."""
    revenue, wins, payments = _outcome_rows(inst.bids[None, :], grid.prices, inst.supply_k)
    if grid.size == 1:
        dist = np.array([1.0])
    else:
        dist = mech(revenue[0])
    rng = spawn_rng(rng_seed, 0)
    idx = int(rng.choice(grid.size, p=dist))
    return MechanismOutcome(idx, dist, float(revenue[0, idx]), wins[0, idx], payments[0, idx])


def sensitivity_l1_revenue(grid: PriceGrid) -> float:
    """Worst-case l1 change of the revenue vector when one bid changes.

    One bidder contributes at most p_i to the revenue at each grid price, so
    the total change is at most sum_i H(1-delta)^i <= (1/delta - 1) H.  This
    is the posted-price (unlimited supply) accounting; a limited-supply
    uniform price can move by more.
    """
    return (1.0 / grid.delta_price - 1.0) * grid.H


def ic_epsilon_for(mech: MechanismSpec, grid: PriceGrid, H: float) -> float:
    """Incentive-compatibility slack L * S1(revenue) in H-normalized utility.

    L is the selector's dimension-free (l1, l1)-Lipschitz constant on plain
    values, from the mechanism table: 4/eta for the piecewise-linear selector
    (p=1 bound), 2*lambda for the exponential one.  A unilateral misreport
    moves the revenue vector by at most S1, hence the selection distribution
    by L*S1 in l1, hence any bidder's expected utility (scaled to [0,1] by H)
    by at most L*S1.
    """
    lipschitz = mech.lipschitz_bound("l1", "l1")
    if lipschitz == float("inf"):
        raise ValueError(f"no proven (l1, l1) Lipschitz constant for {mech.kind}, so no IC bound")
    if H <= 0:
        raise ValueError("H must be positive")
    return lipschitz * sensitivity_l1_revenue(grid)


def _expected_utilities(true_values: np.ndarray, bidders: np.ndarray, wins: np.ndarray,
                        payments: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per-row expected utility over the selection rows ``dist`` (m, g), given
    the outcome rows of ``_outcome_rows``: row r is bidder ``bidders[r]``'s,
    whose true value is ``true_values[r]``.

    Sums over the grid column by column, in grid order, adding nothing where
    the price has probability 0 or the bidder loses, so each row's total is
    the same float as a scalar loop over the grid would give.
    """
    rows = np.arange(dist.shape[0])
    won, paid = wins[rows, :, bidders], payments[rows, :, bidders]
    terms = np.where((dist != 0.0) & won, dist * (true_values[:, None] - paid), 0.0)
    total = np.zeros(dist.shape[0])
    for column in terms.T:
        total += column
    return total


def ic_audit(inst: AuctionInstance, grid: PriceGrid, mech: MechanismSpec,
             resolution: int = 101) -> tuple[float, list[tuple[int, float, float]]]:
    """Exhaustive deviation audit: max H-normalized expected-utility gain.

    For every bidder and every deviation bid on a uniform grid of [0, H],
    computes the exact expected utility (sum over the selection distribution)
    against truthful reporting.  Returns the max gain and per-deviation
    records (bidder, deviation_bid, utility_gain).  Instances beyond 6
    bidders or 12 grid prices, and resolutions beyond 10**5, are refused
    before any work; the enumeration is exact, no sampling is involved.

    Every (bidder, deviation) pair is one bid row, and the rows, bidder-major
    and in deviation order, run as shared blocks of at most ``_AUDIT_BLOCK``:
    one ``_outcome_rows`` call, one row-form selector call and one utility
    pass per block, so the working arrays do not grow with ``resolution``.
    The truthful outcome and its distribution are computed once and give
    every bidder's base utility.  Every record equals the one a
    per-deviation loop over single profiles gives.
    """
    if inst.n > _AUDIT_MAX_BIDDERS or grid.size > _AUDIT_MAX_GRID:
        raise ValueError(
            f"audit capacity exceeded (n <= {_AUDIT_MAX_BIDDERS}, grid <= {_AUDIT_MAX_GRID})"
        )
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if resolution > _AUDIT_MAX_RESOLUTION:
        raise ValueError(f"resolution {resolution} above the cap {_AUDIT_MAX_RESOLUTION}")
    prices, k, n = grid.prices, inst.supply_k, inst.n
    revenue, wins, payments = _outcome_rows(inst.bids[None, :], prices, k)
    truthful_dist = mech.rows(revenue)
    truthful = [np.broadcast_to(a, (n,) + a.shape[1:]) for a in (wins, payments, truthful_dist)]
    base = _expected_utilities(inst.bids, np.arange(n), *truthful)
    devs = np.linspace(0.0, inst.H, resolution)
    records = []
    max_gain = 0.0
    for start in range(0, n * resolution, _AUDIT_BLOCK):
        bidders, dev_index = np.divmod(np.arange(start, min(start + _AUDIT_BLOCK, n * resolution)), resolution)
        block = devs[dev_index]
        reported = np.repeat(inst.bids[None, :], block.size, axis=0)
        reported[np.arange(block.size), bidders] = block
        dev_revenue, dev_wins, dev_payments = _outcome_rows(reported, prices, k)
        dist = mech.rows(dev_revenue)
        utilities = _expected_utilities(inst.bids[bidders], bidders, dev_wins, dev_payments, dist)
        gains = (utilities - base[bidders]) / inst.H
        records.extend(zip(bidders.tolist(), block.tolist(), gains.tolist()))
        max_gain = max(max_gain, float(gains.max()))
    return max_gain, records


def worst_case_revenue_check(inst: AuctionInstance, grid: PriceGrid, mech: MechanismSpec,
                             eta: float | None = None) -> bool:
    """True iff every price in the selector's support earns at least
    (1 - delta_price) * best-grid-revenue - eta.

    The discretization forfeits a (1 - delta_price) factor and the soft
    selection forfeits eta; a selector with the worst-case claim on plain
    values (plsoftmax) meets this on every realizable outcome, while a
    full-support selector generally does not.  eta defaults to that
    selector's parameter.
    """
    if eta is None:
        if not mech.worst_case or mech.positive_domain:
            raise ValueError("eta must be given explicitly for selectors without a worst-case claim on plain values")
        eta = mech.param
    x = revenue_vector(inst, grid)
    dist = mech(x)
    support = dist > SUPPORT_EPS
    threshold = (1.0 - grid.delta_price) * float(x.max()) - eta - _REVENUE_TOL
    return bool(np.all(x[support] >= threshold))


def write_audit_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bidder,deviation_bid,utility_gain\n")
        for bidder, dev, gain in records:
            fh.write(f"{bidder},{dev:.12g},{gain:.12g}\n")
