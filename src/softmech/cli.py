"""Command-line experiment runner.

Subcommands: eval, lipschitz, submodular, auction, lossfn, selftest.  Every
command is deterministic given its flags: a master seed fans out to sub-task
i through SeedSequence(master, spawn_key=(i,)), floats are printed with 12
significant digits and '.' decimals, and repeated runs produce byte-identical
output files.  Exit code is 0 iff every invariant check the command performs
passes; a machine-readable JSON summary line is always printed last.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter

import numpy as np

from . import auctions, classification, distances, smmatrix, smoothness, submodular
from .mechanisms import (
    MechanismSpec,
    additive_gap,
    multiplicative_gap,
    plsoftmax,
    worst_case_support_ok,
)
from .seeding import spawn_rng
from .simplex import SUPPORT_EPS, check_distribution


def _fmt(v) -> str:
    v = float(v)
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _vec(values) -> str:
    return ";".join(_fmt(v) for v in values)


# Most seeds one list may name; each seed runs a whole experiment.
_SEED_CAP = 10**5
# Most float64 entries in the largest array of a lipschitz or lossfn run
# (32 MB).  Each command's --d cap follows from its largest array: a lab
# block's (rows, 2d) normals, and the (2d, d) step matrix of
# classification.subgradient_check.
_ARRAY_ENTRIES = 2**22
_LIPSCHITZ_D_CAP = _ARRAY_ENTRIES // (2 * smoothness._BLOCK_ROWS)  # 8192
_LOSSFN_D_CAP = math.isqrt(_ARRAY_ENTRIES // 2)  # 1448
# Most trials per seed.  Both commands draw and evaluate trials in blocks,
# so memory does not grow with --trials; the cap bounds a seed's loops
# (about 20 us per lab trial at d = 4 and 100 us per lossfn trial at d = 8).
_TRIAL_CAP = 10**7


def parse_seeds(text: str) -> list[int]:
    """Comma list with ranges: "0,5,10-12" -> [0, 5, 10, 11, 12].

    A list of more than _SEED_CAP seeds raises ValueError before any range
    is expanded.
    """
    bounds: list[tuple[int, int]] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok[1:]:
            lo, _, hi = tok.partition("-")
            bounds.append((int(lo), int(hi)))
        else:
            bounds.append((int(tok), int(tok)))
    if sum(max(0, hi - lo + 1) for lo, hi in bounds) > _SEED_CAP:
        raise ValueError(f"seed list names more than {_SEED_CAP} seeds")
    seeds = [seed for lo, hi in bounds for seed in range(lo, hi + 1)]
    if not seeds:
        raise ValueError("seed list is empty")
    return seeds


def parse_vector(text: str) -> np.ndarray:
    toks = text.replace(",", " ").split()
    if not toks:
        raise ValueError("empty vector")
    return np.array([float(t) for t in toks])


def read_vector_file(path: str) -> np.ndarray:
    values = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values.extend(float(t) for t in line.replace(",", " ").split())
            except ValueError:
                raise ValueError(f"{path}: line {ln}: not a number: {line.strip()!r}") from None
    if not values:
        raise ValueError(f"{path}: no values found")
    return np.array(values)


def _check_sizes(args, d_cap: int) -> None:
    """Refuse --d above d_cap and --trials above _TRIAL_CAP, before any allocation or draw."""
    if args.d > d_cap:
        raise ValueError(f"d {args.d} above the cap {d_cap}")
    if args.trials > _TRIAL_CAP:
        raise ValueError(f"trials {args.trials} above the cap {_TRIAL_CAP}")


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool):
        self.results.append((name, bool(ok)))

    def finish(self, command: str, **counts) -> int:
        """Print the JSON summary line, with any work counts, and return the exit code."""
        failures = [name for name, ok in self.results if not ok]
        summary = {"command": command, "checks": len(self.results), "failures": failures, **counts}
        print(json.dumps(summary, sort_keys=True))
        return 1 if failures else 0


def _is_distribution(probs) -> bool:
    """Whether check_distribution accepts a selector's output."""
    try:
        check_distribution(probs)
    except ValueError:
        return False
    return True


def cmd_eval(args) -> int:
    checks = Checks()
    mech = MechanismSpec.parse(args.mech)
    x = read_vector_file(args.x_file) if args.x_file is not None else parse_vector(args.x)
    if x.size < 2:
        raise ValueError("need at least 2 option values")
    probs = mech(x)
    checks.add("simplex_valid", _is_distribution(probs))
    add_gap = additive_gap(x, probs)
    mult_gap = multiplicative_gap(x, probs) if x.max() > 0 else float("nan")
    support = int(np.count_nonzero(probs > SUPPORT_EPS))
    if mech.worst_case:
        base = np.log(x) if mech.positive_domain else x
        checks.add("worst_case_support", worst_case_support_ok(base, probs, mech.param))
    if args.format == "json":
        payload = {
            "mechanism": mech.label(),
            "probs": [float(f"{p:.12g}") for p in probs],
            "additive_gap": float(f"{add_gap:.12g}"),
            "multiplicative_gap": None if np.isnan(mult_gap) else float(f"{mult_gap:.12g}"),
            "support_size": support,
        }
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = ["mechanism,additive_gap,multiplicative_gap,support_size,probs\n"]
        mg = "" if np.isnan(mult_gap) else _fmt(mult_gap)
        lines.append(f"{mech.label()},{_fmt(add_gap)},{mg},{support},{_vec(probs)}\n")
        _write(args.out, "".join(lines))
    return checks.finish("eval")


def cmd_lipschitz(args) -> int:
    _check_sizes(args, _LIPSCHITZ_D_CAP)
    checks = Checks()
    mech = MechanismSpec.parse(args.mech)
    p = distances.parse_metric_id(args.domain)[1]
    q = distances.parse_metric_id(args.range)[1]
    bound = mech.lipschitz_bound(args.domain, args.range, args.d)
    rows = []
    pairs = {"evaluated": 0, "skipped": 0}
    for seed in parse_seeds(args.seeds):
        est = smoothness.empirical_lipschitz(mech, args.d, args.domain, args.range, args.trials, seed)
        pairs["evaluated"] += est.trials
        pairs["skipped"] += est.skipped
        if np.isfinite(bound):
            checks.add(f"estimate_below_bound_seed{seed}", est.max_ratio <= bound + 1e-9)
        rows.append(
            {
                "mechanism": mech.label(),
                "domain_metric": args.domain,
                "range_metric": args.range,
                "seed": seed,
                "trials": est.trials,
                "estimate": _fmt(est.max_ratio),
                "bound": _fmt(bound),
                "witness_x": [_fmt(v) for v in est.witness_x],
                "witness_y": [_fmt(v) for v in est.witness_y],
            }
        )
    if args.format == "json":
        _write(args.out, json.dumps({"p": _fmt(p), "q": _fmt(q), "rows": rows}, sort_keys=True) + "\n")
    else:
        lines = [",".join(rows[0]) + "\n"]
        lines += [",".join(";".join(v) if isinstance(v, list) else str(v) for v in row.values()) + "\n" for row in rows]
        _write(args.out, "".join(lines))
    return checks.finish("lipschitz", pairs=pairs)


def cmd_submodular(args) -> int:
    checks = Checks()
    if args.instance_file:
        inst = submodular.load_set_family(args.instance_file)
    else:
        inst = submodular.synthetic_coverage_instance(args.num_sets, args.universe, args.instance_seed)
    seeds = parse_seeds(args.seeds)
    mechs = [MechanismSpec.parse(text) for text in args.mechs.split(",")]
    work = Counter()
    records = submodular.manipulation_records(inst, args.k, mechs, args.drop_prob, seeds, work=work)
    rows = ["mechanism,param,seed,obj_ratio,l1_dist,linf_dist\n"]
    for i, rec in enumerate(records):
        if args.drop_prob == 0:
            label = mechs[i // len(seeds)].label()
            checks.add(f"zero_drop_zero_distance_{label}_s{rec['seed']}", rec["l1_dist"] == 0.0)
        rows.append(
            f"{rec['mechanism']},{_fmt(rec['param'])},{rec['seed']},"
            f"{_fmt(rec['obj_ratio'])},{_fmt(rec['l1_dist'])},{_fmt(rec['linf_dist'])}\n"
        )
    _write(args.out, "".join(rows))
    return checks.finish("submodular", work=dict(work))


def cmd_auction(args) -> int:
    checks = Checks()
    inst = auctions.load_auction_json(args.instance_file)
    grid = auctions.reserve_grid(inst.H, args.grid_delta, args.grid_floor)
    mech = MechanismSpec.parse(args.mech)
    outcome = auctions.soft_maximizer(inst, grid, mech, args.seed)
    util = inst.bids * outcome.allocations - outcome.payments
    checks.add("individual_rationality", bool(np.all(util >= -1e-12)))
    payload = {
        "mechanism": mech.label(),
        "grid_prices": [float(f"{p:.12g}") for p in grid.prices],
        "selection_distribution": [float(f"{p:.12g}") for p in outcome.selection_distribution],
        "chosen_price_index": outcome.chosen_price_index,
        "chosen_price": float(f"{grid.prices[outcome.chosen_price_index]:.12g}"),
        "revenue": float(f"{outcome.revenue:.12g}"),
    }
    if np.isfinite(mech.lipschitz_bound("l1", "l1")):
        epsilon = auctions.ic_epsilon_for(mech, grid, inst.H)
        payload["epsilon_ic"] = float(f"{epsilon:.12g}")
    if mech.worst_case and not mech.positive_domain:
        ok = auctions.worst_case_revenue_check(inst, grid, mech)
        payload["worst_case_revenue_ok"] = ok
        checks.add("worst_case_revenue", ok)
    if args.audit:
        max_gain, records = auctions.ic_audit(inst, grid, mech, args.resolution)
        payload["audit_max_gain"] = float(f"{max_gain:.12g}")
        if "epsilon_ic" in payload:
            checks.add("audit_gain_below_epsilon", max_gain <= payload["epsilon_ic"] + 1e-9)
        if args.audit_out:
            auctions.write_audit_csv(records, args.audit_out)
    _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return checks.finish("auction")


# Random draws allowed per wanted gradient check; draws near a hinge corner
# are skipped, and with a tiny delta nearly all of them are.
_DRAWS_PER_GRADIENT_CHECK = 20


def cmd_lossfn(args) -> int:
    if args.d < 1:
        raise ValueError("d must be >= 1")
    _check_sizes(args, _LOSSFN_D_CAP)
    checks = Checks()
    rows = ["seed,convexity_violation,zero_iff_residual,subgradient_error\n"]
    points = {"checked": 0, "skipped_near_hinge": 0}
    for seed in parse_seeds(args.seeds):
        uniform = np.full(args.d, 1.0 / args.d)
        conv = classification.convexity_probe(uniform, args.delta, args.trials, seed)
        rng = spawn_rng(seed, 0)
        wanted = max(1, args.trials // 10)
        resid = max(
            classification.zero_iff_residual(rng.normal(0.0, 2.0 * args.delta, size=args.d), args.delta)
            for _ in range(wanted)
        )
        sub, checked, draws = 0.0, 0, 0
        while checked < wanted and draws < _DRAWS_PER_GRADIENT_CHECK * wanted:
            draws += 1
            x = rng.normal(0.0, 2.0 * args.delta, size=args.d)
            q = plsoftmax(rng.normal(0.0, 2.0 * args.delta, size=args.d), args.delta)
            err = classification.subgradient_check(x, q, args.delta)
            if err is not None:
                sub = max(sub, err)
                checked += 1
        if not checked:
            sub = float("nan")  # no smooth point found: the check fails
        points["checked"] += checked
        points["skipped_near_hinge"] += draws - checked
        checks.add(f"convexity_seed{seed}", conv <= 1e-9)
        checks.add(f"zero_iff_seed{seed}", resid <= 1e-12)
        checks.add(f"subgradient_seed{seed}", sub <= 1e-4)
        rows.append(f"{seed},{_fmt(conv)},{_fmt(resid)},{_fmt(sub)}\n")
    _write(args.out, "".join(rows))
    return checks.finish("lossfn", subgradient_points=points)


def cmd_selftest(args) -> int:
    checks = Checks()
    sm = smmatrix.build_softmax_matrix(4, 4)
    checks.add("sm44_first_row", sm.to_float()[0].tolist() == [3 / 4, -1 / 2, -1 / 6, -1 / 12])
    checks.add("sm_recursion", all(smmatrix.recursion_identity_exact(k, 16) for k in range(2, 17)))
    rng = spawn_rng(args.seed, 0)
    ok_simplex = ok_support = True
    for _ in range(500):
        x = rng.normal(0.0, 2.0, size=int(rng.integers(2, 17)))
        probs = plsoftmax(x, 1.0)
        ok_simplex &= _is_distribution(probs)
        ok_support &= worst_case_support_ok(x, probs, 1.0)
    checks.add("plsoftmax_simplex", ok_simplex)
    checks.add("plsoftmax_worst_case_support", ok_support)
    mech = MechanismSpec("plsoftmax", 1.0)
    est = smoothness.empirical_lipschitz(mech, 8, "l2", "l2", 300, args.seed)
    checks.add("plsoftmax_l2_bound", est.max_ratio <= mech.lipschitz_bound("l2", "l2", 8) + 1e-9)
    A = smmatrix.build_softmax_matrix(3, 3).to_float()
    exact = distances.subordinate_norm_exact(A, 2)
    lo = distances.subordinate_norm_sampled(A, 2, 1, 200, args.seed)
    hi = distances.subordinate_norm_row_bound(A, 2, 1)
    checks.add("norm_sandwich", lo <= exact + 1e-9 and exact <= hi + 1e-9)
    resid = max(classification.zero_iff_residual(rng.normal(0.0, 2.0, size=6), 1.0) for _ in range(50))
    checks.add("loss_zero_iff", resid <= 1e-12)
    inst = auctions.AuctionInstance(np.array([0.9, 0.4]), 1.0, 2)
    grid = auctions.reserve_grid(1.0, 0.5, 0.1)
    gain, _ = auctions.ic_audit(inst, grid, MechanismSpec("plsoftmax", 2.0), 21)
    checks.add("auction_audit", gain <= auctions.ic_epsilon_for(MechanismSpec("plsoftmax", 2.0), grid, 1.0) + 1e-9)
    for name, ok in checks.results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return checks.finish("selftest")


class _UsageError(Exception):
    """A bad command line, reported as a JSON error line instead of argparse's exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="softmech",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a mechanism on one value vector")
    p.add_argument("--mech", required=True, help="mechanism spec, e.g. plsoftmax:delta=1")
    values = p.add_mutually_exclusive_group(required=True)
    values.add_argument("--x", help="inline vector, e.g. 0.5,0")
    values.add_argument("--x-file", help="file with one whitespace/comma separated vector")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("lipschitz", help="empirical Lipschitz estimates vs proven bounds")
    p.add_argument("--mech", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--domain", default="linf", help="domain metric id (l1, l2, linf, lp:P, log-l2, ...); "
                   "the log metrics carry the claims of the positive-value kinds, pow and logplsoftmax")
    p.add_argument("--range", default="l1", help="range metric id (adds kl, dinf, renyi:A)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seeds", default="0")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("submodular", help="manipulation-robustness frontier on a coverage instance")
    p.add_argument("--instance-file", help="set-family text file (one set per line)")
    p.add_argument("--num-sets", type=int, default=30)
    p.add_argument("--universe", type=int, default=200)
    p.add_argument("--instance-seed", type=int, default=0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--mechs", required=True, help="comma list of mechanism specs (exp/pow)")
    p.add_argument("--drop-prob", type=float, default=1e-3)
    p.add_argument("--seeds", default="0-19")
    p.add_argument("--out")

    p = sub.add_parser("auction", help="soft-max reserve selection with optional IC audit")
    p.add_argument("--instance-file", required=True, help='JSON {"H":..,"k":..,"bids":[..]}')
    p.add_argument("--grid-delta", type=float, default=0.25)
    p.add_argument("--grid-floor", type=float, default=0.05)
    p.add_argument("--mech", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--audit-out")
    p.add_argument("--out")

    p = sub.add_parser("lossfn", help="convexity / zero-residual / gradient probes of the loss")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seeds", default="0")
    p.add_argument("--out")

    p = sub.add_parser("selftest", help="quick invariant smoke test")
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _error(command: str | None, exc: Exception) -> int:
    print(json.dumps({"command": command, "error": str(exc)}, sort_keys=True))
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        # the subcommand, when it is the first argument, even if its options are bad
        return _error(argv[0] if argv and f"cmd_{argv[0]}" in globals() else None, exc)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, so a replaced cmd_* is used
    try:
        return command(args)
    except (ValueError, OSError, AssertionError) as exc:
        return _error(args.command, exc)


if __name__ == "__main__":
    sys.exit(main())
