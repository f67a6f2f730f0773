"""Cost of one selector call, before and after a change.

    python tools/selector_times.py --before <rev> [--repeats 3] [--out BENCH_selector_calls.json]

For each mechanism kind at d = 4, 16, 64 and 1024 this times three things:
one 1-D call (``MechanismSpec.__call__``, us per call), one ``rows`` call on
a single row (us per call), and ``rows`` on blocks of 256 rows (rows per
second).  It does so in two trees: the "change" is the working tree of this
repository, the "parent" is <rev> exported with `git archive` into a
temporary directory.  Each run is one child process of this script that
imports softmech from its tree's src/; runs alternate between the trees, one
process at a time, so both trees are timed by the same code.  Within a run
each figure is the best of several timed rounds over a fixed pool of seeded
inputs.  Across runs the JSON written to --out (default:
BENCH_selector_calls.json at the repository root) holds each figure's
ab_harness.compare summary, the trees' git ids, the CPU count and the Python
and numpy versions.  On a shared machine whole processes run slow at random
(every figure of such a run reads about 1.6x higher), which moves a median
of a few runs, so the ratio of the best runs is the steadier one.  Nothing
else in the repository is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from ab_harness import ROOT, Parser, alternate, compare, machine, resolve, trees, write_json

KINDS = (("exp", 1.0), ("pow", 2.0), ("plsoftmax", 1.0), ("logplsoftmax", 0.5), ("sparsemax", None))
DIMS = (4, 16, 64, 1024)
POOL = 32  # input rows per d and domain, drawn from a fixed seed
BATCH = 256  # rows per block in the rows-per-second figure
ROUNDS = 25  # timed rounds per figure in one run; the best one counts
ROUND_S = 0.004  # least time one round runs for


def seconds_per_call(fn, items) -> float:
    """Mean time of fn(item) over items, repeating the pass until it has run
    ROUND_S."""
    calls, t0 = 0, time.perf_counter()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = time.perf_counter() - t0
        if elapsed >= ROUND_S:
            return elapsed / calls


def child() -> dict:
    """The figures of one run, for the softmech first on the import path."""
    import numpy as np
    from softmech.mechanisms import MechanismSpec

    rng = np.random.default_rng(2020)
    figures = {}  # name -> (function, inputs)
    for d in DIMS:
        pools = {False: rng.normal(0.0, 1.0, size=(POOL, d))}
        pools[True] = np.exp(pools[False])
        for kind, param in KINDS:
            spec = MechanismSpec(kind, param)
            x = pools[spec.positive_domain]
            key = f"{kind}.d{d}"
            figures[f"{key}.call_us"] = spec, list(x)
            figures[f"{key}.rows1_us"] = spec.rows, [row[None, :] for row in x]
            figures[f"{key}.rows_per_s"] = spec.rows, [np.resize(x, (BATCH, d))]
    for fn, items in figures.values():  # warm up: lazy set-up is paid outside the timing
        seconds_per_call(fn, items)
    # The rounds of all figures are interleaved, so a stretch of contention on
    # the machine slows a round of each rather than every round of a few.
    best = dict.fromkeys(figures, float("inf"))
    for _ in range(ROUNDS):
        for name, (fn, items) in figures.items():
            best[name] = min(best[name], seconds_per_call(fn, items))
    return {name: BATCH / t if name.endswith("rows_per_s") else 1e6 * t for name, t in best.items()}


def run_child(tree: str, _pair: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"timing run failed in {tree}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = Parser(__doc__)
    parser.add_argument("--before", help="git revision to compare the working tree against")
    parser.add_argument("--repeats", type=int, default=3, help="runs per tree (default 3)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_selector_calls.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child()))
        return 0
    if args.before is None:
        parser.error("--before is required")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    before = resolve(args.before, parser)
    runs = alternate(before, args.repeats, run_child,
                     lambda run: f"plsoftmax at d = 4 {run['plsoftmax.d4.call_us']:.1f} us per call", ("src",))
    payload = {
        "what": "per kind and d: one 1-D MechanismSpec call (call_us), one rows call on a single row "
                f"(rows1_us) and rows per second in rows calls on {BATCH}-row blocks (rows_per_s); each "
                f"figure is the best of {ROUNDS} rounds over {POOL} seeded inputs in one process, summarised "
                f"over {args.repeats} alternating runs per tree, one process at a time, by "
                "ab_harness.compare",
        "command": f"python tools/selector_times.py --before {before} --repeats {args.repeats}",
        **trees(before, ("src",)),
        "machine": machine("numpy"),
        "figures": compare(runs, lambda name: name.endswith("rows_per_s")),
    }
    write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
