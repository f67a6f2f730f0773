"""Alternating before/after runs of one benchmark workload, appended to its BENCH file.

    python tools/workload_pairs.py --before <rev> --workload applications_cli --seeds 91-100 \\
        --change "<what the change does>" [--unseen] \\
        [--others selector_stream,lipschitz_lab,loss_probes --other-seeds 91-95]

Runs `python3 perfbench/run.py --workload <w> --seed <s> --seconds <n>
--trace 0`, n being BENCHMARK.json's run_seconds, in two trees, one
process at a time: the "change" is the working tree of this repository, the
"parent" is <rev> exported (src/ and perfbench/ only) with `git archive`
into a temporary directory.  Pair i runs seed i in both trees, and the tree
that runs first alternates by pair.  For each tree the entry holds whether
every run was correct and the attempted and failed operations summed over
the runs.  Each end-to-end metric gets its ab_harness.compare summary, in
the metric's direction from BENCHMARK.json: each tree's best, quartiles (as
perfbench/spread.py computes them), median and worst, the change's best and
median over the parent's, and the pairs the change won.  The workloads named
by --others are run the same way on --other-seeds and go into the entry's
"other_workloads".  The entry is appended to BENCH_<workload>.json at the
repository root; nothing else is written.  The arguments and that file are
read and checked before the first run: a file holding one entry (a JSON
object) is rewritten as a list that holds it, and bad arguments or a file of
any other shape than an object or a list of objects end the command with
exit code 2.  --unseen states in the entry that the seeds were not used
while the change was written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from ab_harness import ROOT, Parser, alternate, compare, machine, resolve, trees, write_json

PARTS = ("src", "perfbench")
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    """The seeds of a range a-b with a <= b, or of one seed a, as an argparse type."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(text)
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def read_entries(path: str) -> list[dict]:
    """The entries of a BENCH file: none for a missing file, a lone entry
    (one JSON object) as a one-element list that holds it unchanged, and a
    list of entries as it is.  Raises ValueError on any other content."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list) and all(isinstance(entry, dict) for entry in data):
        return data
    raise ValueError(f"{path} holds neither an entry nor a list of entries")


def pairs(before: str, workload: str, seeds: list[int], seconds: float, better: dict) -> dict:
    """The entry block of one workload: its seeds, each side's correctness and
    operation counts, and the compare summary of every end-to-end metric."""
    runs = alternate(before, len(seeds), lambda tree, i: run_once(tree, workload, seeds[i], seconds),
                     lambda result: f"{workload} {result['metrics']['ops_per_s']['value']:.2f} ops/s", PARTS)
    sides = {side: {"correct": all(r["correct"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "attempted": sum(r["attempted"] for r in results)} for side, results in runs.items()}
    values = {side: [{name: r["metrics"][name]["value"] for name in better} for r in results]
              for side, results in runs.items()}
    return {"seeds": seeds, "pairs": len(seeds), "sides": sides,
            "units": {name: runs["change"][0]["metrics"][name]["unit"] for name in better},
            "metrics": compare(values, better.__getitem__)}


def main(argv=None) -> int:
    parser = Parser(__doc__)
    parser.add_argument("--before", required=True, help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list, help="seed range a-b, one pair per seed")
    parser.add_argument("--change", required=True, help="what the change does, for the entry's description")
    parser.add_argument("--unseen", action="store_true", help="the seeds were not used while the change was written")
    parser.add_argument("--others", default="", help="comma-separated workloads for other_workloads")
    parser.add_argument("--other-seeds", type=seed_list, help="seed range for the other workloads (default: --seeds)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = {w["name"] for w in bench["workloads"]}
    others = [w for w in args.others.split(",") if w]
    for name in [args.workload, *others]:
        if name not in workloads:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {sorted(workloads)}")
    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    try:
        entries = read_entries(path)
    except ValueError as exc:
        print(f"workload_pairs.py: {exc}", file=sys.stderr)
        return 2
    before = resolve(args.before, parser)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    what = (f"{args.workload} end-to-end metrics at the parent commit and with {args.change}, from alternating "
            f"runs of python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0, one "
            "process at a time, the parent from a git archive export of its tree and the change from the working "
            "tree; each metric summarised by ab_harness.compare, its quartiles as perfbench/spread.py computes "
            "them (statistics.quantiles(n=4)); the side that ran first alternated by pair; attempted and failed "
            "are summed over a side's runs")
    if args.unseen:
        what += f"; seeds {args.seeds[0]}-{args.seeds[-1]} were not used while the change was written"
    entry = {
        "what": what,
        "run_seconds": seconds,
        **trees(before, PARTS),
        "machine": machine("numpy"),
        args.workload: pairs(before, args.workload, args.seeds, seconds, better),
    }
    if others:
        entry["other_workloads"] = {name: pairs(before, name, args.other_seeds or args.seeds, seconds, better)
                                    for name in others}
    entries.append(entry)
    write_json(path, entries)
    print(json.dumps({name: [figure["change_over_parent"], figure["change_wins"]]
                      for name, figure in entry[args.workload]["metrics"].items()}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
