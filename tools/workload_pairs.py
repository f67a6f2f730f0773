"""Alternating before/after runs of one benchmark workload, appended to its BENCH file.

    python tools/workload_pairs.py --before <rev> --workload applications_cli --seeds 91-100 \\
        --change "<what the change does>" [--unseen] \\
        [--others selector_stream,lipschitz_lab,loss_probes --other-seeds 91-95]

Runs `python3 perfbench/run.py --workload <w> --seed <s> --seconds <n>
--trace 0`, n being BENCHMARK.json's run_seconds, in two trees, one
process at a time: "change" is the working tree of this repository,
"parent" is <rev> exported (src/ and perfbench/ only) with `git archive`
into a temporary directory.  Pair i runs seed i in both
trees, and the tree that runs first alternates by pair.  For each tree the
entry holds whether every run was correct, the attempted and failed
operations summed over the runs, and each end-to-end metric's median and
quartiles over the runs (statistics.median and statistics.quantiles(n=4), as
perfbench/spread.py computes them).  It adds the change's median over the
parent's and the number of pairs in which the change was better, in the
metric's direction from BENCHMARK.json.  The workloads named by --others are
run the same way on --other-seeds and go into the entry's
"other_workloads".  The entry is appended to BENCH_<workload>.json at the
repository root; nothing else is written.  That file is read and checked
before the first run: a file holding one entry (a JSON object) is rewritten
as a list that holds it, and a file of any other shape than an object or a
list of objects ends the command with exit code 2.  --unseen states in the
entry that the seeds were not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from ab_harness import ROOT, alternate, machine, resolve, tree_ids, write_json

PARTS = ("src", "perfbench")
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


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


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def pairs(before: str, workload: str, seeds: list[int], seconds: float, better: dict) -> dict:
    """The entry block of one workload: its seeds, both sides' summaries, the
    ratio of the medians and the pairs the change won."""
    started = []

    def run(tree):
        seed = seeds[len(started) // 2]  # alternate runs both trees of a pair back to back
        started.append(seed)
        return run_once(tree, workload, seed, seconds)

    def describe(result):
        return f"{workload} seed {started[-1]}: {result['metrics']['ops_per_s']['value']:.2f} ops/s"

    runs = alternate(before, len(seeds), run, describe, PARTS)
    runs = {"parent": runs["before"], "change": runs["after"]}
    sides = {}
    for side, results in runs.items():
        sides[side] = {"correct": all(r["correct"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "attempted": sum(r["attempted"] for r in results)}
        for name in better:
            unit = results[0]["metrics"][name]["unit"]
            sides[side][name] = {"unit": unit, **quartiles([r["metrics"][name]["value"] for r in results])}
    ratios, wins = {}, {}
    for name, higher in better.items():
        ratios[name] = round(sides["change"][name]["median"] / sides["parent"][name]["median"], 4)
        values = [(c["metrics"][name]["value"], p["metrics"][name]["value"])
                  for c, p in zip(runs["change"], runs["parent"])]
        won = sum(c > p if higher else c < p for c, p in values)
        wins[name] = f"{won}/{len(seeds)}"
    return {"seeds": seeds, "pairs": len(seeds), "sides": sides, "change_over_parent": ratios, "change_wins": wins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--before", required=True, help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="seed range a-b, one pair per seed")
    parser.add_argument("--change", required=True, help="what the change does, for the entry's description")
    parser.add_argument("--unseen", action="store_true", help="the seeds were not used while the change was written")
    parser.add_argument("--others", default="", help="comma-separated workloads for other_workloads")
    parser.add_argument("--other-seeds", default=None, help="seed range for the other workloads (default: --seeds)")
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
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    before = resolve(args.before)
    seeds = seed_list(args.seeds)
    what = (f"{args.workload} end-to-end metrics at the parent commit and with {args.change}, from alternating "
            f"runs of python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0, one "
            "process at a time, the parent from a git archive export of its tree and the change from the working "
            "tree; medians and quartiles as perfbench/spread.py computes them (statistics.median, "
            "statistics.quantiles(n=4)); the side that ran first alternated by pair; attempted and failed are "
            "summed over a side's runs")
    if args.unseen:
        what += f"; seeds {args.seeds} were not used while the change was written"
    entry = {
        "what": what,
        "run_seconds": seconds,
        "parent": {"commit": before, **tree_ids(before, ("src",))},
        "change": {"commit": "the commit that adds this entry", **tree_ids(None, ("src",))},
        "machine": machine("numpy"),
        args.workload: pairs(before, args.workload, seeds, seconds, better),
    }
    if others:
        other_seeds = seed_list(args.other_seeds) if args.other_seeds else seeds
        entry["other_workloads"] = {name: pairs(before, name, other_seeds, seconds, better) for name in others}
    entries.append(entry)
    write_json(path, entries)
    print(json.dumps({k: entry[args.workload][k] for k in ("change_over_parent", "change_wins")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
