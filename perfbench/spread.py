"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-3 --seconds 10 --trace both

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound in
BENCHMARK.json.  With --trace both it alternates untraced and traced runs of
each seed and prints the tracing overhead.  Runs are sequential, one process
at a time.  The raw results go to .perfbench/spread-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    traced_rate = next((float(ln.split()[2]) for ln in lines if ln.strip().startswith("ops_per_s =")), None)
    return {"seed": seed, "ops_per_s_printed": traced_rate, **json.loads(lines[-1])}


def summarise(runs: list[dict], trace: int, bounds: dict) -> None:
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
    print(f"  trace {trace}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, failed/attempted {shares}")
    names = list(runs[0]["metrics"])
    if trace:
        names = [n for n in names if any(r["metrics"][n]["value"] for r in runs)] + ["ops_per_s_printed"]
    for name in names:
        if name == "ops_per_s_printed":
            values, unit = [r[name] for r in runs], "1/s (traced)"
        else:
            values, unit = [r["metrics"][name]["value"] for r in runs], runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = None if trace else bounds.get(name)
        mark = "" if bound is None else f"  bound {bound:.2f} {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"    {name:42s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.2%}{mark}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="'both' alternates untraced and traced runs per seed and reports the tracing overhead")
    args = parser.parse_args()
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for workload in args.workloads.split(","):
        runs = {mode: [] for mode in modes}
        for seed in seed_list(args.seeds):
            for mode in modes:
                runs[mode].append(run_once(workload, seed, args.seconds, mode))
        print(f"\n{workload}:")
        for mode in modes:
            path = os.path.join(ROOT, ".perfbench", f"spread-{workload}-trace{mode}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(runs[mode], fh, indent=1)
            summarise(runs[mode], mode, bounds)
        if len(modes) == 2:
            ratios = [a["ops_per_s_printed"] / b["ops_per_s_printed"] for a, b in zip(runs[0], runs[1])]
            print(f"  tracing overhead: untraced/traced ops_per_s, median of {len(ratios)} pairs "
                  f"{statistics.median(ratios):.3f} (pairs {', '.join(f'{r:.3f}' for r in ratios)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
