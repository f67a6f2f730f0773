"""Wall time of each acceptance criterion, before and after a change.

    python tools/acceptance_times.py --before <rev> [--repeats 3] [--out BENCH_acceptance.json]

Runs tests/test_acceptance.py in two trees: "after" is the working tree of
this repository, "before" is <rev> exported with `git archive` into a
temporary directory.  Runs alternate between the trees, one pytest process
at a time, each with its own tree's src/ first on PYTHONPATH.  A criterion's
time is the call time in pytest's JUnit XML report.  The JSON written to
--out (default: BENCH_acceptance.json at the repository root) holds each
criterion's median, minimum and maximum per tree, the trees' git ids, the
CPU count and the Python, numpy and pytest versions.  Nothing else in the
repository is written; a failing criterion stops the command.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

from ab_harness import ROOT, alternate, machine, resolve, trees, write_json

SUITE = "tests/test_acceptance.py"
PARTS = ("src", "tests")


def run_suite(tree: str) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.xml")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", SUITE, f"--junitxml={report}"]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"acceptance suite failed in {tree}:\n{proc.stdout[-4000:]}{proc.stderr[-2000:]}")
        return {case.get("name"): float(case.get("time")) for case in ET.parse(report).getroot().iter("testcase")}


def summary(values: list[float]) -> dict:
    return {"median_s": round(statistics.median(values), 3), "min_s": round(min(values), 3),
            "max_s": round(max(values), 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--before", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--repeats", type=int, default=3, help="suite runs per tree (default 3)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_acceptance.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    before = resolve(args.before)
    times = alternate(before, args.repeats, run_suite, lambda run: f"{sum(run.values()):.1f} s")
    criteria = {}
    for name in sorted(times["after"][0]):
        row = {side: summary([run[name] for run in times[side]]) for side in times if name in times[side][0]}
        if len(row) == 2:  # JUnit times have millisecond resolution, so a median can be 0
            before_s = row["before"]["median_s"]
            row["after_over_before"] = round(row["after"]["median_s"] / before_s, 3) if before_s else None
        criteria[name] = row
    payload = {
        "what": "wall time of each acceptance criterion (pytest call time from its JUnit XML report), "
                f"{args.repeats} alternating runs of {SUITE} per tree, one process at a time",
        "command": f"python tools/acceptance_times.py --before {before} --repeats {args.repeats}",
        **trees(before, PARTS),
        "machine": machine("numpy", "pytest"),
        "criteria": criteria,
    }
    write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
