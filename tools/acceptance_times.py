"""Wall time of each acceptance criterion, before and after a change.

    python tools/acceptance_times.py --before <rev> [--repeats 3] [--out BENCH_acceptance.json]

Runs tests/test_acceptance.py in two trees: the "change" is the working tree
of this repository, the "parent" is <rev> exported with `git archive` into a
temporary directory.  Runs alternate between the trees, one pytest process
at a time, each with its own tree's src/ first on PYTHONPATH.  A criterion's
time is the call time in pytest's JUnit XML report.  The JSON written to
--out (default: BENCH_acceptance.json at the repository root) holds each
criterion's ab_harness.compare summary, the trees' git ids, the CPU count
and the Python, numpy and pytest versions.  Whole pytest processes on a
shared machine run slow at random, which moves a median of a few runs, so
the ratio of the best runs is the steadier one.  Nothing else in the
repository is written; a failing criterion stops the command.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

from ab_harness import ROOT, Parser, alternate, compare, machine, resolve, trees, write_json

SUITE = "tests/test_acceptance.py"
PARTS = ("src", "tests")


def run_suite(tree: str, _pair: int) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.xml")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", SUITE, f"--junitxml={report}"]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"acceptance suite failed in {tree}:\n{proc.stdout[-4000:]}{proc.stderr[-2000:]}")
        return {case.get("name"): float(case.get("time")) for case in ET.parse(report).getroot().iter("testcase")}


def main(argv=None) -> int:
    parser = Parser(__doc__)
    parser.add_argument("--before", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--repeats", type=int, default=3, help="suite runs per tree (default 3)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_acceptance.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    before = resolve(args.before, parser)
    times = alternate(before, args.repeats, run_suite, lambda run: f"{sum(run.values()):.1f} s")
    payload = {
        "what": "wall time of each acceptance criterion (pytest call time from its JUnit XML report), "
                f"{args.repeats} alternating runs of {SUITE} per tree, one process at a time, by ab_harness.compare",
        "command": f"python tools/acceptance_times.py --before {before} --repeats {args.repeats}",
        **trees(before, PARTS),
        "machine": machine("numpy", "pytest"),
        "criteria": compare(times, lambda name: False),
    }
    write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
