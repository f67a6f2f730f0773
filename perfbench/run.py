"""Closed-loop benchmark of softmech, one workload per process.

    python3 perfbench/run.py --workload selector_stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root: the package is imported from ./src, never from
an installed copy.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 the operations are timed
layer by layer and it holds the per-layer metrics instead (see README.md).
Scratch files go to .perfbench/ under the root; trace summaries stay there.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-threaded callers, and the
# machine the reference figures come from has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import numpy as np

import refs
from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 300
# The calibration block: a fixed piece of the benchmark's own code, timed
# before the first operation and after every operation and set-up.  Every
# reported time is scaled to a machine on which this block takes
# CAL_NOMINAL_MS (see README.md, "Timing at reference speed").
CAL_ROWS = np.random.default_rng(0).normal(0.0, 1.0, size=(40, 16))
CAL_NOMINAL_MS = 1.0

KINDS = ("exp", "pow", "plsoftmax", "logplsoftmax", "sparsemax")
DIMS = (4, 16, 64, 1024)
CALL_METRICS = (  # call_us and calls per operation
    "simplex.finalize_distribution",
    "simplex.check_distribution",
    "seeding.spawn_rng",
    "distances.lp_distance",
    "distances.renyi_divergence",
    "smmatrix.build_softmax_matrix",
    "classification.loss_total",
    "submodular.marginal_gains",
    "auctions.revenue_of_reserve",
)
SELF_METRICS = (
    "smoothness.empirical_lipschitz",
    "classification.subgradient_check",
    "submodular.manipulation_records",
    "auctions.ic_audit",
    "cli.main",
)


def import_softmech():
    """Import softmech afresh from ./src, dropping any earlier import, so
    that every set-up pays the package's import."""
    for name in [n for n in sys.modules if n == "softmech" or n.startswith("softmech.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("softmech")
    importlib.import_module("softmech.cli")  # imports every other module
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"softmech imported from {pkg.__file__}, not from {SRC}")
    return pkg


def calibration_ms() -> float:
    """Time one calibration block: the reference plsoftmax and exp of
    refs.py, which does not import softmech, on 40 fixed vectors at d = 16."""
    t0 = time.perf_counter()
    for x in CAL_ROWS:
        refs.plsoftmax_ref(x, 1.0)
        refs.exp_ref(x, 1.0)
    return (time.perf_counter() - t0) * 1e3


def to_reference_speed(raw: np.ndarray, cal_before: np.ndarray, cal_after: np.ndarray) -> np.ndarray:
    """Scale each raw time by CAL_NOMINAL_MS over the slower of the two
    calibration blocks around it.  Where the machine changed speed between
    the two, the operation is scaled as if it ran at the slower speed, so a
    change of speed cannot make an operation look slower than it was."""
    return raw * (CAL_NOMINAL_MS / np.maximum(cal_before, cal_after))


def tail(times_ms: np.ndarray) -> tuple[str, float]:
    """The highest percentile with at least ten operations beyond it: the
    eleventh-longest operation.  The median below forty operations."""
    n = times_ms.size
    if n < 40:
        return "p50", float(np.median(times_ms))
    return f"p{100.0 * (n - 10) / n:.2f}", float(np.sort(times_ms)[n - 11])


def per_layer(tracer: Tracer, counts: Counter, ops: int) -> dict:
    m = {}
    for kind in KINDS:
        for d in DIMS:
            m[f"mechanisms.{kind}.d{d}.call_us"] = (tracer.call_us(f"mechanisms.{kind}.d{d}"), "us")
    m["mechanisms.calls"] = (tracer.calls("mechanisms") / ops, "count")
    for key in CALL_METRICS:
        m[f"{key}.call_us"] = (tracer.call_us(key), "us")
        m[f"{key}.calls"] = (tracer.calls(key) / ops, "count")
    m["classification.loss_grad.call_us"] = (tracer.call_us("classification.loss_grad"), "us")
    for key in SELF_METRICS:
        m[f"{key}.self_ms"] = (tracer.self_ms(key), "ms")
    evaluated = counts["smoothness.pairs_evaluated"]
    designed = tracer.calls("smoothness.exp_l1_lb_witness") + tracer.calls("smoothness.sparsegen_lb_witness")
    attempted_pairs = counts["smoothness.trials"] + designed
    m["smoothness.pairs_evaluated"] = (evaluated / ops, "count")
    m["smoothness.pairs_used_ratio"] = (evaluated / attempted_pairs if attempted_pairs else 0.0, "ratio")
    m["classification.points_skipped"] = (counts["classification.points_skipped"], "count")
    m["cli.bytes_written"] = (counts["cli.bytes_written"] / ops, "B")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up SETUP_REPEATS times, then run whole rounds for `seconds`."""
    cls = WORKLOADS[name]
    calibration_ms()  # builds the reference matrices it uses
    setups, setup_cals = [], [calibration_ms()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sm = import_softmech()
        wl = cls(sm, seed, workdir)
        warm_in = wl.inputs(0)
        warm_out = wl.call(warm_in)
        setups.append(time.perf_counter() - t0)
        setup_cals.append(calibration_ms())
    counts = Counter()
    wrong, _ = wl.check(0, warm_in, warm_out, counts)
    counts.clear()

    tracer = Tracer()
    if trace:
        tracer.install()
    times, cals, failed, fail_notes = [], [calibration_ms()], 0, []
    start = time.perf_counter()
    i = 0
    try:
        while True:
            for _ in range(wl.round_ops):
                inp = wl.inputs(i)
                if trace:
                    tracer.begin_op()
                t0 = time.perf_counter()
                try:
                    out, error = wl.call(inp), None
                except Exception:  # a failed operation, counted and reported
                    out, error = None, traceback.format_exc(limit=3)
                times.append(time.perf_counter() - t0)
                if trace:
                    tracer.end_op()
                cals.append(calibration_ms())
                if error is not None:
                    failed += 1
                    fail_notes.append(error)
                else:
                    bad, known_fault = wl.check(i, inp, out, counts)
                    wrong += bad
                    if known_fault:
                        failed += 1
                        fail_notes += known_fault
                i += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()

    cals, setup_cals = np.array(cals), np.array(setup_cals)
    raw_ms = np.array(times) * 1e3
    ms = to_reference_speed(raw_ms, cals[:-1], cals[1:])
    setup_s = to_reference_speed(np.array(setups), setup_cals[:-1], setup_cals[1:])
    tail_name, tail_ms = tail(ms)
    result = {
        "workload": name,
        "seed": seed,
        "correct": not wrong,
        "attempted": len(times),
        "failed": failed,
        "wrong": wrong[:5],
        "fail_notes": fail_notes[:2],
        "tail": f"{tail_name} of {len(times)} operations",
        "e2e": {
            "ops_per_s": (len(times) / (float(ms.sum()) / 1e3), "1/s"),
            "op_p50_ms": (float(np.median(ms)), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "setup_s": (float(np.median(setup_s)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "wall": {
            "ops_per_s": len(times) / (float(raw_ms.sum()) / 1e3),
            "op_p50_ms": float(np.median(raw_ms)),
            "op_tail_ms": tail(raw_ms)[1],
            "setup_s": float(np.median(setups)),
            "calibration_p5_ms": float(np.percentile(cals, 5)),
            "calibration_p50_ms": float(np.median(cals)),
            "calibration_p95_ms": float(np.percentile(cals, 95)),
        },
    }
    if trace:
        result["layers"] = per_layer(tracer, counts, len(times))
        result["trace_summary"] = tracer.summary()
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human lines; return the final JSON object."""
    print(f"workload {result['workload']} seed {result['seed']}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for note in result["fail_notes"]:
        print(f"  failed: {note.strip()}")
    for note in result["wrong"]:
        print(f"  WRONG: {note}")
    for key, (value, unit) in result["e2e"].items():
        extra = f"  ({result['tail']})" if key == "op_tail_ms" else ""
        print(f"  {key} = {value:.6g} {unit}{'  (traced)' if trace else ''}{extra}")
    print("  as measured on the wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in result["wall"].items()))
    metrics = result["layers"] if trace else result["e2e"]
    if trace:
        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "softmech", "__init__.py")):
        print(f"error: no softmech source tree at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    final = report(result, bool(args.trace))
    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"result": final, "ops_per_s_traced": result["e2e"]["ops_per_s"][0],
                       "calls": result["trace_summary"]}, fh, indent=1, sort_keys=True)
        print(f"trace summary written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
