"""One round of every workload with all checks on, and the benchmark's contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", (False, True))
def test_one_round(name, trace, tmp_path):
    result = run.measure(name, seed=3, seconds=0, trace=trace, workdir=str(tmp_path))
    assert result["correct"], result["wrong"]
    assert result["attempted"] == WORKLOADS[name].round_ops
    assert result["failed"] == (1 if name == "selector_stream" else 0)
    bench = _benchmark()
    final = run.report(result, trace)
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selector_stream", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
