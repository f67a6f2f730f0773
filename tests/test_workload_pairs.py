"""tools/workload_pairs.py reads and checks its BENCH file before any run, and
bad arguments to the timing tools end them with exit code 2 before any run."""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import acceptance_times  # noqa: E402
import selector_times  # noqa: E402
import workload_pairs  # noqa: E402

ENTRY = {"what": "one entry", "loss_probes": {"seeds": [1, 2], "pairs": 2}}


def write(path, payload):
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(path)


def test_a_lone_entry_becomes_a_list_that_holds_it(tmp_path):
    assert workload_pairs.read_entries(write(tmp_path / "one.json", ENTRY)) == [ENTRY]


def test_a_list_of_entries_is_read_as_it_is(tmp_path):
    entries = [ENTRY, {**ENTRY, "what": "a second entry"}]
    assert workload_pairs.read_entries(write(tmp_path / "two.json", entries)) == entries
    assert workload_pairs.read_entries(str(tmp_path / "missing.json")) == []


@pytest.mark.parametrize("payload", ["[1, 2]", "3", '"text"', "[{}, []]", "{not json"])
def test_other_shapes_are_refused(tmp_path, payload):
    with pytest.raises(ValueError):
        workload_pairs.read_entries(write(tmp_path / "bad.json", payload))


def test_a_malformed_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    write(tmp_path / "BENCH_loss_probes.json", "[1, 2]")
    monkeypatch.setattr(workload_pairs, "ROOT", str(tmp_path))

    def no_runs(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(workload_pairs, "pairs", no_runs)
    monkeypatch.setattr(workload_pairs, "run_once", no_runs)
    argv = ["--before", "HEAD", "--workload", "loss_probes", "--seeds", "1-2", "--change", "nothing"]
    assert workload_pairs.main(argv) == 2
    assert "neither an entry nor a list of entries" in capsys.readouterr().err
    assert (tmp_path / "BENCH_loss_probes.json").read_text(encoding="utf-8") == "[1, 2]"


WORKLOAD_ARGS = ["--workload", "loss_probes", "--change", "nothing"]


@pytest.mark.parametrize("tool, argv, message", [
    (workload_pairs, ["--before", "HEAD", *WORKLOAD_ARGS, "--seeds", "5-3"], "invalid seed_list value: '5-3'"),
    (workload_pairs, ["--before", "HEAD", *WORKLOAD_ARGS, "--seeds", "x"], "invalid seed_list value: 'x'"),
    (workload_pairs, ["--before", "HEAD", *WORKLOAD_ARGS, "--seeds", "1-2", "--other-seeds", "2-1",
                      "--others", "lipschitz_lab"], "invalid seed_list value: '2-1'"),
    (workload_pairs, ["--before", "no-such-rev", *WORKLOAD_ARGS, "--seeds", "1-2"], "'no-such-rev' names no commit"),
    (acceptance_times, ["--before", "no-such-rev"], "'no-such-rev' names no commit"),
    (selector_times, ["--before", "no-such-rev"], "'no-such-rev' names no commit"),
])
def test_bad_arguments_exit_2_with_one_line_before_any_run(tool, argv, message, tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(tool, "ROOT", str(tmp_path))

    def no_runs(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    for runner in ("alternate", "pairs", "run_once", "run_suite", "run_child"):
        if hasattr(tool, runner):
            monkeypatch.setattr(tool, runner, no_runs)
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]
