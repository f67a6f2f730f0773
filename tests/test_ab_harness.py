"""tools/ab_harness.py: the one before/after summary and the run order."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import ab_harness  # noqa: E402


def runs(parent, change, name="t"):
    return {"parent": [{name: v} for v in parent], "change": [{name: v} for v in change]}


def test_a_lower_is_better_figure():
    figure = ab_harness.compare(runs([4.0, 2.0, 3.0], [1.0, 3.0, 2.0]), lambda name: False)["t"]
    assert figure["parent"] == {"best": 2.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "worst": 4.0}
    assert figure["change"] == {"best": 1.0, "q1": 1.0, "median": 2.0, "q3": 3.0, "worst": 3.0}
    assert figure["change_wins"] == "2/3"


def test_a_higher_is_better_figure():
    figure = ab_harness.compare(runs([4.0, 2.0, 3.0], [1.0, 3.0, 2.0]), lambda name: True)["t"]
    assert figure["parent"] == {"best": 4.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "worst": 2.0}
    assert figure["change"]["best"] == 3.0 and figure["change"]["worst"] == 1.0
    assert figure["change_over_parent"] == {"best": 0.75, "median": 0.6667}
    assert figure["change_wins"] == "1/3"


def test_the_direction_is_asked_per_figure():
    both = {"parent": [{"s": 2.0, "rows": 2.0}], "change": [{"s": 1.0, "rows": 1.0}]}
    figures = ab_harness.compare(both, lambda name: name == "rows")
    assert figures["s"]["change_wins"] == "1/1" and figures["rows"]["change_wins"] == "0/1"


def test_ties_count_for_neither_side():
    for higher in (False, True):
        figure = ab_harness.compare(runs([1.0, 2.0], [1.0, 2.0]), lambda name: higher)["t"]
        assert figure["change_wins"] == "0/2"
        assert figure["change_over_parent"] == {"best": 1.0, "median": 1.0}


def test_a_zero_parent_value_gives_no_ratio():
    figure = ab_harness.compare(runs([0.0, 0.0, 0.001], [0.002, 0.001, 0.003]), lambda name: False)["t"]
    assert figure["change_over_parent"] == {"best": None, "median": None}
    assert figure["change_wins"] == "0/3"


def test_a_single_run_has_its_quartiles_at_the_median():
    figure = ab_harness.compare(runs([5.0], [4.0]), lambda name: False)["t"]
    assert figure["parent"] == dict.fromkeys(("best", "q1", "median", "q3", "worst"), 5.0)
    assert figure["change_over_parent"] == {"best": 0.8, "median": 0.8}
    assert figure["change_wins"] == "1/1"


def test_best_and_median_ratios_differ_when_the_runs_do():
    figure = ab_harness.compare(runs([2.0, 4.0, 6.0], [1.0, 3.0, 5.0]), lambda name: False)["t"]
    assert figure["change_over_parent"] == {"best": 0.5, "median": 0.75}


def test_a_figure_one_side_lacks_reads_none_there():
    one_sided = {"parent": [{"old": 1.0}], "change": [{"old": 1.0, "new": 2.0}]}
    figure = ab_harness.compare(one_sided, lambda name: False)["new"]
    assert figure["parent"] is None and figure["change"]["median"] == 2.0
    assert figure["change_over_parent"] is None and figure["change_wins"] is None


def test_alternate_swaps_the_first_side_by_pair_and_hands_each_run_its_pair(monkeypatch, capsys):
    exported, calls = [], []
    monkeypatch.setattr(ab_harness, "export", lambda rev, paths, dest: exported.append((rev, paths, dest)))

    def run(tree, i):
        calls.append((tree, i))
        return i

    result = ab_harness.alternate("rev", 4, run, str, ("src",))
    [(rev, paths, parent)] = exported
    assert (rev, paths) == ("rev", ("src",))
    change = ab_harness.ROOT
    assert calls == [(parent, 0), (change, 0), (change, 1), (parent, 1),
                     (parent, 2), (change, 2), (change, 3), (parent, 3)]
    assert result == {"parent": [0, 1, 2, 3], "change": [0, 1, 2, 3]}
    assert capsys.readouterr().out.splitlines()[:2] == ["pair 1/4 parent: 0", "pair 1/4 change: 0"]
