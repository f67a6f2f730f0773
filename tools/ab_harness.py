"""The before/after machinery shared by the timing tools in this folder.

A tool times the working tree of this repository (the "change") against a git
revision (the "parent") exported with `git archive` into a temporary
directory.  Runs alternate between the trees, one at a time, ``compare``
summarises them, and each tool's JSON names both trees by their git ids and
describes the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import tempfile
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class Parser(argparse.ArgumentParser):
    """The tools' argument parser: bad input ends a command with exit 2 and one line on stderr."""

    def __init__(self, doc: str):
        super().__init__(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def git(*args: str, env=None) -> str:
    proc = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, env=env)
    return proc.stdout.decode().strip()


def resolve(rev: str, parser: Parser) -> str:
    """The commit id of a revision; one that names no commit is a parser error."""
    try:
        return git("rev-parse", "--verify", f"{rev}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--before {rev!r} names no commit of this repository")


def trees(parent: str, parts: tuple[str, ...]) -> dict:
    """The "parent" and "change" blocks of a tool's JSON: the git tree ids of
    the parts (top-level folders) in each, the change's found through a
    temporary index so the real one is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "--", *parts, env=env)
        change = git("write-tree", env=env)
    ids = {rev: {f"{part}_tree": git("rev-parse", f"{rev}:{part}") for part in parts} for rev in (parent, change)}
    return {"parent": {"commit": parent, **ids[parent]},
            "change": {"working_tree_on": git("rev-parse", "HEAD"), **ids[change]}}


def export(rev: str, paths: tuple[str, ...], dest: str) -> None:
    """Write rev's files (only ``paths``, if given) into dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, *paths],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def alternate(parent: str, pairs: int, run, describe, paths: tuple[str, ...] = ()) -> dict:
    """{"parent": [...], "change": [...]}: run(tree, i) for each tree in pair
    i = 0 .. pairs - 1.  The parent tree is rev ``parent`` exported (only
    ``paths``, if given) into a temporary directory.  Pair i starts with the
    parent when i is even and with the change when it is odd;
    describe(result) is printed after each run."""
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        export(parent, paths, tmp)
        where = {"parent": tmp, "change": ROOT}
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run(where[side], i))
                print(f"pair {i + 1}/{pairs} {side}: {describe(runs[side][-1])}", flush=True)
    return runs


def compare(runs: dict, higher) -> dict:
    """Per figure of alternate's runs ({figure: value} dicts; higher(figure) is
    True when larger is better): each side's best, q1, median, q3 and worst
    (quartiles by statistics.quantiles(n=4), the median for one run); the
    change's best and median over the parent's (None for a parent's 0); and
    the pairs the change won, ties counting for neither side.  A figure one
    side lacks reads None there and in the comparisons."""
    figures = {}
    for name in dict.fromkeys(name for side in SIDES for name in runs[side][0]):
        up = higher(name)
        values = {side: [run[name] for run in runs[side]] for side in SIDES if name in runs[side][0]}
        row = dict.fromkeys((*SIDES, "change_over_parent", "change_wins"))
        for side, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            best, worst = (max(vals), min(vals)) if up else (min(vals), max(vals))
            row[side] = {key: round(value, 6) for key, value in
                         zip(("best", "q1", "median", "q3", "worst"), (best, q1, med, q3, worst))}
        if len(values) == 2:
            row["change_over_parent"] = {key: round(row["change"][key] / row["parent"][key], 4)
                                         if row["parent"][key] else None for key in ("best", "median")}
            won = sum(c > p if up else c < p for c, p in zip(values["change"], values["parent"]))
            row["change_wins"] = f"{won}/{len(values['change'])}"
        figures[name] = row
    return figures


def machine(*packages: str) -> dict:
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), **{name: version(name) for name in packages}}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
