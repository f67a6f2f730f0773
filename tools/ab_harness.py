"""The before/after machinery shared by the timing tools in this folder.

A tool times the working tree of this repository ("after") against a git
revision ("before") exported with `git archive` into a temporary directory.
Runs alternate between the trees, one at a time, and each tool's JSON names
both trees by their git ids and describes the machine.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str, env=None) -> str:
    proc = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, env=env)
    return proc.stdout.decode().strip()


def resolve(rev: str) -> str:
    """The commit id of a revision."""
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def tree_ids(rev: str | None, parts: tuple[str, ...]) -> dict:
    """Git tree ids of the parts (top-level folders) at rev, or in the
    working tree (rev None), found through a temporary index so the real one
    is untouched."""
    if rev is None:
        with tempfile.TemporaryDirectory() as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
            git("read-tree", "HEAD", env=env)
            git("add", "-A", "--", *parts, env=env)
            rev = git("write-tree", env=env)
    return {f"{part}_tree": git("rev-parse", f"{rev}:{part}") for part in parts}


def trees(before: str, parts: tuple[str, ...]) -> dict:
    """The "before" and "after" blocks of a tool's JSON."""
    return {"before": {"commit": before, **tree_ids(before, parts)},
            "after": {"working_tree_on": git("rev-parse", "HEAD"), **tree_ids(None, parts)}}


def alternate(before: str, repeats: int, run, describe, paths: tuple[str, ...] = ()) -> dict:
    """{"before": [...], "after": [...]}: the results of run(tree) for each
    tree, repeats times each.  The before tree is rev ``before`` exported
    (only ``paths``, if given) into a temporary directory.  Run i starts with
    the before tree when i is even and with the after tree when it is odd;
    describe(result) is printed after each run."""
    runs = {"before": [], "after": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", before, *paths],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        where = {"before": tmp, "after": ROOT}
        for i in range(repeats):
            for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
                runs[side].append(run(where[side]))
                print(f"run {i + 1}/{repeats} {side}: {describe(runs[side][-1])}", flush=True)
    return runs


def machine(*packages: str) -> dict:
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), **{name: version(name) for name in packages}}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
