"""Seeded CLI output files compared byte for byte with recorded golden copies.

The five commands are those of acceptance criterion 12.  Criterion 12 reruns
each command twice on the same code; this test pins the files themselves, so
a refactor that changes any printed digit fails here.  The golden files in
``tests/golden`` were written by :func:`run_commands` and change only when a
command's output is meant to change.
"""

import json
from pathlib import Path

import pytest

from softmech import cli, submodular

GOLDEN = Path(__file__).parent / "golden"


def _commands(workdir: Path) -> dict[str, list[str]]:
    fam = workdir / "sets.txt"
    submodular.save_set_family(submodular.synthetic_coverage_instance(10, 40, 0), fam)
    auction = workdir / "auction.json"
    auction.write_text(json.dumps({"H": 1.0, "k": 3, "bids": [0.9, 0.6, 0.2]}), encoding="utf-8")
    return {
        "eval": ["eval", "--mech", "plsoftmax:delta=1", "--x", "0.5,0"],
        "lipschitz": [
            "lipschitz", "--mech", "exp:lambda=1", "--d", "8", "--domain", "l2",
            "--range", "dinf", "--trials", "150", "--seeds", "0,1",
        ],
        "submodular": [
            "submodular", "--instance-file", str(fam), "--k", "3",
            "--mechs", "pow:lambda=2,exp:lambda=0.5", "--drop-prob", "0.05", "--seeds", "0-4",
        ],
        "auction": [
            "auction", "--instance-file", str(auction), "--mech", "plsoftmax:delta=4",
            "--grid-delta", "0.5", "--grid-floor", "0.1", "--seed", "3", "--audit",
            "--resolution", "41",
        ],
        "lossfn": ["lossfn", "--d", "6", "--delta", "1", "--trials", "60", "--seeds", "0"],
    }


def run_commands(workdir: Path) -> dict[str, int]:
    """Run every command in process, writing ``<name>.out`` (and the auction's
    ``auction.audit``) into workdir; returns each command's exit code."""
    codes = {}
    for name, args in _commands(workdir).items():
        extra = ["--out", str(workdir / f"{name}.out")]
        if name == "auction":
            extra += ["--audit-out", str(workdir / "auction.audit")]
        codes[name] = cli.main(args + extra)
    return codes


GOLDEN_FILES = ["auction.audit", "auction.out", "eval.out", "lipschitz.out", "lossfn.out", "submodular.out"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden_run")
    codes = run_commands(workdir)
    return workdir, codes


def test_commands_pass(outputs):
    _, codes = outputs
    assert codes == {name: 0 for name in codes}


@pytest.mark.parametrize("filename", GOLDEN_FILES)
def test_file_matches_golden(outputs, filename):
    workdir, _ = outputs
    assert (workdir / filename).read_bytes() == (GOLDEN / filename).read_bytes()
