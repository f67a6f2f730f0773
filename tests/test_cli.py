"""CLI behavior: parsing, subcommands, exit codes, reproducibility."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softmech import auctions, cli, smoothness, submodular
from softmech.cli import main, parse_seeds, parse_vector, read_vector_file
from softmech.distances import metric_from_id
from softmech.mechanisms import MechanismSpec


class TestParsing:
    def test_seeds(self):
        assert parse_seeds("0,5,10-12") == [0, 5, 10, 11, 12]
        assert parse_seeds("3") == [3]
        with pytest.raises(ValueError):
            parse_seeds(" ,")

    def test_seed_list_refused_past_the_cap(self, capsys):
        assert len(parse_seeds("1-100000")) == 10**5
        with pytest.raises(ValueError, match="more than 100000 seeds"):
            parse_seeds("0-100000")
        with pytest.raises(ValueError, match="more than 100000 seeds"):
            parse_seeds("7,0-99999")
        # refused before the range is built: 10**11 ints would not fit in memory
        code = main(["lipschitz", "--mech", "exp:lambda=1", "--d", "4", "--seeds", "0-100000000000"])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["command"] == "lipschitz" and "more than 100000 seeds" in err["error"]

    def test_vector(self):
        assert parse_vector("0.5,0").tolist() == [0.5, 0.0]
        assert parse_vector("1 2 3").tolist() == [1.0, 2.0, 3.0]

    def test_vector_file_error_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1 2\nthree\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_vector_file(str(path))
        assert "line 2" in str(err.value)


class TestEval:
    def test_plsoftmax_example(self, capsys, tmp_path):
        out = tmp_path / "eval.csv"
        code = main(["eval", "--mech", "plsoftmax:delta=1", "--x", "0.5,0", "--out", str(out)])
        assert code == 0
        body = out.read_text(encoding="utf-8")
        assert "0.75;0.25" in body
        assert ",0.125," in body
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["failures"] == []

    def test_uniform_and_pow(self, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--mech", "exp:lambda=1", "--x", "0,0,0", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert np.allclose(payload["probs"], 1 / 3)
        assert main(["eval", "--mech", "pow:lambda=1", "--x", "2,1", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert np.allclose(payload["probs"], [2 / 3, 1 / 3], atol=5e-13)

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        path.write_text("1 2\noops\n", encoding="utf-8")
        code = main(["eval", "--mech", "sparsemax", "--x-file", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "line 2" in err["error"]
        for mech, x, name in (("exp:lambda=inf", "1,0", "lambda"), ("plsoftmax:delta=inf", "1e308,-1e308", "delta")):
            assert main(["eval", "--mech", mech, "--x", x]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["command"] == "eval" and name in err["error"]


    def test_missing_or_doubled_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        path.write_text("1 2\n", encoding="utf-8")
        for extra, needle in (([], "one of the arguments --x --x-file is required"),
                              (["--x", "3,4", "--x-file", str(path)], "not allowed with argument")):
            assert main(["eval", "--mech", "exp:lambda=1", *extra]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["command"] == "eval" and needle in err["error"]

    def test_simplex_check_reads_check_distribution(self, capsys, monkeypatch):
        def refuse(probs):
            raise ValueError("distribution sums to 2")

        monkeypatch.setattr(cli, "check_distribution", refuse)
        assert main(["eval", "--mech", "exp:lambda=1", "--x", "1,2"]) == 1
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["failures"] == ["simplex_valid"]

    def test_huge_values_sparsemax(self, capsys):
        assert main(["eval", "--mech", "sparsemax", "--x", "1e308,1e308", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload["probs"] == [0.5, 0.5]

    def test_failed_assertion_exits_2(self, capsys, monkeypatch):
        def broken(args):
            raise AssertionError("distribution sums to nan")

        monkeypatch.setattr(cli, "cmd_eval", broken)
        assert main(["eval", "--mech", "sparsemax", "--x", "1,2"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"command": "eval", "error": "distribution sums to nan"}

    def test_command_replaced_after_first_call_is_used(self, capsys, monkeypatch):
        assert main(["eval", "--mech", "sparsemax", "--x", "1,2"]) == 0
        monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
        assert main(["eval", "--mech", "sparsemax", "--x", "1,2"]) == 7


class TestLipschitz:
    def test_rows_within_bound(self, tmp_path, capsys):
        out = tmp_path / "lip.csv"
        code = main(
            ["lipschitz", "--mech", "plsoftmax:delta=1", "--d", "8", "--domain", "l2",
             "--range", "l2", "--trials", "200", "--seeds", "0,1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("mechanism,")
        assert len(lines) == 3
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[5]) <= float(cols[6]) + 1e-9

    def test_summary_counts_skipped_pairs(self, capsys):
        # plsoftmax draws pairs on the whole line; log-l2 needs positive entries
        code = main(["lipschitz", "--mech", "plsoftmax:delta=1", "--d", "4", "--domain", "log-l2",
                     "--range", "l1", "--trials", "300", "--seeds", "0,1"])
        assert code == 0
        pairs = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["pairs"]
        assert pairs["evaluated"] + pairs["skipped"] == 600
        assert pairs["skipped"] > pairs["evaluated"] > 0

    def test_constant_bound_inf_ok(self, tmp_path):
        out = tmp_path / "lip.csv"
        code = main(
            ["lipschitz", "--mech", "pow:lambda=1", "--d", "4", "--domain", "linf",
             "--range", "l1", "--trials", "100", "--seeds", "0", "--out", str(out)]
        )
        assert code == 0
        assert ",inf," in out.read_text(encoding="utf-8")

    def test_log_metrics_carry_the_positive_kinds_claims(self, tmp_path, capsys):
        # exp's 2 lambda holds on plain values only; on log values its ratio
        # passes 2 (5.0002 at this pair), so the log metric gives no claim and no check
        x = np.array([10.0, 10.0, 1.0, 1.0])
        y = x.copy()
        y[0] *= np.exp(1e-4)
        exp = MechanismSpec("exp", 1.0)
        assert metric_from_id("l1")(exp(x), exp(y)) / metric_from_id("log-linf")(x, y) > 5.0
        out = tmp_path / "lip.csv"
        code = main(["lipschitz", "--mech", "exp:lambda=1", "--d", "4", "--domain", "log-linf", "--range", "l1",
                     "--trials", "300", "--seeds", "0-1", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[6] for row in rows] == ["inf", "inf"]
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checks"] == 0
        # pow is exp on log values: the same 2 lambda, checked
        code = main(["lipschitz", "--mech", "pow:lambda=1", "--d", "4", "--domain", "log-linf", "--range", "dinf",
                     "--trials", "300", "--seeds", "0-1", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[6] for row in rows] == ["2", "2"]
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checks"] == 2

    def test_renyi_range_at_order_1000(self, tmp_path, capsys):
        # p**a / q**(a-1) overflowed at this order, and no pair gave a usable ratio
        out = tmp_path / "lip.csv"
        code = main(["lipschitz", "--mech", "exp:lambda=1", "--d", "8", "--trials", "300",
                     "--range", "renyi:1000", "--out", str(out)])
        assert code == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[6] == "2" and 0.0 < float(row[5]) < 2.0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["failures"] == [] and summary["pairs"]["skipped"] == 0

    def test_renyi_domain_refused_before_any_draw(self, capsys, monkeypatch):
        def no_draws(*args):
            raise RuntimeError("a pair was drawn")

        monkeypatch.setattr(smoothness, "_pair_rows", no_draws)
        for domain in ("dinf", "kl", "renyi:2"):
            code = main(["lipschitz", "--mech", "exp:lambda=1", "--d", "16", "--domain", domain,
                         "--range", "l1", "--trials", "600"])
            assert code == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["command"] == "lipschitz" and "cannot be a domain metric" in err["error"]

    @pytest.mark.parametrize("mech, d, needle", [
        ("exp:lambda=5e-324", 4, "non-finite draw scale"),  # 2/lambda overflows
        ("pow:lambda=5e-324", 4, "non-finite draw scale"),
        ("plsoftmax:delta=1e308", 4, "non-finite draw scale"),  # 2 delta overflows
        ("exp:lambda=2e-308", 8192, "beyond the float range"),  # 2/lambda does not, log(d)/lambda does
    ])
    def test_non_finite_draw_scale_refused_before_any_draw(self, monkeypatch, mech, d, needle):
        # under -W error the overflow used to end in a RuntimeWarning traceback
        argv = ["lipschitz", "--mech", mech, "--d", str(d), "--trials", "30", "--seeds", "0"]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "softmech.cli", *argv],
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and not proc.stderr, proc.stderr[-2000:]
        err = json.loads(proc.stdout.strip().splitlines()[-1])
        assert err["command"] == "lipschitz" and needle in err["error"]

        def no_draws(*args):
            raise RuntimeError("a pair was drawn")

        monkeypatch.setattr(smoothness, "_pair_rows", no_draws)
        with pytest.raises(ValueError, match=needle):
            smoothness.empirical_lipschitz(MechanismSpec.parse(mech), d, "linf", "l1", 30, 0)

    def test_no_usable_pair_exits_2(self, capsys):
        # log-l1 needs positive inputs, which exp's pairs are not; l0.5 is no metric
        for domain in ("log-l1", "l0.5"):
            code = main(["lipschitz", "--mech", "exp:lambda=1", "--d", "32", "--domain", domain,
                         "--range", "l1", "--trials", "30"])
            assert code == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["command"] == "lipschitz" and domain in err["error"]


class TestSubmodular:
    def test_zero_drop_distances(self, tmp_path):
        out = tmp_path / "frontier.csv"
        code = main(
            ["submodular", "--num-sets", "8", "--universe", "30", "--k", "3",
             "--mechs", "pow:lambda=2,exp:lambda=0.5", "--drop-prob", "0", "--seeds", "0-2",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mechanism,param,seed,obj_ratio,l1_dist,linf_dist"
        assert len(lines) == 7
        for line in lines[1:]:
            assert line.split(",")[4] == "0"

    def test_instance_file(self, tmp_path):
        fam = tmp_path / "sets.txt"
        fam.write_text("0 1 2\n2 3\n4\n", encoding="utf-8")
        out = tmp_path / "frontier.csv"
        code = main(
            ["submodular", "--instance-file", str(fam), "--k", "2", "--mechs", "pow:lambda=1",
             "--drop-prob", "0.1", "--seeds", "0,1", "--out", str(out)]
        )
        assert code == 0

    def test_summary_reports_work(self, tmp_path, capsys):
        code = main(
            ["submodular", "--num-sets", "8", "--universe", "30", "--k", "3",
             "--mechs", "pow:lambda=2,exp:lambda=0.5,pow:lambda=8", "--drop-prob", "0.2", "--seeds", "0-3",
             "--out", str(tmp_path / "frontier.csv")]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # one baseline greedy plus a private run per (mechanism, seed); the
        # gain vectors of every run's k steps, the original first step and
        # one thinned first step per seed
        assert summary["work"] == {"greedy_runs": 13, "thinned_instances": 4, "gain_evaluations": 13 * 3 + 1 + 4}

    @pytest.mark.parametrize("big", [10**12, 10**30])
    def test_huge_element_id_exits_2(self, tmp_path, capsys, big):
        fam = tmp_path / "sets.txt"
        fam.write_text(f"0 1\n2 {big}\n", encoding="utf-8")
        code = main(["submodular", "--instance-file", str(fam), "--mechs", "exp:lambda=1", "--seeds", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["command"] == "submodular" and f"universe_size {big + 1}" in err["error"]

    @pytest.mark.parametrize("option, value, needle", [
        ("--num-sets", "1000000000", "num_sets 1000000000 outside [2, 100000]"),
        ("--universe", "1", "universe_size 1 outside [2, "),
    ])
    def test_synthetic_instance_out_of_range_exits_2(self, tmp_path, capsys, option, value, needle):
        out = tmp_path / "frontier.csv"
        code = main(["submodular", option, value, "--mechs", "exp:lambda=1", "--seeds", "0", "--out", str(out)])
        assert code == 2 and not out.exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["command"] == "submodular" and needle in err["error"]

    @pytest.mark.parametrize("num_sets", ["100000", "4"])
    def test_synthetic_instance_past_the_id_cap_exits_2(self, tmp_path, capsys, monkeypatch, num_sets):
        # 254,803,981 ids at the two caps, 12,971,415 at 4 sets: refused from the size formula alone
        def no_draws(*args):
            raise AssertionError("drew an instance past the id cap")

        monkeypatch.setattr(submodular, "spawn_rng", no_draws)
        out = tmp_path / "frontier.csv"
        code = main(["submodular", "--num-sets", num_sets, "--universe", str(2**24), "--mechs", "exp:lambda=1",
                     "--seeds", "0", "--out", str(out)])
        assert code == 2 and not out.exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["command"] == "submodular"
        assert f"num_sets {num_sets} and universe_size {2**24} give" in err["error"] and str(submodular.ID_CAP) in err["error"]


class TestAuction:
    def test_audit_and_checks(self, tmp_path):
        spec = tmp_path / "auction.json"
        spec.write_text(json.dumps({"H": 1.0, "k": 2, "bids": [0.9, 0.4]}), encoding="utf-8")
        out = tmp_path / "outcome.json"
        audit = tmp_path / "audit.csv"
        code = main(
            ["auction", "--instance-file", str(spec), "--mech", "plsoftmax:delta=4",
             "--grid-delta", "0.5", "--grid-floor", "0.1", "--audit", "--resolution", "21",
             "--out", str(out), "--audit-out", str(audit)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["worst_case_revenue_ok"] is True
        assert payload["audit_max_gain"] <= payload["epsilon_ic"] + 1e-9
        lines = audit.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bidder,deviation_bid,utility_gain"
        gains = [float(l.split(",")[2]) for l in lines[1:]]
        assert max(gains) <= payload["epsilon_ic"] + 1e-9


    def test_pow_on_revenue_rows_without_a_positive_entry(self, tmp_path, capsys):
        spec = tmp_path / "auction.json"
        out = tmp_path / "outcome.json"
        argv = ["auction", "--instance-file", str(spec), "--mech", "pow:lambda=1", "--out", str(out)]
        # the one bidder's deviations below every price leave no revenue anywhere
        spec.write_text(json.dumps({"H": 1, "k": 1, "bids": [0.9]}), encoding="utf-8")
        assert main([*argv, "--audit"]) == 0
        assert np.isfinite(json.loads(out.read_text(encoding="utf-8"))["audit_max_gain"])
        # a zero bid leaves none at any price of the grid: pow draws uniformly
        spec.write_text(json.dumps({"H": 1, "k": 1, "bids": [0.0]}), encoding="utf-8")
        assert main(argv) == 0
        dist = json.loads(out.read_text(encoding="utf-8"))["selection_distribution"]
        assert len(dist) > 1 and dist == [dist[0]] * len(dist)
        capsys.readouterr()

    def test_logplsoftmax_on_revenue_rows_with_zero_entries(self, tmp_path, capsys):
        # the prices above the one bid earn nothing, and log 0 is never within
        # delta of the max: those prices get weight 0, as under pow
        spec = tmp_path / "auction.json"
        out = tmp_path / "outcome.json"
        spec.write_text(json.dumps({"H": 1, "k": 1, "bids": [0.5]}), encoding="utf-8")
        argv = ["auction", "--instance-file", str(spec), "--mech", "logplsoftmax:delta=0.5", "--out", str(out)]
        assert main([*argv, "--audit"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        prices, dist = payload["grid_prices"], payload["selection_distribution"]
        assert max(prices) > 0.5 and all(w == 0.0 for p, w in zip(prices, dist) if p > 0.5)
        assert sum(dist) == pytest.approx(1.0) and payload["revenue"] > 0.0
        assert np.isfinite(payload["audit_max_gain"])
        capsys.readouterr()

    @pytest.mark.parametrize("k", [1.9, 1.0, True, "1", None])
    def test_supply_that_is_not_a_json_integer_exits_2(self, tmp_path, capsys, k):
        spec = tmp_path / "auction.json"
        spec.write_text(json.dumps({"H": 1.0, "k": k, "bids": [0.9, 0.4]}), encoding="utf-8")
        assert main(["auction", "--instance-file", str(spec), "--mech", "exp:lambda=1"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["command"] == "auction" and "'k' must be a JSON integer" in err["error"]

    def test_audit_resolution_above_the_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        # resolution 10**8 would keep about 70 GB of records; the cap is
        # checked before the audit allocates anything
        spec = tmp_path / "auction.json"
        spec.write_text(json.dumps({"H": 1.0, "k": 2, "bids": [0.9, 0.4]}), encoding="utf-8")
        argv = ["auction", "--instance-file", str(spec), "--mech", "plsoftmax:delta=4", "--audit"]
        assert main([*argv, "--resolution", str(10**8)]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"command": "auction", "error": f"resolution {10**8} above the cap {10**5}"}
        monkeypatch.setattr(auctions, "_AUDIT_MAX_RESOLUTION", 21)
        assert main([*argv, "--resolution", "21"]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise RuntimeError("worked before checking the resolution")

        monkeypatch.setattr(auctions, "_expected_utilities", no_work)
        assert main([*argv, "--resolution", "22"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"command": "auction", "error": "resolution 22 above the cap 21"}

    def test_grid_step_below_float_resolution_exits_2(self, tmp_path):
        # 1 - 1e-300 == 1 in floats, so the price never reaches the floor.  The
        # run is a child process with 1 GB of address space, so a grid loop
        # without a cap ends there with a MemoryError instead of filling memory.
        resource = pytest.importorskip("resource")  # POSIX only
        spec = tmp_path / "auction.json"
        spec.write_text(json.dumps({"H": 1.0, "k": 2, "bids": [0.9, 0.4]}), encoding="utf-8")
        argv = ["auction", "--instance-file", str(spec), "--grid-delta", "1e-300", "--mech", "plsoftmax:delta=1"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; from softmech.cli import main; sys.exit(main({argv!r}))"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        err = json.loads(proc.stdout.strip().splitlines()[-1])
        assert err["command"] == "auction" and "exceeds 1000000 prices" in err["error"]


class TestLossfn:
    def test_default_probes_pass(self, tmp_path):
        out = tmp_path / "loss.csv"
        code = main(["lossfn", "--d", "4", "--delta", "1", "--trials", "100", "--seeds", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "seed,convexity_violation,zero_iff_residual,subgradient_error"

    def test_bad_delta_exits_2(self, capsys):
        for delta in ("inf", "nan"):
            assert main(["lossfn", "--d", "4", "--delta", delta, "--trials", "5"]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["command"] == "lossfn" and "delta" in err["error"]

    def test_dimension_below_one_exits_2(self, capsys):
        for d in ("0", "-3"):
            assert main(["lossfn", "--d", d, "--trials", "5"]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err == {"command": "lossfn", "error": "d must be >= 1"}
        assert main(["lossfn", "--d", "1", "--trials", "5"]) == 0

    def test_all_points_skipped_ends_and_fails(self, tmp_path, capsys):
        # with delta = 1e-9 every draw sits within 2e-5 of a hinge corner
        out = tmp_path / "loss.csv"
        code = main(["lossfn", "--d", "4", "--delta", "1e-9", "--trials", "20", "--seeds", "0", "--out", str(out)])
        assert code == 1
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["failures"] == ["subgradient_seed0"]
        assert summary["subgradient_points"] == {"checked": 0, "skipped_near_hinge": 40}
        assert out.read_text(encoding="utf-8").splitlines()[1].endswith(",nan")


class TestSizeCaps:
    @pytest.mark.parametrize("argv, needle", [
        (["lipschitz", "--mech", "plsoftmax:delta=1", "--d", "10000000000000", "--trials", "1"],
         "d 10000000000000 above the cap 8192"),
        (["lossfn", "--d", "10000000000000", "--trials", "1"], "d 10000000000000 above the cap 1448"),
        (["lipschitz", "--mech", "exp:lambda=1", "--d", "4", "--trials", "10000000000000"],
         "trials 10000000000000 above the cap 10000000"),
        (["lossfn", "--d", "4", "--trials", "10000000000000"], "trials 10000000000000 above the cap 10000000"),
    ])
    def test_huge_sizes_exit_2(self, argv, needle):
        # a child process with 1 GB of address space: without the caps these
        # end in a MemoryError (--d) or run for days (--trials)
        resource = pytest.importorskip("resource")  # POSIX only
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; from softmech.cli import main; sys.exit(main({argv!r}))"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"command": argv[0], "error": needle}

    @pytest.mark.parametrize("command", ["lipschitz", "lossfn"])
    @pytest.mark.parametrize("flag", ["--d", "--trials"])
    def test_stand_in_caps_are_inclusive_and_checked_first(self, monkeypatch, capsys, command, flag):
        monkeypatch.setattr(cli, "_LIPSCHITZ_D_CAP", 5)
        monkeypatch.setattr(cli, "_LOSSFN_D_CAP", 5)
        monkeypatch.setattr(cli, "_TRIAL_CAP", 12)
        head = ["lipschitz", "--mech", "exp:lambda=1"] if command == "lipschitz" else ["lossfn"]
        sizes = {"--d": 5, "--trials": 12}
        assert main([*head, *(f"{k}={v}" for k, v in sizes.items())]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise RuntimeError("worked before checking the sizes")

        monkeypatch.setattr(cli.MechanismSpec, "lipschitz_bound", no_work)
        monkeypatch.setattr(smoothness, "empirical_lipschitz", no_work)
        monkeypatch.setattr(cli.classification, "convexity_probe", no_work)
        sizes[flag] += 1
        assert main([*head, *(f"{k}={v}" for k, v in sizes.items())]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"command": command, "error": f"{flag[2:]} {sizes[flag]} above the cap {sizes[flag] - 1}"}


class TestSelftest:
    def test_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, command, needle",
        [
            (["eval", "--x", "1,0"], "eval", "--mech"),
            (["eval", "--mech", "exp:lambda=1", "--x", "1,0", "--bogus"], "eval", "--bogus"),
            (["eval", "--mech", "plsoftmax", "--delta", "1", "--x", "1,0"], "eval", "--delta"),
            (["lipschitz", "--mech", "exp:lambda=1", "--d", "x"], "lipschitz", "--d"),
            (["nonsense"], None, "nonsense"),
            ([], None, "command"),
        ],
    )
    def test_bad_arguments_end_with_a_json_line(self, capsys, argv, command, needle):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["command"] == command and needle in err["error"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        assert "--mech" in capsys.readouterr().out


def option_strings(parser):
    return [s for action in parser._actions for s in action.option_strings if s not in ("-h", "--help")]


def test_option_surface():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: option_strings(p) for name, p in subparsers.choices.items()}
    assert surface == {
        "eval": ["--mech", "--x", "--x-file", "--out", "--format"],
        "lipschitz": ["--mech", "--d", "--domain", "--range", "--trials", "--seeds", "--out", "--format"],
        "submodular": ["--instance-file", "--num-sets", "--universe", "--instance-seed", "--k", "--mechs",
                       "--drop-prob", "--seeds", "--out"],
        "auction": ["--instance-file", "--grid-delta", "--grid-floor", "--mech", "--seed", "--audit",
                    "--resolution", "--audit-out", "--out"],
        "lossfn": ["--d", "--delta", "--trials", "--seeds", "--out"],
        "selftest": ["--seed"],
    }
    assert sum(map(len, surface.values())) == 37
