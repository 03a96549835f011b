import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biasforge
from biasforge import bounds as bd
from biasforge import cli
from biasforge import distill as dst
from biasforge import noise as nz


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBounds:
    def test_reference_point(self, capsys):
        report = run_json(
            capsys, "bounds", "--n", "3", "--r", "3", "--pz", "1e-3", "--bias", "1000"
        )
        res = report["results"]
        assert abs(res["e_xl"] - 3.00e-4) < 1e-6
        assert abs(res["e_zl"] - 1.397e-4) < 1e-6
        assert report["params"]["p_x"] == 1e-6
        assert report["params"]["p_zz"] == 1e-6  # defaults to p_x

    def test_even_r_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "3", "--r", "2", "--pz", "1e-3", "--bias", "10")
        assert code == 2 and "odd" in err

    def test_zero_rates_give_zeros(self, capsys):
        report = run_json(capsys, "bounds", "--n", "3", "--r", "3", "--pz", "0", "--px", "0")
        assert report["results"]["e_xl"] == 0.0
        assert report["results"]["e_zl"] == 0.0

    def test_missing_rate_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--n", "3", "--r", "3", "--pz", "1e-3"])
        assert exc.value.code == 2

    def test_split_repetition_counts(self, capsys):
        report = run_json(
            capsys, "bounds", "--n", "3", "--rz", "1", "--rzz", "3", "--pz", "1e-3", "--bias", "100"
        )
        assert report["params"]["r_z"] == 1 and report["params"]["r_zz"] == 3

    @pytest.mark.parametrize(
        "flags",
        [
            # C(2001, 1001) is too large for a float, and (8 p_z)^1001 is a normal float
            ["--rz", "1", "--rzz", "2001", "--pz", "0.1", "--px", "1e-5"],
            ["--r", "2001", "--pz", "0.5", "--px", "0.5"],  # a float power past the largest float
        ],
        ids=["binomial", "power"],
    )
    def test_a_bound_that_overflows_a_float_exits_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "--n", "3", *flags)
        assert code == 2 and out == ""
        assert err.startswith("biasforge: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_bound_past_the_largest_float_exits_2_and_writes_nothing(self, capsys, tmp_path, fmt):
        # C(411, 206) times the float 8^206 is a float product past the largest
        # float: inf, with no OverflowError
        flags = ["bounds", "--n", "3", "--r", "411", "--pz", "1", "--px", "1", "--format", fmt]
        code, out, err = run_cli(capsys, *flags)
        assert code == 2 and out == ""
        assert err.startswith("biasforge: ") and err.count("\n") == 1 and "not finite" in err, err
        path = tmp_path / f"bounds.{fmt}"
        assert run_cli(capsys, *flags, "--out", str(path))[0] == 2 and not path.exists()

    def test_a_coefficient_past_the_largest_float_takes_the_term_products(self, capsys):
        # C(501, 251) (8^251 + 5^251) overflows a float; its per-term products do not
        report = run_json(capsys, "bounds", "--n", "3", "--r", "501", "--pz", "1e-3", "--bias", "100")
        assert report["results"]["e_xl"] == bd.e_xl_bound(3, 501, 1e-5, 1e-3)
        assert math.isclose(report["results"]["e_xl"], 0.04515, rel_tol=1e-15)

    @pytest.mark.parametrize("p_z", ["0.028", "0.0285"])
    def test_channel_terms_past_r_1000_take_e_xl_terms_exactly(self, capsys, p_z):
        # at r = 1001 the float powers (5 p_z)^501 and (8 p_z)^501 are 0.0 or
        # subnormal; the channel terms take them as e_xl does, so they are
        # nonzero and add up to it
        flags = ["bounds", "--n", "3", "--r", "1001", "--pz", p_z, "--px", "0", "--pzz", "0"]
        b = run_json(capsys, *flags)["results"]
        assert all(b[name] > 0.0 for name in ("eps_x_mz", "eps_x2", "eps_x_mzz", "e_xl")), b
        assert b["e_xl"] == bd.e_xl_bound(3, 1001, 0.0, float(p_z))
        assert math.isclose(b["eps_x3"] + b["eps_x_mzz"], b["e_xl"], rel_tol=1e-12)

    def test_a_binomial_past_the_largest_float_times_an_underflowed_power_is_exact(self, capsys):
        # C(2001, 1001) is too large for a float, but (8e-3)^1001 is 0.0: the
        # term is taken in exact rationals, C(2001, 1001) (8e-3)^1001 ~ 1e-1497,
        # which rounds to 0.0, not refused as an overflow
        flags = ["bounds", "--n", "3", "--rz", "1", "--rzz", "2001", "--pz", "1e-3", "--px", "1e-5"]
        b = run_json(capsys, *flags)["results"]
        assert b["eps_x_mzz"] == b["eps_x2"] > 0.0
        assert math.isclose(b["eps_x3"] + b["eps_x_mzz"], b["e_xl"], rel_tol=1e-12)

    @pytest.mark.parametrize("p_z", ["0", "1e-3"])
    def test_nan_bias_exits_2(self, capsys, p_z):
        code, out, err = run_cli(capsys, "bounds", "--n", "3", "--r", "1", "--pz", p_z, "--bias", "nan")
        assert code == 2 and out == ""
        assert err.startswith("biasforge: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "rates",
        [["--pz", "-0", "--bias", "10"], ["--pz", "1e-3", "--px", "-0"], ["--pz", "1e-3", "--bias", "10", "--pzz", "-0"]],
        ids=["pz", "px", "pzz"],
    )
    def test_a_negative_zero_rate_exits_2(self, capsys, rates):
        # -0.0 passes every >= 0 comparison; NoiseParams refuses it, so no
        # report echoes a rate of -0.0
        code, out, err = run_cli(capsys, "bounds", "--n", "3", "--r", "1", *rates)
        assert code == 2 and out == ""
        assert err.startswith("biasforge: ") and err.count("\n") == 1 and "negative zero" in err, err

    def test_a_negative_rate_keeps_its_message(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "3", "--r", "1", "--pz", "-0.001", "--bias", "10")
        assert (code, out, err) == (2, "", "biasforge: --pz must be >= 0\n")

    @pytest.mark.parametrize("split", [["--rz", "1", "--rzz", "5"], ["--rz", "1"], ["--rzz", "5"]])
    def test_r_beside_rz_or_rzz_exits_2(self, capsys, split):
        code, out, err = run_cli(capsys, "bounds", "--n", "3", "--r", "3", *split, "--pz", "1e-3", "--bias", "100")
        assert code == 2 and out == "" and "not both" in err


class TestSimulate:
    def test_enumerate_dominated_by_bounds(self, capsys):
        report = run_json(
            capsys,
            "simulate", "--n", "3", "--theta", "T", "--r", "1",
            "--pz", "1e-3", "--bias", "100", "--mode", "enumerate", "--max-order", "2",
        )
        res = report["results"]
        assert res["e_z"] <= res["bound_e_zl"]
        assert res["e_x"] <= res["bound_e_xl"]
        assert not res["bound_violation"]
        # the same point at bias 1000 sits under the spec's quoted 6.05e-5
        report2 = run_json(
            capsys,
            "simulate", "--n", "3", "--theta", "T", "--r", "1",
            "--pz", "1e-3", "--bias", "1000", "--mode", "enumerate", "--max-order", "2",
        )
        assert report2["results"]["e_z"] <= 6.05e-5

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "mc", "--trials", "0",
        )
        assert code == 2

    def test_negative_seed_exits_2_naming_the_seed(self, capsys):
        # refused by name before the first block seeds its generator
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "mc", "--trials", "10", "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert err.splitlines() == ["biasforge: seed must be >= 0, got -1"]

    def test_n_above_sim_max_exits_2_before_simulating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(nz, "enumerate_faults", refuse)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "9", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "enumerate", "--max-order", "1",
        )
        assert code == 2 and out == "" and "SIM_MAX_N" in err

    def test_frame_wider_than_63_bits_exits_2_before_simulating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(nz, "estimate_rates_mc", refuse)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "27", "--pz", "1e-3", "--bias", "100",
            "--mode", "mc", "--trials", "100",
        )
        assert code == 2 and out == "" and "FRAME_BITS" in err

    def test_threads_option_exits_2(self, capsys):
        # every estimate runs in one process, so simulate takes no worker count
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100", "--mode", "mc",
                      "--trials", "100", "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exits_2_before_simulating(self, capsys, monkeypatch, theta):
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(nz, "enumerate_faults", refuse)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "enumerate", "--max-order", "1", f"--theta-radians={theta}",
        )
        assert code == 2 and out == "" and "must be finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["T", "plusI"])
    def test_named_and_custom_angle_together_exit_2_before_simulating(self, capsys, monkeypatch, key):
        # the run would take --theta-radians and its header would read "custom": refuse the pair
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(nz, "enumerate_faults", refuse)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "enumerate", "--max-order", "1", "--theta", key, "--theta-radians", "1.0",
        )
        assert (code, out, err) == (2, "", "biasforge: --theta and --theta-radians both set the angle: give one\n")

    def test_angle_defaults_to_t(self, capsys):
        report = run_json(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100", "--mode", "enumerate", "--max-order", "1",
        )
        assert (report["params"]["theta"], report["params"]["theta_radians"]) == ("T", math.pi / 4)

    def test_angle_at_a_class_threshold_exits_2(self, capsys):
        # a class fidelity of this angle's table lies within 1e-9 of 0.99
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "enumerate", "--max-order", "1", "--theta-radians", "0.10016742116156098",
        )
        assert code == 2 and out == ""
        assert err.startswith("biasforge: ") and "within 1e-9 of 0.99" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode_flags, message",
        [
            (["--mode", "enumerate", "--max-order", "1", "--trials", "5"], "--trials is read only by --mode mc"),
            (["--mode", "mc", "--trials", "100", "--max-order", "2"], "--max-order is read only by --mode enumerate"),
        ],
        ids=["trials", "max-order"],
    )
    def test_a_flag_its_mode_does_not_read_exits_2_before_simulating(self, capsys, monkeypatch, mode_flags, message):
        # the header would show the dropped flag as null: refuse it instead
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(nz, "enumerate_faults", refuse)
        monkeypatch.setattr(nz, "estimate_rates_mc", refuse)
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100", *mode_flags
        )
        assert (code, out, err) == (2, "", f"biasforge: {message}\n")

    def test_bad_order_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "enumerate", "--max-order", "3",
        )
        assert code == 2

    def test_zero_noise_mc_reject_rate(self, capsys):
        # physical rejection of the noiseless T gadget is 5/8 (biased
        # X-readout statistics), not the record-counting 1/4
        report = run_json(
            capsys,
            "simulate", "--n", "3", "--theta", "T", "--r", "1",
            "--pz", "0", "--px", "0", "--mode", "mc", "--trials", "20000",
            "--seed", "9",
        )
        res = report["results"]
        assert res["e_x"] == 0.0 and res["e_z"] == 0.0
        assert abs(res["reject_rate"] - 0.625) < 0.02

    def test_bound_violation_exits_3(self, capsys, monkeypatch):
        fake = nz.RateEstimate(
            e_x=1.0, e_z=0.0, e_y=0.0, reject_rate=0.0,
            trials_or_order=1,
        )
        monkeypatch.setattr(nz, "enumerate_faults", lambda *a, **k: fake)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100",
            "--mode", "enumerate", "--max-order", "1",
        )
        assert code == 3 and "bound violation" in err


class TestPlan:
    def test_savings_factor(self, capsys):
        report = run_json(capsys, "plan", "--target", "1e-8", "--pz", "1e-3", "--bias", "100")
        assert report["results"]["savings_factor"] == 3.75
        assert report["results"]["gadget"]["layers"] == report["results"]["baseline"]["layers"] - 1

    def test_degenerate_target(self, capsys):
        report = run_json(capsys, "plan", "--target", "0.5", "--pz", "1e-3", "--bias", "100")
        res = report["results"]
        assert res["gadget"]["layers"] == 0 and res["baseline"]["layers"] == 0
        assert res["savings_factor"] == 0.25

    def test_two_vs_three(self, capsys):
        report = run_json(capsys, "plan", "--target", "1e-16", "--pz", "1e-3", "--bias", "100")
        assert report["results"]["gadget"]["layers"] == 2
        assert report["results"]["baseline"]["layers"] == 3

    def test_pzz_flag_reaches_the_planner(self, capsys):
        argv = ["plan", "--target", "1e-12", "--pz", "1e-3", "--bias", "100"]
        default = run_json(capsys, *argv)["results"]
        report = run_json(capsys, *argv, "--pzz", "5e-6")
        assert report["params"]["p_zz"] == 5e-6
        assert report["results"] != default
        gadget_plan, baseline_plan = dst.plan(1e-12, 1e-3, 100.0, p_zz=5e-6)
        assert report["results"] == {
            "gadget": cli._plan_row(gadget_plan),
            "baseline": cli._plan_row(baseline_plan),
            "savings_factor": dst.savings_factor(gadget_plan, baseline_plan),
        }

    def test_px_flag_plans_at_the_printed_px(self, capsys):
        # p_z / (p_z / p_x) is not p_x for this pair: the plan must use the
        # p_x of its header, not one rebuilt from the bias
        assert 1.05e-3 / (1.05e-3 / 5.25e-5) != 5.25e-5
        report = run_json(capsys, "plan", "--target", "1e-12", "--pz", "1.05e-3", "--px", "5.25e-5")
        params, gadget = report["params"], report["results"]["gadget"]
        noise = nz.NoiseParams(p_x=params["p_x"], p_z=params["p_z"], p_zz=params["p_zz"])
        assert noise == nz.NoiseParams(p_x=5.25e-5, p_z=1.05e-3, p_zz=5.25e-5)
        achieved = dst.concatenate(dst.gadget_channel(3, gadget["r"], noise), gadget["layers"])
        assert (gadget["achieved_e_x"], gadget["achieved_e_z"]) == (achieved.e_x, achieved.e_z)

    def test_infeasible_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--target", "1e-8", "--pz", "0.05", "--bias", "10")
        assert code == 4

    def test_bad_target_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "plan", "--target", "2.0", "--pz", "1e-3", "--bias", "10")
        assert code == 2


class TestSweep:
    def test_unknown_figure_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--figure", "nope", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "unknown figure" in err

    def test_bounds_r3_schema(self, tmp_path, capsys):
        out = tmp_path / "f4a.csv"
        code, _, _ = run_cli(capsys, "sweep", "--figure", "bounds-r3", "--out", str(out), "--points", "5")
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "p_z,eta,e_xl,e_zl"
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 15  # 3 bias series x 5 points
        assert {float(r[1]) for r in rows} == {10.0, 100.0, 1000.0}

    def test_bounds_r1_series_nearly_indistinguishable(self, tmp_path, capsys):
        out = tmp_path / "f4b.csv"
        run_cli(capsys, "sweep", "--figure", "bounds-r1", "--out", str(out), "--points", "9")
        rows = {}
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("p_z"):
                continue
            p_z, eta, e_xl, _ = line.split(",")
            rows.setdefault(float(p_z), {})[float(eta)] = float(e_xl)
        for p_z, series in rows.items():
            lo, hi = series[1000.0], series[10.0]
            assert abs(hi - lo) / lo < 0.2

    def test_overhead_8_marks_advantaged_region(self, tmp_path, capsys):
        out = tmp_path / "f6a.csv"
        code, _, _ = run_cli(capsys, "sweep", "--figure", "overhead-8", "--out", str(out), "--points", "8")
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        idx = {c: i for i, c in enumerate(cols)}
        marked = unmarked = 0
        for line in lines[1:]:
            vals = line.split(",")
            p_z, eta = float(vals[idx["p_z"]]), float(vals[idx["eta"]])
            advantaged = vals[idx["gadget_advantaged"]] == "true"
            if 1e-4 < p_z < 2e-3 and eta >= 100.0:
                assert advantaged, (p_z, eta)
            if 1e-4 < p_z < 2e-3 and eta >= 10.0:
                marked += advantaged
                unmarked += not advantaged
        # the eta >= 10 region is predominantly marked; the exact-detection
        # round gives the eta = 10 series a smaller advantaged window than
        # the reference model at high p_z
        assert marked / (marked + unmarked) >= 0.7

    def test_missing_out_writes_stdout(self, tmp_path, capsys):
        # as replay does: without --out the CSV goes to stdout
        code, stdout, err = run_cli(capsys, "sweep", "--figure", "bounds-r1", "--points", "3")
        assert code == 0 and err == ""
        out = tmp_path / "f.csv"
        assert run_cli(capsys, "sweep", "--figure", "bounds-r1", "--points", "3", "--out", str(out))[0] == 0
        assert stdout.encode() == out.read_bytes()

    @pytest.mark.parametrize("figure", ["rm-r1", "overhead-8"])
    @pytest.mark.parametrize("points", ["0", "1", "-1"])
    def test_fewer_than_two_points_exits_2(self, tmp_path, capsys, figure, points):
        out = tmp_path / "f.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--figure", figure, "--out", str(out), "--points", points)
        assert code == 2 and stdout == "" and not out.exists()
        assert err == "biasforge: --points must be >= 2\n"

    def test_bounds_rows_match_direct_calls(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--figure", "bounds-r3", "--out", str(out), "--points", "2")[0] == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
        assert len(rows) == 6
        for p_z, eta, e_xl, e_zl in (map(float, row) for row in rows):
            assert e_xl == bd.e_xl_bound(3, 3, p_z / eta, p_z)
            assert e_zl == bd.e_zl_bound(3, 3, p_z / eta, p_z, p_z / eta)

    def test_rm_figure_runs(self, tmp_path, capsys):
        out = tmp_path / "f5.csv"
        code, _, _ = run_cli(capsys, "sweep", "--figure", "rm-r1", "--out", str(out), "--points", "3")
        assert code == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "p_z,eta,e_x_rm,e_z_rm,p_accept_rm"


class TestReproducibility:
    def test_identical_invocations_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "sweep", "--figure", "bounds-r3", "--out", str(path), "--points", "4"
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mc_seed_determinism(self, capsys):
        args = (
            "simulate", "--n", "3", "--r", "1", "--pz", "1e-2", "--bias", "10",
            "--mode", "mc", "--trials", "2000",
        )
        r1 = run_json(capsys, *args, "--seed", "4")
        r2 = run_json(capsys, *args, "--seed", "4")
        r3 = run_json(capsys, *args, "--seed", "5")
        assert r1 == r2 and r1["results"] != r3["results"]

    def test_replay_json_round_trip(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "plan", "--target", "1e-8", "--pz", "1e-3", "--bias", "100", "--out", str(out)
        )
        assert code == 0
        code2, replay_out, _ = run_cli(capsys, "replay", str(out))
        assert code2 == 0
        assert replay_out.encode() == out.read_bytes()

    def test_replay_csv_round_trip(self, tmp_path, capsys):
        out = tmp_path / "f4.csv"
        run_cli(capsys, "sweep", "--figure", "bounds-r1", "--out", str(out), "--points", "3")
        replayed = tmp_path / "f4_replay.csv"
        code, _, _ = run_cli(capsys, "replay", str(out), "--out", str(replayed))
        assert code == 0
        assert out.read_bytes() == replayed.read_bytes()

    def test_replay_rejects_header_missing_params(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "simulate", "params": {"n": 3}}))
        code, out, err = run_cli(capsys, "replay", str(bad))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "simulate header: the following arguments are required: --r" in err

    def test_replay_rejects_header_of_wrong_type(self, tmp_path, capsys):
        good = tmp_path / "bounds.csv"
        run_cli(capsys, "bounds", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "10", "--format", "csv",
                "--out", str(good))
        bad = tmp_path / "bad.csv"
        bad.write_text(good.read_text().replace('"n": 3', '"n": "3"'))
        code, out, err = run_cli(capsys, "replay", str(bad))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "n='3' rebuilds as 3" in err

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("bounds", {"format": "xml"}),  # no --format choice
            ("simulate", {"theta": "Tee"}),  # no --theta choice
            ("simulate", {"r_zz": 3}),  # --r sets r_zz = r_z = 1
            ("simulate", {"theta_radians": 0.5}),  # T fixes the angle
            ("simulate", {"p_z": 0}),  # an int where --pz gives a float
            ("plan", {"extra": 1}),  # no flag writes it
        ],
    )
    def test_replay_rejects_header_no_flags_produce(self, tmp_path, capsys, command, edit):
        flags = {
            "bounds": ["--n", "3", "--r", "1"],
            "simulate": ["--n", "3", "--r", "1", "--mode", "enumerate", "--max-order", "1"],
            "plan": ["--target", "1e-8"],
        }[command]
        report = run_json(capsys, command, *flags, "--pz", "1e-3", "--bias", "10")
        report["params"].update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, "replay", str(bad))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"{command} header" in err

    def test_replay_refuses_a_threads_header(self, tmp_path, capsys):
        # outputs recorded while simulate took --threads carry the key; it
        # is no simulate param now, so such an output does not replay
        report = run_json(capsys, "simulate", "--n", "3", "--r", "1", "--pz", "1e-2", "--bias", "10",
                          "--mode", "mc", "--trials", "2000", "--seed", "7")
        report["params"]["threads"] = 1
        old = tmp_path / "old.json"
        old.write_text(json.dumps(report, indent=2) + "\n")
        code, out, err = run_cli(capsys, "replay", str(old))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("biasforge: ") and "'threads'" in err

    def test_replay_emits_params_as_a_fresh_run_would(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        run_cli(capsys, "simulate", "--n", "3", "--r", "1", "--theta-radians", "0.5", "--pz", "1e-3", "--px", "1e-4",
                "--mode", "enumerate", "--max-order", "1", "--out", str(fresh))
        report = json.loads(fresh.read_text())
        assert report["params"]["theta"] == "custom"
        report["params"] = dict(reversed(report["params"].items()))
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, "replay", str(shuffled))
        assert code == 0 and out.encode() == fresh.read_bytes()

    def test_a_reused_parser_writes_what_a_fresh_process_writes(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process; each call here, a refusal
        # included, must leave nothing in it that the next call reads
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
        src = str(Path(biasforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        swept = tmp_path / "sweep.csv"
        noise = ("--pz", "1e-3", "--bias", "100")
        commands = [
            ("sweep", "--figure", "overhead-12", "--points", "3"),
            ("plan", "--target", "1e-12", "--pz", "1e-3", "--px", "1e-5", "--bias", "100"),  # refused
            ("plan", "--target", "1e-12", *noise),
            ("replay", str(swept)),
            ("bounds", "--n", "3", "--r", "3", *noise),
        ]
        codes = []
        for argv in commands:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            if argv[0] == "sweep":
                swept.write_text(captured.out)
            fresh = subprocess.run([sys.executable, "-m", "biasforge.cli", *argv], env=env, capture_output=True)
            assert (code, captured.out.encode(), captured.err.encode()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0]

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # an --out in a missing directory is refused in one line, as an
        # unreadable replay file is, and no file is written
        good, missing = tmp_path / "bounds.json", tmp_path / "missing" / "x.json"
        flags = ["--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "100"]
        assert run_cli(capsys, "bounds", *flags, "--out", str(good))[0] == 0
        for argv in (["bounds", *flags], ["replay", str(good)]):
            code, out, err = run_cli(capsys, *argv, "--out", str(missing))
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith(f"biasforge: cannot write {missing}: "), argv
        assert not missing.parent.exists()

    def test_header_embeds_version_config_seed(self, capsys):
        report = run_json(capsys, "bounds", "--n", "3", "--r", "1", "--pz", "1e-3", "--bias", "10", "--seed", "123")
        assert report["tool"] == "biasforge"
        assert report["version"]
        assert report["params"]["seed"] == 123
        assert report["params"]["n"] == 3


class TestConfigFile:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nr=3\npz=1e-3\nbias=1000\n")
        report = run_json(capsys, "bounds", "--config", str(cfg))
        assert report["params"]["p_x"] == 1e-6
        report2 = run_json(capsys, "bounds", "--config", str(cfg), "--bias", "10")
        assert report2["params"]["p_x"] == 1e-4

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_config_equals_form_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nr=3\npz=1e-3\nbias=1000\n")
        assert run_json(capsys, "bounds", f"--config={cfg}") == run_json(capsys, "bounds", "--config", str(cfg))

    @pytest.mark.parametrize("forms", [("--config", "--config"), ("--config=", "--config"), ("--config", "--config=")])
    def test_a_second_config_exits_2(self, tmp_path, capsys, forms):
        paths = []
        for name in ("a", "b"):
            paths.append(tmp_path / f"{name}.cfg")
            paths[-1].write_text(f"n=3\nr=3\npz=1e-3\nbias={10 if name == 'a' else 1000}\n")
        argv = []
        for form, path in zip(forms, paths):
            argv += [form + str(path)] if form.endswith("=") else [form, str(path)]
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert (code, out, err) == (2, "", "biasforge: --config may be given only once\n")

    def test_an_abbreviated_config_is_not_dropped(self, tmp_path, capsys):
        # the parser knows no --config, so an abbreviation is an error, not
        # a file silently ignored beside flags that make a complete run
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nr=3\npz=1e-3\nbias=1000\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--conf", str(cfg), "--n", "3", "--r", "1", "--pz", "1e-2", "--bias", "10"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and "unrecognized arguments" in captured.err


def test_csv_format_bounds(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(
        capsys, "bounds", "--n", "3", "--r", "3", "--pz", "1e-3", "--bias", "1000",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# tool=biasforge")
    assert any(l.startswith("# params=") for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split(",")[:2] == ["eps_x3", "eps_x_mzz"]
    assert len(data) == 2
