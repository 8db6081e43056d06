"""CLI surface: commands, file formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings

import pytest

import ricciflow
from ricciflow import NoExitWithinHorizon, flow, serialize, verify
from ricciflow.cli import build_parser, main
from ricciflow.cone import normalized_region


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFlowCommand:
    def test_aw3_cone_event(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "flow", "--system", "aw3", "--init", "0.929,0.9,1",
            "--xi", "1", "--horizon", "2", "--event", "cone", "--out", str(tmp_path))
        assert code == 0
        assert out["exit_time"] > 0.0
        events = json.loads((tmp_path / "events.json").read_text())["events"]
        cone_events = [ev for ev in events if ev["name"] == "cone_exit"]
        assert len(cone_events) == 1
        assert cone_events[0]["time"] > 0.0

    def test_berger_cone_event(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "flow", "--system", "berger", "--init", "1.99,1",
            "--horizon", "1", "--event", "cone", "--out", str(tmp_path))
        assert code == 0
        events = json.loads((tmp_path / "events.json").read_text())["events"]
        assert [ev["name"] for ev in events] == ["cone_exit"]

    def test_aw2_round_metric_run(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "flow", "--system", "aw2", "--init", "1,1",
            "--horizon", "0.5", "--out", str(tmp_path))
        assert code == 0
        assert out["trajectory_status"] == "singular"
        rows = read_csv(tmp_path / "trajectory.csv")
        assert rows[0]["ell"] == "0"
        positive_ell = [r for r in rows if float(r["ell"]) > 0]
        assert positive_ell
        assert all(float(r["comp0"]) > float(r["comp1"]) for r in positive_ell)

    def test_stats_reported(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "normalized", "--init", "0.8,1.2",
                            "--horizon", "10", "--out", str(tmp_path))
        assert code == 0
        assert out["trajectory_status"] == "horizon"
        assert set(out["stats"]) == {"n_steps", "n_rejected", "nfev"}
        assert out["stats"]["n_steps"] == out["rows"] - 1

    def test_header_schema(self, tmp_path, capsys):
        run_cli(capsys, "flow", "--system", "aw4", "--init", "1,1,1,1",
                "--xi", "0.5", "--horizon", "0.01", "--out", str(tmp_path))
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "ell,comp0,comp1,comp2,comp3"

    def test_k_flag_matches_xi(self, tmp_path, capsys):
        code1, _ = run_cli(capsys, "flow", "--system", "aw4", "--init", "1,1,1,1",
                           "--k", "1,2", "--horizon", "0.01",
                           "--out", str(tmp_path / "a"))
        code2, _ = run_cli(capsys, "flow", "--system", "aw4", "--init", "1,1,1,1",
                           "--xi", "0.5", "--horizon", "0.01",
                           "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    def test_bad_init_length_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "aw3", "--init", "1,1",
                            "--out", str(tmp_path))
        assert code == 2
        assert out["status"] == "error"

    def test_nonpositive_init_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "aw2", "--init=-1,1",
                            "--out", str(tmp_path))
        assert code == 2
        assert out["status"] == "error"

    @pytest.mark.parametrize("init", ["inf,0.9,1", "0.9,nan,1", "0.9,1,-inf"])
    def test_non_finite_init_is_config_error(self, tmp_path, capsys, init):
        code, out = run_cli(capsys, "flow", "--system", "aw3", "--init", init,
                            "--out", str(tmp_path))
        assert code == 2
        assert "positive and finite" in out["error"]

    def test_zero_init_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "aw3", "--init", "0,0.9,1", "--out", str(tmp_path))
        assert (code, out["error"]) == (2, "--init: metric coefficients must be positive and finite, got '0,0.9,1'")

    def test_non_float_init_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "aw3", "--init", "0.9,a,1",
                            "--out", str(tmp_path))
        assert code == 2
        assert "expected comma-separated floats" in out["error"]

    @pytest.mark.parametrize("system,init", [("normalized", "1e-120,1"), ("normalized", "1e70,1"),
                                             ("berger", "1e200,1e-200")])
    def test_non_finite_initial_rhs_is_numerical_failure(self, tmp_path, capsys, system, init):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out = run_cli(capsys, "flow", "--system", system, "--init", init,
                                "--out", str(tmp_path))
        assert code == 3
        assert "StepSizeUnderflow" in out["error"]

    def test_abs_tol_leaves_collapse_floor(self, tmp_path, capsys):
        # a loose --abs-tol must not stop the run "singular" far from collapse
        code, out = run_cli(capsys, "flow", "--system", "aw3", "--init", "0.8,0.9,1.0",
                            "--horizon", "0.2", "--abs-tol", "0.05", "--out", str(tmp_path))
        assert code == 0
        assert out["trajectory_status"] == "singular"
        assert min(out["final_state"]) <= 1e-9

    def test_near_round_aw4_cone_event(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "aw4", "--init", "1,1,1.0000001,0.9999999",
                            "--event", "cone", "--horizon", "0.1", "--out", str(tmp_path))
        assert code == 0
        assert "cone_exit" in [ev["name"] for ev in out["events"]]

    def test_cone_event_rejected_for_normalized(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "normalized", "--init", "1,1",
                            "--event", "cone", "--out", str(tmp_path))
        assert code == 2
        assert out["error"] == "system 'normalized' has no cone, expected one of ('aw2', 'aw3', 'aw4', 'berger')"

    def test_backward_direction(self, tmp_path, capsys):
        code, out = run_cli(capsys, "flow", "--system", "aw2", "--init", "0.9,1",
                            "--horizon", "0.3", "--direction", "backward", "--out", str(tmp_path))
        assert code == 0
        times = [float(row["ell"]) for row in read_csv(tmp_path / "trajectory.csv")]
        assert times[0] == 0.0 and all(b < a for a, b in zip(times, times[1:]))
        traj = flow.integrate(flow.make_system("aw2"), (0.9, 1.0),
                              flow.IntegratorConfig(max_time=0.3, direction="backward"))
        expected = serialize.write_trajectory_csv(tmp_path / "expected.csv", traj)
        assert (tmp_path / "trajectory.csv").read_bytes() == expected.read_bytes()
        assert out["final_time"] == traj.final_time < 0.0

    def test_determinism(self, tmp_path, capsys):
        for sub in ("r1", "r2"):
            run_cli(capsys, "flow", "--system", "aw3", "--init", "0.8,0.9,1",
                    "--horizon", "0.05", "--out", str(tmp_path / sub))
        assert ((tmp_path / "r1" / "trajectory.csv").read_bytes()
                == (tmp_path / "r2" / "trajectory.csv").read_bytes())
        assert ((tmp_path / "r1" / "events.json").read_bytes()
                == (tmp_path / "r2" / "events.json").read_bytes())


class TestPortraitCommand:
    def test_outputs(self, tmp_path, capsys):
        code, out = run_cli(capsys, "portrait", "--grid", "0.5:1.5:5,0.5:1.5:5",
                            "--horizon", "0.5", "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "regions.csv")
        assert len(rows) == 25
        for row in rows:
            assert row["region"] == normalized_region(float(row["x"]), float(row["s"]))
        einstein = json.loads((tmp_path / "einstein.json").read_text())
        assert einstein["E_plus"]["verdict"] == "PositivelyCurved"
        assert einstein["E_minus"]["verdict"] == "HasNonpositivePlane"
        assert (tmp_path / "seed_000.csv").exists()
        assert (tmp_path / "seed_001.csv").exists()

    def test_seed_file(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("# one seed\n   \n  # an indented comment\n0.87,1.1\n")
        code, out = run_cli(capsys, "portrait", "--grid", "0.5:1.5:3,0.5:1.5:3",
                            "--horizon", "0.2", "--seeds", str(seeds),
                            "--out", str(tmp_path / "p"))
        assert code == 0
        assert out["seeds"] == 1
        assert (tmp_path / "p" / "seed_000.csv").exists()
        assert not (tmp_path / "p" / "seed_001.csv").exists()

    def test_nonpositive_seed_is_config_error(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0.87,1.1\n-0.5,1.1\n")
        code, out = run_cli(capsys, "portrait", "--grid", "0.5:1.5:3,0.5:1.5:3",
                            "--horizon", "0.2", "--seeds", str(seeds),
                            "--out", str(tmp_path / "p"))
        assert code == 2
        assert out["status"] == "error"

    def test_non_finite_seed_is_config_error(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0.87,1.1\n0.5,inf\n")
        code, out = run_cli(capsys, "portrait", "--grid", "0.5:1.5:3,0.5:1.5:3",
                            "--horizon", "0.2", "--seeds", str(seeds),
                            "--out", str(tmp_path / "p"))
        assert code == 2
        assert "line 2" in out["error"]

    def test_bad_grid_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(capsys, "portrait", "--grid", "1:2:1,1:2:4",
                            "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("grid, match", [("1:2:4", "expected x0:x1:nx"), ("1:2:a,1:2:4", "expected x0:x1:nx"),
                                             ("2:1:4,1:2:4", "positive and ordered")])
    def test_malformed_or_unordered_grid_is_config_error(self, tmp_path, capsys, grid, match):
        code, out = run_cli(capsys, "portrait", "--grid", grid, "--out", str(tmp_path))
        assert code == 2
        assert match in out["error"]

    @pytest.mark.parametrize("grid", ["0:1:3,0.5:1:3", "0.5:0.5:3,0.5:1:3", "0.5:1:3,0:1:3", "0.5:1:3,1:1:3"])
    def test_grid_range_at_zero_or_empty_is_config_error(self, tmp_path, capsys, grid):
        code, out = run_cli(capsys, "portrait", "--grid", grid, "--out", str(tmp_path))
        assert (code, out["error"]) == (2, "--grid: ranges must be positive and ordered")

    @pytest.mark.parametrize("text, match", [("0.87,1.1,1\n", "line 1 needs two components, got 3"),
                                             ("# only a comment\n\n", "no seeds found")])
    def test_bad_seed_file_is_config_error(self, tmp_path, capsys, text, match):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(text)
        code, out = run_cli(capsys, "portrait", "--grid", "0.5:1.5:3,0.5:1.5:3", "--seeds", str(seeds),
                            "--out", str(tmp_path / "p"))
        assert code == 2
        assert match in out["error"]

    def test_huge_grid(self, tmp_path, capsys):
        # 4 x^3 s^4 overflows a float there: the region comes from the exact value (P at x > 4s)
        code, out = run_cli(capsys, "portrait", "--grid", "1e100:1e101:2,1e100:1e101:2",
                            "--horizon", "0.2", "--out", str(tmp_path))
        assert code == 0 and out["grid_points"] == 4
        regions = {(float(row["x"]), float(row["s"])): row["region"]
                   for row in read_csv(tmp_path / "regions.csv")}
        assert regions == {(1e100, 1e100): "W", (1e100, 1e101): "G", (1e101, 1e100): "P", (1e101, 1e101): "W"}

    def test_determinism(self, tmp_path, capsys):
        for sub in ("p1", "p2"):
            run_cli(capsys, "portrait", "--grid", "0.5:1.5:4,0.5:1.5:4",
                    "--horizon", "0.3", "--out", str(tmp_path / sub))
        for name in ("regions.csv", "seed_000.csv", "einstein.json"):
            assert ((tmp_path / "p1" / name).read_bytes()
                    == (tmp_path / "p2" / name).read_bytes())


@pytest.mark.parametrize("argv", [
    ("flow", "--system", "berger", "--init", "1.99,1", "--xi", "0.5"),
    ("flow", "--system", "normalized", "--init", "1,1", "--k", "1,2"),
    ("cone-exit", "--family", "aw2", "--init", "0.99,1", "--xi", "0.5"),
    ("cone-exit", "--family", "berger", "--init", "1.99,1", "--k", "1,2"),
])
def test_unused_xi_is_config_error(tmp_path, capsys, argv):
    out_flag = ("--out", str(tmp_path)) if argv[0] == "flow" else ()
    code, out = run_cli(capsys, *argv, *out_flag)
    assert code == 2
    assert "xi = 1" in out["error"]


@pytest.mark.parametrize("xi", ["0", "1.5"])
@pytest.mark.parametrize("argv", [
    ("flow", "--system", "aw4", "--init", "0.9,0.9,1,1"),
    ("cone-exit", "--family", "aw3", "--init", "0.9,0.9,1"),
])
def test_xi_outside_unit_interval_is_config_error(tmp_path, capsys, argv, xi):
    out_flag = ("--out", str(tmp_path)) if argv[0] == "flow" else ()
    code, out = run_cli(capsys, *argv, "--xi", xi, *out_flag)
    assert code == 2
    assert "xi must lie in (0, 1]" in out["error"]


@pytest.mark.parametrize("argv", [
    ("flow", "--system", "aw2", "--init", "0.9,1"),
    ("flow", "--system", "aw4", "--init", "0.9,0.9,1,1"),
    ("cone-exit", "--family", "aw2", "--init", "0.99,1"),
    ("cone-exit", "--family", "aw3", "--init", "0.9,0.9,1"),
])
def test_xi_next_to_k_is_config_error(tmp_path, capsys, argv):
    # --xi and --k are alternatives: whichever xi each gives, neither is dropped unseen
    out_flag = ("--out", str(tmp_path)) if argv[0] == "flow" else ()
    code, out = run_cli(capsys, *argv, "--xi", "0.5", "--k", "1,1", *out_flag)
    assert code == 2
    assert out["status"] == "error" and "--xi and --k" in out["error"]


@pytest.mark.parametrize("k", ["1", "1,2,3", "a,2", "2,1"])
def test_malformed_k_is_config_error(capsys, k):
    code, out = run_cli(capsys, "cone-exit", "--family", "aw3", "--init", "0.9,0.9,1", "--k", k)
    assert code == 2
    assert out["status"] == "error"


@pytest.mark.parametrize("argv", [("flow", "--system", "aw2", "--init", "0.9,1"), ("portrait",),
                                  ("cone-exit", "--family", "aw2", "--init", "0.99,1")])
def test_tolerance_defaults_are_the_integrator_config_defaults(argv):
    args, config = build_parser().parse_args(argv), flow.IntegratorConfig()
    assert (args.rel_tol, args.abs_tol, args.max_step) == (config.rel_tol, config.abs_tol, config.max_step)
    assert args.horizon == (1.0 if argv[0] == "flow" else config.max_time)   # flow's own shorter horizon


def test_empty_k_is_config_error(capsys):
    # an empty --k gives no k1,k2: it must not fall back to xi = 1
    code, out = run_cli(capsys, "cone-exit", "--family", "aw3", "--k", "", "--init", "0.92,0.9,1")
    assert code == 2
    assert out["error"] == "--k: expected two integers k1,k2, got ''"


@pytest.mark.parametrize("argv", [
    ("portrait", "--seeds", "{tmp}/missing.txt", "--out", "{tmp}/out"),
    ("verify", "--out", "{tmp}/file"),
    ("flow", "--system", "aw2", "--init", "0.9,1", "--out", "{tmp}/file/x"),
], ids=["missing seeds file", "out is a file", "out under a file"])
def test_unusable_path_is_config_error(tmp_path, capsys, argv):
    # an OSError ends in the usual JSON error reply, not a traceback
    (tmp_path / "file").write_text("")
    code, out = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out["status"] == "error" and out["code"] == 2 and str(tmp_path) in out["error"]


@pytest.mark.parametrize("argv", [
    ("flow", "--system", "normalized", "--init", "1,1", "--horizon", "inf"),
    ("portrait", "--horizon", "inf"),
    ("flow", "--system", "normalized", "--init", "1,1", "--max-step", "0"),
])
def test_unbounded_horizon_or_zero_step_is_config_error(tmp_path, capsys, monkeypatch, argv):
    def never(*_args, **_kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(flow, "integrate", never)  # a run to an infinite horizon never ends
    code, out = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out["status"] == "error"


@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
def test_infinite_tolerance_is_config_error(tmp_path, capsys, monkeypatch, flag):
    def never(*_args, **_kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(flow, "integrate", never)
    code, out = run_cli(capsys, "flow", "--system", "normalized", "--init", "1,1",
                        "--horizon", "10", flag, "inf", "--out", str(tmp_path))
    assert code == 2
    assert "positive and finite" in out["error"]


def test_every_reply_opens_with_status_and_command(tmp_path, capsys):
    # main wraps each command's payload; verify's payload overrides the status in place
    replies = {"roots": ["roots", "sign_chart"],
               "verify": ["checks", "failed", "report"]}
    for command, keys in replies.items():
        main([command, "--out", str(tmp_path)] if command == "verify" else [command])
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["status", "command", *keys]
        assert out["status"] == ("failed" if command == "verify" else "ok") and out["command"] == command


class TestRootsCommand:
    def test_roots_and_sign_chart(self, capsys):
        code, out = run_cli(capsys, "roots")
        assert code == 0
        roots = out["roots"]
        assert roots[1] == -2.0 and roots[2] == 0.0
        signs = {tuple(entry["interval"]): entry["sign"] for entry in out["sign_chart"]}
        assert signs[(roots[2], roots[3])] == "positive"
        assert signs[(roots[3], roots[4])] == "negative"


class TestConeExitCommand:
    def test_aw2(self, capsys):
        code, out = run_cli(capsys, "cone-exit", "--family", "aw2", "--init", "0.99,1")
        assert code == 0
        assert out["exit_time"] > 0.0
        assert out["verdict_after"]["classification"] == "HasNonpositivePlane"

    def test_nearby_xi(self, capsys):
        code, out = run_cli(capsys, "cone-exit", "--family", "aw3",
                            "--init", "0.9287,0.9,1", "--xi", "0.95")
        assert code == 0
        assert len(out["exit_state"]) == 4
        assert out["verdict_after"]["classification"] == "HasNonpositivePlane"

    def test_berger_init_length_is_config_error(self, capsys):
        code, out = run_cli(capsys, "cone-exit", "--family", "berger", "--init", "1.99,1,3")
        assert code == 2
        assert "expected a pair of reals" in out["error"]

    def test_collapse_is_numerical_failure(self, capsys):
        code, out = run_cli(capsys, "cone-exit", "--family", "aw3",
                            "--init", "0.12,0.22,1", "--xi", "0.9")
        assert code == 3
        assert out["error"].startswith("NoExitWithinHorizon")
        assert "(status: singular)" in out["error"]

    def test_no_exit_is_numerical_failure(self, capsys):
        code, out = run_cli(capsys, "cone-exit", "--family", "aw2",
                            "--init", "0.5,1", "--horizon", "0.0001")
        assert code == 3
        assert "NoExitWithinHorizon" in out["error"]


class TestVerifyCommand:
    def test_report_and_exit_code(self, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--out", str(tmp_path))
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert len(report) == 30
        failed = {entry["check"] for entry in report if entry["status"] == "fail"}
        # the two root brackets sit outside the true roots; everything else passes
        assert failed == {"d_roots_lambda1_bracket", "d_roots_lambda5_bracket"}
        assert code == 4
        assert set(out["failed"]) == failed

    def test_check_without_measurement_reports_null(self, tmp_path, capsys, monkeypatch):
        def no_exit(*_args, **_kwargs):
            raise NoExitWithinHorizon("stubbed")

        monkeypatch.setattr(flow, "cone_exit", no_exit)
        code, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
        assert code == 4

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        text = (tmp_path / "verification_report.json").read_text()
        report = {entry["check"]: entry for entry in json.loads(text, parse_constant=reject)}
        exits = [name for name in report if name.startswith("cone_exit_")]
        assert len(exits) == 5
        for name in exits:
            assert report[name]["status"] == "fail" and report[name]["measured"] is None
            assert report[name]["headroom"] is None
        assert report["seed_p2_enters_pink"]["measured"] > 0.0

    def test_headroom_is_measured_over_tolerance(self, tmp_path, capsys):
        # only a row held to measured <= tolerance has a headroom; the derivative,
        # bracket, sign, exit and p2-entry rows report null
        run_cli(capsys, "verify", "--out", str(tmp_path))
        text = (tmp_path / "verification_report.json").read_text()
        report = {entry["check"]: entry for entry in json.loads(text)}
        for result in verify.run_all():
            expected = None if result.headroom is None else result.measured / result.tolerance
            assert report[result.name]["headroom"] == expected, result.name
        assert all(0.0 <= entry["headroom"] <= 1.0 for entry in report.values()
                   if entry["status"] == "pass" and entry["headroom"] is not None)
        for name in ("two_param_derivative_at_round", "d_roots_lambda1_bracket", "d_roots_lambda4_bracket",
                     "sign_theorem_xi1", "cone_exit_aw2", "seed_p2_enters_pink"):
            assert report[name]["headroom"] is None, name
        assert 0.0 < report["t_a_closed_form_grid"]["headroom"] < 1.0


@pytest.mark.parametrize("argv, code", [(["roots"], 0), (["cone-exit", "--family", "aw3", "--init", "0.9,1"], 2)])
def test_module_entry_point_exits_with_the_code_of_main(argv, code):
    # `python -m ricciflow.cli`, as the README documents it
    src = os.path.dirname(os.path.dirname(ricciflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "ricciflow.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout)["status"] == ("ok" if code == 0 else "error")
