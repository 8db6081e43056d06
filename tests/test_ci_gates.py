"""`tools/ci_gates.py` on canned inputs: each gate passes the runs of a working tree and fails each kind of fault."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_gates.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ci_gates", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BRACKET_ROWS = [("tests.test_acceptance", f"test_criterion[{name}]", "failure")
                for name in ("d_roots_lambda1_bracket", "d_roots_lambda5_bracket")]


def junit_file(tmp_path, cases, name="junit.xml"):
    """A JUnit XML file of `cases`, each (classname, name, outcome), outcome None, "failure", "error" or "skipped"."""
    body = "".join(f'<testcase classname="{cls}" name="{test}">{f"<{outcome}/>" if outcome else ""}</testcase>'
                   for cls, test, outcome in cases)
    path = tmp_path / name
    path.write_text(f'<testsuites><testsuite name="pytest">{body}</testsuite></testsuites>')
    return str(path)


PASSING = [*BRACKET_ROWS, ("tests.test_input_guard", "test_guard", None),
           ("tests.test_cone.TestRowwise", "test_rows", None), ("tests.test_integrator", "test_solve_ivp", "skipped"),
           ("tests.test_input_guards_extra", "test_similar_prefix", "skipped")]


def test_junit_passes_the_two_bracket_rows(tool, tmp_path):
    paths = [junit_file(tmp_path, PASSING, f"junit-{i}.xml") for i in range(3)]
    assert tool.main(["junit", *paths, "--must-run"]) == 0


@pytest.mark.parametrize("extra", [("tests.test_flow", "test_third", "failure"),
                                   ("tests.test_cli", "test_third", "error")], ids=["failure", "error"])
def test_junit_fails_on_a_third_failure(tool, tmp_path, extra):
    assert tool.main(["junit", junit_file(tmp_path, [*PASSING, extra])]) == 1


def test_junit_fails_without_a_bracket_row(tool, tmp_path):
    assert tool.main(["junit", junit_file(tmp_path, PASSING[1:])]) == 1


@pytest.mark.parametrize("skipped", [("tests.test_battery_reference", "test_bits", "skipped"),
                                     ("tests.test_cone.TestRowwise", "test_rows", "skipped"),
                                     ("tests.test_input_guard.TestNewTable", "test_case", "skipped"),
                                     ("", "tests.test_derivation_oracle", "skipped")],
                         ids=["module", "listed class", "class in a module", "module skipped whole"])
def test_junit_must_run_fails_on_a_skip(tool, tmp_path, skipped):
    paths = [junit_file(tmp_path, PASSING, "junit.xml"), junit_file(tmp_path, [*PASSING, skipped], "junit-dev.xml")]
    assert tool.main(["junit", *paths, "--must-run"]) == 1
    assert tool.main(["junit", *paths]) == 0


def test_junit_passes_a_numpy_only_run_without_must_run(tool, tmp_path):
    numpy_only = [*PASSING, ("", "tests.test_derivation_oracle", "skipped"),
                  ("tests.test_integrate_rows", "test_rows", "skipped")]
    assert tool.main(["junit", junit_file(tmp_path, numpy_only)]) == 0


def console_replies(report):
    """The exit code and JSON reply of each console row, keyed by the first of its arguments found here."""
    leave = {"verdict_after": {"classification": "HasNonpositivePlane"}}
    roots = [-7.489652155363847, -2.0, 0.0, 0.7918637203624126, 2.697788435001434]
    signs = ["positive", "negative"] * 2
    chart = [{"interval": pair, "sign": sign} for pair, sign in zip(zip(roots, roots[1:]), signs)]
    return {"roots": (0, {"roots": roots, "sign_chart": chart}),
            "verify": (4, {"failed": ["d_roots_lambda1_bracket", "d_roots_lambda5_bracket"], "report": str(report)}),
            "1e100:1e101:2,1e100:1e101:2": (0, {"status": "ok"}),
            "1e-200:1e-199:2,1e-200:1e-199:2": (0, {"status": "ok"}),
            "0.99,1": (0, leave), "0.400000001,1": (0, leave),
            "cone": (0, {"trajectory_status": "event"}),
            "": (2, {"status": "error"}),
            "--seeds": (2, {"status": "error"}),
            "0.9,1": (2, {"status": "error", "error": "expected a triple of reals, got [0.9, 1.0]"}),
            "0.9287,0.9,1,1": (0, leave),
            "0.99,0.99,1,1": (2, {"status": "error", "error": "expected a pair of reals, got [0.99, 0.99, 1.0, 1.0]"}),
            "0.9287,0.9,1": (0, leave)}


@pytest.fixture
def console(tool, tmp_path, monkeypatch):
    """Run the console gate on canned replies, with `change(replies, report_rows)` applied; return its exit code."""
    def run(change=lambda replies, rows: None):
        rows = [{"check": "d_roots_lambda1_bracket", "status": "fail", "headroom": None},
                {"check": "d_roots_lambda5_bracket", "status": "fail", "headroom": None},
                {"check": "d_roots_residuals", "status": "pass", "headroom": 0.25},
                {"check": "cone_exit_aw2", "status": "pass", "headroom": None}]
        replies = console_replies(tmp_path / "verification_report.json")
        change(replies, rows)
        (tmp_path / "verification_report.json").write_text(json.dumps(rows))
        calls = []

        def fake_run(argv, **_kwargs):
            assert argv[0] == "ricciflow"
            key = next(arg for arg in argv[1:] if arg in replies)
            calls.append(key)
            code, reply = replies[key]
            return subprocess.CompletedProcess(argv, code, reply if isinstance(reply, str) else json.dumps(reply), "")

        monkeypatch.setattr(tool.subprocess, "run", fake_run)
        code = tool.main(["console"])
        assert sorted(calls) == sorted(replies)   # every row ran, once
        return code
    return run


def test_console_passes_the_replies_of_a_working_tree(console):
    assert console() == 0


def test_console_fails_on_a_wrong_exit_code(console):
    assert console(lambda replies, rows: replies.update({"": (0, {"status": "ok"})})) == 1


@pytest.mark.parametrize("change", [
    lambda replies, rows: replies.update({"cone": (0, {"trajectory_status": "horizon"})}),
    lambda replies, rows: replies.update({"0.9,1": (2, {"status": "error", "error": "coefficients must be"})}),
    lambda replies, rows: replies.update({"--seeds": (2, "Traceback (most recent call last):")}),
    lambda replies, rows: replies.update({"0.99,1": (0, {"status": "ok"})}),
    lambda replies, rows: replies.update({"0.9287,0.9,1,1": (2, {"status": "error", "error": "aw4 needs (t, x, s)"})}),
    lambda replies, rows: replies.update({"0.9287,0.9,1": (2, {"status": "error",
                                                               "error": "expected a 4-tuple of reals"})}),
    lambda replies, rows: replies["roots"][1]["roots"].__setitem__(3, 0.7918637203624128),
    lambda replies, rows: replies["roots"][1]["sign_chart"][3].update(sign="positive"),
    lambda replies, rows: rows[2].update(headroom=1.5),
    lambda replies, rows: rows[0].update(headroom=0.5),
], ids=["trajectory status", "error message", "no JSON reply", "no verdict", "own start refused",
        "exit state refused", "root two ulps off", "sign chart", "headroom above 1", "bracket headroom"])
def test_console_fails_on_a_reply_that_fails_its_test(console, change):
    assert console(change) == 1


# the per-op counts of the traced runs on seed 7
SEED_7 = {"exit_map_xi": {"flow.rhs.calls": 11.2352, "flow.event.calls": 11.2012, "flow.steps": 1.5392,
                          "cone.t_a.calls": 9.4024, "cone.classify.calls": 1.0, "flow.integrate.calls": 1.0},
          "exit_map_slice": {"flow.rhs.calls": 7.0923, "flow.event.calls": 6.0282, "flow.steps": 0.9598,
                             "cone.classify.calls": 1.0, "flow.integrate.calls": 2 / 3},
          "portrait_cli": {"flow.rhs.calls": 13524.0, "flow.integrate.calls": 0.0},
          "battery": {"spaces.ricci_from_structure.calls": 4.0, "flow.rhs.calls": 1841.0}}


def trace_gate(tool, tmp_path, **changes):
    """The trace gate's exit code on the seed-7 counts with `changes` ({workload: {metric: count or None}}) applied;
    a metric changed to None is left out."""
    for workload, counts in SEED_7.items():
        metrics = {name: {"value": value, "unit": "count/op"}
                   for name, value in {**counts, **changes.get(workload, {})}.items() if value is not None}
        (tmp_path / f"trace-{workload}.txt").write_text(
            f"workload {workload} seed 7 trace 1 host {{}}\n{json.dumps({'metrics': metrics})}\n")
    return tool.main(["trace", str(tmp_path)])


def test_trace_passes_the_seed_7_counts(tool, tmp_path):
    assert {(workload, name) for workload, name, *_ in tool.TRACE} == {
        (workload, name) for workload, counts in SEED_7.items() for name in counts}
    assert trace_gate(tool, tmp_path) == 0


@pytest.mark.parametrize("changes", [
    {"exit_map_xi": {"flow.steps": 1.73}},
    {"portrait_cli": {"flow.integrate.calls": 16.0}},
    {"battery": {"flow.rhs.calls": 2675.0}},
    {"exit_map_slice": {"flow.rhs.calls": 0.0}},
    {"exit_map_xi": {"cone.t_a.calls": 1.0}},
    {"battery": {"spaces.ricci_from_structure.calls": None}},
], ids=["steps above the ceiling", "a ceiling of 0", "a ceiling alone", "a count equal to its floor",
        "t_A calls equal to classifier calls", "a missing metric"])
def test_trace_fails_a_count_outside_its_row(tool, tmp_path, changes):
    assert trace_gate(tool, tmp_path, **changes) == 1
