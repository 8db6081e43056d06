"""The gates of the tier-1 CI workflow, each written once, as a table whose rows carry their reasons.

    python3 tools/ci_gates.py junit junit.xml [junit-haswell.xml ...] [--must-run]
    python3 tools/ci_gates.py console
    python3 tools/ci_gates.py trace <dir>

`junit`: each pytest JUnit XML run fails on exactly the two bracket rows (see README) and, with --must-run, skips
no case of a MUST_RUN module or class.  `console`: each CONSOLE row of the installed `ricciflow` gives its exit code
and a JSON reply that passes its test.  `trace`: each TRACE row's count per operation in <dir>/trace-<workload>.txt,
the output of `bench/run.py --workload <workload> --seed 7 --seconds 1 --trace 1`, lies in (floor, ceiling].  A gate
prints a line per file or row and exits 1 if any fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

BRACKETS = ["d_roots_lambda1_bracket", "d_roots_lambda5_bracket"]

# Modules, or classes, none of whose cases may be skipped where the test extras are installed
MUST_RUN = {
    "tests.test_battery_reference": "holds the battery's array evaluations to the bits of the scalar loops",
    "tests.test_cone.TestRowwise": "holds the row-wise cone kernels to the bits of the scalar ones",
    "tests.test_integrate_rows": "holds the row stepper to the bits of one integrate per row",
    "tests.test_derivation_oracle": "holds the closed forms to their sympy derivation; proves each exit interval",
    "tests.test_input_guard": "holds every entry point to the one input guard, each form to its bits or its message",
    "tests.test_exit_oracle": "holds aw4 cone exits to the oracle's times, and aw3 off xi = 1 to aw4's bits",
}


def _verify_report(reply: dict) -> bool:
    """Exactly the bracket rows fail, with a null headroom; each passing row's headroom is in [0, 1] or null."""
    with open(reply["report"]) as fh:
        rows = {row["check"]: row for row in json.load(fh)}
    return (reply["failed"] == BRACKETS and [rows[name]["headroom"] for name in BRACKETS] == [None, None]
            and all(row["headroom"] is None or 0.0 <= row["headroom"] <= 1.0
                    for row in rows.values() if row["status"] == "pass"))


# The five real roots of the quintic D, each the double nearest its root
ROOTS = [-7.489652155363847, -2.0, 0.0, 0.7918637203624126, 2.697788435001434]


def _quintic_roots(reply: dict) -> bool:
    """Each root within one ulp of ROOTS, and D's sign between them positive, negative, positive, negative."""
    return (len(reply["roots"]) == len(ROOTS) and all(abs(r - w) <= math.ulp(w) for r, w in zip(reply["roots"], ROOTS))
            and [row["sign"] for row in reply["sign_chart"]] == ["positive", "negative"] * 2)


def _exits_the_cone(reply: dict) -> bool:
    return reply["verdict_after"]["classification"] == "HasNonpositivePlane"


# The arguments of `ricciflow` ({out}: a fresh directory), its exit code, a test of its JSON reply (None: none), why
CONSOLE = [
    ("roots", 0, _quintic_roots, "the quintic D has five real roots, with D negative on (lambda4, lambda5)"),
    ("verify --out {out}/verify", 4, _verify_report, "the battery fails on the two bracket rows alone"),
    ("portrait --grid 1e100:1e101:2,1e100:1e101:2 --out {out}/huge", 0, None, "the exact region test decides"),
    ("portrait --grid 1e-200:1e-199:2,1e-200:1e-199:2 --out {out}/tiny", 0, None, "below the float band [2^-64, 2^64)"),
    ("cone-exit --family aw2 --init 0.99,1", 0, _exits_the_cone, "the state past the exit is outside the cone"),
    ("cone-exit --family aw2 --init 0.400000001,1", 0, _exits_the_cone, "the post-exit step scales with the state"),
    ("flow --system aw3 --init 0.92,0.9,1 --event cone --out {out}/flow", 0,
     lambda r: r["trajectory_status"] == "event", "the cone event ends the run"),
    ("cone-exit --family aw3 --k '' --init 0.92,0.9,1", 2, None, "an empty --k is a configuration error, not xi = 1"),
    ("portrait --seeds {out}/missing.txt", 2, lambda r: r["status"] == "error", "an unreadable path: the usual reply"),
    ("cone-exit --family aw3 --init 0.9,1", 2, lambda r: "expected a triple of reals" in r["error"],
     "every start goes through the one coefficient guard, spaces._reals, and this is its message"),
    ("cone-exit --family aw4 --xi 0.95 --init 0.9287,0.9,1,1", 0, _exits_the_cone,
     "aw4 starts from its own state, (t, s0, s1, s2)"),
    ("cone-exit --family aw2 --init 0.99,0.99,1,1", 2, lambda r: "expected a pair of reals" in r["error"],
     "a start is the family's own state: aw2's is (t, s), not its four coefficients"),
    ("cone-exit --family aw3 --xi 0.9 --init 0.9287,0.9,1", 0, _exits_the_cone,
     "aw3 off xi = 1 leaves the slice: its verdict reads aw4's exit state (t, s0, s1, s2)"),
]

# (workload, metric per op, floor, ceiling, why): floor < count <= ceiling.  A floor is a number, another
# metric of the run, or None (the ceiling alone); the ceilings sit a little above the counts on seed 7.
TRACE = [
    ("exit_map_xi", "flow.rhs.calls", 0, 11.5, "one cone exit is one run (11.2352 on seed 7)"),
    ("exit_map_xi", "flow.event.calls", 0, 11.5, "one cone exit is one run (11.2012 on seed 7)"),
    ("exit_map_xi", "flow.steps", 0, 1.6, "the window root ends the run (1.539 on seed 7, 1.73 if it goes on)"),
    ("exit_map_xi", "cone.t_a.calls", "cone.classify.calls", math.inf, "the boundary event calls t_A per evaluation"),
    ("exit_map_xi", "cone.classify.calls", 0, math.inf, "cone_exit accepts its start through cone.classify_*"),
    ("exit_map_xi", "flow.integrate.calls", None, 1, "one cone exit integrates once"),
    ("exit_map_slice", "flow.rhs.calls", 0, 7.2, "aw3 and Berger exits integrate (7.0923 on seed 7)"),
    ("exit_map_slice", "flow.event.calls", 0, 6.2, "aw3 and Berger exits integrate (6.0282 on seed 7)"),
    ("exit_map_slice", "flow.steps", 0, math.inf, "counted from the Trajectory of integrate, so exits go through it"),
    ("exit_map_slice", "cone.classify.calls", 0, math.inf, "cone_exit accepts its start through cone.classify_*"),
    ("exit_map_slice", "flow.integrate.calls", 0, 0.7, "the aw2 third takes the closed form: 2/3, 1 on the stepper"),
    ("portrait_cli", "flow.rhs.calls", 0, 13600, "no extra step attempts on the normalized kernel (13524 on seed 7)"),
    ("portrait_cli", "flow.integrate.calls", None, 0, "its seeds run as one batch, through integrate_rows"),
    ("battery", "spaces.ricci_from_structure.calls", 0, 4, "the eigenvalue oracle stacks each (k1, k2) pair"),
    ("battery", "flow.rhs.calls", None, 2000, "the p2 entry row stops at its event root (1841 on seed 7, 2675 if not)"),
]


def _listed(case: ET.Element) -> bool:   # the module or a class in it; a module skipped whole has no classname
    return f"{case.get('classname') or case.get('name')}.".startswith(tuple(m + "." for m in MUST_RUN))


def junit(paths: list[str], must_run: bool) -> bool:
    ok = True
    for path in paths:
        cases = list(ET.parse(path).getroot().iter("testcase"))
        failed = sorted(c.get("name") for c in cases if c.find("failure") is not None or c.find("error") is not None)
        skipped = sorted(f"{c.get('classname')}::{c.get('name')}" for c in cases
                         if must_run and c.find("skipped") is not None and _listed(c))
        print(f"{path}: {len(cases)} test cases; failed: {failed}; tests that must run skipped: {skipped}")
        ok &= failed == [f"test_criterion[{name}]" for name in BRACKETS] and not skipped
    return ok


def console() -> bool:
    ok = True
    with tempfile.TemporaryDirectory() as out:
        for command, code, test, why in CONSOLE:
            proc = subprocess.run(["ricciflow", *(a.replace("{out}", out) for a in shlex.split(command))],
                                  capture_output=True, text=True)
            try:
                passed = proc.returncode == code and (test is None or bool(test(json.loads(proc.stdout))))
            except (ValueError, KeyError, TypeError, OSError):   # no JSON reply, or not of the tested form
                passed = False
            print(f"{'ok' if passed else 'FAIL'}: ricciflow {command}: exit {proc.returncode} (want {code}); {why}")
            print(proc.stderr[-2000:] if not passed else "", end="")
            ok &= passed
    return ok


def trace(directory: str) -> bool:
    metrics = {}
    for workload in dict.fromkeys(row[0] for row in TRACE):
        with open(os.path.join(directory, f"trace-{workload}.txt")) as fh:
            metrics[workload] = {k: m["value"] for k, m in json.loads(fh.read().splitlines()[-1])["metrics"].items()}
    ok = True
    for workload, name, floor, ceiling, why in TRACE:
        run = metrics[workload]
        low = -math.inf if floor is None else run.get(floor, math.nan) if isinstance(floor, str) else floor
        count = run.get(name, math.nan)   # a missing metric fails its row
        passed = low < count <= ceiling
        print(f"{'ok' if passed else 'FAIL'}: {workload} {name} {count} (floor {low}, ceiling {ceiling}); {why}")
        ok &= passed
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    gates = parser.add_subparsers(dest="gate", required=True)
    junit_args = gates.add_parser("junit")
    junit_args.add_argument("paths", nargs="+")
    junit_args.add_argument("--must-run", action="store_true", help="no case of a MUST_RUN module may be skipped")
    gates.add_parser("console")
    gates.add_parser("trace").add_argument("directory")
    args = parser.parse_args(argv)
    ok = (junit(args.paths, args.must_run) if args.gate == "junit"
          else trace(args.directory) if args.gate == "trace" else console())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
