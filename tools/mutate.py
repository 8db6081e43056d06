"""Mutation audit of tier-1: swap one operator of `src/` at a time and run the tests that execute it.

    python3 tools/mutate.py <out.json>

A site is each + - * / of a binary operation or an augmented assignment, and each < <= > >= == != of a
comparison, in `src/**/*.py`; its mutant swaps + and -, * and /, < and <=, > and >=, == and !=.  One traced tier-1
run (`tools/mutate_plugin.py`) first maps each line of `src/` to the tests that execute it.  Each mutant then runs
only the tests of its site's lines, or the whole suite where its lines run only outside any test (at import or
collection).  Every run is `pytest -q -p no:cacheprovider --hypothesis-seed=0` with one BLAS thread, no Hypothesis
example database, and the two bracket rows (see README), which fail by design, deselected.  A mutant is killed
when a test that passes on the tree fails, or when the run outlives its timeout; the timeout ends the run's whole
process group, and so does an interrupt (SIGINT or SIGTERM) of the audit.  Each run works in a copy of the tree in
a temporary directory, at most two at once, so the working tree is never written.  The output is the kill matrix,
one record per mutant with its status and killing test IDs, and the kill rate per module.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import concurrent.futures
import itertools
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
BRACKETS = [f"tests/test_acceptance.py::test_criterion[d_roots_lambda{i}_bracket]" for i in (1, 5)]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "-p", "mutate_plugin", *(f"--deselect={test}" for test in BRACKETS)]
WORKERS = 2
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_*", ".benchmarks")


@dataclass(frozen=True, order=True)
class Site:
    path: str        # relative to the tree's root
    line: int        # of the operator token
    col: int         # its column, in characters
    op: str
    to: str
    lines: tuple     # the lines the operation spans, whose tests the mutant runs

    def __str__(self):
        return f"{self.path}:{self.line}:{self.col} {self.op} -> {self.to}"


def find_sites(root: Path, path: str) -> list[Site]:
    """Every site of the file `path` under `root`, in source order."""
    source = (root / path).read_text()
    lines = source.splitlines(keepends=True)
    starts = [0, *itertools.accumulate(len(line) for line in lines)]

    def offset(line: int, col: int) -> int:   # ast columns count UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.target, node.op, node.value)]
        elif isinstance(node, ast.Compare):
            pairs = zip([node.left, *node.comparators], node.ops, node.comparators)
        else:
            continue
        for left, op, right in pairs:
            if type(op) not in SWAPS:
                continue
            text, to = (s + "=" * isinstance(node, ast.AugAssign) for s in SWAPS[type(op)])
            # between the operands lie only the operator, brackets, white space and comments
            begin = offset(left.end_lineno, left.end_col_offset)
            gap = source[begin:offset(right.lineno, right.col_offset)]
            gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
            assert gap.replace(text, "", 1).strip(" \t\n\\()") == "", (path, node.lineno, gap)
            at = begin + gap.index(text)
            line = bisect.bisect_right(starts, at)
            span = tuple(range(node.lineno, node.end_lineno + 1))
            sites.append(Site(path, line, at - starts[line - 1], text, to, span))
    return sorted(sites)


def mutant(source: str, site: Site) -> str:
    """`source` with the operator of `site` swapped."""
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    assert text[site.col:site.col + len(site.op)] == site.op, site
    lines[site.line - 1] = text[:site.col] + site.to + text[site.col + len(site.op):]
    return "".join(lines)


def end(proc: subprocess.Popen) -> None:
    """Kill the process group of `proc` and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run(tree: Path, command: list[str], select: list[str] | None, timeout: float | None, limits: dict,
        running: set, trace: bool = False) -> dict:
    """Run `command` in `tree` on the tests `select` (None: all), each within its limit in seconds (`limits`),
    and all within `timeout`, the process in `running` while it lasts; the tests that started, failed and ran
    past their limits."""
    state = tree / ".mutate"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir()
    (state / "config.json").write_text(json.dumps({"map": trace, "select": select, "limits": limits}))
    files = sorted({test.split("::")[0] for test in select}) if select is not None else []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tools")]))
    proc = subprocess.Popen([*command, *files], cwd=tree, env=env, start_new_session=True,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    running.add(proc)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        end(proc)   # the whole group: a timed-out run, and anything a test left behind
        running.discard(proc)
    log = [json.loads(line) for line in (state / "log.jsonl").read_text().splitlines()] \
        if (state / "log.jsonl").exists() else []
    return {"code": code, "started": [test for event, test in log if event == "start"],
            "failed": {test for event, test in log if event == "failed"},
            "late": {test for event, test in log if event == "timeout"},
            "map": json.loads((state / "map.json").read_text()) if trace else None}


def audit(root: Path, out: Path, command: list[str] = PYTEST, floor: float = 20.0) -> dict:
    """Build the line map of the tree at `root`, run every mutant, and write the kill matrix to `out`.

    A mutant's run gets `floor` seconds plus its tests' durations in the map run, which tracing makes several
    times their untraced durations, and each test half of `floor` plus twice its traced duration."""
    began = time.perf_counter()
    paths = sorted(str(path.relative_to(root)) for path in (root / "src").rglob("*.py"))
    sites = [site for path in paths for site in find_sites(root, path)]
    with tempfile.TemporaryDirectory(prefix="mutate-") as workdir:
        copies = queue.Queue()
        for i in range(WORKERS):
            copies.put(Path(shutil.copytree(root, Path(workdir) / str(i), ignore=IGNORE)))
        running = set()   # the runs in flight, each the leader of its own process group
        base = run(copies.queue[0], command, None, None, {}, running, trace=True)
        names = [test for test, _ in base["map"]["tests"]]
        seconds = dict(base["map"]["tests"])
        passing = set(names) - base["failed"]

        def one(site: Site) -> dict:
            by_line = base["map"]["lines"].get(site.path, {})
            reached = {i for line in site.lines for i in by_line.get(str(line), ())}
            whole = not reached - {-1}
            select = None if whole else sorted({names[i] for i in reached})
            expected = passing if whole else passing.intersection(select)
            tree = copies.get()
            source = (tree / site.path).read_text()
            try:
                (tree / site.path).write_text(mutant(source, site))
                limits = {test: floor / 2 + 2 * seconds[test] for test in expected}
                budget = floor + sum(seconds[test] for test in expected)
                result = run(tree, command, select, budget, limits, running)
            finally:
                (tree / site.path).write_text(source)
                copies.put(tree)
            killers = expected.intersection(result["failed"] | result["late"])
            if result["code"] is None:   # past the run's timeout: the test it was in kills the mutant
                killers |= set(result["started"][-1:])
            elif result["code"] != 0:   # an import or collection error: the tests that never started
                killers |= expected.difference(result["started"])
            status = "timeout" if result["code"] is None or result["late"] else "killed" if killers else "survived"
            return {"mutant": str(site), "path": site.path, "line": site.line, "scope": "suite" if whole else "tests",
                    "ran": len(expected), "status": status, "killers": sorted(killers)}

        records = []
        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            try:
                for record in pool.map(one, sites):
                    records.append(record)
                    print(f"{len(records)}/{len(sites)} {record['status']:8} {record['mutant']}", file=sys.stderr)
            except BaseException:   # an interrupt: start no more runs, and end those in flight
                pool.shutdown(wait=False, cancel_futures=True)
                for proc in list(running):
                    end(proc)
                raise
    total = Counter(record["path"] for record in records)
    killed = Counter(record["path"] for record in records if record["status"] != "survived")
    matrix = {"sites": len(sites), "tests": len(names), "failing_at_base": sorted(base["failed"]),
              "wall_s": round(time.perf_counter() - began, 1),
              "rate": {path: [killed[path], total[path]] for path in sorted(total)}, "mutants": records}
    out.write_text(json.dumps(matrix, indent=1) + "\n")
    return matrix


def main(argv: list[str] | None = None) -> int:
    for signum in (signal.SIGINT, signal.SIGTERM):   # end the runs in flight, also if the shell ignored SIGINT
        signal.signal(signum, signal.default_int_handler)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="where to write the kill matrix (JSON)")
    matrix = audit(ROOT, parser.parse_args(argv).out)
    for module, (killed, total) in matrix["rate"].items():
        print(f"{module}: {killed}/{total} killed ({killed / total:.1%})")
    print(f"{matrix['sites']} mutants, {matrix['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
