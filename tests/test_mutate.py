"""`tools/mutate.py` on a toy tree: its sites, its line map, and how it classifies and times out mutants.

The toy's tests run under a small runner that speaks the plugin's protocol (`tools/mutate_plugin.py`): it reads
`.mutate/config.json`, logs each test's start and failure, and in a map run writes the lines each test executes.
"""

import ast
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"

TOY = """\
def spin(n):
    while n > 0:
        n -= 1
    return n


LIMIT = 2 + 1


def double(x):
    return x * 2


def clip(x):
    return x if x > 0 else 0
"""

RUNNER = """\
import json, os, sys
from pathlib import Path

with open(PIDS, "a") as pids:
    pids.write(f"{os.getpid()}\\n")
state = Path(".mutate")
config = json.loads((state / "config.json").read_text())
lines, current = {}, [-1]


def line(frame, event, arg):
    if event == "line":
        lines.setdefault(frame.f_lineno, set()).add(current[0])
    return line


if config["map"]:
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.endswith("toy.py") else None)
sys.path.insert(0, "src")
import toy

TESTS = {"test_toy.py::test_limit": lambda: toy.LIMIT == 3, "test_toy.py::test_double": lambda: toy.double(3) == 6,
         "test_toy.py::test_clip": lambda: (toy.clip(1), toy.clip(-1)) == (1, 0),
         "test_toy.py::test_spin": lambda: toy.spin(3) == 0}
names = [name for name in TESTS if config["select"] is None or name in config["select"]]
with open(state / "log.jsonl", "a", buffering=1) as log:
    for i, name in enumerate(names):
        log.write(json.dumps(["start", name]) + "\\n")
        current[0] = i
        if not TESTS[name]():
            log.write(json.dumps(["failed", name]) + "\\n")
        current[0] = -1
sys.settrace(None)
if config["map"]:
    (state / "map.json").write_text(json.dumps({"tests": [[name, 0.0] for name in names], "lines": {
        "src/toy.py": {str(n): sorted(tests) for n, tests in lines.items()}}}))
"""


def digest(root: Path) -> dict:
    return {str(path.relative_to(root)): path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*")}


def test_audit_of_a_toy_tree(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutate", tool)   # dataclasses look their module up there
    spec.loader.exec_module(tool)
    root = tmp_path / "toy"
    (root / "src").mkdir(parents=True)
    (root / "src" / "toy.py").write_text(TOY)
    pids = tmp_path / "pids"
    (root / "run.py").write_text(f"PIDS = {str(pids)!r}\n" + RUNNER)
    before = digest(root)

    sites = tool.find_sites(root, "src/toy.py")
    binary = [node for node in ast.walk(ast.parse(TOY)) if isinstance(node, (ast.BinOp, ast.AugAssign, ast.Compare))]
    assert len(sites) == len(binary) == 5
    mutants = {tool.mutant(TOY, site) for site in sites}
    assert len(mutants) == 5
    for site in sites:
        changed = [(a, b) for a, b in zip(TOY.splitlines(), tool.mutant(TOY, site).splitlines()) if a != b]
        assert changed == [(changed[0][0], changed[0][0].replace(site.op, site.to, 1))]

    # the hanging mutant comes first, so the other four run beside its timeout; -S: no site, a quicker start
    matrix = tool.audit(root, tmp_path / "matrix.json", [sys.executable, "-S", "run.py"], floor=0.2)
    found = {record["mutant"]: (record["scope"], record["status"], record["killers"]) for record in matrix["mutants"]}
    assert found == {
        "src/toy.py:2:12 > -> >=": ("tests", "killed", ["test_toy.py::test_spin"]),
        "src/toy.py:3:10 -= -> +=": ("tests", "timeout", ["test_toy.py::test_spin"]),
        "src/toy.py:7:10 + -> -": ("suite", "killed", ["test_toy.py::test_limit"]),
        "src/toy.py:11:13 * -> /": ("tests", "killed", ["test_toy.py::test_double"]),
        "src/toy.py:15:18 > -> >=": ("tests", "survived", []),
    }
    assert matrix["rate"] == {"src/toy.py": [4, 5]}
    assert digest(root) == before
    for pid in map(int, pids.read_text().split()):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"process {pid} outlived the audit")
