"""The pytest side of `tools/mutate.py`: a line map of `src/` per test, and a log of each test's outcome.

Loaded with `-p mutate_plugin` (with `tools/` on the path) in a run whose working directory holds
`.mutate/config.json`, {"map": bool, "select": [test IDs] or null, "limits": {test ID: seconds}}.  It keeps only
the selected tests, logs each test's start, failure and timeout to `.mutate/log.jsonl` as it goes, and fails a
test that runs past its limit (SIGALRM), so a mutant that slows every test down ends early.  It sets Hypothesis
to no example database and no deadline, so no run replays another's failures and a loaded host fails no test by
its deadline.  With "map" it also traces
every line of `src/` under `sys.settrace` and writes `.mutate/map.json`: each test's duration, and for each file and
line the indices of the tests that execute it, -1 standing for code run outside any test (imports and collection).
Lines run while a fixture of wider scope than a function is set up are given to every test that uses it.
"""

from __future__ import annotations

import json
import signal
import sys
from collections import defaultdict
from pathlib import Path

import pytest

STATE = Path(".mutate")


def log(event: str, test: str) -> None:
    """Append one line [event, test ID] to the run's log, flushed at once so a killed run keeps it."""
    with open(STATE / "log.jsonl", "a") as stream:
        stream.write(json.dumps([event, test]) + "\n")


class Recorder:
    """The lines of the files under `prefix` that each test executes, `current` naming the running test."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.current = -1
        self.lines = defaultdict(set)   # (file, line) -> test indices

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename, frame.f_lineno].add(self.current)
        return self._line

    def start(self) -> None:
        sys.settrace(self._call)

    def stop(self) -> dict:
        """Stop tracing; {file relative to the working directory: {line: sorted test indices}}."""
        sys.settrace(None)
        found = defaultdict(dict)
        for (name, line), tests in self.lines.items():
            found[str(Path(name).relative_to(Path.cwd()))][line] = sorted(tests)
        return found


class Run:
    """The hooks of one run, with its configuration, its tests in order and, in a map run, the recorder."""

    def __init__(self, config: dict):
        self.config = config
        self.recorder = Recorder(str(Path.cwd() / "src") + "/") if config["map"] else None
        self.tests: list[str] = []
        self.durations: dict[str, float] = {}
        self.fixtures = defaultdict(set)   # id(fixturedef) -> the (file, line) its setup ran

    def expire(self, signum, frame):
        log("timeout", self.tests[-1])
        raise TimeoutError(f"{self.tests[-1]} ran past its limit")

    def pytest_collection_modifyitems(self, config, items):
        if self.config["select"] is not None:
            wanted = set(self.config["select"])
            config.hook.pytest_deselected(items=[item for item in items if item.nodeid not in wanted])
            items[:] = [item for item in items if item.nodeid in wanted]

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        log("start", item.nodeid)
        self.tests.append(item.nodeid)
        index = len(self.tests) - 1
        if self.recorder:
            self.recorder.current = index
        signal.setitimer(signal.ITIMER_REAL, self.config["limits"].get(item.nodeid, 0.0))
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if self.recorder:
                self.recorder.current = -1
                for name in item.fixturenames:
                    for fixturedef in item._fixtureinfo.name2fixturedefs.get(name, ())[-1:]:
                        for key in self.fixtures.get(id(fixturedef), ()):
                            self.recorder.lines[key].add(index)

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        if not self.recorder or fixturedef.scope == "function":
            return (yield)
        outer = self.recorder.lines
        self.recorder.lines = defaultdict(set)
        try:
            return (yield)
        finally:
            self.fixtures[id(fixturedef)].update(self.recorder.lines)
            for key, tests in self.recorder.lines.items():
                outer[key] |= tests
            self.recorder.lines = outer

    def pytest_runtest_logreport(self, report):
        self.durations[report.nodeid] = self.durations.get(report.nodeid, 0.0) + report.duration
        if report.failed:
            log("failed", report.nodeid)

    def pytest_unconfigure(self, config):
        if self.recorder:
            lines = self.recorder.stop()
            (STATE / "map.json").write_text(json.dumps(
                {"tests": [[test, self.durations.get(test, 0.0)] for test in self.tests], "lines": lines}))


def pytest_configure(config):
    try:
        from hypothesis import settings
    except ImportError:
        pass
    else:
        settings.register_profile("mutate", database=None, deadline=None)
        settings.load_profile("mutate")
    run = Run(json.loads((STATE / "config.json").read_text()))
    signal.signal(signal.SIGALRM, run.expire)
    config.pluginmanager.register(run, "mutate-run")
    if run.recorder:
        run.recorder.start()
