"""Spans around the package's public functions, installed from outside.

`Tracer.install` rebinds each traced function under every package module
namespace that holds it (flow and verify import `aw_eigenvalue_tuple` and
`ricci_from_structure` by name, so wrapping `spaces` alone would miss
them) and `uninstall` restores the originals.  Install before the
operations run: `make_system` captures the RHS function it finds at call
time.

Each span has a name, start, end, parent span and operation id.  Per name
the tracer keeps calls, self time (duration minus the time covered by
child spans) and raised exceptions; raw spans are kept in memory for the
first KEEP_OPS operations (at most MAX_SPANS) and written out by `write`.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from time import perf_counter

RHS_FUNCTIONS = ("aw_rhs", "aw3_rhs", "aw2_rhs", "berger_rhs", "normalized_rhs")
CLASSIFIERS = ("classify_2param", "classify_3param", "classify_berger", "classify_aw_slice")
KEEP_OPS = 20
MAX_SPANS = 100_000


def traced_functions(package) -> dict:
    """(module name, function name) -> span name, for every traced function.

    All public functions of `derivatives` share one span name, as do the
    file writers of `serialize` (not its per-float formatter `fmt`)."""
    table = {
        ("spaces", "aw_eigenvalue_tuple"): "spaces.aw_eigenvalue_tuple",
        ("spaces", "berger_eigenvalue_tuple"): "spaces.berger_eigenvalue_tuple",
        ("spaces", "ricci_from_structure"): "spaces.ricci_from_structure",
        ("cone", "t_a"): "cone.t_a",
        ("cone", "normalized_region"): "cone.normalized_region",
        ("flow", "integrate"): "flow.integrate",
        ("flow", "cone_exit"): "flow.cone_exit",
        ("flow", "post_exit_verdict"): "flow.post_exit_verdict",
        ("verify", "run_all"): "verify.run_all",
        ("cli", "main"): "cli.main",
    }
    table.update({("cone", f): "cone.classify" for f in CLASSIFIERS})
    table.update({("flow", f): "flow.rhs" for f in RHS_FUNCTIONS})
    for module, prefix in (("derivatives", ""), ("serialize", "write_")):
        mod = getattr(package, module)
        for fname, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and fname.startswith(prefix) and not fname.startswith("_")):
                table[(module, fname)] = module
    return table


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, errors]
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []        # [op, name, start, end, parent, error]
        self._stack: list[list] = []       # [name, start, child_s, span index]
        self._saved: list[tuple] = []

    # -- recording --

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, on_result=None):
        stack, stats, spans = self._stack, self.stats, self.spans
        stats.setdefault(name, [0, 0.0, 0])

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            keep = self.op is not None and self.op < KEEP_OPS and len(spans) < MAX_SPANS
            index = -1
            if keep:
                index = len(spans)
                spans.append([self.op, name, 0.0, 0.0, stack[-1][3] if stack else -1, False])
            frame = [name, perf_counter(), 0.0, index]
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration - frame[2]
                entry[2] += failed
                if stack:
                    stack[-1][2] += duration
                if keep:
                    spans[index][2:4] = frame[1], end
                    spans[index][5] = failed
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --

    def install(self, package) -> None:
        """Rebind every traced function in every module that holds it."""
        modules = [package] + [getattr(package, m) for m in
                               ("spaces", "cone", "flow", "derivatives", "verify", "serialize", "cli")]
        originals = {}
        for (module, fname), name in traced_functions(package).items():
            fn = getattr(getattr(package, module), fname)
            originals[id(fn)] = self.wrap(name, fn, self._result_hook(name))
        flow = package.flow
        for fname in ("boundary_event", "window_event"):
            fn = getattr(flow, fname)
            originals[id(fn)] = self._event_factory(fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _result_hook(self, name: str):
        if name == "flow.integrate":
            return lambda traj: self.count("flow.steps", len(traj.times) - 1)
        if name == "serialize":
            return lambda path: self.count("serialize.bytes", path.stat().st_size)
        return None

    def _event_factory(self, factory):
        """Wrap an EventSpec factory so the event functions it returns are traced."""
        def traced_factory(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(spec, fn=self.wrap("flow.event", spec.fn))
        traced_factory.__wrapped__ = factory
        return traced_factory

    # -- output --

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for op, name, start, end, parent, error in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "parent": parent, "error": error}) + "\n")
