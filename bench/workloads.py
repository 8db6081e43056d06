"""The four workloads: one operation each, its inputs, and its checks.

A workload turns the run seed into a stream of operation inputs, runs one
operation per call of `op` (the only part that is timed), and checks each
output afterwards against the recorded reference (`check`).  Documented
outcomes of the package count as results: a cone exit, and
`NoExitWithinHorizon` whose message tells the horizon case from leaving
the certified window.  Anything else an operation raises is a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import inputs
import oracle

EXIT_RTOL = 1e-8
RESIDUAL_TOL = 1e-8
ROOTS_RTOL = 1e-12
DRIFT_TOL = 1e-6
# Distinct exit cases per run whose exit state is also checked against the
# oracle boundary and classified a short flow time past the exit, after the
# timed loop.
DEEP_CHECKS = 150

rf = None  # the ricciflow package with all its modules, bound by use_checkout


def use_checkout(root: Path) -> None:
    """Import the package from `root/src`; raise if the checkout lacks it."""
    global rf
    src = Path(root) / "src"
    if not (src / "ricciflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import ricciflow
    import ricciflow.cli
    import ricciflow.verify
    if Path(ricciflow.__file__).resolve().parent != (src / "ricciflow").resolve():
        raise ImportError(f"ricciflow imported from {ricciflow.__file__}, not {src}")
    rf = ricciflow


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


# --- operations shared by the runs and `inputs.build_reference` ---

def run_exit(case: dict):
    """One cone exit: (outcome, exit_time, exit_state)."""
    try:
        time, state = rf.flow.cone_exit(case["family"], case["init"], xi=case["xi"])
    except rf.errors.NoExitWithinHorizon as exc:
        outcome = "no_exit_window" if "certified window" in str(exc) else "no_exit_horizon"
        return outcome, None, ()
    return "exit", float(time), tuple(float(c) for c in state)


def clear_battery_cache() -> None:
    """Empty every cache in `verify`, as a fresh `ricciflow verify` starts."""
    for value in vars(rf.verify).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def run_battery_once():
    results = rf.verify.run_all()
    roots = rf.derivatives.d_roots()
    return ([r.name for r in results], sorted(r.name for r in results if not r.passed),
            [float(r) for r in roots])


def _portrait_argv(seeds_path, out_dir) -> list[str]:
    return ["portrait", *inputs.PORTRAIT_ARGS, "--seeds", str(seeds_path), "--out", str(out_dir)]


def _call_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rf.cli.main(argv)
    return code, buf.getvalue()


def _portrait_outputs(out_dir: Path, n_seeds: int) -> dict:
    finals, drift = [], 0.0
    for j in range(n_seeds):
        lines = (out_dir / f"seed_{j:03d}.csv").read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            _, x, s = (float(v) for v in line.split(","))
            drift = max(drift, abs(x**3 * s**4 - 1.0))
        finals.append([float(v) for v in lines[-1].split(",")])
    return {"regions_sha256": inputs.sha256(out_dir / "regions.csv"),
            "einstein_sha256": inputs.sha256(out_dir / "einstein.json"),
            "finals": finals, "drift": drift}


def run_portrait_once(seeds, work_dir: Path | None = None) -> dict:
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        seeds_path = Path(tmp) / "seeds.txt"
        seeds_path.write_text(inputs.seeds_text(seeds), encoding="utf-8")
        code, _ = _call_cli(_portrait_argv(seeds_path, Path(tmp) / "out"))
        if code != 0:
            raise RuntimeError(f"portrait exited {code}")
        return _portrait_outputs(Path(tmp) / "out", len(seeds))


# --- workloads ---

class Workload:
    """Defaults: items need no preparation, leave nothing to clean up, and
    need no checks after the timed loop."""

    def prepare(self, item):
        return item

    def finish(self) -> list[str]:
        return []

    def cleanup(self, item) -> None:
        pass


class ExitWorkload(Workload):
    """Cone exits drawn from a recorded pool."""

    def __init__(self, name: str, round_size: int, trace_ops: int):
        self.name = name
        self.round_size, self.trace_ops = round_size, trace_ops
        self.table = inputs.load_exit_table(name)
        self.deep: dict[int, tuple] = {}

    def stream(self, seed: int, work_dir: Path):
        for index in inputs.op_stream(seed, self.name):
            yield index, self.table[index]

    def op(self, item):
        return run_exit(item[1])

    def check(self, item, output) -> list[str]:
        index, ref = item
        outcome, time, state = output
        tag = f"{self.name}[{index}]"
        if outcome != ref["outcome"]:
            return [f"{tag}: outcome {outcome}, reference {ref['outcome']}"]
        if outcome != "exit":
            return []
        errors = []
        if _rel(time, ref["exit_time"]) > EXIT_RTOL:
            errors.append(f"{tag}: exit time {time!r}, reference {ref['exit_time']!r}")
        if len(state) != len(ref["exit_state"]) or max(
                _rel(a, b) for a, b in zip(state, ref["exit_state"])) > EXIT_RTOL:
            errors.append(f"{tag}: exit state {state}, reference {ref['exit_state']}")
        if index not in self.deep and len(self.deep) < DEEP_CHECKS:
            self.deep[index] = state
        return errors

    def finish(self) -> list[str]:
        """Oracle checks on the exit states kept by `check`."""
        errors = []
        for index, state in self.deep.items():
            ref = self.table[index]
            errors += exit_state_errors(f"{self.name}[{index}]", ref, ref["exit_time"], state)
        return errors


def _post_family(case: dict) -> str:
    return "aw4" if case["family"] == "aw3" and case["xi"] != 1.0 else case["family"]


def exit_state_errors(tag: str, case: dict, exit_time: float, state) -> list[str]:
    """Exit state on the boundary (oracle) and not positively curved just
    after: the verdict is HasNonpositivePlane, or Unknown where the state
    has left the region the classifier certifies.

    "Just after" is a hundredth of the exit time, at most the package's
    default 1e-3: some exits near x = s are dips the flow leaves again
    within 1e-3 (pool case 651 of exit_map_xi is positively curved again at
    1e-3 past its exit)."""
    errors = []
    residual = oracle.boundary_residual(case["family"], state, case["xi"])
    if not residual <= RESIDUAL_TOL:
        errors.append(f"{tag}: boundary residual {residual:.3e} > {RESIDUAL_TOL}")
    verdict = rf.flow.post_exit_verdict(_post_family(case), state, case["xi"],
                                        dt=min(1e-3, exit_time / 100.0))
    if verdict.classification is rf.cone.ConeClass.POSITIVELY_CURVED:
        errors.append(f"{tag}: post-exit verdict {verdict.classification.value}")
    return errors


class BatteryWorkload(Workload):
    """One full acceptance battery plus the quintic roots per operation."""

    name = "battery"
    round_size = 1
    trace_ops = 30

    def __init__(self):
        self.ref = inputs.load_json("battery.json")

    def stream(self, seed: int, work_dir: Path):
        while True:
            yield None

    def prepare(self, item):
        clear_battery_cache()
        return item

    def op(self, item):
        return run_battery_once()

    def check(self, item, output) -> list[str]:
        names, fails, roots = output
        errors = []
        if names != self.ref["checks"]:
            errors.append(f"battery: check names {names}")
        if fails != self.ref["fails"] or tuple(fails) != inputs.BATTERY_FAILS:
            errors.append(f"battery: fail set {fails}, expected {list(inputs.BATTERY_FAILS)}")
        if len(roots) != len(self.ref["d_roots"]) or max(
                abs(a - b) / max(abs(b), 1.0) for a, b in zip(roots, self.ref["d_roots"])) > ROOTS_RTOL:
            errors.append(f"battery: d_roots {roots}, reference {self.ref['d_roots']}")
        return errors


class PortraitWorkload(Workload):
    """One `ricciflow portrait` call in-process per operation."""

    name = "portrait_cli"
    round_size = 1
    trace_ops = 30

    def __init__(self):
        self.ref = inputs.load_json("portrait_cli.json")
        self.count = 0

    def stream(self, seed: int, work_dir: Path):
        for index in inputs.op_stream(seed, "portrait_cli"):
            yield index, work_dir

    def prepare(self, item):
        """Write the seeds file and pick a fresh output directory."""
        index, work_dir = item
        self.count += 1
        op_dir = work_dir / f"portrait_{self.count:05d}"
        op_dir.mkdir(parents=True)
        seeds_path = op_dir / "seeds.txt"
        seeds_path.write_text(inputs.seeds_text(inputs.portrait_seeds(index)), encoding="utf-8")
        return index, op_dir, _portrait_argv(seeds_path, op_dir / "out")

    def op(self, item):
        return _call_cli(item[2])

    def check(self, item, output) -> list[str]:
        index, op_dir, _ = item
        code, stdout = output
        tag = f"portrait_cli[{index}]"
        if code != 0:
            return [f"{tag}: exit code {code}: {stdout.strip()}"]
        try:
            summary = json.loads(stdout)
        except ValueError:
            return [f"{tag}: stdout is not one JSON object: {stdout[:200]!r}"]
        errors = []
        if (summary.get("status"), summary.get("grid_points"), summary.get("seeds")) != (
                "ok", 1600, inputs.PORTRAIT_SEEDS):
            errors.append(f"{tag}: summary {summary}")
        got = _portrait_outputs(op_dir / "out", inputs.PORTRAIT_SEEDS)
        if got["regions_sha256"] != self.ref["regions_sha256"]:
            errors.append(f"{tag}: regions.csv differs from the reference bytes")
        if got["einstein_sha256"] != self.ref["einstein_sha256"]:
            errors.append(f"{tag}: einstein.json differs from the reference bytes")
        if not got["drift"] <= DRIFT_TOL:
            errors.append(f"{tag}: seed trajectories leave x^3 s^4 = 1 by {got['drift']:.3e}")
        for j, (final, ref) in enumerate(zip(got["finals"], self.ref["finals"][index])):
            if max(_rel(a, b) for a, b in zip(final, ref)) > EXIT_RTOL:
                errors.append(f"{tag}: seed {j} ends at {final}, reference {ref}")
        return errors

    def cleanup(self, item):
        shutil.rmtree(item[1], ignore_errors=True)


def make(name: str):
    if name == "exit_map_xi":
        return ExitWorkload(name, round_size=50, trace_ops=2500)
    if name == "exit_map_slice":
        return ExitWorkload(name, round_size=200, trace_ops=6000)
    if name == "battery":
        return BatteryWorkload()
    if name == "portrait_cli":
        return PortraitWorkload()
    raise KeyError(name)


NAMES = ("exit_map_xi", "exit_map_slice", "battery", "portrait_cli")


def warm_up(name: str, work_dir: Path) -> None:
    """One operation of `name` on case 0 of its pool, which no run visits,
    loading no full table."""
    if name == "battery":
        clear_battery_cache()
        run_battery_once()
    elif name == "portrait_cli":
        run_portrait_once(inputs.portrait_seeds(0), work_dir)
    else:
        run_exit(inputs.load_exit_table(name, limit=1)[0])


# --- the near-round probe of exit_map_xi ---

def near_round_probe(seed: int, count: int) -> dict:
    """Run `count` near-round cases and sort their outcomes.

    At the recording commit `cone.t_a` raises SingularMatrixError on these
    valid inputs (a known defect); such raises are counted as `raised`.
    An answer agrees when its outcome matches the oracle and an exit lands
    on the oracle boundary.  The probe is reported, not timed.
    """
    table = inputs.load_exit_table("near_round")
    counts = {"attempted": 0, "raised": 0, "agree": 0, "disagree": 0, "errors": {}}
    stream = inputs.op_stream(seed, "near_round")
    for _ in range(count):
        index = next(stream)
        case = table[index]
        counts["attempted"] += 1
        try:
            outcome, _time, state = run_exit(case)
        except Exception as exc:  # counted and named, the probe goes on
            counts["raised"] += 1
            counts["errors"][type(exc).__name__] = counts["errors"].get(type(exc).__name__, 0) + 1
            continue
        ok = outcome == case["outcome"] and (
            outcome != "exit"
            or oracle.boundary_residual(case["family"], state, case["xi"]) <= RESIDUAL_TOL)
        counts["agree" if ok else "disagree"] += 1
    return counts
