"""Benchmark of the ricciflow package, run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process runs one workload on a single thread as a closed loop: the
next operation starts only after the last one returned.  Operations come
from the recorded pools in `bench/reference/`, each case at most once per
run in an order picked by `--seed`, and every output is checked against
the reference (`workloads.py`).

--trace 0 measures the end-to-end metrics for `--seconds`, or until the
pool is exhausted: operations per second (median over rounds of a fixed
number of operations), median and 90th-percentile latency, set-up time of
a fresh interpreter (median of SETUP_RUNS probes spread over the run) and
peak resident memory.  Operation and set-up times are calibrated for the
host's changing speed, so they are in units of a nominal host (see
CALIBRATION_NOMINAL_S); the uncalibrated wall figures and the median scale
are printed alongside.  --trace 1 runs a fixed number of operations
untraced and then traced, and reports per-layer calls and self time per
operation, work counts and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit status is 0
only when every check passed; a checkout without the package source gives
status 2 and no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up probes per run.  The host's speed changes over seconds, so the
# probes are spread evenly over the timed window rather than taken in a row.
SETUP_RUNS = 10
# Host calibration: the machines this runs on change speed by up to a factor
# of two for seconds at a time (other tenants), which moves every timing
# alike.  Each round of operations is bracketed by a short fixed kernel
# (`calibration_s`), and operation times are scaled to a host on which that
# kernel takes CALIBRATION_NOMINAL_S.  Set-up work (process start, imports)
# moves with the host's speed about half as much as the kernel does, so the
# median set-up probe is scaled by the square root of the run's median scale:
# on two ten-run sets per workload taken in different host periods, the set
# medians then differed by at most 9% (as measured: up to 24%).
CALIBRATION_LOOPS = 400
CALIBRATION_NOMINAL_S = 1e-3
NEAR_ROUND_PROBES = 32
SETUP_TIMEOUT_S = 120

# Spans reported as calls and self seconds per operation, and spans called
# once per operation or never, reported as self seconds only ("op" is the
# benchmark's own span around each operation).
COUNTED_SPANS = ("cone.t_a", "cone.classify", "cone.normalized_region", "flow.integrate",
                 "flow.rhs", "flow.event", "spaces.aw_eigenvalue_tuple",
                 "spaces.berger_eigenvalue_tuple", "spaces.ricci_from_structure",
                 "derivatives", "serialize")
SELF_SPANS = ("flow.cone_exit", "verify.run_all", "cli.main", "op")


def calibration_s() -> float:
    """Seconds this process takes for a fixed mix of small numpy and float
    work, the kind of work the package does per integration step."""
    import numpy as np
    began, acc = perf_counter(), 0.0
    for i in range(CALIBRATION_LOOPS):
        a = np.array([1.0 + i, 2.0, 3.0])
        acc += float((a * a).sum()) / (i + 1.0)
    return perf_counter() - began


class Tally:
    """Outcome of a sequence of operations run in rounds.  `scales` holds
    each round's calibration factor, CALIBRATION_NOMINAL_S over the
    geometric mean of one calibration before and one after the round;
    `latencies` holds each operation's latency and round index."""

    def __init__(self):
        self.latencies: list[tuple[float, int]] = []
        self.rounds: list[tuple[int, float]] = []  # (successful ops, wall seconds)
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def wall(self) -> float:
        return sum(wall for _, wall in self.rounds)

    def calibrated_latencies(self) -> list[float]:
        return [lat * self.scales[r] for lat, r in self.latencies]

    def calibrated_rates(self) -> list[float]:
        return [ok / (wall * scale) for (ok, wall), scale in zip(self.rounds, self.scales)]

    def add(self, other: "Tally") -> None:
        offset = len(self.rounds)
        self.latencies += [(lat, r + offset) for lat, r in other.latencies]
        self.rounds += other.rounds
        self.scales += other.scales
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def run_ops(wl, source, *, seconds=None, count=None, op=None, tracer=None,
            first_op=0) -> Tally:
    """Run operations from `source` in rounds of wl.round_size, checking
    each round's outputs after the round, until `seconds` have passed,
    `count` operations ran or `source` is exhausted.  Only the operations are timed; with a tracer,
    operation `k` is traced under the id first_op + k."""
    op = op or wl.op
    tally = Tally()
    start = perf_counter()
    while True:
        if seconds is not None and perf_counter() - start >= seconds:
            break
        size = wl.round_size if count is None else min(wl.round_size, count - tally.attempted)
        if size <= 0:
            break
        items = [wl.prepare(item) for item in itertools.islice(source, size)]
        if not items:
            break
        outputs = []
        before = calibration_s()
        round_start = perf_counter()
        for item in items:
            if tracer is not None:
                tracer.op, tracer.active = first_op + tally.attempted + len(outputs), True
            began = perf_counter()
            try:
                outputs.append((op(item), None))
            except Exception as exc:  # an operation failure is counted, the run goes on
                outputs.append((None, exc))
            tally.latencies.append((perf_counter() - began, len(tally.rounds)))
            if tracer is not None:
                tracer.active = False
        round_wall = perf_counter() - round_start
        tally.scales.append(CALIBRATION_NOMINAL_S / math.sqrt(before * calibration_s()))
        ok = 0
        for item, (output, exc) in zip(items, outputs):
            errors = ([f"{wl.name}: {type(exc).__name__}: {exc}"] if exc is not None
                      else wl.check(item, output))
            wl.cleanup(item)
            tally.attempted += 1
            tally.failed += bool(errors)
            ok += not errors
            tally.errors += errors
        tally.rounds.append((ok, round_wall))
    return tally


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def setup_probe(name: str, work_dir: Path, importtime: bool = False):
    """Start a fresh interpreter that imports the package and runs one
    warm-up operation; return (seconds to its "ready" line, stderr text)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH_DIR / "setup_probe.py"), name, str(work_dir)]
    err_path = work_dir / "setup_probe.err"
    with open(err_path, "w", encoding="utf-8") as err:
        began = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - began
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stderr = err_path.read_text(encoding="utf-8")
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {stderr[-2000:]}")
    return elapsed, stderr


def import_times(stderr: str) -> tuple[float, float]:
    """From `-X importtime` output: the cumulative import time of the
    package's top-level modules, and the self time of every scipy module."""
    package = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2]
        name = module.strip()
        depth = (len(module) - len(module.lstrip())) // 2
        if depth == 0 and (name == "ricciflow" or name.startswith("ricciflow.")):
            package += cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
    return package / 1e6, scipy / 1e6


def measure(wl, args, work_dir: Path) -> tuple[Tally, dict, dict]:
    workloads.warm_up(wl.name, work_dir)
    stream = wl.stream(args.seed, work_dir)
    tally, setup = Tally(), []
    for _ in range(SETUP_RUNS):
        tally.add(run_ops(wl, stream, seconds=args.seconds / SETUP_RUNS))
        setup.append(setup_probe(wl.name, work_dir)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.errors += wl.finish()
    probe = near_round(wl, args)
    lat_ms = [1e3 * v for v in tally.calibrated_latencies()]
    rates = tally.calibrated_rates()
    host_scale = statistics.median(tally.scales)
    n = len(lat_ms)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s", len(rates)),
        "latency_p50_ms": (statistics.median(lat_ms), "ms", n),
        "latency_p90_ms": (_quantile(lat_ms, 0.9), "ms", n),
        "setup_s": (statistics.median(setup) * math.sqrt(host_scale), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    raw_ms = [1e3 * lat for lat, _ in tally.latencies]
    info = {"near_round_probe": probe, "uncalibrated": {
        "ops_per_s": statistics.median(ok / wall for ok, wall in tally.rounds),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_p90_ms": _quantile(raw_ms, 0.9),
        "setup_s": statistics.median(setup),
        "host_scale_median": host_scale},
        "setup_probes_s": setup}
    return tally, metrics, info


def trace(wl, args, work_dir: Path) -> tuple[Tally, dict, dict]:
    """Run 2 wl.trace_ops operations in rounds that alternate untraced and
    traced, so drift of the machine hits both passes alike; the two passes
    take distinct inputs, so neither repeats an input of the other."""
    workloads.warm_up(wl.name, work_dir)
    n, size = wl.trace_ops, wl.round_size
    items = list(itertools.islice(wl.stream(args.seed, work_dir), 2 * n))
    tr = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for first in range(0, n, size):
        plain.add(run_ops(wl, iter(items[2 * first:2 * first + size]), count=size))
        chunk = items[2 * first + size:2 * first + 2 * size]
        tr.install(workloads.rf)
        try:
            traced.add(run_ops(wl, iter(chunk), count=len(chunk), op=tr.wrap("op", wl.op),
                               tracer=tr, first_op=first))
        finally:
            tr.uninstall()
    stats = {name: list(entry) for name, entry in tr.stats.items()}
    counters = dict(tr.counters)
    tr.install(workloads.rf)
    try:
        probe = near_round(wl, args, tr)
    finally:
        tr.uninstall()
    overhead_s, plain_wall = traced.wall - plain.wall, plain.wall
    traced.add(plain)
    traced.errors += wl.finish()
    tr.write(work_dir.parent / f"trace_{wl.name}_{args.seed}.jsonl")
    _, stderr = setup_probe(wl.name, work_dir, importtime=True)
    import_s, scipy_s = import_times(stderr)

    steps = counters.get("flow.steps", 0.0)
    def calls(name):
        return stats.get(name, (0,))[0]

    metrics = {}
    for name in COUNTED_SPANS + SELF_SPANS:
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = (calls(name) / n, "count/op", n)
        metrics[f"{name}.self_s"] = (stats.get(name, (0, 0.0))[1] / n, "s/op", n)
    metrics.update({
        "cone.t_a.errors": (tr.stats["cone.t_a"][2], "count", n + probe["attempted"]),
        "flow.steps": (steps / n, "count/op", n),
        "flow.rhs_per_step": (calls("flow.rhs") / steps if steps else 0.0, "count", n),
        "flow.events_per_step": (calls("flow.event") / steps if steps else 0.0, "count", n),
        "serialize.bytes": (counters.get("serialize.bytes", 0.0) / n, "B/op", n),
        "trace.overhead_s": (overhead_s, "s", n),
        "trace.overhead_ratio": (overhead_s / plain_wall, "ratio", n),
        "setup.import_s": (import_s, "s", 1),
        "setup.scipy_import_s": (scipy_s, "s", 1),
        "probe.near_round.raised": (probe["raised"], "count", probe["attempted"]),
        "probe.near_round.agree": (probe["agree"], "count", probe["attempted"]),
    })
    return traced, metrics, {"near_round_probe": probe}


def near_round(wl, args, tr=None) -> dict:
    """The near-round probe of exit_map_xi (zero counts elsewhere)."""
    if wl.name != "exit_map_xi":
        return {"attempted": 0, "raised": 0, "agree": 0, "disagree": 0, "errors": {}}
    if tr is not None:
        tr.op, tr.active = None, True
    try:
        return workloads.near_round_probe(args.seed, NEAR_ROUND_PROBES)
    finally:
        if tr is not None:
            tr.active = False


def host_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported, here and in the probes
        os.environ[var] = "1"
    try:
        workloads.use_checkout(ROOT)
    except (OSError, ImportError) as exc:
        print(f"bench: cannot load the package: {exc}", file=sys.stderr)
        return 2

    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload)
        tally, metrics, info = (trace if args.trace else measure)(wl, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not tally.errors
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"host {json.dumps(host_info())}")
    print(f"ops attempted {tally.attempted} failed {tally.failed} "
          f"fail_ratio {tally.failed / max(tally.attempted, 1):.6g}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    for error in tally.errors[:20]:
        print(f"CHECK FAILED {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
