"""Seeded inputs and the recorded reference table of the benchmark.

Every workload draws its operations from a fixed pool of cases.  Case `i`
of a pool is a pure function of `i` (`random.Random` seeded per case), so
the pool can be regenerated and compared with the recorded table.  A run
visits the pool cases in an order picked by `--seed`, each at most once
(`op_stream`).

The table under `reference/` holds each case's inputs and the outcome the
package gave at the commit that recorded it; `python3 bench/inputs.py`
rebuilds it.  Near-round cases (the `near_round` pool) are answered by the
independent oracle instead, because the package raises on them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

import oracle

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Each run visits a pool case at most once (`op_stream`); the pools are sized
# above the operations of one run at this commit on the recording host.
POOL_SIZES = {"exit_map_xi": 8192, "near_round": 64, "exit_map_slice": 30720, "portrait_cli": 128}
_POOL_CODES = {"exit_map_xi": 1, "near_round": 2, "exit_map_slice": 3, "portrait_cli": 4}
SLICE_FAMILIES = ("aw2", "aw3", "berger")
PORTRAIT_SEEDS = 16
PORTRAIT_S_RANGE = (0.6, 1.4)
PORTRAIT_ARGS = ("--grid", "0.3:2:40,0.3:2:40", "--horizon", "10")
BATTERY_FAILS = ("d_roots_lambda1_bracket", "d_roots_lambda5_bracket")


def _rng(pool: str, index: int) -> random.Random:
    return random.Random(_POOL_CODES[pool] << 32 | index)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def xi_case(index: int, near_round: bool = False) -> dict:
    """Cone exit of the aw3 family at xi < 1, started at t = (1 - m) t_A.

    Regular cases take x ~ U(0.8, 0.99); near-round cases take 1 - x
    log-uniform in [1e-9, 1e-6].  xi ~ U(0.5, 0.99), m log-uniform in
    [1e-4, 1e-2], t_A from the 50-digit oracle.
    """
    rng = _rng("near_round" if near_round else "exit_map_xi", index)
    x = 1.0 - _log_uniform(rng, -9, -6) if near_round else rng.uniform(0.8, 0.99)
    xi = rng.uniform(0.5, 0.99)
    margin = _log_uniform(rng, -4, -2)
    t = (1.0 - margin) * oracle.t_a((x, 1.0, 1.0), xi)
    return {"family": "aw3", "xi": xi, "init": (t, x, 1.0)}


def slice_case(index: int) -> dict:
    """Cone exit with a closed-form boundary; families alternate by index.

    aw2 (t, s): t = (1 - m) s.  aw3 (t, x, s) at xi = 1: x = s U(0.8, 0.99),
    t = (1 - m) x(4s - x)/(3s).  berger (x1, x2): x1 = (1 - m) 2 x2.  The
    scale s or x2 is U(0.5, 2) and m is log-uniform in [1e-4, 1e-2].
    """
    rng = _rng("exit_map_slice", index)
    family = SLICE_FAMILIES[index % 3]
    scale = rng.uniform(0.5, 2.0)
    margin = _log_uniform(rng, -4, -2)
    if family == "aw2":
        init = ((1.0 - margin) * scale, scale)
    elif family == "aw3":
        x = scale * rng.uniform(0.8, 0.99)
        init = ((1.0 - margin) * x * (4.0 * scale - x) / (3.0 * scale), x, scale)
    else:
        init = ((1.0 - margin) * 2.0 * scale, scale)
    return {"family": family, "xi": 1.0, "init": init}


def portrait_seeds(index: int) -> list[tuple[float, float]]:
    """PORTRAIT_SEEDS points on x^3 s^4 = 1, one per equal stratum of s in
    PORTRAIT_S_RANGE, so every seed set costs about the same to integrate."""
    rng = _rng("portrait_cli", index)
    lo, hi = PORTRAIT_S_RANGE
    width = (hi - lo) / PORTRAIT_SEEDS
    seeds = []
    for j in range(PORTRAIT_SEEDS):
        s = lo + width * (j + rng.random())
        seeds.append((s ** (-4.0 / 3.0), s))
    return seeds


def seeds_text(seeds) -> str:
    return "".join(f"{x!r},{s!r}\n" for x, s in seeds)


def op_stream(seed: int, pool: str):
    """The pool indices of one run in an order fixed by `seed`, each at most
    once, so no operation repeats an input already solved in the run.

    Case 0 of a pool (cases 0-2 of exit_map_slice, one per family) is the
    warm-up input and never in a run.  exit_map_slice takes its three
    families in turn, in equal shares."""
    rng = random.Random(seed)
    size = POOL_SIZES[pool]
    if pool != "exit_map_slice":
        yield from rng.sample(range(1, size), size - 1)
        return
    rows = size // 3
    orders = [rng.sample(range(1, rows), rows - 1) for _ in SLICE_FAMILIES]
    for row in zip(*orders):
        for family, j in enumerate(row):
            yield 3 * j + family


# --- the recorded table ---

_EXIT_FIELDS = ("index", "family", "xi", "init", "outcome", "exit_time", "exit_state")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(";")) if text else ()


def _join(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def load_exit_table(pool: str, limit: int | None = None) -> list[dict]:
    rows = []
    with open(REFERENCE_DIR / f"{pool}.csv", newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            if len(rows) == limit:
                break
            rows.append({
                "family": rec["family"],
                "xi": float(rec["xi"]),
                "init": _floats(rec["init"]),
                "outcome": rec["outcome"],
                "exit_time": float(rec["exit_time"]) if rec["exit_time"] else None,
                "exit_state": _floats(rec["exit_state"]),
            })
    return rows


def load_json(name: str):
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def _write_exit_table(pool: str, rows) -> None:
    with open(REFERENCE_DIR / f"{pool}.csv", "w", newline="\n", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_EXIT_FIELDS)
        for i, r in enumerate(rows):
            out.writerow([i, r["family"], repr(r["xi"]), _join(r["init"]), r["outcome"],
                          "" if r["exit_time"] is None else repr(r["exit_time"]),
                          _join(r["exit_state"])])


def _package_exit(case: dict) -> dict:
    import workloads
    outcome, exit_time, state = workloads.run_exit(case)
    return dict(case, outcome=outcome, exit_time=exit_time, exit_state=state)


def _near_round_exit(case: dict) -> dict:
    t, x, _ = case["init"]
    outcome, hit, _leave = oracle.reference_exit(t, x, case["xi"])
    return dict(case, outcome=outcome, exit_time=hit if outcome == "exit" else None,
                exit_state=())


def _portrait_reference(work_dir: Path) -> dict:
    import workloads
    sets = []
    digest = None
    for index in range(POOL_SIZES["portrait_cli"]):
        out = workloads.run_portrait_once(portrait_seeds(index), work_dir)
        digest = digest or out["regions_sha256"]
        if out["regions_sha256"] != digest:
            raise RuntimeError("region CSV differs between seed sets")
        sets.append(out["finals"])
    return {"args": list(PORTRAIT_ARGS), "regions_sha256": digest,
            "einstein_sha256": out["einstein_sha256"], "finals": sets}


def _battery_reference() -> dict:
    import workloads
    workloads.clear_battery_cache()
    names, fails, roots = workloads.run_battery_once()
    return {"checks": names, "fails": fails, "d_roots": roots}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_reference(work_dir: Path) -> None:
    """Record the reference table from the package on the source path."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    _write_exit_table("exit_map_xi", [_package_exit(xi_case(i))
                                      for i in range(POOL_SIZES["exit_map_xi"])])
    _write_exit_table("near_round", [_near_round_exit(xi_case(i, near_round=True))
                                     for i in range(POOL_SIZES["near_round"])])
    _write_exit_table("exit_map_slice", [_package_exit(slice_case(i))
                                         for i in range(POOL_SIZES["exit_map_slice"])])
    for name, payload in (("portrait_cli.json", _portrait_reference(work_dir)),
                          ("battery.json", _battery_reference())):
        (REFERENCE_DIR / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import workloads
    root = Path(__file__).resolve().parent.parent
    workloads.use_checkout(root)
    (root / ".bench_run").mkdir(exist_ok=True)
    build_reference(root / ".bench_run")
