"""Command-line front end.

Subcommands: flow (integrate one system, optional cone event), portrait
(region grid + normalized-flow seed trajectories + Einstein points), verify
(run the acceptance battery), roots (quintic roots + sign chart), cone-exit
(first boundary crossing).  Every command prints a single JSON object to
stdout: each `cmd_*` returns its exit code and payload, and `main` prints the
payload under {"status": "ok", "command": ...} (a payload may override the
status), or the error.  Files use the deterministic formats of `serialize`.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cone, derivatives, flow, serialize, verify
from .errors import RicciFlowError
from .spaces import xi_from_integers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _parse_floats(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--{name}: expected comma-separated floats, got {text!r}") from exc
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"--{name}: metric coefficients must be positive and finite, got {text!r}")
    return values


def _resolve_xi(args) -> float:
    if args.k is not None and args.xi is not None:
        raise ValueError("--xi and --k are alternatives: give one of them")
    if args.k:
        try:
            k1, k2 = (int(part) for part in args.k.split(","))
        except ValueError as exc:  # also a count other than two
            raise ValueError(f"--k: expected two integers k1,k2, got {args.k!r}") from exc
        return xi_from_integers(k1, k2)
    return 1.0 if args.xi is None else args.xi


def _config_from(args) -> flow.IntegratorConfig:
    return flow.IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol, max_step=args.max_step,
                                 max_time=args.horizon, direction=getattr(args, "direction", "forward"))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_flow(args) -> tuple[int, dict]:
    xi = _resolve_xi(args)
    init = _parse_floats(args.init, "init")
    system = flow.make_system(args.system, xi)
    events = flow.cone_events(args.system, xi) if args.event == "cone" else []
    cfg = _config_from(args)
    traj = flow.integrate(system, init, cfg, events)
    out = _out_dir(args)
    csv_path = serialize.write_trajectory_csv(out / "trajectory.csv", traj)
    events_path = serialize.write_events_json(out / "events.json", traj)
    hit = traj.first_event("cone_exit")
    return EXIT_OK, {
        "system": args.system,
        "xi": xi,
        "rows": int(traj.times.size),
        "trajectory_status": traj.status,
        "final_time": traj.final_time,
        "final_state": [float(c) for c in traj.final_state],
        "events": [{"name": ev.name, "time": ev.time} for ev in traj.events],
        "exit_time": hit.time if hit else None,
        "stats": traj.stats,
        "files": {"trajectory": str(csv_path), "events": str(events_path)},
    }


def _parse_grid(text: str):
    try:
        x_part, s_part = text.split(",")
        x0, x1, nx = x_part.split(":")
        s0, s1, ns = s_part.split(":")
        x0, x1, nx, s0, s1, ns = float(x0), float(x1), int(nx), float(s0), float(s1), int(ns)
    except ValueError as exc:
        raise ValueError(f"--grid: expected x0:x1:nx,s0:s1:ns, got {text!r}") from exc
    if nx < 2 or ns < 2:
        raise ValueError("--grid: counts must be >= 2")
    if not (0.0 < x0 < x1 and 0.0 < s0 < s1):
        raise ValueError("--grid: ranges must be positive and ordered")
    return np.linspace(x0, x1, nx), np.linspace(s0, s1, ns)


def _load_seeds(path: str | None):
    if path is None:
        return [np.array(seed) for seed in derivatives.REFERENCE_SEEDS]
    seeds = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        values = _parse_floats(line, f"seeds (line {lineno})")
        if len(values) != 2:
            raise ValueError(f"--seeds: line {lineno} needs two components, got {len(values)}")
        seeds.append(np.array(values))
    if not seeds:
        raise ValueError(f"--seeds: no seeds found in {path}")
    return seeds


def cmd_portrait(args) -> tuple[int, dict]:
    xs, ss = _parse_grid(args.grid)
    seeds = _load_seeds(args.seeds)
    cfg = _config_from(args)
    out = _out_dir(args)

    rows = [(x, s, cone.normalized_region(x, s)) for x in xs.tolist() for s in ss.tolist()]
    region_path = serialize.write_region_csv(out / "regions.csv", rows)

    system = flow.make_system("normalized")
    seed_files = []
    for i, seed in enumerate(seeds):
        traj = flow.integrate(system, seed, cfg)
        seed_files.append(str(serialize.write_trajectory_csv(out / f"seed_{i:03d}.csv", traj)))

    def einstein_entry(point):
        verdict = cone.classify_2param(point[0], point[1])
        return {"x": float(point[0]), "s": float(point[1]),
                "verdict": verdict.classification.value, "margin": verdict.margin}
    einstein = dict(zip(("E_plus", "E_minus"), map(einstein_entry, derivatives.einstein_points())))
    einstein_path = serialize.write_json(out / "einstein.json", einstein)

    return EXIT_OK, {
        "grid_points": len(rows),
        "seeds": len(seeds),
        "files": {"regions": str(region_path), "seeds": seed_files,
                  "einstein": str(einstein_path)},
    }


def _json_real(value):
    """JSON has no nan or inf: a value without a finite measurement reports null."""
    return value if value is not None and math.isfinite(value) else None


def cmd_verify(args) -> tuple[int, dict]:
    results = verify.run_all()
    report = [{"check": r.name, "status": "pass" if r.passed else "fail", "measured": _json_real(r.measured),
               "tolerance": r.tolerance, "headroom": _json_real(r.headroom)} for r in results]
    out = _out_dir(args)
    path = serialize.write_json(out / "verification_report.json", report)
    failed = [r.name for r in results if not r.passed]
    payload = {"checks": len(results), "failed": failed, "report": str(path)}
    return (EXIT_VERIFY, {"status": "failed", **payload}) if failed else (EXIT_OK, payload)


def cmd_roots(_args) -> tuple[int, dict]:
    roots = derivatives.d_roots()
    chart = [{"interval": [float(a), float(b)],
              "sign": "positive" if derivatives.d_polynomial(0.5 * (a + b)) > 0 else "negative"}
             for a, b in zip(roots[:-1], roots[1:])]
    return EXIT_OK, {"roots": [float(r) for r in roots], "sign_chart": chart}


def cmd_cone_exit(args) -> tuple[int, dict]:
    xi = _resolve_xi(args)
    init = _parse_floats(args.init, "init")
    cfg = _config_from(args)
    exit_time, exit_state = flow.cone_exit(args.family, init, cfg, xi=xi)
    verdict = flow.post_exit_verdict(args.family, exit_state, xi)
    return EXIT_OK, {
        "family": args.family,
        "xi": xi,
        "exit_time": exit_time,
        "exit_state": [float(c) for c in exit_state],
        "verdict_after": {"classification": verdict.classification.value,
                          "margin": verdict.margin},
    }


def _add_tolerance_flags(parser, horizon_default):
    parser.add_argument("--horizon", type=float, default=horizon_default,
                        help="integration horizon (flow time)")
    parser.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    parser.add_argument("--abs-tol", type=float, default=1e-12, dest="abs_tol")
    parser.add_argument("--max-step", type=float, default=math.inf, dest="max_step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricciflow",
        description="Homogeneous Ricci flow lab for Aloff-Wallach and Berger metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="integrate one flow system")
    p_flow.add_argument("--system", required=True, choices=list(flow.SYSTEMS))
    p_flow.add_argument("--init", required=True, help="comma-separated initial state")
    p_flow.add_argument("--xi", type=float, default=None)
    p_flow.add_argument("--k", default=None, help="k1,k2 as an alternative to --xi")
    p_flow.add_argument("--event", choices=["cone", "none"], default="none")
    p_flow.add_argument("--direction", choices=["forward", "backward"], default="forward")
    p_flow.add_argument("--out", default=".")
    _add_tolerance_flags(p_flow, horizon_default=1.0)
    p_flow.set_defaults(func=cmd_flow)

    p_port = sub.add_parser("portrait", help="normalized-flow phase portrait data")
    p_port.add_argument("--grid", default="0.3:2:18,0.3:2:18",
                        help="x0:x1:nx,s0:s1:ns region grid")
    p_port.add_argument("--seeds", default=None, help="file with one 'x,s' seed per line")
    p_port.add_argument("--out", default=".")
    _add_tolerance_flags(p_port, horizon_default=10.0)
    p_port.set_defaults(func=cmd_portrait)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--out", default=".")
    p_verify.set_defaults(func=cmd_verify)

    p_roots = sub.add_parser("roots", help="roots and sign chart of the derivative quintic")
    p_roots.set_defaults(func=cmd_roots)

    p_exit = sub.add_parser("cone-exit", help="first positivity-cone boundary crossing")
    p_exit.add_argument("--family", required=True, choices=list(flow.FAMILIES))
    p_exit.add_argument("--init", required=True)
    p_exit.add_argument("--xi", type=float, default=None)
    p_exit.add_argument("--k", default=None)
    _add_tolerance_flags(p_exit, horizon_default=10.0)
    p_exit.set_defaults(func=cmd_cone_exit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.func(args)
        reply = {"status": "ok", "command": args.command, **payload}
    except ValueError as exc:  # configuration and the library's input errors
        code, reply = EXIT_CONFIG, {"status": "error", "code": EXIT_CONFIG, "error": str(exc)}
    except RicciFlowError as exc:
        code, reply = EXIT_NUMERICAL, {"status": "error", "code": EXIT_NUMERICAL,
                                       "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(reply, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
