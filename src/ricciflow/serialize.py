"""Deterministic on-disk formats: trajectory CSV, events JSON, region CSV.

CSV floats use %.17g so every value round-trips exactly; JSON floats go
through Python's shortest round-trip repr.  All files end lines with LF, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .flow import Trajectory

__all__ = [
    "write_trajectory_csv",
    "write_events_json",
    "write_region_csv",
    "write_json",
]


def _open_lf(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_trajectory_csv(path, traj: Trajectory) -> Path:
    path = Path(path)
    dim = traj.states.shape[1]
    row = ",".join(["%.17g"] * (dim + 1)) + "\n"
    with _open_lf(path) as fh:
        fh.write("ell," + ",".join(f"comp{i}" for i in range(dim)) + "\n" + "".join(
            [row % (time, *state) for time, state in zip(traj.times.tolist(), traj.states.tolist())]))
    return path


def write_events_json(path, traj: Trajectory) -> Path:
    payload = {"events": [
        {"time": ev.time, "name": ev.name, "state": [float(c) for c in ev.state]}
        for ev in traj.events
    ]}
    return write_json(path, payload)


def write_region_csv(path, rows) -> Path:
    """rows: iterable of (x, s, region-letter), x and s reals.  Each distinct float is formatted once;
    a zero in place, since 0.0 and -0.0 are one dict key."""
    path, rows = Path(path), [(float(x), float(s), region) for x, s, region in rows]
    text = {v: "%.17g" % v for v in {*[x for x, _, _ in rows], *[s for _, s, _ in rows]}}
    with _open_lf(path) as fh:
        fh.write("x,s,region\n" + "".join([f"{text[x] if x else '%.17g' % x},{text[s] if s else '%.17g' % s},"
                                           f"{region!s}\n" for x, s, region in rows]))
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    with _open_lf(path) as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")
    return path
