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
    "fmt",
    "write_trajectory_csv",
    "write_events_json",
    "write_region_csv",
    "write_json",
]


def fmt(value: float) -> str:
    return f"{value:.17g}"


def _open_lf(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_trajectory_csv(path, traj: Trajectory) -> Path:
    path = Path(path)
    dim = traj.states.shape[1]
    with _open_lf(path) as fh:
        fh.write("ell," + ",".join(f"comp{i}" for i in range(dim)) + "\n")
        for time, state in zip(traj.times.tolist(), traj.states.tolist()):
            fh.write(fmt(time) + "," + ",".join(fmt(c) for c in state) + "\n")
    return path


def write_events_json(path, traj: Trajectory) -> Path:
    payload = {"events": [
        {"time": ev.time, "name": ev.name, "state": [float(c) for c in ev.state]}
        for ev in traj.events
    ]}
    return write_json(path, payload)


def write_region_csv(path, rows) -> Path:
    """rows: iterable of (x, s, region-letter)."""
    path = Path(path)
    with _open_lf(path) as fh:
        fh.write("x,s,region\n")
        for x, s, region in rows:
            fh.write(f"{fmt(x)},{fmt(s)},{region}\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    with _open_lf(path) as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")
    return path
