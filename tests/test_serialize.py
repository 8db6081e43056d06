"""On-disk formats: round-trip precision, schemas, LF endings."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ricciflow import cli, cone
from ricciflow.flow import FlowEvent, Trajectory
from ricciflow.serialize import write_events_json, write_region_csv, write_trajectory_csv


def sample_trajectory():
    times = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    states = np.array([[1.0, 2.0], [0.9, 1.9], [0.1 + 0.2, 1.8]])
    events = [FlowEvent(0.5, "cone_exit", np.array([0.85, 1.85]))]
    return Trajectory(times, states, events, "event")


def test_fmt_round_trips(tmp_path):
    # the writers' float format, %.17g, reads back as the same float
    values = [1.0 / 3.0, 0.1 + 0.2, 0.93, 1e-12, 12345.678901234567]
    raw = write_region_csv(tmp_path / "r.csv", [(v, v, "G") for v in values]).read_text()
    assert [float(line.split(",")[0]) for line in raw.splitlines()[1:]] == values


def test_trajectory_csv(tmp_path):
    path = write_trajectory_csv(tmp_path / "t.csv", sample_trajectory())
    raw = path.read_bytes().decode()
    lines = raw.split("\n")
    assert lines[0] == "ell,comp0,comp1"
    assert lines[1] == "0,1,2"
    assert "\r" not in raw
    assert raw.endswith("\n")
    # %.17g round-trips the awkward values exactly
    ell, c0, c1 = lines[3].split(",")
    assert float(ell) == 2.0 / 3.0
    assert float(c0) == 0.1 + 0.2


def test_trajectory_csv_bytes_match_numpy_scalar_rendering(tmp_path):
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    times = np.array([0.0, 2.2250738585072014e-308 / 3.0, 1e-300, 0.1 + 0.2, huge])
    states = np.array([[tiny, -0.0], [-tiny, 1e308 * 1.5], [huge, -huge],
                       [1.0 / 3.0, -5e-324], [0.0, 123456789.01234567]])
    path = write_trajectory_csv(tmp_path / "t.csv", Trajectory(times, states))
    expected = "ell,comp0,comp1\n" + "".join(
        f"{t:.17g}," + ",".join(f"{c:.17g}" for c in row) + "\n" for t, row in zip(times, states))
    assert isinstance(times[0], np.float64)
    assert path.read_bytes() == expected.encode()
    assert b",-0\n" in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()


def test_events_json(tmp_path):
    path = write_events_json(tmp_path / "e.json", sample_trajectory())
    payload = json.loads(path.read_text())
    assert payload == {"events": [
        {"time": 0.5, "name": "cone_exit", "state": [0.85, 1.85]}
    ]}


def test_region_csv(tmp_path):
    path = write_region_csv(tmp_path / "r.csv", [(0.5, 1.0, "G"), (1.5, 0.5, "P")])
    assert path.read_text() == "x,s,region\n0.5,1,G\n1.5,0.5,P\n"


def per_row_region_csv(rows) -> bytes:
    """The region file formatted row by row, the reference for `write_region_csv`."""
    return ("x,s,region\n" + "".join(["%.17g,%.17g,%s\n" % (x, s, region) for x, s, region in rows])).encode()


@pytest.mark.parametrize("grid", [cli.build_parser().parse_args(["portrait"]).grid, "0.3:2:40,0.3:2:40"],
                         ids=["cli-default", "benchmark"])
def test_region_csv_bytes_on_a_portrait_grid(tmp_path, grid):
    xs, ss = cli._parse_grid(grid)
    rows = [(x, s, cone.normalized_region(x, s)) for x in xs.tolist() for s in ss.tolist()]
    assert write_region_csv(tmp_path / "r.csv", iter(rows)).read_bytes() == per_row_region_csv(rows)


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, np.float64(-0.0), np.float64(math.nan)]


@pytest.mark.parametrize("rows", [
    [(x, s, "G") for x, s in itertools.product(SPECIAL, repeat=2)],
    [(x, s, "P") for x, s in itertools.product(SPECIAL[::-1], repeat=2)],
    [(-0.0, 1.0, "W"), (0.0, 1.0, "W"), (1.0, -0.0, "W"), (1.0, 0.0, "W")],
    [(float("nan"), v, "G") for v in (math.inf, -math.inf, 2.5, float("nan"), 2.5)],   # no zero
    [(1.0 / 3.0 + i, 1.0 / 7.0 - i, "W") for i in range(50)],   # no value repeats
    [(np.array(0.5), np.array(-0.0), "G"), (np.float32(0.1), Fraction(1, 3), "P"), (2**60 + 1, True, "W"),
     (np.array(0.5), 0.5, "G"), (np.array(math.nan), -0.0, "P")],   # reals that are not floats
    [],
], ids=["specials", "specials-reversed", "signed-zeros", "nan-and-inf", "distinct", "other-reals", "empty"])
def test_region_csv_bytes_on_special_and_distinct_values(tmp_path, rows):
    assert write_region_csv(tmp_path / "r.csv", rows).read_bytes() == per_row_region_csv(rows)
