"""`tools/bench_pairs.py` checks its seed range and reads its output file before it starts any work."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.mark.parametrize("text", [None, "{"], ids=["missing", "malformed"])
def test_bad_out_stops_before_any_run(tmp_path, monkeypatch, text):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the tool started work before it read --out")

    for name in ("extract", "run_once"):
        monkeypatch.setattr(tool, name, forbidden)
    monkeypatch.setattr(tool.subprocess, "run", forbidden)   # git rev-parse
    out = tmp_path / "BENCH.json"
    if text is not None:
        out.write_text(text)
    with pytest.raises(ValueError if text else FileNotFoundError):   # json.JSONDecodeError is a ValueError
        tool.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "battery", "--seeds", "1-2",
                   "--scratch", str(tmp_path), "--out", str(out)])


@pytest.mark.parametrize("seeds", ["9701-9701", "9710-9701"], ids=["one-seed", "reversed"])
def test_a_range_of_fewer_than_two_seeds_stops_before_any_run(tmp_path, monkeypatch, capsys, seeds):
    # the quartiles of one run, or of none, raise in statistics.quantiles after every run is done
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the tool started work before it checked --seeds")

    for name in ("extract", "run_once"):
        monkeypatch.setattr(tool, name, forbidden)
    monkeypatch.setattr(tool.subprocess, "run", forbidden)   # git rev-parse
    out = tmp_path / "BENCH.json"
    out.write_text('{"rows": [], "pairs": []}')
    with pytest.raises(SystemExit) as info:
        tool.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "battery", "--seeds", seeds,
                   "--scratch", str(tmp_path), "--out", str(out)])
    assert info.value.code == 2
    assert "fewer than 2 seeds" in capsys.readouterr().err
    assert tool.parse_seeds("9701-9702") == [9701, 9702]
