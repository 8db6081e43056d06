"""Tests of the benchmark's own parts: inputs, correctness gate, tracer."""

import itertools

import pytest

import inputs
import run
import tracer
import workloads


def test_generator_is_deterministic_and_matches_the_table():
    table = inputs.load_exit_table("exit_map_xi", limit=3)
    for i, row in enumerate(table):
        assert inputs.xi_case(i) == inputs.xi_case(i)
        assert inputs.xi_case(i)["init"] == row["init"]
        assert inputs.xi_case(i)["xi"] == row["xi"]
    near = inputs.load_exit_table("near_round", limit=2)
    assert [inputs.xi_case(i, near_round=True)["init"] for i in range(2)] == [r["init"] for r in near]
    slices = inputs.load_exit_table("exit_map_slice", limit=3)
    assert [inputs.slice_case(i)["init"] for i in range(3)] == [r["init"] for r in slices]
    assert [r["family"] for r in slices] == list(inputs.SLICE_FAMILIES)
    assert inputs.portrait_seeds(5) == inputs.portrait_seeds(5)
    assert inputs.portrait_seeds(5) != inputs.portrait_seeds(6)


def test_op_stream_depends_only_on_the_seed():
    def first(seed, pool):
        return list(itertools.islice(inputs.op_stream(seed, pool), 300))

    assert first(7, "exit_map_xi") == first(7, "exit_map_xi")
    assert first(7, "exit_map_xi") != first(8, "exit_map_xi")
    families = [i % 3 for i in first(7, "exit_map_slice")]
    assert families == [k % 3 for k in range(300)]
    for pool, size in inputs.POOL_SIZES.items():
        visited = list(inputs.op_stream(7, pool))
        assert sorted(visited) == list(range(3 if pool == "exit_map_slice" else 1, size))


def _exit_item(wl, outcome):
    index = next(i for i, row in enumerate(wl.table) if row["outcome"] == outcome)
    return index, wl.table[index]


def test_gate_accepts_the_reference_and_rejects_a_perturbed_exit_time():
    wl = workloads.ExitWorkload("exit_map_xi", round_size=1, trace_ops=1)
    item = _exit_item(wl, "exit")
    ref = item[1]
    assert wl.check(item, ("exit", ref["exit_time"], ref["exit_state"])) == []
    perturbed = ref["exit_time"] * (1.0 + 1e-7)
    assert wl.check(item, ("exit", perturbed, ref["exit_state"]))
    assert wl.check(item, ("no_exit_window", None, ()))
    window = _exit_item(wl, "no_exit_window")
    assert wl.check(window, ("no_exit_window", None, ())) == []
    assert wl.check(window, ("exit", 1.0, ref["exit_state"]))


def test_gate_rejects_a_wrong_battery_fail_set():
    wl = workloads.BatteryWorkload()
    names, roots = wl.ref["checks"], wl.ref["d_roots"]
    assert wl.check(None, (names, list(inputs.BATTERY_FAILS), roots)) == []
    assert wl.check(None, (names, ["d_roots_lambda1_bracket"], roots))
    assert wl.check(None, (names, [*inputs.BATTERY_FAILS, "cone_exit_aw2"], roots))
    assert wl.check(None, (names, list(inputs.BATTERY_FAILS), [r * (1 + 1e-9) for r in roots]))


def test_tracer_self_time_and_errors():
    tr = tracer.Tracer()

    def leaf(fail=False):
        if fail:
            raise ValueError("leaf")
        return sum(range(1000))

    leaf_t = tr.wrap("leaf", leaf)

    def outer():
        leaf_t()
        leaf_t()
        with pytest.raises(ValueError):
            leaf_t(fail=True)
        return sum(range(1000))

    outer_t = tr.wrap("outer", outer)
    assert outer_t() == leaf()  # inactive: plain pass-through, nothing recorded
    assert tr.stats["outer"] == [0, 0.0, 0]
    tr.op, tr.active = 0, True
    outer_t()
    tr.active = False
    assert tr.stats["leaf"][0] == 3 and tr.stats["leaf"][2] == 1
    assert tr.stats["outer"][:1] + tr.stats["outer"][2:] == [1, 0]
    spans = {name: (start, end, parent) for _, name, start, end, parent, _ in tr.spans}
    outer_start, outer_end, outer_parent = spans["outer"]
    assert outer_parent == -1
    leaf_total = sum(end - start for _, name, start, end, _, _ in tr.spans if name == "leaf")
    assert tr.stats["outer"][1] == pytest.approx(outer_end - outer_start - leaf_total, abs=1e-9)


def test_import_times_parses_importtime_output():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       895 |      17073 |         scipy",
        "import time:       666 |     507459 |       scipy.integrate",
        "import time:      9883 |     517341 |     ricciflow.flow",
        "import time:       860 |     659555 | ricciflow",
        "import time:       100 |       2000 | ricciflow.cli",
    ])
    package, scipy = run.import_times(text)
    assert package == pytest.approx(0.661555)
    assert scipy == pytest.approx(0.001561)
