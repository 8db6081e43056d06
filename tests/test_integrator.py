"""The in-house Dormand-Prince stepper against scipy's RK45 and brentq.

`flow.integrate` is a port of `solve_ivp(method="RK45", dense_output=True,
events=...)`: run on the same inputs, both give the same steps, states and
event roots, and `flow.cone_exit` returns the first cone-boundary root (the
aw2 exit, which it evaluates in closed form, lies within 1e-8 of that root).
Skipped where scipy is not installed.  Which BLAS kernels numpy picks
changes the bits of both runs alike; to check the port on another kernel
set, run this file again under e.g. OPENBLAS_CORETYPE=Haswell.
"""

import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.integrate._ivp.common import select_initial_step  # noqa: E402
from scipy.optimize import brentq as scipy_brentq  # noqa: E402

from ricciflow import (  # noqa: E402
    EventSpec,
    IntegratorConfig,
    NoExitWithinHorizon,
    StepSizeUnderflow,
    cone_exit,
    integrate,
    make_system,
    t_a,
    t_a_closed,
)
from ricciflow import _rk45  # noqa: E402
from ricciflow._rk45 import EPS, _initial_step, brentq  # noqa: E402
from ricciflow.flow import COLLAPSE_FLOOR, FlowSystem, cone_events  # noqa: E402
from riccati import exit_at  # noqa: E402

STARTS = {
    "aw2": (0.99, 1.0),
    "aw3": (0.929, 0.9, 1.0),
    "aw4": (1.1, 1.0, 1.2, 0.9),
    "berger": (1.99, 1.0),
    "normalized": (0.8, 1.2),
}
XI = {"aw4": 0.7}


def scipy_integrate(system, init, cfg, events):
    """The same run through `solve_ivp`, with the collapse floor as event 0."""
    def floor_fn(_l, y):
        return float(np.min(y) - COLLAPSE_FLOOR)

    floor_fn.terminal = True
    fns = [floor_fn]
    for spec in events:
        def g(l, y, _fn=spec.fn):
            return float(_fn(l, y))
        g.terminal, g.direction = spec.terminal, spec.direction
        fns.append(g)
    sign = 1.0 if cfg.direction == "forward" else -1.0
    return solve_ivp(lambda _l, y: system.rhs(y), (0.0, sign * cfg.max_time),
                     np.asarray(init, dtype=float), method="RK45", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, max_step=cfg.max_step, dense_output=True, events=fns)


def assert_same_run(kind, init, cfg, events, xi=None):
    """`kind` names a system or is a FlowSystem; where solve_ivp gives up,
    `integrate` must raise StepSizeUnderflow with the same partial run."""
    system = make_system(kind, xi) if isinstance(kind, str) else kind
    ref = scipy_integrate(system, init, cfg, events)
    if ref.status == -1:
        with pytest.raises(StepSizeUnderflow) as info:
            integrate(system, init, cfg, events)
        traj = info.value.trajectory
    else:
        traj = integrate(system, init, cfg, events)
    np.testing.assert_array_equal(traj.times, ref.t)
    np.testing.assert_array_equal(traj.states, ref.y.T)
    names = ["singular", *(spec.name for spec in events)]
    for name, t_ev, y_ev in zip(names, ref.t_events, ref.y_events):
        mine = [ev for ev in traj.events if ev.name == name]
        assert [ev.time for ev in mine] == list(t_ev)
        for ev, y in zip(mine, y_ev):
            np.testing.assert_array_equal(ev.state, y)
    assert len(traj.events) == sum(len(t_ev) for t_ev in ref.t_events)
    sign = 1.0 if cfg.direction == "forward" else -1.0   # the events in the order the run meets them
    assert all(sign * a.time <= sign * b.time for a, b in zip(traj.events, traj.events[1:]))
    assert traj.stats["nfev"] == ref.nfev
    return traj


def cone_start(kind, seed):
    """(family, xi, init, integrated state) of a seeded start inside the cone:
    t a factor 1 - m below the boundary, m log-uniform in [1e-4, 1e-2]; aw4 is
    aw3 off xi = 1, integrated on (t, x, s, s)."""
    rng = random.Random(seed)
    m, x, xi = 10.0 ** rng.uniform(-4.0, -2.0), rng.uniform(0.8, 0.99), rng.uniform(0.5, 0.99)
    init = {"aw2": (1.0 - m, 1.0), "berger": (2.0 * (1.0 - m), 1.0),
            "aw3": ((1.0 - m) * t_a_closed(x, 1.0), x, 1.0),
            "aw4": ((1.0 - m) * t_a((x, 1.0, 1.0), xi), x, 1.0)}[kind]
    if kind == "aw4":
        return "aw3", xi, init, (*init, 1.0)
    return kind, 1.0, init, init


def assert_cone_exit_as_solve_ivp(family, init, cfg, kind, xi, state):
    """`cone_exit` returns, bit for bit, the first cone-boundary root of the
    same run in `solve_ivp` with `cone_events` (the window monitor not terminal).
    Where that run has a window root and no boundary root at or before it,
    `cone_exit` raises "certified window" with that root's repr, whether or not
    a boundary root follows; where it has neither root, "no cone exit"."""
    ref = scipy_integrate(make_system(kind, xi), state, cfg, cone_events(kind, xi))
    exits, windows = ref.t_events[1], (ref.t_events[2] if len(ref.t_events) > 2 else [])
    if len(windows) and not (len(exits) and exits[0] <= windows[0]):
        with pytest.raises(NoExitWithinHorizon, match="certified window") as info:
            cone_exit(family, init, cfg, xi=xi)
        assert f"l = {float(windows[0])!r} " in str(info.value)
        return None
    if len(exits) == 0:
        with pytest.raises(NoExitWithinHorizon, match="no cone exit"):
            cone_exit(family, init, cfg, xi=xi)
        return None
    time, exit_state = cone_exit(family, init, cfg, xi=xi)
    assert float.hex(time) == float.hex(float(exits[0]))
    assert [float.hex(c) for c in exit_state.tolist()] == [float.hex(c) for c in ref.y_events[1][0].tolist()]
    return time


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["aw2", "aw3", "berger", "aw4"])
def test_cone_exit_matches_solve_ivp(kind, seed):
    family, xi, init, state = cone_start(kind, seed)
    if kind != "aw2":
        assert_cone_exit_as_solve_ivp(family, init, IntegratorConfig(), kind, xi, state)
        return
    # the aw2 exit is exact, not a stepper root; the stepper keeps solve_ivp's bits on aw2
    root = assert_same_run("aw2", state, IntegratorConfig(), cone_events("aw2")).first_event("cone_exit").time
    time, _state = cone_exit("aw2", init)
    exact = exit_at("aw2", init)[0]
    assert abs(time - exact) <= 1e-13 * exact
    assert abs(time - root) <= 1e-8 * time


def test_cone_exit_after_leaving_the_window_raises_as_solve_ivp():
    # from (0.2, 0.99, 1) the ratio x/s crosses 1 at l = 0.0148, before the
    # boundary at 0.1003, which a horizon of 0.05 does not reach
    init = (0.2, 0.99, 1.0)
    events = [dataclasses.replace(spec, terminal=True) for spec in cone_events("aw3")]
    for cfg in (IntegratorConfig(max_time=2.0), IntegratorConfig(max_time=0.05)):
        assert assert_cone_exit_as_solve_ivp("aw3", init, cfg, "aw3", 1.0, init) is None
        # cone_exit's run, with the window event terminal, is solve_ivp's run with it terminal
        traj = assert_same_run("aw3", init, cfg, events)
        assert traj.status == "event" and [ev.name for ev in traj.events] == ["window_exit"]


def test_off_slice_aw4_start_exits_as_solve_ivp():
    # aw4 starts from its own state: a spread |s1 - s2| / mean of 0.01, within the SLICE_RTOL
    # that classify_aw_slice certifies; the last bits depend on the host's BLAS kernels
    init = (t_a((0.9, 1.0, 1.01), 0.7) - 1e-3, 0.9, 1.0, 1.01)
    time = assert_cone_exit_as_solve_ivp("aw4", init, IntegratorConfig(), "aw4", 0.7, init)
    assert time == pytest.approx(0.0018194, rel=1e-4)


@pytest.mark.parametrize("max_step", [math.inf, 0.01])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("kind", list(STARTS))
def test_matches_solve_ivp(kind, direction, max_step):
    events = cone_events(kind, XI.get(kind, 1.0)) if kind != "normalized" else []
    cfg = IntegratorConfig(max_time=2.0, direction=direction, max_step=max_step)
    assert_same_run(kind, STARTS[kind], cfg, events, XI.get(kind))


@pytest.mark.parametrize("xi", [1.0, 0.9])
def test_near_round_aw4_matches_solve_ivp(xi):
    assert_same_run("aw4", (1.0, 1.0, 1.0000001, 0.9999999),
                    IntegratorConfig(max_time=0.1), cone_events("aw4", xi), xi)


def test_singular_collapse_matches_solve_ivp():
    traj = assert_same_run("aw3", (0.8, 0.9, 1.0), IntegratorConfig(max_time=0.2), [])
    assert traj.status == "singular"


def test_rising_through_the_floor_matches_solve_ivp():
    # the floor has no direction: a start below it that rises through it ends the run there
    rise = FlowSystem("rise", 1, lambda y: [1.0])
    traj = assert_same_run(rise, [1e-13], IntegratorConfig(max_time=1.0), [])
    assert traj.status == "singular" and [ev.name for ev in traj.events] == ["singular"]


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["falling", "rising"])
def test_floor_met_exactly_at_a_step_end_or_at_the_start_matches_solve_ivp(sign):
    # with no caller events the stepper tests the floor itself; here g = min(y) - floor is exactly 0
    # at the end of step 3 of a free run of y' = -y (or y' = y), or at the start, and either ends the run there;
    # rising, the step's interpolant ends just below the floor, and Brent's method raises in both
    def rhs(y):
        return [sign * y[0]]

    def outcome(run):
        try:
            return run()
        except ValueError as exc:
            return str(exc)

    free = _rk45.solve(rhs, [1.0], 5.0, 1e-3, 1e-6, math.inf, -math.inf, [])
    for y0, floor in (([1.0], free["y"][3][0]), ([0.5], 0.5)):
        def g(_l, y, floor=floor):
            return float(np.min(y) - floor)

        g.terminal = True
        run = outcome(lambda: _rk45.solve(rhs, y0, 5.0, 1e-3, 1e-6, math.inf, floor, []))
        ref = outcome(lambda: solve_ivp(lambda _l, y: sign * y, (0.0, 5.0), y0, rtol=1e-3, atol=1e-6, events=[g]))
        if isinstance(ref, str):
            assert (sign, y0, run) == (1.0, [1.0], ref) and "different signs" in ref
            continue
        assert (run["status"], run["t"]) == (ref.status, ref.t.tolist())
        assert [(te, state) for _, te, state in run["roots"]] == [(ref.t_events[0][0], ref.y_events[0][0].tolist())]


@pytest.mark.parametrize("terminal", [False, True])
def test_floor_and_an_event_crossing_in_one_step_match_solve_ivp(terminal):
    # min(y) falls through 2e-12 and then the floor 1e-12 inside the run's last step,
    # which starts at l = 0.12016195440298004; the last bits depend on the host's BLAS kernels
    low = EventSpec("low", lambda l, y: min(y) - 2e-12, terminal, 0.0)
    traj = assert_same_run("aw3", (0.8, 0.9, 1.0), IntegratorConfig(max_time=0.2), [low])
    assert traj.times[-2] == pytest.approx(0.12016195440298004, rel=1e-12)
    roots = [("low", pytest.approx(0.12016205284344966, rel=1e-12)),
             ("singular", pytest.approx(0.12016205284361632, rel=1e-12))]
    assert [(ev.name, ev.time) for ev in traj.events] == roots[:1 if terminal else 2]
    assert traj.status == ("event" if terminal else "singular")
    assert traj.final_time == traj.events[-1].time


def test_window_exit_recorded_before_terminal_cone_exit():
    traj = assert_same_run("aw4", (1.1, 1.0, 1.2, 0.9), IntegratorConfig(max_time=2.0),
                           cone_events("aw4", 0.7), 0.7)
    # the last bits of the roots depend on the host's BLAS kernels
    assert [(ev.name, ev.time) for ev in traj.events] == [
        ("window_exit", pytest.approx(0.014085229333834022, rel=1e-12)),
        ("cone_exit", pytest.approx(0.055023525020492674, rel=1e-12))]
    assert traj.status == "event"
    assert traj.final_time == pytest.approx(0.055023525020492674, rel=1e-12)


@pytest.mark.parametrize("terminal", [False, True])
def test_event_zero_at_a_step_end_matches_solve_ivp(terminal):
    # g = l - t_k is exactly 0 at the step end t_k of an event-free run.
    # solve_ivp counts a root where g_new == 0 (and, when the run goes on,
    # again where the next step starts from g == 0).
    cfg = IntegratorConfig(max_time=0.05)
    t_k = float(integrate(make_system("aw3"), STARTS["aw3"], cfg).times[3])
    event = EventSpec("step_end", lambda l, _y: l - t_k, terminal, 1.0)
    traj = assert_same_run("aw3", STARTS["aw3"], cfg, [event])
    assert [ev.time for ev in traj.events if ev.name == "step_end"] == [t_k] * (1 if terminal else 2)


def test_falling_event_zero_at_a_step_end_matches_solve_ivp():
    # as above, with g = t_k - l falling through 0 and counted only in that direction
    cfg = IntegratorConfig(max_time=0.05)
    t_k = float(integrate(make_system("aw3"), STARTS["aw3"], cfg).times[3])
    event = EventSpec("step_end", lambda l, _y: t_k - l, False, -1.0)
    traj = assert_same_run("aw3", STARTS["aw3"], cfg, [event])
    assert [ev.time for ev in traj.events if ev.name == "step_end"] == [t_k] * 2


def test_states_are_float_lists_and_any_returned_sequence_works():
    # the stepper hands the rhs and every event a list of Python floats, and
    # a right-hand side may return a list, a tuple or an ndarray alike
    system, cfg = make_system("aw4", 0.7), IntegratorConfig(max_time=2.0)
    rhs_states, event_states = [], []
    events = [dataclasses.replace(spec, fn=lambda l, y, _fn=spec.fn: event_states.append(y) or _fn(l, y))
              for spec in cone_events("aw4", 0.7)]
    runs = []
    for form in (list, tuple, np.array):
        rhs = FlowSystem("aw4", 4, lambda y, _form=form: rhs_states.append(y) or _form(system.rhs(y)))
        runs.append(integrate(rhs, STARTS["aw4"], cfg, events))
    for states in (rhs_states, event_states):
        assert states and all(type(y) is list and all(type(v) is float for v in y) for y in states)
    ref = runs[0]
    assert [ev.name for ev in ref.events] == ["window_exit", "cone_exit"]
    for traj in runs[1:]:
        assert traj.times.tobytes() == ref.times.tobytes()
        assert traj.states.tobytes() == ref.states.tobytes()
        assert [(ev.name, ev.time, ev.state.tobytes()) for ev in traj.events] == \
            [(ev.name, ev.time, ev.state.tobytes()) for ev in ref.events]
        assert traj.stats == ref.stats


def random_run(seed):
    """A run drawn from `seed`: kind, start, tolerance, step cap, direction,
    horizon and, for the cone families, the cone events."""
    rng = random.Random(seed)
    kind = rng.choice(list(STARTS))
    xi = rng.uniform(0.5, 1.0) if kind == "aw4" else None
    init = [c * rng.uniform(0.8, 1.25) for c in STARTS[kind]]
    cfg = IntegratorConfig(rel_tol=rng.choice([1e-10, 1e-6, 1e-3]), max_step=rng.choice([math.inf, 0.003]),
                           max_time=rng.uniform(0.05, 0.5), direction=rng.choice(["forward", "backward"]))
    events = cone_events(kind, xi or 1.0) if kind != "normalized" and rng.random() < 0.7 else []
    return kind, init, cfg, events, xi


@pytest.mark.parametrize("seed", range(60))
def test_random_runs_match_solve_ivp(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_same_run(*random_run(seed))


def test_tiny_rel_tol_is_clamped_like_solve_ivp():
    # both raise rtol below 100 eps to 100 eps, with a warning
    cfg = IntegratorConfig(rel_tol=1e-20, max_time=0.05)
    with pytest.warns(UserWarning) as record:  # solve_ivp's and the port's
        traj = assert_same_run("aw3", STARTS["aw3"], cfg, cone_events("aw3"))
    assert f"rtol is too small, using rtol = {100 * EPS}" in [str(w.message) for w in record]
    clamped = integrate(make_system("aw3"), STARTS["aw3"], dataclasses.replace(cfg, rel_tol=100 * EPS),
                        cone_events("aw3"))
    assert clamped.states.tobytes() == traj.states.tobytes()


def test_rel_tol_at_the_clamp_gives_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_run("aw3", STARTS["aw3"], IntegratorConfig(rel_tol=100 * EPS, max_time=0.05), [])


# (y0, f0, f1): with atol = 1 and rtol = 1e-13 the scale is exactly 1, so the norms d0 = |y0|, d1 = |f0| and
# d2 = |f1 - f0| / h0 fall exactly on the thresholds 1e-5 and 1e-15 of HNW II.4's first step (h0 = 1e-6 in the last)
FIRST_STEP_EDGES = {"d0=1e-5": ([1e-5], [1.0], [1.0]), "d1=1e-5": ([1e-3], [1e-5], [1e-5]),
                    "d1=1e-15": ([1e-3], [1e-15], [1e-15]), "d2=1e-15": ([1e-3], [0.0], [1.0000000000000001e-21])}


@pytest.mark.parametrize("y0,f0,f1", FIRST_STEP_EDGES.values(), ids=FIRST_STEP_EDGES.keys())
def test_first_step_at_its_thresholds_matches_solve_ivp(y0, f0, f1):
    expected = select_initial_step(lambda _t, _y: np.array(f1), 0.0, np.array(y0), 10.0, math.inf, np.array(f0),
                                   1.0, 4, 1e-13, 1.0)
    assert _initial_step(lambda _y: f1, y0, f0, 10.0, 1.0, 1e-13, 1.0, math.inf) == expected


def test_subnormal_max_step_matches_solve_ivp():
    # the first step is max_step = 5e-324, below ten ulps of t = 0, and is raised to them as in solve_ivp
    assert_same_run("aw2", STARTS["aw2"], IntegratorConfig(max_step=5e-324, max_time=1e-321), [])


def test_error_norm_of_exactly_one_is_rejected_as_in_solve_ivp():
    # y stays 0 and only the first attempt's f(y_new) is nonzero, 40: its error estimate is 40 E[6] h = h
    # exactly, so with atol = h its norm is exactly 1, and the attempt is rejected
    h = 2.0 ** -30

    def rhs():
        calls = itertools.count(1)   # f(y0), the first-step probe, stages 1..5, then f(y_new)
        return lambda y: [40.0 if next(calls) == 8 else 0.0]

    run = _rk45.solve(rhs(), [0.0], h, 1e-3, h, h, -math.inf, [])
    f = rhs()
    ref = solve_ivp(lambda _l, y: np.array(f(y)), (0.0, h), [0.0], rtol=1e-3, atol=h, max_step=h)
    assert (run["t"], run["stats"]["n_rejected"]) == (ref.t.tolist(), 1)


def test_zero_rhs_first_step_matches_solve_ivp():
    # f = 0: both Euler error estimates are 0, and the first step is 1e-6
    still = FlowSystem("still", 2, lambda y: [0.0, 0.0])
    traj = assert_same_run(still, [1.0, 2.0], IntegratorConfig(max_time=1.0), [])
    assert traj.times[1] == 1e-6


@pytest.mark.parametrize("y0", [1.0, 1e150])
def test_blowup_matches_solve_ivp(y0):
    # y' = y^2 blows up at l = 1/y0.  From 1 the step size underflows after
    # rejected steps; from 1e150 stages and step ends overflow to inf and nan
    # first, and those steps must be rejected alike.
    finite = []
    blowup = FlowSystem("blowup", 1, lambda y: finite.append(bool(np.all(np.isfinite(y)))) or [v * v for v in y])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = assert_same_run(blowup, [y0], IntegratorConfig(max_time=2.0), [])
    assert traj.stats["n_rejected"] > 0
    assert all(finite) == (y0 == 1.0)


@pytest.mark.parametrize("kind,init", [("normalized", (1e-120, 1.0)), ("normalized", (1e70, 1.0)),
                                       ("berger", (1e200, 1e-200))])
def test_non_finite_initial_rhs_underflows_like_solve_ivp(kind, init):
    # f(y0) is not finite: solve_ivp takes a zero first step and gives up
    system, cfg = make_system(kind), IntegratorConfig(max_time=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert not np.all(np.isfinite(system.rhs(np.array(init))))
        with pytest.raises(StepSizeUnderflow) as info:
            integrate(system, init, cfg)
        ref = scipy_integrate(system, init, cfg, [])
    assert ref.status == -1
    traj = info.value.trajectory
    np.testing.assert_array_equal(traj.times, ref.t)
    np.testing.assert_array_equal(traj.states, ref.y.T)
    assert traj.events == [] and all(len(t_ev) == 0 for t_ev in ref.t_events)
    assert traj.stats["nfev"] == ref.nfev == 8


U = 2.0 ** -52
BRACKETED = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 5 - 0.5, -1.0, 2.0),
    (lambda x: (x - 0.3) * 1e-170, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e6, 20.0, 0.0),
    (lambda x: math.atan(50.0 * (x - 0.123456789)), -3.0, 5.0),
    (lambda x: x - 2.0 ** -52, 2.0 ** -50, 0.0),   # at x = 0 half the bracket is exactly the tolerance
    # |f(a)| one ulp above |f(b)|: f(b) - f(a) rounds to 2 f(b), so the secant step is exactly half the bracket,
    # 2 |stry| == |spre|, where Brent bisects
    (lambda x: -(1 + U) if x == 0.0 else (8 * x - 1) / 7, 0.0, 1.0),
    # |f(xcur)| == |f(xpre)|: a step of two levels, where Brent bisects
    (lambda x: (1.6875 if x > 0.75 else -1.6875) * (1.4375 if x > 1.25 else 1.0), 3.0, -1.0),
    # kinked lines a few ulps of 0 wide, where 2 |stry| falls between 3 |sbis| - delta and 3 |sbis| + delta,
    # and where the previous step is exactly delta
    (lambda x: 83 / 16 * (x / U + 3 / 16) if x < -3 / 16 * U else 75 / 16 * (x / U + 3 / 16) if x < 13 / 16 * U
     else 75 / 16 + 11 / 8 * (x / U - 13 / 16), -3 * U, 4 * U),
    (lambda x: 21 / 16 * (x / (4 * U) - 1 / 8) if x < U / 2 else 3.5 * (x / (4 * U) - 1 / 8), -4 * U, 14 * U),
]


@pytest.mark.parametrize("f,a,b", BRACKETED)
def test_brentq_port_matches_scipy(f, a, b):
    def counted(calls):
        return lambda x: calls.append(x) or f(x)

    mine, theirs = [], []
    root = brentq(counted(mine), a, b)
    expected = scipy_brentq(counted(theirs), a, b, xtol=4 * np.finfo(float).eps,
                            rtol=4 * np.finfo(float).eps)
    assert root == expected
    assert mine == theirs


def test_brentq_port_failures_match_scipy():
    for solver in (scipy_brentq, brentq):
        with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
            solver(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        scipy_brentq(lambda x: 1e-200, 0.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: 1e-200, 0.0, 1.0)
    for maxiter in (3, 100):
        with pytest.raises(RuntimeError, match=f"Failed to converge after {maxiter} iterations"):
            scipy_brentq(lambda x: x ** 9, -1.0, 2.0, maxiter=maxiter)
        with pytest.raises(RuntimeError, match=f"Failed to converge after {maxiter} iterations"):
            brentq(lambda x: x ** 9, -1.0, 2.0, maxiter=maxiter)
