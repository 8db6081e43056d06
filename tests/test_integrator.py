"""The in-house Dormand-Prince stepper against scipy's RK45 and brentq.

`flow.integrate` is a port of `solve_ivp(method="RK45", dense_output=True,
events=...)`: run on the same inputs, both give the same steps, states and
event roots.  Skipped where scipy is not installed.  Which BLAS kernels
numpy picks changes the bits of both runs alike; to check the port on
another kernel set, run this file again under e.g. OPENBLAS_CORETYPE=Haswell.
"""

import math
import random
import warnings

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.optimize import brentq as scipy_brentq  # noqa: E402

from ricciflow import EventSpec, IntegratorConfig, StepSizeUnderflow, integrate, make_system  # noqa: E402
from ricciflow._rk45 import brentq  # noqa: E402
from ricciflow.flow import COLLAPSE_FLOOR, FlowSystem, cone_events  # noqa: E402

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
    assert traj.stats["nfev"] == ref.nfev
    return traj


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


@pytest.mark.parametrize("y0", [1.0, 1e150])
def test_blowup_matches_solve_ivp(y0):
    # y' = y^2 blows up at l = 1/y0.  From 1 the step size underflows after
    # rejected steps; from 1e150 stages and step ends overflow to inf and nan
    # first, and those steps must be rejected alike.
    finite = []
    blowup = FlowSystem("blowup", 1, lambda y: finite.append(bool(np.all(np.isfinite(y)))) or y * y)
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


BRACKETED = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 5 - 0.5, -1.0, 2.0),
    (lambda x: (x - 0.3) * 1e-170, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e6, 20.0, 0.0),
    (lambda x: math.atan(50.0 * (x - 0.123456789)), -3.0, 5.0),
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
    with pytest.raises(ValueError, match="different signs"):
        scipy_brentq(lambda x: 1e-200, 0.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: 1e-200, 0.0, 1.0)
    for maxiter in (3, 100):
        with pytest.raises(RuntimeError, match=f"Failed to converge after {maxiter} iterations"):
            scipy_brentq(lambda x: x ** 9, -1.0, 2.0, maxiter=maxiter)
        with pytest.raises(RuntimeError, match=f"Failed to converge after {maxiter} iterations"):
            brentq(lambda x: x ** 9, -1.0, 2.0, maxiter=maxiter)
