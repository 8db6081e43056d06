"""Flow systems, integration, events, and cone-exit detection."""

import collections
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import ricciflow
from ricciflow import (
    ConeClass,
    EventSpec,
    IntegratorConfig,
    NoExitWithinHorizon,
    NonPositiveState,
    StepSizeUnderflow,
    aw2_rhs,
    aw3_rhs,
    aw_rhs,
    berger_rhs,
    boundary_event,
    classify_3param,
    cone_exit,
    einstein_points,
    integrate,
    make_system,
    normalized_rhs,
    t_a,
    t_a_closed,
)
from ricciflow import cone, flow
from ricciflow.flow import FAMILIES, FlowSystem, cone_events, post_exit_verdict, window_event

TIGHT = IntegratorConfig(max_time=1.0)


class TestRightHandSides:
    def test_aw_round(self):
        np.testing.assert_allclose(aw_rhs((1.0, 1.0, 1.0, 1.0), 1.0), [-6, -6, -9, -9])

    def test_aw_slice_ratio(self):
        state = (0.7, 0.9, 1.3, 1.3)
        rhs = aw_rhs(state, 1.0)
        assert rhs[2] / state[2] == rhs[3] / state[3]

    def test_aw3_matches_aw4(self):
        full = aw_rhs((0.8, 0.9, 1.1, 1.1), 1.0)
        reduced = aw3_rhs((0.8, 0.9, 1.1))
        np.testing.assert_allclose(reduced, full[:3], rtol=1e-14)

    def test_aw2_matches_aw4(self):
        full = aw_rhs((0.8, 0.8, 1.1, 1.1), 1.0)
        reduced = aw2_rhs((0.8, 1.1))
        np.testing.assert_allclose(reduced, (full[0], full[2]), rtol=1e-14)

    def test_berger_values(self):
        np.testing.assert_allclose(berger_rhs((2.0, 1.0)), [-24.0, -15.0])
        np.testing.assert_allclose(berger_rhs((1.0, 1.0)), [-18.0, -17.5])

    @pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
    def test_berger_rhs_scale_invariant(self, lam):
        base = berger_rhs((1.7, 0.9))
        np.testing.assert_allclose(berger_rhs((lam * 1.7, lam * 0.9)), base, rtol=1e-13)

    def test_normalized_at_round(self):
        np.testing.assert_allclose(normalized_rhs((1.0, 1.0)), [12.0 / 7.0, -9.0 / 7.0],
                                   rtol=1e-15)

    def test_normalized_einstein_equilibria(self):
        e_plus, e_minus = einstein_points()
        assert np.max(np.abs(normalized_rhs(e_plus))) <= 1e-9
        assert np.max(np.abs(normalized_rhs(e_minus))) <= 1e-9


class TestMakeSystem:
    def test_dimensions(self):
        assert make_system("aw2").dim == 2
        assert make_system("aw3").dim == 3
        assert make_system("aw4", 0.5).dim == 4
        assert make_system("berger").dim == 2
        assert make_system("normalized").dim == 2

    def test_slice_systems_require_xi_one(self):
        make_system("aw3", 1.0)
        with pytest.raises(ValueError):
            make_system("aw3", 0.5)
        with pytest.raises(ValueError):
            make_system("aw2", 0.9)

    def test_rejects_unknown_and_extra_xi(self):
        with pytest.raises(ValueError):
            make_system("aw5")
        with pytest.raises(ValueError):
            make_system("berger", 0.5)


def assert_float64_arrays(traj, dim):
    """Times, states and every event state are float64 ndarrays; event times are floats."""
    n = len(traj.times)
    for value, shape in [(traj.times, (n,)), (traj.states, (n, dim))] + [(ev.state, (dim,)) for ev in traj.events]:
        assert type(value) is np.ndarray and value.dtype == np.float64 and value.shape == shape
    assert all(type(ev.time) is float for ev in traj.events)


class TestIntegrate:
    def test_round_ratio_derivative(self):
        # d/dl (t/s) at the round two-parameter metric equals 3
        h = 1e-6
        fwd = integrate(make_system("aw2"), (1.0, 1.0), IntegratorConfig(max_time=h)).final_state
        bwd = integrate(make_system("aw2"), (1.0, 1.0),
                        IntegratorConfig(max_time=h, direction="backward")).final_state
        fd = (fwd[0] / fwd[1] - bwd[0] / bwd[1]) / (2.0 * h)
        assert fd == pytest.approx(3.0, rel=1e-6)

    def test_berger_ratio_derivative_along_flow(self):
        from ricciflow import berger_ratio_derivative

        h = 1e-6
        fwd = integrate(make_system("berger"), (2.0, 1.0), IntegratorConfig(max_time=h)).final_state
        bwd = integrate(make_system("berger"), (2.0, 1.0),
                        IntegratorConfig(max_time=h, direction="backward")).final_state
        fd = (fwd[0] / (2 * fwd[1]) - bwd[0] / (2 * bwd[1])) / (2.0 * h)
        assert fd == pytest.approx(berger_ratio_derivative(2.0, 1.0), rel=1e-6)

    def test_monotone_times_positive_states(self):
        traj = integrate(make_system("aw3"), (0.8, 0.9, 1.0), IntegratorConfig(max_time=0.05))
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(traj.states > 0)
        assert traj.status == "horizon"

    def test_backward_times_decrease(self):
        traj = integrate(make_system("aw3"), (0.8, 0.9, 1.0),
                         IntegratorConfig(max_time=0.05, direction="backward"))
        assert np.all(np.diff(traj.times) < 0)

    def test_singular_truncation(self):
        # the round two-parameter metric collapses before l = 0.5
        traj = integrate(make_system("aw2"), (1.0, 1.0), IntegratorConfig(max_time=0.5))
        assert traj.status == "singular"
        assert 0.1 < traj.final_time < 0.15
        assert traj.first_event("singular") is not None
        assert np.all(traj.states > 0)
        # t(l) > s(l) for every sampled l > 0
        after = traj.states[traj.times > 0]
        assert np.all(after[:, 0] > after[:, 1])

    def test_step_size_underflow_keeps_the_partial_trajectory(self):
        # y' = y^2 from y(0) = 1 blows up at l = 1
        calls = []
        blowup = FlowSystem("blowup", 1, lambda y: calls.append(1) or [v * v for v in y])
        with pytest.raises(StepSizeUnderflow,
                           match="^Required step size is less than spacing between numbers.$") as info:
            integrate(blowup, [1.0], IntegratorConfig(max_time=2.0))
        traj = info.value.trajectory
        assert traj.status == "singular"
        assert len(traj.times) == 1307
        assert 1.0 - 1e-9 < traj.final_time < 1.0  # just short of the blow-up, on any BLAS
        assert traj.stats["n_rejected"] > 0
        assert traj.stats["nfev"] == len(calls)

    @pytest.mark.parametrize("kind,init,max_time", [
        ("normalized", (0.8, 1.2), 10.0),
        ("aw4", (1.1, 1.0, 1.2, 0.9), 0.05),
    ])
    def test_stats_count_the_work(self, kind, init, max_time):
        system = make_system(kind, 0.7 if kind == "aw4" else None)
        calls = []
        counted = FlowSystem(kind, system.dim, lambda y: calls.append(1) or system.rhs(y))
        traj = integrate(counted, init, IntegratorConfig(max_time=max_time))
        assert traj.status == "horizon"
        assert traj.stats["nfev"] == len(calls)
        assert traj.stats["n_steps"] == len(traj.times) - 1

    @pytest.mark.parametrize("field,value", [
        ("max_time", math.inf), ("max_time", 0.0), ("max_time", math.nan), ("max_step", 0.0),
        ("rel_tol", math.inf), ("abs_tol", math.inf), ("direction", "up")])
    def test_config_rejects(self, field, value):
        # an infinite horizon is never reached by the stepper
        with pytest.raises(ValueError):
            IntegratorConfig(**{field: value})

    def test_rejects_bad_init(self):
        with pytest.raises(NonPositiveState):
            integrate(make_system("aw2"), (-1.0, 1.0))
        with pytest.raises(ValueError):
            integrate(make_system("aw2"), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("init", [(math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite_init_before_stepping(self, init):
        calls = []
        counted = FlowSystem("aw2", 2, lambda y: calls.append(1) or aw2_rhs(y))
        with pytest.raises(NonPositiveState, match="positive and finite"):
            integrate(counted, init)
        assert calls == []

    def test_time_reversal(self):
        init = np.array([0.8, 0.9, 1.0])
        cfg = IntegratorConfig(max_time=0.05)
        fwd = integrate(make_system("aw3"), init, cfg).final_state
        back = integrate(make_system("aw3"), fwd,
                         IntegratorConfig(max_time=0.05, direction="backward")).final_state
        np.testing.assert_allclose(back, init, rtol=1e-8)

    def test_backward_events_listed_by_distance_in_time(self):
        # the terminal event is listed first but crosses second, at larger |l|
        late = EventSpec("late", lambda _l, y: y[0] - 0.95)
        early = EventSpec("early", lambda _l, y: y[0] - 0.85, terminal=False)
        traj = integrate(make_system("aw3"), (0.8, 0.9, 1.0),
                         IntegratorConfig(max_time=0.05, direction="backward"), [late, early])
        assert traj.status == "event"
        assert [ev.name for ev in traj.events] == ["early", "late"]
        assert 0.0 > traj.events[0].time > traj.events[1].time == traj.final_time
        assert_float64_arrays(traj, 3)

    def test_underflow_trajectory_holds_arrays(self):
        # y' = y^2 from 1 passes y = 2 at l = 1/2 and blows up at l = 1
        blowup = FlowSystem("blowup", 1, lambda y: [v * v for v in y])
        past_two = EventSpec("past_two", lambda _l, y: y[0] - 2.0, terminal=False)
        with pytest.raises(StepSizeUnderflow) as info:
            integrate(blowup, [1.0], IntegratorConfig(max_time=2.0), [past_two])
        traj = info.value.trajectory
        assert [ev.name for ev in traj.events] == ["past_two"]
        assert traj.events[0].time == pytest.approx(0.5, rel=1e-9)
        assert_float64_arrays(traj, 1)

    def test_custom_event_recorded(self):
        crossed = EventSpec("t_below_08", lambda _l, y: y[0] - 0.8, terminal=False)
        traj = integrate(make_system("aw2"), (0.9, 1.0), IntegratorConfig(max_time=0.05),
                         [crossed])
        ev = traj.first_event("t_below_08")
        assert ev is not None
        assert 0.0 < ev.time < 0.05
        assert ev.state[0] == pytest.approx(0.8, abs=1e-9)


class TestSubfamilyInvariance:
    def test_slice_preserved(self):
        traj = integrate(make_system("aw4", 1.0), (4.0, 4.4, 4.0, 4.0),
                         IntegratorConfig(max_time=0.5))
        assert traj.status == "horizon"
        dev = np.max(np.abs(traj.states[:, 2] - traj.states[:, 3])
                     / np.maximum(traj.states[:, 2], traj.states[:, 3]))
        assert dev <= 1e-9

    def test_two_param_preserved(self):
        traj = integrate(make_system("aw4", 1.0), (4.0, 4.0, 5.0, 5.0),
                         IntegratorConfig(max_time=0.5))
        assert traj.status == "horizon"
        for a, b in ((0, 1), (2, 3)):
            dev = np.max(np.abs(traj.states[:, a] - traj.states[:, b])
                         / np.maximum(traj.states[:, a], traj.states[:, b]))
            assert dev <= 1e-9

    def test_slice_broken_at_other_xi(self):
        # at xi != 1 the s1 = s2 slice is not flow-invariant
        traj = integrate(make_system("aw4", 0.5), (0.8, 0.9, 1.0, 1.0),
                         IntegratorConfig(max_time=0.05))
        assert np.max(np.abs(traj.states[:, 2] - traj.states[:, 3])) > 1e-6


class TestVolumeNormalization:
    def test_rescaled_aw3_has_unit_volume(self):
        traj = integrate(make_system("aw3"), (0.8, 0.9, 1.0), IntegratorConfig(max_time=0.1))
        t, x, s = traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]
        factor = (t * x * x * s**4) ** (-1.0 / 7.0)
        tn, xn, sn = t * factor, x * factor, s * factor
        assert np.max(np.abs(tn * xn * xn * sn**4 - 1.0)) <= 1e-9

    def test_rescaled_tangent_aligns_with_normalized_rhs(self):
        traj = integrate(make_system("aw3"), (0.8, 0.9, 1.0), IntegratorConfig(max_time=0.1))
        worst = 1.0
        for state in traj.states[::4]:
            t, x, s = state
            vol = t * x * x * s**4
            factor = vol ** (-1.0 / 7.0)
            tp, xp, sp = aw3_rhs(state)
            vol_p = tp * x * x * s**4 + 2 * t * x * xp * s**4 + 4 * t * x * x * s**3 * sp
            factor_p = -(1.0 / 7.0) * vol ** (-8.0 / 7.0) * vol_p
            tangent = np.array([xp * factor + x * factor_p, sp * factor + s * factor_p])
            nrhs = normalized_rhs((x * factor, s * factor))
            cosine = float(tangent @ nrhs / (np.linalg.norm(tangent) * np.linalg.norm(nrhs)))
            worst = min(worst, cosine)
        assert worst >= 1.0 - 1e-6


class TestEvents:
    def test_aw3_cone_event(self):
        init = (t_a_closed(0.9, 1.0) - 1e-4, 0.9, 1.0)
        traj = integrate(make_system("aw3"), init, TIGHT,
                         [boundary_event("aw3"), window_event("aw3")])
        hit = traj.first_event("cone_exit")
        assert hit is not None and hit.time > 0.0
        verdict = post_exit_verdict("aw3", hit.state)
        assert verdict.classification is ConeClass.HAS_NONPOSITIVE_PLANE

    def test_berger_cone_event(self):
        traj = integrate(make_system("berger"), (2.0 - 1e-3, 1.0), TIGHT,
                         [boundary_event("berger")])
        hit = traj.first_event("cone_exit")
        assert hit is not None and hit.time > 0.0

    @pytest.mark.parametrize("make, kind", [(boundary_event, "normalized"), (window_event, "aw2")])
    def test_rejects_a_family_without_the_event(self, make, kind):
        with pytest.raises(ValueError, match=repr(kind)):
            make(kind)

    def test_event_state_on_boundary(self):
        init = (t_a_closed(0.9, 1.0) - 1e-4, 0.9, 1.0)
        traj = integrate(make_system("aw3"), init, TIGHT, [boundary_event("aw3")])
        t, x, s = traj.first_event("cone_exit").state
        assert t == pytest.approx(x * (4.0 * s - x) / (3.0 * s), abs=1e-9)


class TestConeExit:
    def test_aw2_from_four_tuple(self):
        exit_time, state = cone_exit("aw2", (0.99, 0.99, 1.0, 1.0), TIGHT)
        assert 0.0 < exit_time < 0.01
        assert state[0] == pytest.approx(state[1], abs=1e-9)
        after = post_exit_verdict("aw2", state)
        assert after.classification is ConeClass.HAS_NONPOSITIVE_PLANE

    def test_aw3(self):
        init = (t_a_closed(0.9, 1.0) - 1e-3, 0.9, 1.0)
        exit_time, state = cone_exit("aw3", init, TIGHT)
        assert exit_time == pytest.approx(0.00182996, abs=1e-6)
        # the returned state sits on the boundary; just beyond it the metric
        # has non-positively curved planes
        after = post_exit_verdict("aw3", state)
        assert after.classification is ConeClass.HAS_NONPOSITIVE_PLANE
        assert abs(classify_3param(*state).margin) < 1e-9

    @pytest.mark.parametrize("xi", [0.9, 0.95])
    def test_aw3_nearby_xi(self, xi):
        from ricciflow import t_a
        init = (t_a((0.9, 1.0, 1.0), xi) - 1e-3, 0.9, 1.0)
        exit_time, state = cone_exit("aw3", init, TIGHT, xi=xi)
        assert 0.0 < exit_time < 0.01
        assert state.shape == (4,)
        # slice spread grows with l but stays small at exit
        assert 0.0 < abs(state[2] - state[3]) < 1e-3

    def test_berger(self):
        exit_time, _state = cone_exit("berger", (1.99, 1.0), TIGHT)
        assert exit_time == pytest.approx(0.0016487, abs=1e-6)

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            cone_exit("aw2", (1.5, 1.0), TIGHT)

    def test_rejects_a_start_the_boundary_event_puts_on_the_boundary(self):
        # the boundary event's gap is exactly 0.0 here: the start is on the boundary,
        # not inside the cone, however the classifier rounds
        with pytest.raises(ValueError, match="not positively curved"):
            cone_exit("aw3", (0.16434543517149297, 0.15604810080674877, 0.18566433578077873))

    def test_rejects_mismatched_four_tuple(self):
        with pytest.raises(ValueError):
            cone_exit("aw2", (0.9, 0.8, 1.0, 1.0), TIGHT)

    @pytest.mark.parametrize("family, init, config, match", [
        ("aw3", (0.9, 1.0), TIGHT, "3 or 4 components"),
        ("aw5", (0.99, 1.0), TIGHT, "unknown cone-exit family"),
        ("aw2", (0.99, 1.0), IntegratorConfig(direction="backward"), "integrates forward")])
    def test_rejects_bad_arguments(self, family, init, config, match):
        with pytest.raises(ValueError, match=match):
            cone_exit(family, init, config)

    @pytest.mark.parametrize("family, init", [("aw2", (0.99, 1.0)), ("berger", (1.99, 1.0))])
    def test_rejects_unused_xi(self, family, init):
        with pytest.raises(ValueError, match="xi = 1"):
            cone_exit(family, init, TIGHT, xi=0.5)

    def test_no_exit_within_horizon(self):
        with pytest.raises(NoExitWithinHorizon):
            cone_exit("aw2", (0.5, 1.0), IntegratorConfig(max_time=1e-4))

    def test_near_round_start_gets_an_answer(self):
        # spread 3e-8 off the round point: the aw4 boundary event evaluates
        # t_A next to the round diagonal at every step
        s = (1.0 - 1e-7, 1.0)
        try:
            exit_time, _state = cone_exit("aw3", (0.9 * t_a((*s, 1.0), 0.7), *s), TIGHT, xi=0.7)
        except NoExitWithinHorizon:
            return
        assert exit_time > 0.0

    def test_collapse_before_the_boundary_is_no_exit(self):
        # the aw4 boundary event meets a step end with a negative coefficient
        # before the collapse floor's root cuts the step
        with pytest.raises(NoExitWithinHorizon, match=r"\(status: singular\)"):
            cone_exit("aw3", (0.12, 0.22, 1.0), xi=0.9)

    def test_window_exit_reported_first(self):
        # from (0.2, 0.99, 1) the ratio x/s crosses 1 before the boundary
        with pytest.raises(NoExitWithinHorizon, match="certified window"):
            cone_exit("aw3", (0.2, 0.99, 1.0), IntegratorConfig(max_time=2.0))


# A start just inside the boundary for each registry entry, under the name
# callers use: the aw4 entry is reached as aw3 off xi = 1.
_INSIDE = {
    "aw2": ("aw2", 1.0, (0.99, 1.0)),
    "aw3": ("aw3", 1.0, (t_a_closed(0.9, 1.0) - 1e-3, 0.9, 1.0)),
    "aw4": ("aw3", 0.9, (t_a((0.9, 1.0, 1.0), 0.9) - 1e-3, 0.9, 1.0)),
    "berger": ("berger", 1.0, (1.99, 1.0)),
}


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_every_family_exits_into_nonpositive_planes(kind):
    family, xi, init = _INSIDE[kind]
    exit_time, state = cone_exit(family, init, TIGHT, xi=xi)
    assert cone_exit(kind, init, TIGHT, xi=xi)[0] == exit_time
    verdict = post_exit_verdict(family, state, xi)
    assert verdict.classification is ConeClass.HAS_NONPOSITIVE_PLANE


# Each entry point that takes a system kind, as a call (kind, xi); the states
# lie just inside the cone at xi = 1 (aw4: at xi = 0.5).
_STARTS = {"aw2": (0.99, 1.0), "aw3": (t_a_closed(0.9, 1.0) - 1e-3, 0.9, 1.0), "berger": (1.99, 1.0),
           "aw4": (t_a((0.9, 1.0, 1.0), 0.5) - 1e-3, 0.9, 1.0, 1.0)}
_ENTRY_POINTS = {
    "make_system": make_system,
    "boundary_event": boundary_event,
    "window_event": lambda kind, _xi: window_event(kind),   # the window does not depend on xi
    "cone_events": cone_events,
    "cone_exit": lambda kind, xi: cone_exit(kind, _STARTS.get(kind, (1.0, 1.0)), TIGHT, xi=xi),
    "post_exit_verdict": lambda kind, xi: post_exit_verdict(kind, _STARTS.get(kind, (1.0, 1.0)), xi),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_resolves_kind_and_xi_by_one_rule(entry):
    call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="unknown .* 'aw5', expected one of"):
        call("aw5", 1.0)
    if entry != "window_event":
        # off xi = 1, cone_exit and post_exit_verdict integrate aw3 as aw4
        slices = ("aw2", "berger") if entry in ("cone_exit", "post_exit_verdict") else ("aw2", "aw3", "berger")
        for kind in slices:
            with pytest.raises(ValueError, match="takes only xi = 1"):
                call(kind, 0.5)
    call("aw4", 0.5)


def _near_boundary(family, xi, rng):
    """A state of `family` within 64 ulps of its cone boundary, at a scale s
    log-uniform in [0.1, 10] and with x/s uniform in (0.01, 0.99)."""
    s = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    x = rng.uniform(0.01, 0.99) * s
    on = {"aw2": (s, s), "berger": (2.0 * s, s), "aw3": (x * (4.0 * s - x) / (3.0 * s), x, s),
          "aw4": (t_a((x, s, s), xi), x, s, s)}[family]
    return [on[0] + rng.randint(-64, 64) * math.ulp(on[0]), *on[1:]]


@pytest.mark.parametrize("family, xi", [("aw2", 1.0), ("aw3", 1.0), ("berger", 1.0),
                                        ("aw4", 0.3), ("aw4", 0.7), ("aw4", 0.95)])
def test_classifier_and_boundary_event_share_one_cone(family, xi):
    # cone_exit accepts a start by the classifier and finds its exit by the
    # boundary event: next to the boundary the two must read the same gap
    rng = random.Random(20240611)
    event = boundary_event(family, xi).fn
    for _ in range(2000):
        state = _near_boundary(family, xi, rng)
        verdict, gap = FAMILIES[family].classify(state, xi), event(0.0, state)
        assert (verdict.classification is ConeClass.POSITIVELY_CURVED) == (gap > 0.0), state
        assert verdict.margin.hex() == gap.hex(), state


def test_aw4_cone_events_survive_collapsing_runs():
    # a collapsing run meets the aw4 boundary event at a step end with a
    # coefficient below zero; it must end "singular", not raise
    rng = np.random.default_rng(20240611)
    statuses = []
    for _ in range(40):
        y0, xi = np.exp(rng.uniform(-2.0, 1.0, 4)), rng.uniform(0.3, 1.0)
        traj = integrate(make_system("aw4", xi), y0, IntegratorConfig(max_time=2.0),
                         cone_events("aw4", xi))
        statuses.append(traj.status)
    assert "singular" in statuses and "event" in statuses


def test_aw4_gap_is_infinite_at_a_zero_coefficient():
    # exactly at collapse the boundary gap is inf, past the collapse floor
    assert cone._aw4_gap(np.array([1.0, 0.0, 1.0, 1.0]), 0.9) == math.inf


def test_aw4_gap_raises_on_a_non_finite_coefficient():
    # only a coefficient <= 0 is past the collapse floor; nan is an error
    with pytest.raises(ValueError, match="positive and finite"):
        cone._aw4_gap([1.0, math.nan, 1.0, 1.0], 0.9)


@pytest.mark.parametrize("xi, rhs, classifier", [(1.0, "aw3_rhs", "classify_3param"),
                                                 (0.9, "aw_rhs", "classify_aw_slice")])
def test_cone_exit_calls_rebound_functions(monkeypatch, xi, rhs, classifier):
    # The benchmark's tracer wraps functions by rebinding module attributes;
    # cone_exit must reach each rebinding, not a reference taken at import.
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.update([name]) or original(*a, **k))

    names = [(flow, rhs), (flow, "boundary_event"), (flow, "window_event"), (cone, classifier)]
    if xi != 1.0:
        names.append((cone, "t_a"))
    for module, name in names:
        count(module, name)
    cone_exit("aw3", (t_a((0.9, 1.0, 1.0), xi) - 1e-3, 0.9, 1.0), TIGHT, xi=xi)
    assert set(calls) == {name for _, name in names}


class TestBackwardPersistence:
    def test_positively_curved_before_boundary_start(self):
        # start on the boundary, step back a hair, then detect how far the
        # backward flow stays positively curved
        system = make_system("aw3")
        start = integrate(system, (t_a_closed(0.9, 1.0), 0.9, 1.0),
                          IntegratorConfig(max_time=1e-6, direction="backward")).final_state
        reentry = EventSpec(
            "reentry", lambda _l, y: y[1] * (4.0 * y[2] - y[1]) / (3.0 * y[2]) - y[0])
        traj = integrate(system, start,
                         IntegratorConfig(max_time=0.5, direction="backward"), [reentry])
        hit = traj.first_event("reentry")
        assert hit is not None
        lbar = -hit.time
        assert 0.1 < lbar < 0.2
        inside = [state for time, state in zip(traj.times, traj.states)
                  if hit.time * 0.95 < time < -1e-5]
        assert inside
        for state in inside:
            assert classify_3param(*state).classification is ConeClass.POSITIVELY_CURVED


def test_package_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(ricciflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ricciflow, ricciflow.cli, ricciflow.verify; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
