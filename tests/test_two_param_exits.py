"""The two-parameter cone exits against the mpmath oracle of their Riccati
reductions (`riccati`).

`cone_exit("aw2", ...)` evaluates the exit in closed form, so it must agree
with the oracle to rounding, at every scale; Berger's exit is still the
stepper's event root, within its tolerances of the oracle.
"""

import math
import random

import pytest

from ricciflow import IntegratorConfig, NoExitWithinHorizon, aw2_rhs, berger_rhs, cone_exit
from riccati import exit_at, riccati


def _rel(value, exact):
    return float(abs((value - exact) / exact))


@pytest.mark.parametrize("family, rhs", [("aw2", aw2_rhs), ("berger", berger_rhs)])
def test_the_reduction_is_the_flow(family, rhs):
    # du/dtau = (y' x - y x')/x and d ln x/dtau = x' at u = y/x, dtau = dl/x
    rng = random.Random(11)
    for _ in range(50):
        y, x = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        dy, dx = rhs((y, x))
        du, dlnx = riccati(family, y / x)
        assert (dy * x - y * dx) / x == pytest.approx(du, rel=1e-12, abs=1e-12)
        assert dx == pytest.approx(dlnx, rel=1e-12)


def _aw2_starts():
    """Seeded (t, s) inside the cone: t/s uniform in (2/5, 1) or 1 - m with m
    log-uniform in [1e-4, 1e-1], s log-uniform in [0.1, 10]; then starts
    within 1e-12 of the boundary t = s and just above t/s = 2/5 (the float
    0.4 is 2.2e-17 above 2/5)."""
    rng = random.Random(20241019)
    starts = []
    for i in range(16):
        s = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        u = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0) if i % 2 else rng.uniform(0.4, 1.0)
        starts.append((u * s, s))
    near = [1.0 - 1e-12, 1.0 - 1e-8, 0.4 + 1e-12, 0.4 + 2.0 ** -52, 0.4]
    return starts + [(u, 1.0) for u in near] + [(u * 3.0, 3.0) for u in near]


@pytest.mark.parametrize("init", _aw2_starts())
def test_aw2_exit_is_the_exact_exit(init):
    time, state = cone_exit("aw2", init)
    exact_time, exact_state = exit_at("aw2", init)
    assert _rel(time, exact_time) <= 1e-13
    assert max(_rel(c, e) for c, e in zip(state.tolist(), exact_state)) <= 1e-13
    assert state[0] == state[1]   # on the boundary t = s in floats


@pytest.mark.parametrize("init", [(0.3, 1.0), (math.nextafter(0.4, 0.0), 1.0), (1e-300, 1.0)])
def test_aw2_at_most_two_fifths_never_exits(init):
    # t/s then falls (or, at 2/5, stays): the largest float below 2/5 has no
    # exit, while the float 0.4, above 2/5, exits
    assert exit_at("aw2", init) is None
    with pytest.raises(NoExitWithinHorizon, match=r"<= 2/5 falls .* never leaves the cone"):
        cone_exit("aw2", init)


def test_aw2_exactly_at_two_fifths_stays():
    # 2/5 is no float, but (2, 5) has t/s = 2/5 exactly: z0 is exactly 0 and t/s stays at 2/5
    with pytest.raises(NoExitWithinHorizon, match=r"^t/s = 0\.4 <= 2/5 falls"):
        cone_exit("aw2", (2.0, 5.0))


def test_aw2_exit_past_the_horizon_raises_as_the_stepper_did():
    time, _state = cone_exit("aw2", (0.5, 1.0))
    assert cone_exit("aw2", (0.5, 1.0), IntegratorConfig(max_time=time))[0] == time
    with pytest.raises(NoExitWithinHorizon, match=r"within horizon 0\.09 \(status: horizon\)"):
        cone_exit("aw2", (0.5, 1.0), IntegratorConfig(max_time=0.09))


@pytest.mark.parametrize("init", [(0.99, 1.0), (0.75, 1.5), (0.4000001, 1.0)])
def test_aw2_exit_scales_with_the_start(init):
    # the flow is covariant under scaling: 2^k y0 exits at 2^k l in 2^k y(l)
    time, state = cone_exit("aw2", init)
    for k in range(-300, 301):
        lam = 2.0 ** k
        scaled = (lam * init[0], lam * init[1])
        time_k, state_k = cone_exit("aw2", scaled, IntegratorConfig(max_time=10.0 * lam))
        assert time_k == lam * time and state_k.tolist() == [lam * c for c in state.tolist()]
        with pytest.raises(NoExitWithinHorizon, match="status: horizon"):
            cone_exit("aw2", scaled, IntegratorConfig(max_time=0.5 * lam * time))


def test_aw2_exit_below_the_stepper_tolerances():
    # at the scale 1e-13 the stepper (abs_tol and collapse floor 1e-12)
    # reported an exit at l = 1.82e-14
    init = (0.99 * 1e-13, 1e-13)
    time, _state = cone_exit("aw2", init)
    assert _rel(time, exit_at("aw2", init)[0]) <= 1e-13
    assert time == pytest.approx(3.2947315990133e-16, rel=1e-12)


def _berger_starts():
    """Seeded (x1, x2) as the benchmark draws them, x1 = 2 (1 - m) x2 with m
    log-uniform in [1e-4, 1e-2] and x2 uniform in [0.5, 2]; the last start is
    1.24e-8 from its exact exit."""
    rng = random.Random(20241019)
    starts = []
    for _ in range(12):
        x2, m = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-4.0, -2.0)
        starts.append((2.0 * (1.0 - m) * x2, x2))
    return starts + [(2.0 * (1.0 - 0.0020716634806686603) * 0.5147947858165182, 0.5147947858165182)]


@pytest.mark.parametrize("init", _berger_starts())
def test_berger_stepper_exit_is_near_the_exact_exit(init):
    # the stepper's error, up to 1.3e-8 relative on short exits, goes with a
    # closed form for Berger
    time, state = cone_exit("berger", init)
    exact_time, exact_state = exit_at("berger", init)
    assert _rel(time, exact_time) <= 2e-8
    assert max(_rel(c, e) for c, e in zip(state.tolist(), exact_state)) <= 2e-8
