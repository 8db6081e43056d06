"""Flow ODE systems, adaptive integration, and cone-boundary event detection.

Each system evolves by x_i' = -2 r_i x_i with the matching Ricci
eigenvalues; the normalized planar system is the volume-one reduction of the
three-parameter family.  Integration uses the in-house Dormand-Prince 5(4)
pair with Shampine's dense output (`_rk45`); events are scalar sign changes
at step ends, refined by Brent's method on the step's interpolant well below
the 1e-10 time-accuracy requirement.

Termination modes of `integrate`:
  * "horizon"  - reached config.max_time,
  * "event"    - a terminal event fired (the event is recorded),
  * "singular" - a state component fell below COLLAPSE_FLOOR (the flow is
                 collapsing); the trajectory is truncated there and a
                 "singular" event is recorded.
The cone-exit families (aw2, aw3, aw4, berger) are described once, in FAMILIES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _rk45, cone
from .errors import NonPositiveState, NoExitWithinHorizon, StepSizeUnderflow
from .spaces import aw_eigenvalue_tuple, berger_eigenvalue_tuple, xi_value

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "FlowEvent",
    "Trajectory",
    "FlowSystem",
    "make_system",
    "aw_rhs",
    "aw3_rhs",
    "aw2_rhs",
    "berger_rhs",
    "normalized_rhs",
    "integrate",
    "cone_exit",
    "cone_events",
    "boundary_event",
    "window_event",
    "post_exit_verdict",
    "Family",
    "FAMILIES",
]

# A state component below this value ends an integration as "singular".
COLLAPSE_FLOOR = 1e-12


@dataclass(frozen=True)
class Family:
    """How one cone-exit family is set up, integrated and classified.

    Functions are named, not held, and looked up at each use, so that a
    rebinding of `cone.classify_*` or of this module's functions is seen.
    `coords` maps (t, s0, s1, s2) onto the reduced state; coefficients with
    equal indices must be equal.  aw4 integrates the expanded (t, x, s, s).
    """

    takes_xi: bool                   # varies with xi; all others accept only xi = 1
    coords: tuple[int, ...] | None   # None: the state is taken as given
    classifier: str                  # name of the `cone` classifier
    unpack: bool                     # the classifier takes the components as arguments
    window: bool                     # leaving the certified slice window x < s is monitored


FAMILIES = {
    "aw2": Family(False, (0, 0, 1, 1), "classify_2param", True, False),
    "aw3": Family(False, (0, 1, 2, 2), "classify_3param", True, True),
    "aw4": Family(True, (0, 1, 2, 2), "classify_aw_slice", False, True),
    "berger": Family(False, None, "classify_berger", False, False),
}
SYSTEM_KINDS = (*FAMILIES, "normalized")
_SYSTEM_DIMS = {"aw2": 2, "aw3": 3, "aw4": 4, "berger": 2, "normalized": 2}


def _on_floats(kernel):
    """`kernel(*state, *args)` as `f(state, *args)` on Python floats: the bits of
    numpy float64 scalars at half the cost.  Where float `**` or `/` raises and
    numpy gives inf or nan, the kernel runs again on numpy scalars, so a stage
    that overflows is rejected by the integrator, not raised."""
    @functools.wraps(kernel)
    def f(state, *args):
        arr = np.asarray(state, dtype=float)
        try:
            return kernel(*arr.tolist(), *args)
        except (OverflowError, ZeroDivisionError):
            return kernel(*arr, *args)
    return f


@_on_floats
def aw_rhs(t, s0, s1, s2, xi) -> np.ndarray:
    """Four-parameter Aloff-Wallach flow: (t', s0', s1', s2') = -2 r_i * state."""
    r0, r1, r2, r3 = aw_eigenvalue_tuple(t, s0, s1, s2, xi_value(xi))
    return np.array([-2.0 * r0 * t, -2.0 * r1 * s0, -2.0 * r2 * s1, -2.0 * r3 * s2])


@_on_floats
def aw3_rhs(t, x, s) -> np.ndarray:
    """Three-parameter slice (t, x, s) at xi = 1, eigenvalues in reduced form."""
    r0 = t * (2.0 * s * s + x * x) / (x * x * s * s)
    r1 = (4.0 * x * s * s - 2.0 * t * s * s + x**3) / (x * x * s * s)
    r2 = (12.0 * s - t - 2.0 * x) / (2.0 * s * s)
    return np.array([-2.0 * r0 * t, -2.0 * r1 * x, -2.0 * r2 * s])


@_on_floats
def aw2_rhs(t, s) -> np.ndarray:
    """Two-parameter slice (t, s) at xi = 1: r0 = (2s^2+t^2)/(ts^2),
    r2 = 3(4s-t)/(2s^2)."""
    r0 = (2.0 * s * s + t * t) / (t * s * s)
    r2 = 3.0 * (4.0 * s - t) / (2.0 * s * s)
    return np.array([-2.0 * r0 * t, -2.0 * r2 * s])


@_on_floats
def berger_rhs(x1, x2) -> np.ndarray:
    """Berger flow (x1', x2') = (-2 r1 x1, -2 r2 x2)."""
    r1, r2 = berger_eigenvalue_tuple(x1, x2)
    return np.array([-2.0 * r1 * x1, -2.0 * r2 * x2])


@_on_floats
def normalized_rhs(x, s) -> np.ndarray:
    """Volume-one planar flow of the three-parameter family (t = x^-2 s^-4)."""
    xp = (-40.0 * x**3 * s**6 + 24.0 * s**2 - 18.0 * x**5 * s**4 - 2.0 * x**2
          + 48.0 * x**4 * s**5) / (7.0 * x**3 * s**6)
    sp = (-36.0 * x**4 * s**5 + 16.0 * x**3 * s**6 + 10.0 * x**5 * s**4 + 5.0 * x**2
          - 4.0 * s**2) / (7.0 * x**4 * s**5)
    return np.array([xp, sp])


@dataclass(frozen=True)
class FlowSystem:
    """One of the named ODE systems; `rhs` maps a state to its velocity."""

    kind: str
    dim: int
    xi: float | None
    rhs: Callable[[np.ndarray], np.ndarray]


def make_system(kind: str, xi: float | None = None) -> FlowSystem:
    """Build a FlowSystem.  Only aw4 varies with xi (any xi in (0, 1],
    default 1).  The aw2/aw3 slices are flow-invariant only at xi = 1 and
    the Berger and normalized systems have no xi, so for them any xi other
    than 1 is rejected."""
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown system kind {kind!r}, expected one of {SYSTEM_KINDS}")
    x = 1.0 if xi is None else xi_value(xi)
    if x != 1.0 and not (kind in FAMILIES and FAMILIES[kind].takes_xi):
        raise ValueError(f"system {kind!r} takes only xi = 1, got xi = {xi}")
    if kind in ("aw2", "aw3"):
        return FlowSystem(kind, _SYSTEM_DIMS[kind], 1.0, aw2_rhs if kind == "aw2" else aw3_rhs)
    if kind == "aw4":
        return FlowSystem(kind, 4, x, lambda state: aw_rhs(state, x))
    return FlowSystem(kind, 2, None, berger_rhs if kind == "berger" else normalized_rhs)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_time: float = 10.0
    direction: str = "forward"

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")
        if not self.max_time > 0.0:
            raise ValueError("max_time must be positive")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', got {self.direction!r}")


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(l, state); a recorded zero crossing of g.

    `terminal` stops the integration at the crossing; `direction` restricts
    to rising (+1) or falling (-1) crossings, 0 accepts both.
    """

    name: str
    fn: Callable[[float, np.ndarray], float]
    terminal: bool = True
    direction: float = 0.0


@dataclass(frozen=True)
class FlowEvent:
    time: float
    name: str
    state: np.ndarray


@dataclass
class Trajectory:
    """Sampled solution of one flow run (times monotone, states positive).

    `stats` counts the run's work: accepted steps `n_steps`, rejected step
    attempts `n_rejected` and right-hand-side evaluations `nfev`.
    """

    times: np.ndarray
    states: np.ndarray
    events: list[FlowEvent] = field(default_factory=list)
    status: str = "horizon"
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def first_event(self, name: str) -> FlowEvent | None:
        for ev in self.events:
            if ev.name == name:
                return ev
        return None


def integrate(system: FlowSystem, init, config: IntegratorConfig | None = None,
              events: Sequence[EventSpec] = ()) -> Trajectory:
    """Integrate `system` from `init` with the adaptive Dormand-Prince 5(4) pair.

    Stops at config.max_time, at the first terminal event, or when a state
    component falls below COLLAPSE_FLOOR (collapsing flow; the run is
    truncated with status "singular").  Raises StepSizeUnderflow when the
    solver stalls and NonPositiveState for nonpositive initial or sampled
    states.
    """
    cfg = config or IntegratorConfig()
    y0 = np.asarray(init, dtype=float)
    if y0.shape != (system.dim,):
        raise ValueError(f"system {system.kind!r} needs {system.dim} components, got {y0.shape}")
    if not np.all(y0 > 0.0):
        raise NonPositiveState(f"initial state must be strictly positive, got {y0}")

    sign = 1.0 if cfg.direction == "forward" else -1.0
    floor = (lambda _l, y: min(y.tolist()) - COLLAPSE_FLOOR, True, 0.0)
    sol = _rk45.solve(system.rhs, y0, sign * cfg.max_time, cfg.rel_tol, cfg.abs_tol, cfg.max_step,
                      [floor, *((spec.fn, spec.terminal, spec.direction) for spec in events)])

    names = ["singular", *(spec.name for spec in events)]
    recorded = [FlowEvent(float(te), names[i], ye) for i in [*range(1, len(names)), 0]
                for te, ye in zip(sol["t_events"][i], sol["y_events"][i])]
    recorded.sort(key=lambda ev: abs(ev.time))

    times, states, stats = sol["t"], sol["y"], sol["stats"]
    if sol["status"] == -1:
        raise StepSizeUnderflow(_rk45.UNDERFLOW,
                                trajectory=Trajectory(times, states, recorded, "singular", stats))
    if np.any(states <= 0.0):
        raise NonPositiveState("integrator produced a nonpositive state sample")
    if sol["status"] == 1:
        status = "singular" if sol["t_events"][0] else "event"
    else:
        status = "horizon"
    return Trajectory(times, states, recorded, status, stats)


def boundary_event(family: str, xi: float = 1.0) -> EventSpec:
    """Cone-boundary event for a flow family.

    aw2: s - t;  aw3: t_A(x, s, s) - t (slice closed form);  berger:
    2 x2 - x1;  aw4: t_A(s, xi) - t through the general closed form.
    All are positive strictly inside the cone and cross zero on exit.
    """
    if family == "aw2":
        gap = _on_floats(lambda t, s: s - t)
    elif family == "aw3":
        gap = _on_floats(lambda t, x, s: x * (4.0 * s - x) / (3.0 * s) - t)
    elif family == "berger":
        gap = _on_floats(lambda x1, x2: 2.0 * x2 - x1)
    elif family == "aw4":
        x = xi_value(xi)
        return EventSpec("cone_exit", lambda _l, y: cone.t_a(y[1:], x) - float(y[0]), True, -1.0)
    else:
        raise ValueError(f"no cone boundary event for family {family!r}")
    return EventSpec("cone_exit", lambda _l, y: gap(y), True, -1.0)


def window_event(dim: int) -> EventSpec:
    """Monitor for leaving the certified slice window x < s (3- or 4-state);
    non-terminal, recorded as "window_exit"."""
    if dim == 3:
        gap = _on_floats(lambda t, x, s: s - x)
    else:
        gap = _on_floats(lambda t, x, s1, s2: 0.5 * (s1 + s2) - x)
    return EventSpec("window_exit", lambda _l, y: gap(y), terminal=False, direction=-1.0)


def _resolve(family: str, xi) -> tuple[str, Family, float]:
    """Registry entry of `family` at `xi`.  Off xi = 1 the aw3 slice is not
    flow-invariant, so aw3 resolves to the full four-parameter system."""
    x = xi_value(xi)
    kind = "aw4" if family == "aw3" and x != 1.0 else family
    if kind not in FAMILIES:
        raise ValueError(f"unknown cone-exit family {family!r}, expected one of {tuple(FAMILIES)}")
    return kind, FAMILIES[kind], x


def _initial_state(kind: str, fam: Family, init) -> np.ndarray:
    """The family's state from `init`, given as that state, as the reduced
    slice state (aw4), or as the four coefficients (t, s0, s1, s2)."""
    arr = np.asarray(init, dtype=float)
    if fam.coords is None:
        dim = _SYSTEM_DIMS[kind]
        if arr.shape != (dim,):
            raise ValueError(f"{kind} initial state must have {dim} components, got {arr.shape}")
        return arr
    first = [fam.coords.index(k) for k in range(fam.coords[-1] + 1)]
    if arr.shape == (4,):
        if not np.array_equal(arr[first][list(fam.coords)], arr):
            form = ", ".join("abc"[k] for k in fam.coords)
            raise ValueError(f"{kind} needs (t, s0, s1, s2) of the form ({form}), got {arr}")
        arr = arr[first]
    elif arr.shape != (len(first),):
        raise ValueError(f"{kind} initial state must have {len(first)} or 4 components, got {arr.shape}")
    return arr[list(fam.coords)] if _SYSTEM_DIMS[kind] == 4 else arr


def _classify(fam: Family, state, xi: float) -> cone.ConeVerdict:
    classify = getattr(cone, fam.classifier)
    if fam.takes_xi:
        return classify(state, xi)
    return classify(*state) if fam.unpack else classify(state)


def cone_events(kind: str, xi: float = 1.0) -> list[EventSpec]:
    """The cone-boundary event of system `kind`, followed by the
    certified-window monitor where the family has one."""
    events = [boundary_event(kind, xi)]
    if FAMILIES[kind].window:
        events.append(window_event(_SYSTEM_DIMS[kind]))
    return events


def cone_exit(family: str, init, config: IntegratorConfig | None = None,
              xi: float = 1.0) -> tuple[float, np.ndarray]:
    """First crossing of the positivity-cone boundary along the flow.

    The initial metric must classify PositivelyCurved for its family.  For
    family "aw3" with xi != 1 the slice is not flow-invariant, so the full
    four-parameter system is integrated with the general boundary event;
    aw2 and berger take only xi = 1.  Raises NoExitWithinHorizon if the
    boundary is not reached (including collapse or leaving the certified
    window first).
    """
    cfg = config or IntegratorConfig()
    kind, fam, xi = _resolve(family, xi)
    system = make_system(kind, xi)
    state = _initial_state(kind, fam, init)
    verdict = _classify(fam, state, xi)
    if verdict.classification is not cone.ConeClass.POSITIVELY_CURVED:
        raise ValueError(f"initial metric is not positively curved ({verdict.classification.value})")
    if cfg.direction != "forward":
        raise ValueError("cone_exit integrates forward")

    traj = integrate(system, state, cfg, cone_events(kind, xi))
    hit = traj.first_event("cone_exit")
    if hit is None:
        raise NoExitWithinHorizon(
            f"no cone exit within horizon {cfg.max_time} (status: {traj.status})")
    window = traj.first_event("window_exit")
    if window is not None and window.time < hit.time:
        raise NoExitWithinHorizon(
            f"left the certified window at l = {window.time} before the boundary crossing")
    return hit.time, hit.state


def post_exit_verdict(family: str, state, xi: float = 1.0,
                      dt: float = 1e-3) -> cone.ConeVerdict:
    """Classify the metric a small flow time `dt` past `state`.

    Used to confirm that a detected boundary crossing really lands outside
    the cone; `family` and `xi` resolve as in `cone_exit`, and `state` is
    the state that `cone_exit` returned.
    """
    kind, fam, xi = _resolve(family, xi)
    after = integrate(make_system(kind, xi), state, IntegratorConfig(max_time=dt)).final_state
    return _classify(fam, after, xi)
