"""Flow ODE systems, adaptive integration, and cone-boundary event detection.

Each system evolves by x_i' = -2 r_i x_i with the matching Ricci
eigenvalues; the normalized planar system is the volume-one reduction of the
three-parameter family.  Integration uses the in-house Dormand-Prince 5(4)
pair with Shampine's dense output (`_rk45`); events are scalar sign changes
at step ends, refined by Brent's method to 4 eps on the step's interpolant.
So a root is as accurate as the step: at the default tolerances, 40 seeded
aw4 cone exits of the benchmark's `exit_map_xi` pool lie a median 1.5e-9 and
at most 4.5e-8 relative from the DOP853 oracle `bench/oracle.reference_exit`
(another 40 gave 1.0e-9 and 3.5e-8).  `integrate_rows` runs many starts of one
system as one batch, every Trajectory bit for bit its own `integrate`.

Termination modes of `integrate`:
  * "horizon"  - reached config.max_time,
  * "event"    - a terminal event fired (the event is recorded),
  * "singular" - min(state) - COLLAPSE_FLOOR changed sign between step ends
                 (a collapse; a start below the floor runs on); the trajectory
                 is truncated at the root and a "singular" event is recorded.
Each system kind is described once, in SYSTEMS (rows with a classifier are FAMILIES), and
every entry point resolves a kind and its xi by the one lookup `_row`: only aw4 takes xi != 1.

The aw2 cone exit is exact, not integrated: on (t, s) the ratio u = t/s obeys the separable
Riccati equation du/dtau = 5(u - 2/5)(2 - u), dtau = dl/s, so the flow leaves the cone
(reaches u = 1) if and only if t/s > 2/5, and `cone_exit` evaluates the exit time as a series
in closed form (`_aw2_exit`); the tolerances of the config do not apply to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _rk45, cone
from .errors import NonPositiveState, NoExitWithinHorizon, StepSizeUnderflow
from .spaces import _is_real, _reals, aw_eigenvalue_tuple, berger_eigenvalue_tuple, xi_value

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
    "integrate_rows",
    "cone_exit",
    "cone_events",
    "boundary_event",
    "window_event",
    "post_exit_verdict",
    "Family",
    "SYSTEMS",
    "FAMILIES",
]

# A state component below this value ends an integration as "singular".
COLLAPSE_FLOOR = 1e-12


@cone._on_floats
def aw_rhs(t, s0, s1, s2, xi) -> tuple:
    """Four-parameter Aloff-Wallach flow: (t', s0', s1', s2') = -2 r_i * state."""
    r0, r1, r2, r3 = aw_eigenvalue_tuple(t, s0, s1, s2, xi_value(xi))
    return -2.0 * r0 * t, -2.0 * r1 * s0, -2.0 * r2 * s1, -2.0 * r3 * s2


@cone._on_floats
def aw3_rhs(t, x, s) -> tuple:
    """Three-parameter slice (t, x, s) at xi = 1, eigenvalues in reduced form."""
    r0 = t * (2.0 * s * s + x * x) / (x * x * s * s)
    r1 = (4.0 * x * s * s - 2.0 * t * s * s + x**3) / (x * x * s * s)
    r2 = (12.0 * s - t - 2.0 * x) / (2.0 * s * s)
    return -2.0 * r0 * t, -2.0 * r1 * x, -2.0 * r2 * s


@cone._on_floats
def aw2_rhs(t, s) -> tuple:
    """Two-parameter slice (t, s) at xi = 1: r0 = (2s^2+t^2)/(ts^2),
    r2 = 3(4s-t)/(2s^2)."""
    r0 = (2.0 * s * s + t * t) / (t * s * s)
    r2 = 3.0 * (4.0 * s - t) / (2.0 * s * s)
    return -2.0 * r0 * t, -2.0 * r2 * s


@cone._on_floats
def berger_rhs(x1, x2) -> tuple:
    """Berger flow (x1', x2') = (-2 r1 x1, -2 r2 x2)."""
    r1, r2 = berger_eigenvalue_tuple(x1, x2)
    return -2.0 * r1 * x1, -2.0 * r2 * x2


@cone._on_floats
def normalized_rhs(x, s) -> tuple:
    """Volume-one planar flow of the three-parameter family (t = x^-2 s^-4)."""
    x2, x3, x4, x5 = x**2, x**3, x**4, x**5
    s2, s4, s5, s6 = s**2, s**4, s**5, s**6
    xp = (-40.0 * x3 * s6 + 24.0 * s2 - 18.0 * x5 * s4 - 2.0 * x2 + 48.0 * x4 * s5) / (7.0 * x3 * s6)
    sp = (-36.0 * x4 * s5 + 16.0 * x3 * s6 + 10.0 * x5 * s4 + 5.0 * x2 - 4.0 * s2) / (7.0 * x4 * s5)
    return xp, sp


# (b_n, k_n) of `_aw2_exit`, smallest term first: b_n = 27/20 - n, k_n = (1/4)_n/n! (3/8)^n / (8 (5/8)^(3/4) b_n)
_AW2_SERIES = tuple((1.35 - n, math.gamma(n + 0.25) / (math.gamma(0.25) * math.factorial(n)) * 0.375 ** n
                     / (8.0 * 0.625 ** 0.75 * (1.35 - n))) for n in reversed(range(40)))


def _aw2_exit(t0: float, s0: float) -> tuple[float, list[float]]:
    """Exact cone exit (l, (s, s)) of the aw2 flow from t0 < s0.  With z = (5u - 2)/8,
    s = s0 (z/z0)^(-27/20) ((1 - z)/(1 - z0))^(3/4) and l = int s dz/(8z(1 - z)) from z0 to 3/8,
    an incomplete Beta difference (DLMF 8.17).  Over (1 - z)^(-1/4) = sum (1/4)_n z^n/n! with
    L = log(3/(8 z0)) it is l = s(3/8) sum k_n expm1(b_n L), every term positive, so nothing
    cancels as t0 -> s0; z0 is formed from t0 - s0/2 (exact for t0/s0 in [1/4, 1])."""
    z0 = (0.5 * (t0 - 0.5 * s0) + 0.125 * t0) / s0
    if not z0 > 0.0:
        raise NoExitWithinHorizon(f"t/s = {t0 / s0!r} <= 2/5 falls (or stays at 2/5) and never "
                                  "reaches 1: the flow never leaves the cone")
    big_l = math.log1p(0.625 * (s0 - t0) / (s0 * z0))
    s = s0 * math.exp(-1.35 * big_l) * (0.625 / (1.0 - z0)) ** 0.75
    return s * sum([k * math.expm1(b * big_l) for b, k in _AW2_SERIES]), [s, s]


@dataclass(frozen=True)
class Family:
    """Everything specific to one system kind but its cone (`cone` holds that).

    `rhs` names this module's right-hand side and `classify` calls
    `cone.classify_*` by name, so a rebinding of either is seen at each use.
    `coords` maps (t, s0, s1, s2) onto the reduced state (equal indices mark
    equal coefficients; aw4 integrates the expanded (t, x, s, s)).  `exact_exit`
    gives the cone exit (l, state) of a state in closed form, where there is one.
    """

    dim: int
    rhs: str
    takes_xi: bool   # varies with xi; all others accept only xi = 1
    coords: tuple[int, ...] | None = None   # None: the state is taken as given
    classify: Callable[[Sequence[float], float], cone.ConeVerdict] | None = None
    exact_exit: Callable[..., tuple[float, list[float]]] | None = None   # None: `integrate` finds it


SYSTEMS = {
    "aw2": Family(2, "aw2_rhs", False, (0, 0, 1, 1), lambda y, _xi: cone.classify_2param(*y), _aw2_exit),
    "aw3": Family(3, "aw3_rhs", False, (0, 1, 2, 2), lambda y, _xi: cone.classify_3param(*y)),
    "aw4": Family(4, "aw_rhs", True, (0, 1, 2, 2), lambda y, xi: cone.classify_aw_slice(y, xi)),
    "berger": Family(2, "berger_rhs", False, None, lambda y, _xi: cone.classify_berger(*y)),
    "normalized": Family(2, "normalized_rhs", False),
}
FAMILIES = {kind: fam for kind, fam in SYSTEMS.items() if fam.classify is not None}


@dataclass(frozen=True)
class FlowSystem:
    """One of the named ODE systems; `rhs` maps a state (a list of floats) to its velocity."""

    kind: str
    dim: int
    rhs: Callable[[list[float]], Sequence[float]]


def _row(kind: str, xi: float | None = None, table: dict[str, Family] = SYSTEMS) -> tuple[Family, float]:
    """The row of `kind` in `table` and xi as a float, default 1.  Only a row that takes xi
    (aw4) accepts xi != 1: aw2/aw3 are flow-invariant only at xi = 1, berger and normalized have none."""
    if kind not in table:
        raise ValueError(f"unknown {'system kind' if table is SYSTEMS else 'cone-exit family'} {kind!r}, "
                         f"expected one of {tuple(table)}")
    x = 1.0 if xi is None else xi_value(xi)
    if x != 1.0 and not table[kind].takes_xi:
        raise ValueError(f"system {kind!r} takes only xi = 1, got xi = {xi}")
    return table[kind], x


def make_system(kind: str, xi: float | None = None) -> FlowSystem:
    """Build a FlowSystem of `kind` at `xi` (default 1), resolved by `_row`."""
    fam, x = _row(kind, xi)
    rhs = globals()[fam.rhs]
    return FlowSystem(kind, fam.dim, (lambda state: rhs(state, x)) if fam.takes_xi else rhs)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_time: float = 10.0
    direction: str = "forward"

    def __post_init__(self):   # each number a real (`_is_real`) first: a numpy complex compares
        if not (_is_real(self.rel_tol) and _is_real(self.abs_tol)
                and 0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError(f"tolerances must be positive and finite reals, got {self.rel_tol!r}, {self.abs_tol!r}")
        if not (_is_real(self.max_step) and self.max_step > 0.0):
            raise ValueError(f"max_step must be a positive real, got {self.max_step!r}")
        if not (_is_real(self.max_time) and 0.0 < self.max_time < math.inf):
            raise ValueError(f"max_time must be a positive and finite real, got {self.max_time!r}")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', got {self.direction!r}")


_DEFAULT_CONFIG = IntegratorConfig()   # frozen, so one instance serves every call


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(l, state) of a state list of floats; a recorded zero crossing of g.

    `terminal` stops the integration at the crossing; `direction` restricts
    to rising (+1) or falling (-1) crossings, 0 accepts both.
    """

    name: str
    fn: Callable[[float, list[float]], float]
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
        return next((ev for ev in self.events if ev.name == name), None)


def _start(system: FlowSystem, init) -> list[float]:
    """`init` as the list of floats the stepper takes: `system.dim` reals checked by `_reals`."""
    return [*_reals(init, system.dim)]


def _solver_args(cfg: IntegratorConfig, events: Sequence[EventSpec]) -> tuple:
    """The arguments of `_rk45.solve` after y0: COLLAPSE_FLOOR, the stepper's event 0, then the caller's events."""
    sign = 1.0 if cfg.direction == "forward" else -1.0
    return (sign * cfg.max_time, cfg.rel_tol, cfg.abs_tol, cfg.max_step, COLLAPSE_FLOOR,
            [(spec.fn, spec.terminal, spec.direction) for spec in events])


def _trajectory(sol: dict, events: Sequence[EventSpec]) -> Trajectory:
    """The Trajectory of one solver run; raises as `integrate` documents."""
    names = ["singular", *(spec.name for spec in events)]
    recorded = [FlowEvent(te, names[i], np.array(ye)) for i in [*range(1, len(names)), 0]
                for te, ye in zip(sol["t_events"][i], sol["y_events"][i])]
    if len(recorded) > 1:
        recorded.sort(key=lambda ev: abs(ev.time))
    status = "singular" if sol["t_events"][0] else {0: "horizon", 1: "event", -1: "singular"}[sol["status"]]
    traj = Trajectory(np.array(sol["t"]), np.array(sol["y"]), recorded, status, sol["stats"])
    if sol["status"] == -1:
        raise StepSizeUnderflow(_rk45.UNDERFLOW, trajectory=traj)
    if any(c <= 0.0 for state in sol["y"] for c in state):   # a NaN component passes, as in numpy
        raise NonPositiveState("integrator produced a nonpositive state sample")
    return traj


def integrate(system: FlowSystem, init, config: IntegratorConfig | None = None,
              events: Sequence[EventSpec] = ()) -> Trajectory:
    """Integrate `system` from `init` with the adaptive Dormand-Prince 5(4) pair.

    Stops at config.max_time, at the first terminal event, or where min(state) -
    COLLAPSE_FLOOR changes sign between step ends (status "singular"; a start below
    the floor runs on).  Raises ValueError for an `init` that is not `system.dim`
    positive finite reals, StepSizeUnderflow when the solver stalls and
    NonPositiveState for a nonpositive sampled state.
    """
    cfg = config or _DEFAULT_CONFIG
    return _trajectory(_rk45.solve(system.rhs, _start(system, init), *_solver_args(cfg, events)), events)


def integrate_rows(system: FlowSystem, inits: Sequence, config: IntegratorConfig | None = None,
                   events: Sequence[EventSpec] = ()) -> list[Trajectory]:
    """`integrate` from each of `inits` as one batch (`_rk45.solve_rows`), every
    Trajectory bit for bit that of its own `integrate` call; fewer than four rows
    run one at a time.  Raises the error of the first failing row in input order,
    as a loop over `integrate` does."""
    cfg = config or _DEFAULT_CONFIG
    try:
        sols = _rk45.solve_rows(system.rhs, [_start(system, init) for init in inits],
                                *_solver_args(cfg, events))
    except Exception:   # some row raised: rerun them in order, so that the first failing one raises
        return [integrate(system, init, cfg, events) for init in inits]
    return [_trajectory(sol, events) for sol in sols]


def boundary_event(family: str, xi: float = 1.0) -> EventSpec:
    """Terminal event on the family's cone gap (`cone`), falling through zero
    where the flow leaves the cone; `family` and `xi` resolve by `_row`."""
    x = _row(family, xi, FAMILIES)[1]
    gap = cone._CONES[family].gap
    return EventSpec("cone_exit", lambda _l, y: gap(y, x), True, -1.0)


def window_event(kind: str) -> EventSpec:
    """Monitor for leaving the family's certified window x < s (aw3, aw4);
    non-terminal, recorded as "window_exit"."""
    _row(kind, table=FAMILIES)
    gap = cone._CONES[kind].window
    if gap is None:
        raise ValueError(f"no certified window for system {kind!r}")
    return EventSpec("window_exit", lambda _l, y: gap(y), terminal=False, direction=-1.0)


def _resolve(family: str, xi) -> tuple[str, Family, float]:
    """Registry entry of `family` at `xi`.  Off xi = 1 the aw3 slice is not
    flow-invariant, so aw3 resolves to the full four-parameter system."""
    kind = "aw4" if family == "aw3" and xi_value(xi) != 1.0 else family
    return kind, *_row(kind, xi, FAMILIES)


def _initial_state(kind: str, fam: Family, init) -> list[float]:
    """The family's state from `init` (guarded by `_reals`): that state, the reduced slice
    state (aw4), or the four coefficients (t, s0, s1, s2)."""
    if fam.coords is None:
        return [*_reals(init, fam.dim)]
    size = fam.coords[-1] + 1   # of the reduced state
    try:
        four = len(init) == 4
    except TypeError:   # no length: `_reals` names what it expected
        four = False
    y = _reals(init, 4 if four else size)
    if four:
        reduced = [y[fam.coords.index(k)] for k in range(size)]
        if [reduced[k] for k in fam.coords] != [*y]:
            form = ", ".join("abc"[k] for k in fam.coords)
            raise ValueError(f"{kind} needs (t, s0, s1, s2) of the form ({form}), got {init!r}")
        y = reduced
    return [y[k] for k in fam.coords] if fam.dim == len(fam.coords) else [*y]


def cone_events(kind: str, xi: float = 1.0) -> list[EventSpec]:
    """The cone-boundary event of system `kind`, followed by the
    certified-window monitor where the family has one."""
    boundary = boundary_event(kind, xi)   # resolves `kind` and `xi`
    return [boundary] if cone._CONES[kind].window is None else [boundary, window_event(kind)]


def cone_exit(family: str, init, config: IntegratorConfig | None = None,
              xi: float = 1.0) -> tuple[float, np.ndarray]:
    """First crossing of the positivity-cone boundary along the flow.

    The initial metric must classify PositivelyCurved for its family.  For
    family "aw3" with xi != 1 the slice is not flow-invariant, so the full
    four-parameter system is integrated with the general boundary event;
    aw2 and berger take only xi = 1.  The aw2 exit is exact (`_aw2_exit`),
    whatever the tolerances.  An integrated run ends at the first root of the
    boundary event or of the certified-window event (aw3, aw4), which here,
    unlike in `cone_events`, is terminal too.  Raises NoExitWithinHorizon if
    the boundary is not reached: "left the certified window at l = ..." when
    the window root comes first, even where the boundary would never have been
    reached; else "no cone exit within horizon ..." (the horizon or a collapse,
    or an aw2 start with t/s <= 2/5).  A bad `init` raises ValueError, as in `integrate`.
    """
    cfg = config or _DEFAULT_CONFIG
    kind, fam, xi = _resolve(family, xi)
    state = _initial_state(kind, fam, init)
    verdict = fam.classify(state, xi)
    if verdict.classification is not cone.ConeClass.POSITIVELY_CURVED:
        raise ValueError(f"initial metric is not positively curved ({verdict.classification.value})")
    if cfg.direction != "forward":
        raise ValueError("cone_exit integrates forward")

    if fam.exact_exit is not None:
        time, exit_state = fam.exact_exit(*state)
        if time > cfg.max_time:
            raise NoExitWithinHorizon(f"no cone exit within horizon {cfg.max_time} (status: horizon)")
        return time, np.array(exit_state)
    events = [boundary_event(kind, xi)]
    if cone._CONES[kind].window is not None:   # nothing after a window root changes the outcome, so it ends the run
        events.append(EventSpec("window_exit", window_event(kind).fn, True, -1.0))
    traj = integrate(make_system(kind, xi), state, cfg, events)
    hit = traj.events[0] if traj.events else None   # every event is terminal: the run records at most one
    if hit is not None and hit.name == "window_exit":
        raise NoExitWithinHorizon(f"left the certified window at l = {hit.time} before the boundary crossing")
    if hit is None or hit.name != "cone_exit":
        raise NoExitWithinHorizon(f"no cone exit within horizon {cfg.max_time} (status: {traj.status})")
    return hit.time, hit.state


def post_exit_verdict(family: str, state, xi: float = 1.0,
                      dt: float | None = None) -> cone.ConeVerdict:
    """Classify the metric a small flow time `dt` past `state`.

    Used to confirm that a detected boundary crossing really lands outside the cone; `family` and
    `xi` resolve as in `cone_exit`, and `state` is the state that `cone_exit` returned (a bad one
    raises ValueError, as in `integrate`).  The flow is scale covariant, so the default dt is
    1e-3 lam, lam the power of two with max(state)/lam in [1, 2): the same step at any scale.
    """
    kind, fam, xi = _resolve(family, xi)
    y = _start(system := make_system(kind, xi), state)
    dt = 1e-3 * cone._power_of_two(max(y)) if dt is None else dt
    after = integrate(system, y, IntegratorConfig(max_time=dt)).final_state
    return fam.classify(after, xi)
