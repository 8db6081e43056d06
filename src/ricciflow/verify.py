"""Acceptance checks: every headline quantity re-derived and measured.

Each check produces a CheckResult with the measured worst-case value and the
tolerance it is held to; a row that bounds a deviation (`_bound`) also gives its
headroom, deviation/tolerance.  `run_all` evaluates the full battery, every
`_check_*` group of this module in definition order: the single source for the
CLI `verify` command and the acceptance tests.  The grids,
the gradient's finite differences and the structure-constant eigenvalue
oracle run on numpy arrays in the operations of the scalar functions they
sample, so every point has the bits of a scalar call (t_A and A~ use
`cone`'s row-wise kernels).  The p2 entry is the flow time at which
the p2 trajectory crosses into region P: the root of a terminal event on the
region test's q - 3, where the run stops.

Note on the two root-bracket checks: the quintic's outer irrational roots
are -7.489652155... and 2.697788435... (residuals at machine precision).
The packaged two-digit reference brackets [-7.485, -7.475] and
[2.685, 2.695] were built around truncated prints of those roots and do not
contain them, so `d_roots_lambda1_bracket` and `d_roots_lambda5_bracket`
report FAIL by construction while the roots themselves are verified by the
residual and exact-pair checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cone, derivatives, flow
from .errors import RicciFlowError
from .spaces import _public, aw_eigenvalue_tuple, berger_eigenvalue_tuple, ricci_from_structure


@dataclass(frozen=True)
class CheckResult:
    """`headroom` is measured/tolerance on a row held to measured <= tolerance, else None."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    headroom: float | None = None


def _bound(name, deviation, tolerance, detail="", holds=True) -> CheckResult:
    """The row of a deviation held to `deviation <= tolerance` (and to `holds`)."""
    deviation = float(deviation)
    return CheckResult(name, bool(holds) and deviation <= tolerance, deviation, tolerance, detail,
                       deviation / tolerance)


def _grid(start_hundredths: int, stop_hundredths: int) -> list[float]:
    return [k / 100.0 for k in range(start_hundredths, stop_hundredths)]


_TA_GRID = _grid(1, 100) + _grid(101, 399)
_GRAD_X, _GRAD_XI = (0.85, 0.9, 0.95), (0.4, 0.7, 1.0)


# --- criterion 1: round-metric derivative of the two-parameter family ---

def _derivative_row(name, derivative, *at):
    """A ratio derivative whose value at `at` is 3: exactly in Fraction, to 1e-12 in floats."""
    exact, measured = derivative(*map(Fraction, at)), derivative(*at)
    return CheckResult(name, exact == 3 and abs(measured - 3.0) <= 1e-12, measured, 1e-12,
                       "target 3, exact in rational arithmetic")


def _check_two_param_derivative():
    return [_derivative_row("two_param_derivative_at_round", derivatives.two_param_ratio_derivative,
                            1.0, 1.0)]


# --- criterion 2: Berger derivative and eigenvalues at (2, 1) ---

def _check_berger_boundary():
    r1, r2 = berger_eigenvalue_tuple(2.0, 1.0)
    eig_dev = max(abs(r1 - 6.0), abs(r2 - 7.5))
    return [
        _derivative_row("berger_derivative_at_boundary", derivatives.berger_ratio_derivative, 2.0, 1.0),
        _bound("berger_eigenvalues_at_boundary", eig_dev, 1e-12, f"r1 = {r1}, r2 = {r2}, targets (6, 7.5)"),
    ]


# --- criterion 3: roots of the quintic D ---

def _check_d_roots():
    roots = derivatives.d_roots()
    l1, l2, l3, l4, l5 = roots
    exact_dev = max(abs(l2 + 2.0), abs(l3))
    residual = float(np.max(np.abs(derivatives.d_polynomial(roots))))
    xs = np.arange(l4 + 1e-3, l5 - 1e-3, 1e-3)
    worst_d = float(np.max(derivatives.d_polynomial(xs)))
    return [
        _bound("d_roots_exact_pair", exact_dev, 1e-12),
        _bound("d_roots_residuals", residual, 1e-9),
        CheckResult("d_roots_lambda1_bracket", -7.485 <= l1 <= -7.475, float(l1), 0.005,
                    "reference bracket [-7.485, -7.475]"),
        CheckResult("d_roots_lambda4_bracket", 0.785 <= l4 <= 0.795, float(l4), 0.005,
                    "reference bracket [0.785, 0.795]"),
        CheckResult("d_roots_lambda5_bracket", 2.685 <= l5 <= 2.695, float(l5), 0.005,
                    "reference bracket [2.685, 2.695]"),
        CheckResult("d_negative_between_roots", worst_d < 0.0, worst_d, 0.0,
                    "max of D on the inner 1e-3 grid of (lambda4, lambda5)"),
    ]


# --- criterion 4: general t_A against the slice closed form, A~ against its inverse ---

def _check_t_a_closed_form():
    slice_s = np.array([(x, 1.0, 1.0) for x in _TA_GRID])
    closed = cone.t_a_closed(slice_s[:, 0], 1.0)
    worst = float(np.max(np.abs(cone._t_a_rows(slice_s, 1.0) - closed) / closed))
    prods = cone._a_tilde_rows(slice_s) @ cone.a_tilde_inverse_slice(slice_s[:, 0], 1.0)
    worst_inv = float(np.max(np.abs(prods - np.eye(3))))
    return [
        _bound("t_a_closed_form_grid", worst, 1e-12,
               "relative deviation over the 1e-2 grid of (0,1) and (1,3.99)"),
        _bound("a_tilde_inverse_identity_grid", worst_inv, 1e-10),
    ]


# --- criterion 5: gradient against central finite differences ---

def _f_value(t, s, xi):
    return cone.t_a(s, xi) / t


def _check_gradient_oracle():
    h = 1e-6
    # t_A at each anchor s, then at s + h e_i and s - h e_i; the t +- h differences reuse t_A(s)
    offsets = np.vstack([np.zeros(3), h * np.eye(3), -h * np.eye(3)])
    anchors = np.array([derivatives.gradient_anchor(x) for x in _GRAD_X])
    t0 = anchors[:, :1]
    worst_fd = worst_asm = 0.0
    for xi in _GRAD_XI:
        t_a = cone._t_a_rows((anchors[:, None, 1:] + offsets).reshape(-1, 3), xi).reshape(len(_GRAD_X), 7)
        f_s = t_a / t0
        fd = np.hstack([t_a[:, :1] / (t0 + h) - t_a[:, :1] / (t0 - h), f_s[:, 1:4] - f_s[:, 4:]]) / (2.0 * h)
        grads = [derivatives.grad_f(x, xi) for x in _GRAD_X]
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - grads) / np.abs(grads))))
        for x, grad in zip(_GRAD_X, grads):
            assembled = float(grad @ derivatives.initial_velocity(x, xi))
            target = derivatives.f_xi_prime0(xi, x)
            worst_asm = max(worst_asm, abs(assembled - target) / abs(target))
    return [
        _bound("gradient_finite_difference", worst_fd, 1e-6,
               "central differences of t_A/t at the anchor tuple, h = 1e-6"),
        _bound("gradient_assembly", worst_asm, 1e-9, "<grad F, initial velocity> against f_xi_prime0"),
    ]


# --- criterion 6: K limit at x -> 1 and denominator positivity ---

def _check_k_polynomial():
    worst = 0.0
    for k in range(1, 10):
        xi = k / 10.0
        target = -432.0 * (xi * xi - 1.0) ** 2
        dev = abs(derivatives.k_polynomial(xi, 1.0) - target) / (1.0 - target)
        worst = max(worst, dev)
    min_den = float(np.min(derivatives._f_denominator(np.array(_grid(1, 100))[:, None],
                                                      np.array(_grid(1, 101)))))
    return [
        _bound("k_limit_x1", worst, 1e-9, "|K(xi, 1) + 432(xi^2-1)^2| / (1 + 432(xi^2-1)^2)"),
        CheckResult("f_xi_denominator_positive", min_den > 0.0, float(min_den), 0.0,
                    "min of x(x-4)(x-1)R^2 on the 1e-2 grid of (0,1) x (0,1]"),
    ]


# --- criterion 7: negativity of the boundary derivative ---

def _check_sign_theorem():
    worst = float(np.max(derivatives.f1_prime0(np.arange(0.801, 0.9995, 1e-3))))
    xs = np.arange(0.9, 0.9995, 1e-3)
    worst_nearby = max(float(np.min(derivatives.f_xi_prime0(k / 10.0, xs))) for k in range(1, 10))
    return [
        CheckResult("sign_theorem_xi1", worst < 0.0, worst, 0.0,
                    "max of f1'(0) on the 1e-3 grid of [0.801, 0.999]"),
        CheckResult("sign_theorem_nearby_xi", worst_nearby < 0.0, worst_nearby, 0.0,
                    "per xi in {0.1..0.9}: min over x in [0.9, 1) of f_xi'(0)"),
    ]


# --- criterion 8: flow finite-difference oracle for the sign convention ---

def _check_flow_oracle():
    h = 1e-5
    x, xi = 0.9, 1.0
    anchor = derivatives.gradient_anchor(x)
    system = flow.make_system("aw4", xi)
    cfg = flow.IntegratorConfig(max_time=h)
    fwd = flow.integrate(system, anchor, cfg).final_state
    bwd = flow.integrate(system, anchor, flow.IntegratorConfig(max_time=h, direction="backward")).final_state
    fd = (_f_value(fwd[0], fwd[1:], xi) - _f_value(bwd[0], bwd[1:], xi)) / (2.0 * h)
    target = derivatives.f1_prime0(x)
    dev = abs(fd - target) / abs(target)
    return [_bound("flow_oracle_sign", dev, 1e-4, f"finite difference {fd:.8f} vs closed form {target:.8f}",
                   fd < 0.0)]


# --- criterion 9: cone exits for all four families ---

def _exit_check(name, family, init, xi=1.0):
    cfg = flow.IntegratorConfig(max_time=1.0)
    try:
        exit_time, exit_state = flow.cone_exit(family, init, cfg, xi=xi)
    except (RicciFlowError, ValueError) as exc:  # a documented failure to exit fails the criterion
        return CheckResult(name, False, float("nan"), 1.0, f"no exit: {exc}")
    verdict = flow.post_exit_verdict(family, exit_state, xi)
    ok = exit_time > 0.0 and verdict.classification is cone.ConeClass.HAS_NONPOSITIVE_PLANE
    return CheckResult(name, ok, exit_time, 1.0,
                       f"exit at l = {exit_time:.6f}, post-exit {verdict.classification.value}")


def _check_cone_exits():
    results = [
        _exit_check("cone_exit_aw2", "aw2", (0.99, 1.0)),
        _exit_check("cone_exit_aw3", "aw3", (cone.t_a_closed(0.9, 1.0) - 1e-3, 0.9, 1.0)),
        _exit_check("cone_exit_berger", "berger", (1.99, 1.0)),
    ]
    for xi in (0.9, 0.95):
        name = f"cone_exit_aw3_xi{int(round(xi * 100)):03d}"
        init = (cone.t_a((0.9, 1.0, 1.0), xi) - 1e-3, 0.9, 1.0)
        results.append(_exit_check(name, "aw3", init, xi=xi))
    return results


# --- criterion 10: flow-invariant subfamilies stay on their slices ---

def _pair_deviation(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(a, b)))


def _check_subfamily_invariance():
    cfg = flow.IntegratorConfig(max_time=0.5)
    system = flow.make_system("aw4", 1.0)
    traj = flow.integrate(system, (4.0, 4.4, 4.0, 4.0), cfg)
    dev_slice = _pair_deviation(traj.states[:, 2], traj.states[:, 3])
    traj2 = flow.integrate(system, (4.0, 4.0, 5.0, 5.0), cfg)
    dev_two = max(_pair_deviation(traj2.states[:, 0], traj2.states[:, 1]),
                  _pair_deviation(traj2.states[:, 2], traj2.states[:, 3]))
    return [
        _bound("subfamily_invariance_slice", dev_slice, 1e-9,
               "s1 = s2 preserved over horizon 0.5 from (4, 4.4, 4, 4)", traj.status == "horizon"),
        _bound("subfamily_invariance_two_param", dev_two, 1e-9,
               "t = s0 and s1 = s2 preserved over horizon 0.5 from (4, 4, 5, 5)", traj2.status == "horizon"),
    ]


# --- criterion 11: Einstein equilibria and the two portrait seeds ---

def _check_einstein():
    e_plus, e_minus = derivatives.einstein_points()
    residual = max(float(np.max(np.abs(flow.normalized_rhs(e_plus)))),
                   float(np.max(np.abs(flow.normalized_rhs(e_minus)))))
    system = flow.make_system("normalized")
    cfg = flow.IntegratorConfig(max_time=10.0)
    p1, p2 = derivatives.REFERENCE_SEEDS
    traj = flow.integrate(system, p1, cfg)
    drift = float(np.max(np.abs(traj.states[:, 0] ** 3 * traj.states[:, 1] ** 4 - 1.0)))
    terminal_dist = float(np.linalg.norm(traj.final_state - e_minus))
    # p2 runs until q falls to 3, where it enters P; the root state is not classified
    # (`normalized_region` may call it G, with q a hair above 3)
    enters_p = flow.EventSpec("enters_p", lambda _l, y: cone._q(*y) - 3, True, -1.0)
    entry = flow.integrate(system, p2, cfg, [enters_p]).first_event("enters_p")
    return [
        _bound("einstein_equilibria", residual, 1e-9),
        _bound("seed_p1_stays_on_curve", drift, 1e-6, "|x^3 s^4 - 1| along the p1 trajectory, horizon 10"),
        _bound("seed_p1_terminal_near_e_minus", terminal_dist, 1e-3),
        CheckResult("seed_p2_enters_pink", entry is not None,
                    entry.time if entry is not None else float("nan"), 10.0,
                    "flow time at which the p2 trajectory crosses into region P (an event root)"),
    ]


# --- criterion 12: structure-constant eigenvalue oracle ---

def _oracle_sample() -> np.ndarray:
    """The oracle's (4, 100, 4) metrics: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) outputs k = 1..1600 of seed
    20240810 as 0.5 + 1.5*(z >> 11)*2^-53; uint64 constants, so products wrap mod 2^64 alike in numpy 1.x and 2.x."""
    u = np.uint64
    z = u(20240810) + np.arange(1, 1601, dtype=u) * u(0x9E3779B97F4A7C15)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    z ^= z >> u(31)
    return (0.5 + 1.5 * ((z >> u(11)) * 2.0**-53)).reshape(4, 100, 4)


def _check_eigenvalue_oracle():
    """The closed forms against `ricci_from_structure`, as the worst componentwise relative deviation (4.5e-14)."""
    worst = 0.0
    for (k1, k2), coeffs in zip(((1, 1), (1, 2), (2, 3), (1, 10)), _oracle_sample()):
        closed = np.transpose(aw_eigenvalue_tuple(*coeffs.T, k1 / k2))
        general = ricci_from_structure(k1, k2, coeffs)
        worst = max(worst, float(np.max(np.abs(closed - general) / np.abs(general))))
    return [_bound("eigenvalue_oracle_randomized", worst, 1e-12,
                   "100 SplitMix64 metrics in U(0.5, 2)^4 per (k1, k2) pair, seed 20240810")]


def run_all() -> list[CheckResult]:
    """Evaluate the full battery, every `_check_*` group of this module in definition
    order, afresh on each call; the names of its results are the registry of checks."""
    return [result for name, group in list(globals().items()) if name.startswith("_check_")
            for result in group()]


__all__ = _public(globals())
