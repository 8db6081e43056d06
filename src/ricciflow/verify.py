"""Acceptance checks: every headline quantity re-derived and measured.

Each check produces a CheckResult with the measured worst-case value and the
tolerance it is held to; `run_all` evaluates the full battery, the single
source for the CLI `verify` command and the acceptance tests.  The grids
run on numpy arrays in the operations of the scalar functions they sample,
so every grid point has the bits of a scalar call.

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
from functools import lru_cache

import numpy as np

from . import cone, derivatives, flow
from .errors import RicciFlowError
from .spaces import aw_eigenvalue_tuple, berger_eigenvalue_tuple, ricci_from_structure

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _grid(start_hundredths: int, stop_hundredths: int) -> list[float]:
    return [k / 100.0 for k in range(start_hundredths, stop_hundredths)]


_TA_GRID = _grid(1, 100) + _grid(101, 399)
_GRAD_GRID = [(x, xi) for x in (0.85, 0.9, 0.95) for xi in (0.4, 0.7, 1.0)]


# --- criterion 1: round-metric derivative of the two-parameter family ---

def _check_two_param_derivative():
    exact = derivatives.two_param_ratio_derivative(Fraction(1), Fraction(1))
    measured = derivatives.two_param_ratio_derivative(1.0, 1.0)
    return [CheckResult("two_param_derivative_at_round",
                        exact == Fraction(3) and abs(measured - 3.0) <= 1e-12,
                        measured, 1e-12, "target 3, exact in rational arithmetic")]


# --- criterion 2: Berger derivative and eigenvalues at (2, 1) ---

def _check_berger_boundary():
    exact = derivatives.berger_ratio_derivative(Fraction(2), Fraction(1))
    measured = derivatives.berger_ratio_derivative(2.0, 1.0)
    r1, r2 = berger_eigenvalue_tuple(2.0, 1.0)
    eig_dev = max(abs(r1 - 6.0), abs(r2 - 7.5))
    return [
        CheckResult("berger_derivative_at_boundary",
                    exact == Fraction(3) and abs(measured - 3.0) <= 1e-12, measured, 1e-12,
                    "target 3, exact in rational arithmetic"),
        CheckResult("berger_eigenvalues_at_boundary", eig_dev <= 1e-12, eig_dev, 1e-12,
                    f"r1 = {r1}, r2 = {r2}, targets (6, 7.5)"),
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
        CheckResult("d_roots_exact_pair", exact_dev <= 1e-12, exact_dev, 1e-12),
        CheckResult("d_roots_residuals", residual <= 1e-9, residual, 1e-9),
        CheckResult("d_roots_lambda1_bracket", -7.485 <= l1 <= -7.475, float(l1), 0.005,
                    "reference bracket [-7.485, -7.475]"),
        CheckResult("d_roots_lambda4_bracket", 0.785 <= l4 <= 0.795, float(l4), 0.005,
                    "reference bracket [0.785, 0.795]"),
        CheckResult("d_roots_lambda5_bracket", 2.685 <= l5 <= 2.695, float(l5), 0.005,
                    "reference bracket [2.685, 2.695]"),
        CheckResult("d_negative_between_roots", worst_d < 0.0, worst_d, 0.0,
                    "max of D on the inner 1e-3 grid of (lambda4, lambda5)"),
    ]


# --- criterion 4: closed-form boundary scale against the linear solve ---

def _check_t_a_closed_form():
    closed = [cone.t_a_closed(x, 1.0) for x in _TA_GRID]
    worst = max(abs(cone.t_a((x, 1.0, 1.0), 1.0) - c) / c for x, c in zip(_TA_GRID, closed))
    prods = (np.array([cone.a_tilde((x, 1.0, 1.0)) for x in _TA_GRID])
             @ np.array([cone.a_tilde_inverse_slice(x, 1.0) for x in _TA_GRID]))
    worst_inv = float(np.max(np.abs(prods - np.eye(3))))
    return [
        CheckResult("t_a_closed_form_grid", worst <= 1e-12, worst, 1e-12,
                    "relative deviation over the 1e-2 grid of (0,1) and (1,3.99)"),
        CheckResult("a_tilde_inverse_identity_grid", worst_inv <= 1e-10, worst_inv, 1e-10),
    ]


# --- criterion 5: gradient against central finite differences ---

def _f_value(t, s, xi):
    return cone.t_a(s, xi) / t


def _check_gradient_oracle():
    h = 1e-6
    worst_fd = 0.0
    worst_asm = 0.0
    for x, xi in _GRAD_GRID:
        anchor = derivatives.gradient_anchor(x)
        t0, s = anchor[0], anchor[1:]
        grad = derivatives.grad_f(x, xi)
        fd = np.empty(4)
        fd[0] = (_f_value(t0 + h, s, xi) - _f_value(t0 - h, s, xi)) / (2.0 * h)
        for i in range(3):
            sp, sm = s.copy(), s.copy()
            sp[i] += h
            sm[i] -= h
            fd[i + 1] = (_f_value(t0, sp, xi) - _f_value(t0, sm, xi)) / (2.0 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - grad) / np.abs(grad))))
        assembled = float(grad @ derivatives.initial_velocity(x, xi))
        target = derivatives.f_xi_prime0(xi, x)
        worst_asm = max(worst_asm, abs(assembled - target) / abs(target))
    return [
        CheckResult("gradient_finite_difference", worst_fd <= 1e-6, worst_fd, 1e-6,
                    "central differences of t_A/t at the anchor tuple, h = 1e-6"),
        CheckResult("gradient_assembly", worst_asm <= 1e-9, worst_asm, 1e-9,
                    "<grad F, initial velocity> against f_xi_prime0"),
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
        CheckResult("k_limit_x1", worst <= 1e-9, worst, 1e-9,
                    "|K(xi, 1) + 432(xi^2-1)^2| / (1 + 432(xi^2-1)^2)"),
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
    bwd = flow.integrate(system, anchor,
                         flow.IntegratorConfig(max_time=h, direction="backward")).final_state
    fd = (_f_value(fwd[0], fwd[1:], xi) - _f_value(bwd[0], bwd[1:], xi)) / (2.0 * h)
    target = derivatives.f1_prime0(x)
    dev = abs(fd - target) / abs(target)
    return [CheckResult("flow_oracle_sign", dev <= 1e-4 and fd < 0.0, dev, 1e-4,
                        f"finite difference {fd:.8f} vs closed form {target:.8f}")]


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
        _exit_check("cone_exit_aw2", "aw2", (0.99, 0.99, 1.0, 1.0)),
        _exit_check("cone_exit_aw3", "aw3",
                    (cone.t_a_closed(0.9, 1.0) - 1e-3, 0.9, 1.0)),
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
        CheckResult("subfamily_invariance_slice",
                    traj.status == "horizon" and dev_slice <= 1e-9, dev_slice, 1e-9,
                    "s1 = s2 preserved over horizon 0.5 from (4, 4.4, 4, 4)"),
        CheckResult("subfamily_invariance_two_param",
                    traj2.status == "horizon" and dev_two <= 1e-9, dev_two, 1e-9,
                    "t = s0 and s1 = s2 preserved over horizon 0.5 from (4, 4, 5, 5)"),
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
    traj2 = flow.integrate(system, p2, cfg)
    entry = next((float(t) for t, st in zip(traj2.times, traj2.states)
                  if cone.normalized_region(st[0], st[1]) == "P"), None)
    return [
        CheckResult("einstein_equilibria", residual <= 1e-9, residual, 1e-9),
        CheckResult("seed_p1_stays_on_curve", drift <= 1e-6, drift, 1e-6,
                    "|x^3 s^4 - 1| along the p1 trajectory, horizon 10"),
        CheckResult("seed_p1_terminal_near_e_minus", terminal_dist <= 1e-3, terminal_dist, 1e-3),
        CheckResult("seed_p2_enters_pink", entry is not None,
                    entry if entry is not None else float("nan"), 10.0,
                    "first sample of the p2 trajectory inside region P"),
    ]


# --- criterion 12: structure-constant eigenvalue oracle ---

def _check_eigenvalue_oracle():
    rng = np.random.default_rng(20240810)
    worst = 0.0
    for k1, k2 in ((1, 1), (1, 2), (2, 3), (1, 10)):
        for coeffs in rng.uniform(0.5, 2.0, size=(100, 4)).tolist():
            closed = aw_eigenvalue_tuple(*coeffs, k1 / k2)
            general = ricci_from_structure(k1, k2, coeffs)
            worst = max(worst, *(abs(c - g) / abs(g) for c, g in zip(closed, general)))
    return [CheckResult("eigenvalue_oracle_randomized", worst <= 1e-12, worst, 1e-12,
                        "100 metrics in U(0.5, 2)^4 per (k1, k2) pair, seeded")]


_GROUPS = (
    _check_two_param_derivative,
    _check_berger_boundary,
    _check_d_roots,
    _check_t_a_closed_form,
    _check_gradient_oracle,
    _check_k_polynomial,
    _check_sign_theorem,
    _check_flow_oracle,
    _check_cone_exits,
    _check_subfamily_invariance,
    _check_einstein,
    _check_eigenvalue_oracle,
)


@lru_cache(maxsize=1)
def _run_all_cached() -> tuple[CheckResult, ...]:
    results = []
    for group in _GROUPS:
        results.extend(group())
    return tuple(results)


def run_all() -> list[CheckResult]:
    """Evaluate the full battery (cached within the process); the names of
    its results are the registry of checks."""
    return list(_run_all_cached())
