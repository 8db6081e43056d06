"""Closed-form derivative machinery along the cone boundary.

Everything here analyzes how F(t, s, xi) = t_A(s, xi) / t moves under the
flow, starting from the slice metric with x = s0 in (0, 1), s1 = s2 = 1.
The closed forms (gradient of F, initial flow velocities, the bivariate
numerator polynomial K and the resulting boundary derivative f'(0)) are all
anchored at the tuple

    (t, s0, s1, s2) = (x(4 - x)/3, x, 1, 1)

for every xi (see `gradient_anchor`), where f'(0) = <grad F, velocity>.
The initial velocity is the flow's right-hand side `flow.aw_rhs` at the
anchor, whose t is `cone.t_a_closed(x, 1)`, the slice boundary at xi = 1.

At xi = 1 the derivative reduces to the quintic story: with
D(x) = (x/3)(32 - 32x - 16x^2 + 6x^3 + x^4), the boundary derivative is
f1'(0) = D(x) / (3 t x s^3) evaluated at the anchor, i.e.
(x^4 + 6x^3 - 16x^2 - 32x + 32) / (3x(4 - x)), which is negative exactly
between the two positive irrational roots of D.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import cone, flow
from .errors import DomainError
from .spaces import _is_real, _public, xi_value


def _quartic(x):
    """x^4 + 6x^3 - 16x^2 - 32x + 32, the nontrivial factor of 3D(x)/x."""
    return (((x + 6) * x - 16) * x - 32) * x + 32


def d_polynomial(x):
    """Derivative-sign quintic D(x) = (x/3)(32 - 32x - 16x^2 + 6x^3 + x^4).

    Works on floats, Fractions, and numpy arrays alike.
    """
    return x * _quartic(x) / 3


def _negative_at_midpoint(a: float, b: float) -> bool:
    """Whether c(x) = x^3 + 4x^2 - 24x + 16 < 0 at the half-way point of the doubles a and b, in integers."""
    (n, d), (m, e) = a.as_integer_ratio(), b.as_integer_ratio()
    q = max(d, e)   # d and e are powers of two
    p, q = n * (q // d) + m * (q // e), 2 * q
    return ((p + 4 * q) * p - 24 * q * q) * p + 16 * q * q * q < 0


def _settle(x: float) -> float:
    """The double nearest the root of c(x) = x^3 + 4x^2 - 24x + 16 that lies a few ulps from x.

    c has no rational root, so it is never 0 at a half-way point.  Where c takes one sign at both half-way
    points to x's neighbours, x steps one ulp towards the sign change: up where c is negative and rising.
    """
    rising = (3 * x + 8) * x > 24   # c'(x) > 0, and c' keeps its sign within a few ulps of a root
    while True:
        below, above = (_negative_at_midpoint(x, math.nextafter(x, side)) for side in (-math.inf, math.inf))
        if below != above:
            return x
        x = math.nextafter(x, math.inf if below == rising else -math.inf)


def d_roots() -> np.ndarray:
    """All five real roots of D, ascending, each the double nearest the exact root.

    The exact roots 0 and -2 are deflated first.  The remaining cubic
    x^3 + 4x^2 - 24x + 16 is t^3 - (88/3)t + 1424/27 in x = t - 4/3, whose three
    real roots Viete's trigonometric form gives to a few ulps; `_settle` moves each
    onto the nearest double, so the result does not hang on the last bits of `cos`.
    """
    r = 2.0 * math.sqrt(88.0 / 9.0)
    phi = math.acos(-4.0 * (1424.0 / 27.0) / r**3) / 3.0
    cubic = [_settle(r * math.cos(phi - 2.0 * math.pi * k / 3.0) - 4.0 / 3.0) for k in range(3)]
    return np.array(sorted([*cubic, -2.0, 0.0]))


def _check_x(x, scalar: bool = False) -> None:  # a real, or an int or float array unless `scalar`, in (0, 1)
    if not ((isinstance(x, numbers.Real) if scalar else _is_real(x)) and cone._all((0.0 < x) & (x < 1.0))):
        raise DomainError(f"x must lie in (0, 1), got {x!r}")


def f1_prime0(x):
    """Boundary derivative at xi = 1: quartic(x) / (3x(4 - x)).

    Equals D(x)/(3 t x) at the anchor tuple; negative on (lambda4, 1).
    A numpy array of x gives each point the bits of a scalar call.
    """
    _check_x(x)
    return _quartic(x) / (3.0 * x * (4.0 - x))


def gradient_anchor(x: float) -> np.ndarray:
    """Anchor tuple (x(4-x)/3, x, 1, 1) at which the closed forms below
    are the exact gradient data, for every xi; x is a real (a `numbers.Real`), not an array."""
    _check_x(x, scalar=True)
    return np.array([cone.t_a_closed(x, 1.0), x, 1.0, 1.0])


def _r_factor(x: float, xi: float) -> float:
    """(xi-1)^2 x^2 - 4(xi-1)^2 x - 12(xi+1)^2; strictly negative on the
    domain x in (0, 1), xi in (0, 1]."""
    return (xi - 1.0) ** 2 * x * x - 4.0 * (xi - 1.0) ** 2 * x - 12.0 * (xi + 1.0) ** 2


def _f_denominator(x, xi):
    """x(x - 4)(x - 1)R^2, the denominator of f'(0); positive on the domain."""
    r = _r_factor(x, xi)
    return x * (x - 4.0) * (x - 1.0) * r * r


def grad_f(x: float, xi) -> np.ndarray:
    """Gradient (d_t, d_s0, d_s1, d_s2) of F(t, s, xi) = t_A(s, xi)/t at
    the anchor tuple, for a real x as in `gradient_anchor`; d_t < 0 there."""
    xi = xi_value(xi)
    _check_x(x, scalar=True)
    g = xi * xi + xi + 1.0
    r = _r_factor(x, xi)
    d_t = -48.0 * g / (x * (x - 4.0) * r)
    d_s0 = 384.0 * (xi + 1.0) ** 2 * (x - 2.0) * g / (x * (x - 4.0) * r * r)
    n1 = ((3.0 * xi * xi - 2.0 * xi - 1.0) * x**4 + (-29.0 * xi * xi + 18.0 * xi + 11.0) * x**3
          + 24.0 * (4.0 * xi * xi - xi - 1.0) * x * x + (-84.0 * xi * xi + 8.0 * xi + 28.0) * x
          + 32.0 * (xi * xi - 1.0))
    d_s1 = -8.0 * g * n1 / ((x - 4.0) * (x - 1.0) * r * r)
    n2 = ((xi * xi + 2.0 * xi - 3.0) * x**4 + (-11.0 * xi * xi - 18.0 * xi + 29.0) * x**3
          + (24.0 * xi * xi + 24.0 * xi - 96.0) * x * x + (-28.0 * xi * xi - 8.0 * xi + 84.0) * x
          + 32.0 * (xi * xi - 1.0))
    d_s2 = 8.0 * g * n2 / ((x - 4.0) * (x - 1.0) * r * r)
    return np.array([d_t, d_s0, d_s1, d_s2])


def initial_velocity(x: float, xi) -> np.ndarray:
    """Flow velocities (t', s0', s1', s2') at time 0 from the anchor tuple of a real x (`gradient_anchor`)."""
    return np.array(flow.aw_rhs(gradient_anchor(x), xi))


# Coefficients of K(xi, x) = sum_i c_i(xi) x^i as exact integer polynomials
# in xi (degree 4, highest power first).  Row i is the coefficient of x^(7-i).
_K_COEFFS = (
    (40, -48, 16, -48, 40),
    (-568, 656, -176, 656, -568),
    (2960, -3552, 416, -3552, 2960),
    (-7664, 6912, -2336, 6912, -7664),
    (9856, -3968, 5120, -3968, 9856),
    (-5312, 6144, 10624, 6144, -5312),
    (256, -12288, -25088, -12288, 256),
    (0, 6144, 12288, 6144, 0),
)


def k_polynomial(xi, x):
    """Bivariate numerator K(xi, x) of the boundary derivative.

    Horner in x with xi-dependent coefficients; the coefficient table is
    exact (integers), so Fraction inputs give exact rational values.
    K(xi, 1) = -432(xi^2 - 1)^2 and K(1, x) = -768(x - 1) quartic(x).
    """
    result = 0 * x
    for row in _K_COEFFS:
        c = 0 * xi
        for a in row:
            c = c * xi + a
        result = result * x + c
    return result


def f_xi_prime0(xi, x):
    """Boundary derivative f'(0) at parameter xi and slice position x.

    K(xi, x) / (x (x-4)(x-1) R^2); the denominator is positive for
    x in (0, 1).  At xi = 1 numerator and denominator share the factor
    768(x - 1), so the deflated quartic form f1_prime0 is used instead.
    x may be a numpy array, as in `f1_prime0`.
    """
    xi = xi_value(xi)
    if xi == 1.0:
        return f1_prime0(x)
    _check_x(x)
    return k_polynomial(xi, x) / _f_denominator(x, xi)


def two_param_ratio_derivative(t, s):
    """d/dl of t/s along the two-parameter flow: (-4s^2 - 5t^2 + 12ts)/s^3.

    Pure arithmetic, so Fraction inputs stay exact; equals 3 at (1, 1).  Floats get the float
    formula inside `cone`'s band and the exact value, rounded once, outside it; t < 0, s <= 0
    or a non-finite input is a DomainError (`cone._float_or_exact`).
    """
    return cone._float_or_exact(lambda t, s: (-4 * s * s - 5 * t * t + 12 * t * s) / (s * s * s), t, s)


def berger_ratio_derivative(x1, x2):
    """d/dl of x1/(2 x2) along the Berger flow:
    (-9 x1^2 - 32 x2^2 + 40 x1 x2) / (4 x2^3); equals 3 at (2, 1).  Evaluated
    and guarded as `two_param_ratio_derivative` is, with (x1, x2) for (t, s)."""
    return cone._float_or_exact(lambda x1, x2: (-9 * x1 * x1 - 32 * x2 * x2 + 40 * x1 * x2) / (4 * x2 * x2 * x2),
                                x1, x2)


# The two reference seeds (x, s) of the normalized planar flow: p1 lies on
# the unit-volume curve x^3 s^4 = 1 and flows to E-, p2 enters region P.
REFERENCE_SEEDS = (((10.0 / 11.0) ** (4.0 / 3.0), 1.1), (0.87, 1.1))


def einstein_points() -> tuple[np.ndarray, np.ndarray]:
    """The two Einstein metrics of W^7_{1,1} in unit-volume (x, s) form.

    E+ = ((2/5)(125/8)^{1/7}, (125/8)^{1/7}) is positively curved,
    E- = (2 (1/8)^{1/7}, (1/8)^{1/7}) has negatively curved planes;
    both sit on the curve x^3 s^4 = 1 and are equilibria of the
    normalized planar flow.
    """
    c_plus = (125.0 / 8.0) ** (1.0 / 7.0)
    c_minus = (1.0 / 8.0) ** (1.0 / 7.0)
    return (np.array([0.4 * c_plus, c_plus]),
            np.array([2.0 * c_minus, c_minus]))


__all__ = _public(globals(), "REFERENCE_SEEDS")
