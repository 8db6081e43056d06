"""The closed forms against an exact sympy derivation.

The derivation starts from two formulas only: the Ricci eigenvalues in the
`ricciflow.spaces` docstring and the Schur closed form of t_A in the
`ricciflow.cone` docstring.  In the rational function field
QQ(x, xi, t, s0, s1, s2) it differentiates F = t_A(s, xi)/t, forms the flow
velocity (-2 t r0, -2 s0 r1, -2 s1 r2, -2 s2 r3), and substitutes the anchor
tuple (x(4 - x)/3, x, 1, 1) of `derivatives.gradient_anchor`.  The end
results are then checked: the coefficient table of K and the quintic D
exactly, and the float closed forms (`grad_f`, `initial_velocity`,
`f1_prime0`, `f_xi_prime0`) to a few ulps.

The package's own kernels are certified exactly in the same field: the
reduced right-hand sides, the t_A kernel `cone._t_a` and the aw3 boundary
gap run on field elements.  Their float literals are integers, which the
field converts exactly (a literal such as 0.1 would become 1/10, not its
binary value), so the field evaluates the formula the floats round.
"""

from fractions import Fraction

import pytest

from ricciflow import cone, derivatives, flow
from ricciflow.spaces import aw_eigenvalue_tuple

sympy = pytest.importorskip("sympy")

# (x, xi) points where none of the targets is near a root, so a few ulps of
# rounding stay a few ulps relative; xi = 1 exercises the deflated f1_prime0.
POINTS = [(x, xi) for x in (0.3, 0.6, 0.9) for xi in (0.25, 0.4, 1.0)]
FLOAT_RTOL = 1e-14


@pytest.fixture(scope="module")
def derived():
    field, x, xi, t, s0, s1, s2 = sympy.field("x,xi,t,s0,s1,s2", sympy.QQ)
    gamma = xi**2 + xi + 1
    r0 = 3 * t / (2 * gamma) * ((xi + 1) ** 2 / s0**2 + xi**2 / s1**2 + 1 / s2**2)
    r1 = 6 / s0 - 3 * (xi + 1) ** 2 * t / (2 * gamma * s0**2) + (s0 / (s1 * s2) - s1 / (s0 * s2) - s2 / (s0 * s1))
    r2 = 6 / s1 - 3 * xi**2 * t / (2 * gamma * s1**2) + (s1 / (s0 * s2) - s0 / (s1 * s2) - s2 / (s0 * s1))
    r3 = 6 / s2 - 3 * t / (2 * gamma * s2**2) + (s2 / (s0 * s1) - s0 / (s1 * s2) - s1 / (s0 * s2))

    # t_A = 12 Gamma sigma / (p^T M p - (p^T M 1)^2 / mu), M = 6S - s1^T - 1s^T + E
    s = (s0, s1, s2)
    e = [[(s[j] - s[k]) ** 2 / s[3 - j - k] if j != k else 0 for k in range(3)] for j in range(3)]
    m = [[6 * s[j] * (j == k) - s[j] - s[k] + e[j][k] for k in range(3)] for j in range(3)]
    p = (xi - 1, xi + 2, -(2 * xi + 1))
    mp = [sum(m[j][k] * p[k] for k in range(3)) for j in range(3)]
    mu = sum(sum(row) for row in m)
    sigma = 2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0**2 - s1**2 - s2**2
    t_a = 12 * gamma * sigma / (sum(pj * mpj for pj, mpj in zip(p, mp)) - sum(mp) ** 2 / mu)
    f = t_a / t

    gx, _, gt, g0, g1, g2 = field.ring.gens
    anchor = [(gt, gx * (4 - gx) / 3), (g0, gx), (g1, field.ring(1)), (g2, field.ring(1))]

    def at_anchor(value):
        return field.new(value.numer.compose(anchor), value.denom.compose(anchor))

    grad = [at_anchor(f.diff(v)) for v in (t, s0, s1, s2)]
    velocity = [at_anchor(-2 * c * r) for c, r in zip((t, s0, s1, s2), (r0, r1, r2, r3))]
    fprime = sum(g * v for g, v in zip(grad, velocity))
    return {"field": field, "x": x, "xi": xi, "t": t, "s": s, "t_a": t_a,
            "grad": grad, "velocity": velocity, "fprime": fprime}


def exact(value, x, xi=1.0):
    """A field element at the rational point (x, xi), as a Fraction."""
    args = [sympy.QQ(*Fraction(c).as_integer_ratio()) for c in (x, xi)] + [0] * 4
    q = value.numer(*args) / value.denom(*args)
    return Fraction(int(q.numerator), int(q.denominator))


def at_xi_one(derived, value):
    ring = derived["field"].ring
    subs = [(ring.gens[1], ring(1))]
    return derived["field"].new(value.numer.compose(subs), value.denom.compose(subs))


def test_k_coefficient_table(derived):
    x, xi = derived["x"], derived["xi"]
    r = (xi - 1) ** 2 * x**2 - 4 * (xi - 1) ** 2 * x - 12 * (xi + 1) ** 2
    k = derived["fprime"] * x * (x - 4) * (x - 1) * r**2
    table = sum(c * xi ** (4 - j) * x ** (7 - i)
                for i, row in enumerate(derivatives._K_COEFFS) for j, c in enumerate(row))
    assert k == table


def test_f1_prime0_is_the_quartic_quotient(derived):
    x = derived["x"]
    quartic = x**4 + 6 * x**3 - 16 * x**2 - 32 * x + 32
    assert at_xi_one(derived, derived["fprime"]) == quartic / (3 * x * (4 - x))


def test_d_polynomial_exact(derived):
    # f1'(0) = D(x) / (3 t x) at the anchor, where 3 t x = x^2 (4 - x)
    x = derived["x"]
    d = at_xi_one(derived, derived["fprime"]) * x**2 * (4 - x)
    assert d.denom.is_ground
    for point in (Fraction(-15, 2), Fraction(-2), Fraction(0), Fraction(79, 100),
                  Fraction(9, 10), Fraction(27, 10), Fraction(3)):
        assert derivatives.d_polynomial(point) == exact(d, point)


def worst_error(closed_form, values, points=POINTS):
    """Largest relative error of the float closed form over the points."""
    worst = 0.0
    for x, xi in points:
        for got, value in zip(closed_form(x, xi), values):
            want = exact(value, x, xi)
            worst = max(worst, float(abs(Fraction(float(got)) - want) / abs(want)))
    return worst


def test_grad_f(derived):
    assert worst_error(derivatives.grad_f, derived["grad"]) <= FLOAT_RTOL


def test_initial_velocity(derived):
    assert worst_error(derivatives.initial_velocity, derived["velocity"]) <= FLOAT_RTOL


def test_f_xi_prime0(derived):
    def closed_form(x, xi):
        return [derivatives.f_xi_prime0(xi, x)]

    assert worst_error(closed_form, [derived["fprime"]]) <= FLOAT_RTOL


def test_f1_prime0(derived):
    def closed_form(x, xi):
        return [derivatives.f1_prime0(x)]

    points = [(x, 1.0) for x in (0.05, 0.3, 0.6, 0.9, 0.99)]
    assert worst_error(closed_form, [derived["fprime"]], points) <= FLOAT_RTOL


def integral_literals(kernel):
    """Whether every float literal of `kernel` is an integer."""
    return all(c == int(c) for c in kernel.__code__.co_consts if isinstance(c, float))


@pytest.mark.parametrize("kind", ["aw2", "aw3"])
def test_slice_rhs_is_the_eigenvalue_flow(derived, kind):
    # at xi = 1 each coefficient of (t, s0, s1, s2) = state[coords] moves
    # as -2 r_i times itself, and so does the state component it maps to
    family = flow.SYSTEMS[kind]
    kernel = getattr(flow, family.rhs).__wrapped__
    assert integral_literals(kernel)
    state = (derived["t"], derived["x"], derived["s"][1])[:family.dim]
    coeffs = [state[k] for k in family.coords]
    r = aw_eigenvalue_tuple(*coeffs, derived["field"](1))
    velocity = kernel(*state)
    for r_i, c, k in zip(r, coeffs, family.coords):
        assert velocity[k] == -2 * r_i * c


def test_normalized_rhs_is_the_volume_one_reduction(derived):
    # the flow of (x^-2 s^-4, x, s, s) at xi = 1 plus the multiple c of the
    # state that keeps the volume t s0^2 s1^2 s2^2 = 1
    x, s = derived["x"], derived["s"][1]
    kernel = flow.normalized_rhs.__wrapped__
    assert integral_literals(kernel)
    r0, r1, r2, _ = aw_eigenvalue_tuple(1 / (x**2 * s**4), x, s, s, derived["field"](1))
    c = (2 * r0 + 4 * r1 + 8 * r2) / 7
    assert kernel(x, s) == (x * (-2 * r1 + c), s * (-2 * r2 + c))


def test_t_a_kernel_is_the_schur_form(derived):
    assert integral_literals(cone._t_a)
    assert cone._t_a(*derived["s"], derived["xi"]) == derived["t_a"]


def test_aw3_boundary_gap_is_the_slice_t_a(derived):
    # the gap's inline t_A is t_a_closed's x(4s - x)/(3s), which is the
    # Schur form on (x, s, s) at xi = 1
    t, x, s = derived["t"], derived["x"], derived["s"][1]
    gap = flow.SYSTEMS["aw3"].boundary.__wrapped__
    assert integral_literals(gap)
    closed = x * (4 * s - x) / (3 * s)
    assert gap(t, x, s, 1) == closed - t
    ring = derived["field"].ring
    gx, gxi, _, g0, g1, g2 = ring.gens
    on_slice = [(g0, gx), (g2, g1), (gxi, ring(1))]
    t_a = derived["t_a"]
    assert derived["field"].new(t_a.numer.compose(on_slice), t_a.denom.compose(on_slice)) == closed
