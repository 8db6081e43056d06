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

The last tests prove the exit interval of every W_{k1,k2} from the
coefficient table of K: f_xi'(0) < 0 exactly on one interval (x*(xi), 1)
with x*(xi) < 4/5, by factorisation, exact root counts, an interval
enclosure of K at the critical xi and a Sturm sequence at xi = 1; one float
cross-check holds x*(xi) to the sign change of `f_xi_prime0`.
"""

import random
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
    gap = cone._CONES["aw3"].gap.__wrapped__
    assert integral_literals(gap)
    closed = x * (4 * s - x) / (3 * s)
    assert gap(t, x, s, 1) == closed - t
    ring = derived["field"].ring
    gx, gxi, _, g0, g1, g2 = ring.gens
    on_slice = [(g0, gx), (g2, g1), (gxi, ring(1))]
    t_a = derived["t_a"]
    assert derived["field"].new(t_a.numer.compose(on_slice), t_a.denom.compose(on_slice)) == closed


# --- the exact exit interval of every W_{k1,k2}: the sign of K(xi, x) on (0, 1]^2 ---
#
# f_xi'(0) = K(xi, x) / (x(x - 4)(x - 1)R^2) with a positive denominator on
# (0, 1), so its sign is that of K.  The tests below prove, exactly, that for
# every xi in (0, 1) K(xi, .) has one root x*(xi) in (0, 1), simple, with
# K > 0 before it and K < 0 after, and that x*(xi) < 4/5: K(xi, 0) > 0 and
# K(xi, 1) < 0, so a root in (0, 1) can appear or vanish only as a double
# root, at a root of the discriminant; one rational xi per cell between those
# roots has one root, and at each critical xi the double root lies outside
# [0, 1].  Palindromic rows give K(xi, x) = xi^4 K(1/xi, x), so xi in (0, 1]
# covers every k1/k2.  At xi = 1 a Sturm sequence of the deflated quartic
# does the same for f1'(0).


@pytest.fixture(scope="module")
def k_exact():
    x, xi = sympy.symbols("x xi")
    k = sum(sympy.Poly(row, xi).as_expr() * x ** (7 - i) for i, row in enumerate(derivatives._K_COEFFS))
    return x, xi, sympy.Poly(k, x, xi, domain=sympy.QQ)


def test_k_is_eight_times_an_irreducible_palindromic_polynomial(k_exact):
    x, xi, k = k_exact
    content, factors = k.factor_list()
    assert content == 8 and len(factors) == 1 and factors[0][1] == 1
    assert k == 8 * factors[0][0]
    assert all(list(row) == list(row)[::-1] for row in derivatives._K_COEFFS)
    assert sympy.expand(xi**4 * k.as_expr().subs(xi, 1 / xi)) == k.as_expr()


def test_k_at_the_ends_of_the_slice_and_at_four_fifths(k_exact):
    x, xi, k = k_exact
    assert sympy.expand(k.as_expr().subs(x, 0) - 6144 * xi * (xi + 1) ** 2) == 0
    assert sympy.expand(k.as_expr().subs(x, 1) + 432 * (xi**2 - 1) ** 2) == 0
    quartic = 17485 * xi**4 - 1651 * xi**3 - 29568 * xi**2 - 1651 * xi + 17485
    at_four_fifths = sympy.Poly(k.as_expr().subs(x, sympy.Rational(4, 5)), xi)
    assert at_four_fifths == sympy.Poly(-2048 * quartic / 78125, xi)
    # no root in (0, 1] and negative there, so x*(xi) < 4/5
    assert at_four_fifths.count_roots(0, 1) == 0 and at_four_fifths.eval(sympy.Rational(1, 2)) < 0


def box_value(xis, xs):
    """An enclosure of K over the rational box xis x xs, by interval Horner on Fractions."""
    def mul(a, b):
        products = [p * q for p in a for q in b]
        return min(products), max(products)

    value = (Fraction(0), Fraction(0))
    for row in derivatives._K_COEFFS:
        c = (Fraction(0), Fraction(0))
        for a in row:
            c = tuple(end + a for end in mul(c, xis))
        value = tuple(end + ce for end, ce in zip(mul(value, xs), c))
    return value


def test_k_has_one_root_in_the_unit_interval_for_every_xi(k_exact):
    x, xi, k = k_exact
    discriminant = sympy.Poly(sympy.discriminant(k, x).as_expr(), xi)
    _, factors = discriminant.factor_list()
    # (xi - 1)^2 (xi + 1)^4 times an irreducible factor of degree 42
    assert sorted((f.degree(), m) for f, m in factors) == [(1, 2), (1, 4), (42, 1)]
    assert {(f.monic().as_expr(), m) for f, m in factors if f.degree() == 1} == {(xi - 1, 2), (xi + 1, 4)}
    critical = next(f for f, _ in factors if f.degree() == 42)
    eps = Fraction(1, 10**12)
    cells = [(Fraction(a), Fraction(b)) for (a, b), _ in critical.intervals(inf=0, sup=1, eps=eps)]
    assert len(cells) == 2
    # one rational xi in each cell of (0, 1) the two critical xi cut, with one root in (0, 1)
    samples = (Fraction(1, 20), Fraction(1, 2), Fraction(19, 20))
    assert 0 < samples[0] < cells[0][0] <= cells[0][1] < samples[1] < cells[1][0] <= cells[1][1] < samples[2] < 1
    for sample in samples:
        at_sample = sympy.Poly(k.as_expr().subs(xi, sympy.Rational(*sample.as_integer_ratio())), x)
        assert at_sample.count_roots(0, 1) == 1
    # at a critical xi the double root x is a root of the resultant in xi of K and dK/dx; on every
    # box of a critical xi and a root of the resultant in [0, 1], K keeps one sign, so none is double
    resultant = sympy.Poly(sympy.resultant(k, k.diff(x), xi).as_expr(), x)
    roots = [(Fraction(a), Fraction(b)) for (a, b), _ in resultant.intervals(inf=0, sup=1, eps=eps)]
    assert roots
    for cell in cells:
        for root in roots:
            low, high = box_value(cell, root)
            assert low > 0 or high < 0, (cell, root)


def sturm_count(poly, a, b):
    """Distinct real roots of poly in (a, b], from the sign changes of its Sturm sequence."""
    def changes(point):
        signs = [s for s in (p.eval(point) for p in sympy.sturm(poly)) if s != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u < 0) != (v < 0))
    return changes(a) - changes(b)


def test_xi_one_sturm_count_isolates_lambda4_and_lambda5():
    x = sympy.symbols("x")
    quartic = sympy.Poly(derivatives._quartic(x), x)
    assert sturm_count(quartic, 0, 1) == 1 and sturm_count(quartic, 2, 3) == 1
    # f1'(0) = quartic / (3x(4 - x)), positive denominator: negative on (lambda4, 1)
    assert quartic.eval(0) > 0 > quartic.eval(1)
    lambda4, lambda5 = derivatives.d_roots()[3:]
    assert 0 < lambda4 < 1 and 2 < lambda5 < 3


def test_exit_interval_is_the_sign_change_of_f_xi_prime0(k_exact):
    x, xi, k = k_exact
    rng = random.Random(9)
    for _ in range(20):
        z = rng.uniform(0.0, 1.0)
        at_z = sympy.Poly(k.as_expr().subs(xi, sympy.Rational(*z.as_integer_ratio())), x)
        ((low, high), _), = at_z.intervals(inf=0, sup=1, eps=Fraction(1, 10**15))
        star = (Fraction(low) + Fraction(high)) / 2
        # bisect on floats to the adjacent pair where f_xi_prime0 changes sign
        a, b = 2.0**-40, 0.8
        while a < (m := (a + b) / 2) < b:
            a, b = (m, b) if derivatives.f_xi_prime0(z, m) > 0 else (a, m)
        assert derivatives.f_xi_prime0(z, a) > 0 >= derivatives.f_xi_prime0(z, b)
        assert abs(a - star) <= 1e-12, z
