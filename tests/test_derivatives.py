"""Closed-form derivative machinery against exact and numerical oracles."""

from fractions import Fraction

import numpy as np
import pytest

from ricciflow import (
    DomainError,
    berger_ratio_derivative,
    d_polynomial,
    d_roots,
    einstein_points,
    f1_prime0,
    f_xi_prime0,
    grad_f,
    gradient_anchor,
    initial_velocity,
    k_polynomial,
    t_a,
    two_param_ratio_derivative,
)
from ricciflow import classify_2param, ConeClass, derivatives
from ricciflow.cone import a_tilde, v_vector
from ricciflow.flow import aw2_rhs, aw_rhs, berger_rhs

GRID = [(x, xi) for x in (0.85, 0.9, 0.95) for xi in (0.4, 0.7, 1.0)]


def quartic(x):
    return x**4 + 6 * x**3 - 16 * x**2 - 32 * x + 32


def a_tilde_partial(s, i):
    """Partial derivative of A~(s) with respect to s_i, from the entries
    a~_j = 4/s_j and b~_j = -sigma/(s0 s1 s2) + (s_{j-1} - s_j + s_{j+1})/(s_{j-1} s_{j+1})."""
    s = np.asarray(s, dtype=float)
    prod = s.prod()
    sig = 2 * (s[1] * s[2] + s[0] * s[2] + s[0] * s[1]) - s @ s
    dsig = 2 * (s.sum() - s[i]) - 2 * s[i]
    db = np.empty(3)
    for j in range(3):
        sm, sp = s[(j - 1) % 3], s[(j + 1) % 3]
        num = sm - s[j] + sp
        db[j] = -dsig / prod + sig / (prod * s[i])
        if i == j:
            db[j] -= 1.0 / (sm * sp)
        elif i == (j - 1) % 3:
            db[j] += 1.0 / (sm * sp) - num / (sm * sm * sp)
        else:
            db[j] += 1.0 / (sm * sp) - num / (sm * sp * sp)
    da = np.zeros(3)
    da[i] = -4.0 / (s[i] * s[i])
    return np.array([
        [da[0], db[2], db[1]],
        [db[2], da[1], db[0]],
        [db[1], db[0], da[2]],
    ])


def slice_intermediates(x, xi):
    """L = <v, W>, P_i = <dv/ds_i, W> and Q_i = <W, (dA~/ds_i) W> with
    W = A~^-1 v, assembled at s = (x, 1, 1)."""
    s = np.array([x, 1.0, 1.0])
    v = v_vector(s, xi)
    w = np.linalg.solve(a_tilde(s), v)
    p = -v * w / s  # dv/ds_i = -v_i/s_i e_i
    q = np.array([w @ a_tilde_partial(s, i) @ w for i in range(3)])
    return float(v @ w), p, q


class TestDPolynomial:
    def test_exact_roots(self):
        assert d_polynomial(Fraction(0)) == 0
        assert d_polynomial(Fraction(-2)) == 0

    def test_exact_value(self):
        # (9/10) * quartic(9/10) / 3 with quartic(9/10) = -47299/10000
        assert d_polynomial(Fraction(9, 10)) == Fraction(-141897, 100000)

    def test_sign_at_09(self):
        assert d_polynomial(0.9) == pytest.approx(0.3 * -4.7299, rel=1e-12)
        assert d_polynomial(0.9) < 0.0


class TestDRoots:
    def test_exact_pair_and_order(self):
        roots = d_roots()
        assert roots[1] == -2.0
        assert roots[2] == 0.0
        assert np.all(np.diff(roots) > 0)

    def test_two_digit_windows(self):
        roots = d_roots()
        assert 0.78 < roots[3] < 0.80
        assert 2.68 < roots[4] < 2.70

    def test_residuals(self):
        assert np.max(np.abs(d_polynomial(d_roots()))) <= 1e-9


class TestF1Prime:
    def test_two_quotient_forms_agree(self):
        for x in np.arange(0.05, 1.0, 0.05):
            x = float(x)
            via_d = d_polynomial(x) / (3.0 * (x * (4.0 - x) / 3.0) * x)
            assert f1_prime0(x) == pytest.approx(via_d, rel=1e-12)

    def test_signs(self):
        assert f1_prime0(0.5) > 0.0   # below the first positive irrational root
        assert f1_prime0(0.9) < 0.0
        assert f1_prime0(0.9) == pytest.approx(-4.7299 / (3 * 0.9 * 3.1), rel=1e-12)

    def test_zero_at_root(self):
        lam4 = d_roots()[3]
        assert abs(f1_prime0(float(lam4))) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            f1_prime0(1.0)
        with pytest.raises(DomainError):
            f1_prime0(-0.2)
        for bad in (1.0, 0.0, np.nan):
            with pytest.raises(DomainError):
                f1_prime0(np.array([0.5, bad, 0.9]))


class TestIntermediates:
    """The boundary scale against L = <v, A~^-1 v> assembled from A~ and v."""

    @pytest.mark.parametrize("x,xi", GRID + [(0.3, 0.2), (0.6, 0.55)])
    def test_scalar_l(self, x, xi):
        lval, _, _ = slice_intermediates(x, xi)
        assert lval == pytest.approx((2.0 / 9.0) / t_a((x, 1.0, 1.0), xi), rel=1e-12)


class TestGradF:
    def test_dt_closed_form_example(self):
        # at xi = 1 the t-partial is -1/t_A = -3/(x(4-x))
        assert grad_f(0.9, 1.0)[0] == pytest.approx(-3.0 / (0.9 * 3.1), rel=1e-12)

    @pytest.mark.parametrize("x,xi", GRID)
    def test_finite_difference_oracle(self, x, xi):
        h = 1e-6
        anchor = gradient_anchor(x)
        t0, s = anchor[0], anchor[1:]

        def f_of(t, svec):
            return t_a(svec, xi) / t

        fd = np.empty(4)
        fd[0] = (f_of(t0 + h, s) - f_of(t0 - h, s)) / (2 * h)
        for i in range(3):
            sp, sm = s.copy(), s.copy()
            sp[i] += h
            sm[i] -= h
            fd[i + 1] = (f_of(t0, sp) - f_of(t0, sm)) / (2 * h)
        np.testing.assert_allclose(grad_f(x, xi), fd, rtol=1e-6)

    @pytest.mark.parametrize("x,xi", GRID)
    def test_from_intermediates(self, x, xi):
        # d F/d s_i = (-2 / (3x(4-x))) (2 P_i - Q_i) / L^2 at the anchor
        lval, p, q = slice_intermediates(x, xi)
        pref = -2.0 / (3.0 * x * (4.0 - x))
        expected = pref * (2.0 * p - q) / lval**2
        np.testing.assert_allclose(grad_f(x, xi)[1:], expected, rtol=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            grad_f(1.2, 0.9)


class TestInitialVelocity:
    @pytest.mark.parametrize("x", [0.81, 0.9, 0.99])
    @pytest.mark.parametrize("xi", [1.0, 0.5])
    def test_matches_flow_rhs(self, x, xi):
        anchor = gradient_anchor(x)
        np.testing.assert_allclose(initial_velocity(x, xi), aw_rhs(anchor, xi), rtol=1e-12)

    def test_frozen_value(self):
        # s1'(0) at (x, xi) = (0.9, 1): -12 + (4*0.9 - 0.81)/3 + 1.8 = -9.27
        assert initial_velocity(0.9, 1.0)[2] == pytest.approx(-9.27, rel=1e-13)

    def test_slice_symmetry_at_xi_one(self):
        vel = initial_velocity(0.7, 1.0)
        assert vel[2] == vel[3]

    def test_domain(self):
        for x in (0.0, 1.0, 5.0, -0.2, np.nan):
            with pytest.raises(DomainError):
                initial_velocity(x, 0.5)


class TestKPolynomial:
    def test_constant_term(self):
        xi = Fraction(1, 2)
        assert k_polynomial(xi, Fraction(0)) == 6144 * xi * (xi + 1) ** 2
        assert k_polynomial(Fraction(1), Fraction(0)) == 24576

    def test_printed_groups_oracle(self):
        # re-evaluate from the grouped product forms, exactly in rationals
        def grouped(xi, x):
            return (40 * (xi - 1) ** 2 * (xi**2 + Fraction(4, 5) * xi + 1) * x**7
                    - 568 * (xi - 1) ** 2 * (xi**2 + Fraction(60, 71) * xi + 1) * x**6
                    + (2960 * xi**4 - 3552 * xi**3 + 416 * xi**2 - 3552 * xi + 2960) * x**5
                    + (-7664 * xi**4 + 6912 * xi**3 - 2336 * xi**2 + 6912 * xi - 7664) * x**4
                    + (9856 * xi**4 - 3968 * xi**3 + 5120 * xi**2 - 3968 * xi + 9856) * x**3
                    + (-5312 * xi**4 + 6144 * xi**3 + 10624 * xi**2 + 6144 * xi - 5312) * x**2
                    + 256 * (xi**2 - 50 * xi + 1) * (xi + 1) ** 2 * x
                    + 6144 * xi * (xi + 1) ** 2)

        for xi in (Fraction(1, 3), Fraction(7, 10), Fraction(1)):
            for x in (Fraction(-1, 2), Fraction(3, 10), Fraction(9, 10), Fraction(2)):
                assert k_polynomial(xi, x) == grouped(xi, x)

    def test_limit_at_x_one(self):
        for xi in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            assert k_polynomial(xi, Fraction(1)) == -432 * (xi**2 - 1) ** 2
        for xi in (0.1, 0.5, 0.9):
            target = -432.0 * (xi * xi - 1.0) ** 2
            assert abs(k_polynomial(xi, 1.0) - target) <= 1e-9 * (1.0 + abs(target))

    @pytest.mark.parametrize("x", [Fraction(3, 10), Fraction(9, 10), Fraction(3, 2)])
    def test_xi_one_factorization(self, x):
        assert k_polynomial(Fraction(1), x) == -768 * (x - 1) * quartic(x)

    def test_xi_one_factorization_float_grid(self):
        for x in np.arange(0.0, 3.001, 0.05):
            x = float(x)
            value = k_polynomial(1.0, x)
            target = -768.0 * (x - 1.0) * quartic(x)
            assert abs(value - target) <= 1e-9 * (1.0 + abs(value))


class TestFXiPrime:
    def test_deflated_at_xi_one(self):
        for x in (0.3, 0.85, 0.95):
            assert f_xi_prime0(1.0, x) == f1_prime0(x)

    def test_denominator_positive(self):
        for x in np.arange(0.05, 1.0, 0.05):
            for xi in np.arange(0.05, 1.01, 0.05):
                assert derivatives._f_denominator(float(x), float(xi)) > 0.0

    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_negative_near_one(self, xi):
        assert any(f_xi_prime0(xi, float(x)) < 0.0
                   for x in np.arange(0.9, 0.9995, 1e-3))

    def test_continuity_towards_xi_one(self):
        x = 0.9
        limit = f1_prime0(x)
        for m in range(3, 21):
            xi = 1.0 - 2.0 ** (-m)
            assert abs(f_xi_prime0(xi, x) - limit) <= 1.0 * (1.0 - xi)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_xi_prime0(0.5, 1.0)
        for xi in (0.5, 1.0):
            with pytest.raises(DomainError):
                f_xi_prime0(xi, np.array([0.9, np.nan]))

    @pytest.mark.parametrize("x,xi", GRID)
    def test_flow_finite_difference_oracle(self, x, xi):
        # central difference of F = t_A/t along the integrated flow from the
        # anchor tuple settles the overall sign convention
        from ricciflow.flow import IntegratorConfig, integrate, make_system

        h = 1e-5
        system = make_system("aw4", xi)
        anchor = gradient_anchor(x)
        fwd = integrate(system, anchor, IntegratorConfig(max_time=h)).final_state
        bwd = integrate(system, anchor,
                        IntegratorConfig(max_time=h, direction="backward")).final_state
        fd = (t_a(fwd[1:], xi) / fwd[0] - t_a(bwd[1:], xi) / bwd[0]) / (2.0 * h)
        assert fd == pytest.approx(f_xi_prime0(xi, x), rel=1e-4)


class TestRatioDerivatives:
    def test_two_param_exact(self):
        assert two_param_ratio_derivative(Fraction(1), Fraction(1)) == 3
        assert two_param_ratio_derivative(1.0, 1.0) == 3.0

    def test_two_param_at_zero_t(self):
        # t' = -4 at t = 0, so d/dl (t/s) = t'/s = -4/2.5
        assert two_param_ratio_derivative(0.0, 2.5) == -1.6
        assert two_param_ratio_derivative(Fraction(0), Fraction(5, 2)) == Fraction(-8, 5)

    def test_berger_exact(self):
        assert berger_ratio_derivative(Fraction(2), Fraction(1)) == 3
        assert berger_ratio_derivative(0.0, 1.0) == -8.0

    @pytest.mark.parametrize("a,b", [(0.7, 1.3), (1.5, 1.3), (1.3, 0.6), (2.9, 1.7)])
    def test_two_param_quotient_rule(self, a, b):
        # (t/s)' = (t' s - t s')/s^2 on the aw2 right-hand side, off s = 1
        tp, sp = aw2_rhs((a, b))
        assert two_param_ratio_derivative(a, b) == pytest.approx((tp * b - a * sp) / (b * b), rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0.7, 1.3), (1.5, 1.3), (1.3, 0.6), (2.9, 1.7)])
    def test_berger_quotient_rule(self, a, b):
        # (x1/(2 x2))' = (x1' x2 - x1 x2')/(2 x2^2) on the Berger right-hand side
        x1p, x2p = berger_rhs((a, b))
        assert berger_ratio_derivative(a, b) == pytest.approx((x1p * b - a * x2p) / (2 * b * b), rel=1e-13)


class TestEinsteinPoints:
    def test_on_volume_curve(self):
        e_plus, e_minus = einstein_points()
        for point in (e_plus, e_minus):
            assert abs(point[0] ** 3 * point[1] ** 4 - 1.0) <= 1e-12

    def test_coordinates(self):
        e_plus, e_minus = einstein_points()
        assert e_plus[0] == pytest.approx(0.5923872591890347, rel=1e-15)
        assert e_minus[1] == pytest.approx(0.7429971445684742, rel=1e-15)
        assert e_plus[0] == pytest.approx(0.4 * e_plus[1], rel=1e-15)
        assert e_minus[0] == pytest.approx(2.0 * e_minus[1], rel=1e-15)

    def test_cone_verdicts(self):
        e_plus, e_minus = einstein_points()
        assert classify_2param(*e_plus).classification is ConeClass.POSITIVELY_CURVED
        assert classify_2param(*e_minus).classification is ConeClass.HAS_NONPOSITIVE_PLANE

