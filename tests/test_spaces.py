"""xi, Ricci eigenvalue closed forms on coefficient tuples, and the
structure-constant oracle."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ricciflow import (
    aw_eigenvalue_tuple,
    berger_eigenvalue_tuple,
    ricci_from_structure,
    spaces,
    xi_from_integers,
    xi_value,
)
from homogeneous import aloff_wallach_constants, aloff_wallach_modules, wang_ziller_ricci

positive = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
scale = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
power_of_two = st.integers(min_value=-4, max_value=4).map(lambda k: 2.0 ** k)


def aw_term_magnitudes(t, s0, s1, s2, xi):
    """Sum of the magnitudes of the terms that make up each eigenvalue of
    `aw_eigenvalue_tuple`: the scale of its rounding error, which the value
    itself underestimates where the terms cancel."""
    g = xi * xi + xi + 1.0
    coeffs, s = ((xi + 1.0) ** 2, xi * xi, 1.0), (s0, s1, s2)
    cross = s0 / (s1 * s2) + s1 / (s0 * s2) + s2 / (s0 * s1)
    r0 = 3.0 * t / (2.0 * g) * sum(c / (si * si) for c, si in zip(coeffs, s))
    return np.array([r0, *(6.0 / si + 3.0 * c * t / (2.0 * g * si * si) + cross
                           for c, si in zip(coeffs, s))])


class TestXiParam:
    """The Aloff-Wallach parameter xi = k1/k2 is a float in (0, 1]."""

    def test_valid_range(self):
        assert xi_value(0.5) == 0.5
        assert xi_value(1) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            xi_value(bad)

    def test_from_integers(self):
        assert xi_from_integers(1, 2) == 0.5

    @pytest.mark.parametrize("k1,k2", [(2, 4), (3, 2), (0, 1)])
    def test_from_integers_rejects(self, k1, k2):
        with pytest.raises(ValueError):
            xi_from_integers(k1, k2)

    def test_from_integers_rejects_a_ratio_that_rounds_to_zero(self):
        # 1/10^400 is a valid pair but rounds to 0.0, outside (0, 1]
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            xi_from_integers(1, 10**400)
        assert xi_from_integers(10**400, 10**401 + 1) == 10**400 / (10**401 + 1)


STACK4 = r"expected an \(N, 4\) stack of positive finite reals"


class TestMetricTypes:
    """Metrics are rows of an (N, 4) stack, checked where they are used."""

    def test_positive_required(self):
        for bad in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ricci_from_structure(1, 1, [(1.0, bad, 1.0, 1.0)])

    def test_four_coefficients_required(self):
        # a short row, a ragged stack, a non-number and one metric that is not a stack get the package's message
        for bad in ([(1.0, 1.0, 1.0)], [(1, 1, 1, 1), (1, 1, 1)], [(1, "x", 1, 1)], (1.0, 1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match=STACK4):
                ricci_from_structure(1, 1, bad)

    def test_an_int_past_the_float_range_gets_the_packages_message(self):
        for bad in ([[10**400, 1, 1, 1]], [[1, 1, 1, 1], [1, 1, 1, -10**400]]):
            with pytest.raises(ValueError, match=STACK4):
                ricci_from_structure(1, 1, bad)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("row", range(3))
    @pytest.mark.parametrize("column", range(4))
    def test_positive_required_in_every_row_of_a_stack(self, bad, row, column):
        stack = np.ones((3, 4))
        stack[row, column] = bad
        with pytest.raises(ValueError, match=STACK4):
            ricci_from_structure(1, 2, stack)

    @pytest.mark.parametrize("shape", [(5, 3), (1, 5), (2, 5, 4), (1, 1, 4), ()])
    def test_stacks_of_four_columns_required(self, shape):
        with pytest.raises(ValueError, match=STACK4):
            ricci_from_structure(1, 2, np.ones(shape))


class TestAWEigenvalues:
    def test_round_metric(self):
        assert aw_eigenvalue_tuple(1, 1, 1, 1, 1.0) == (3.0, 3.0, 4.5, 4.5)

    def test_round_metric_scaled(self):
        assert aw_eigenvalue_tuple(2, 2, 2, 2, 1.0) == (1.5, 1.5, 2.25, 2.25)

    def test_xi_one_half(self):
        # frozen from the (k1, k2) = (1, 2) structure-constant evaluation:
        # Gamma = 7/4 in xi form gives (3, 43/14, 67/14, 29/7)
        expected = (3.0, 43.0 / 14.0, 67.0 / 14.0, 29.0 / 7.0)
        np.testing.assert_allclose(aw_eigenvalue_tuple(1, 1, 1, 1, 0.5), expected, rtol=1e-14)

    @given(t=positive, s0=positive, s1=positive, s2=positive,
           xi=st.floats(min_value=0.05, max_value=1.0), lam=power_of_two)
    def test_degree_minus_one_homogeneity(self, t, s0, s1, s2, xi, lam):
        # scaling by a power of two commutes with every rounding: bit-exact
        base = np.array(aw_eigenvalue_tuple(t, s0, s1, s2, xi))
        scaled = np.array(aw_eigenvalue_tuple(lam * t, lam * s0, lam * s1, lam * s2, xi))
        np.testing.assert_array_equal(scaled, base / lam)

    @given(t=positive, s0=positive, s1=positive, s2=positive,
           xi=st.floats(min_value=0.05, max_value=1.0), lam=scale)
    @example(t=4.53125, s0=4.533203125, s1=0.8, s2=2.017578125, xi=0.87109375, lam=1.5)
    def test_degree_minus_one_homogeneity_general_scale(self, t, s0, s1, s2, xi, lam):
        # the rounding of lam * s moves each eigenvalue by O(eps) relative to
        # its terms' magnitudes, not to a value in which they cancel
        base = np.array(aw_eigenvalue_tuple(t, s0, s1, s2, xi))
        scaled = np.array(aw_eigenvalue_tuple(lam * t, lam * s0, lam * s1, lam * s2, xi))
        bound = 1e-12 * aw_term_magnitudes(t, s0, s1, s2, xi) / lam
        assert np.all(np.abs(scaled - base / lam) <= bound)

    @given(t=positive, s0=positive, s=positive)
    def test_slice_equality_is_exact(self, t, s0, s):
        _, _, r2, r3 = aw_eigenvalue_tuple(t, s0, s, s, 1.0)
        assert r2 == r3  # identical expressions, zero ulps

    @given(t=positive, s=positive)
    def test_two_param_equalities(self, t, s):
        r0, r1, r2, r3 = aw_eigenvalue_tuple(t, t, s, s, 1.0)
        assert r2 == r3
        assert r0 == pytest.approx(r1, rel=1e-14)

    def test_two_param_closed_forms(self):
        # r0 = r1 = (2s^2 + t^2)/(t s^2), r2 = r3 = 3(4s - t)/(2 s^2)
        t, s = 0.7, 1.3
        r0, _, r2, _ = aw_eigenvalue_tuple(t, t, s, s, 1.0)
        assert r0 == pytest.approx((2 * s * s + t * t) / (t * s * s), rel=1e-14)
        assert r2 == pytest.approx(3 * (4 * s - t) / (2 * s * s), rel=1e-14)


class TestBracketConstants:
    """The [ijk] derived from su(3) matrices in `homogeneous` against the
    families the package types in (`spaces._family_values`)."""

    def test_w11_values(self):
        b = aloff_wallach_constants(1, 1)
        assert (b[1, 2, 3], b[1, 1, 0], b[2, 2, 0], b[3, 3, 0]) == (4, 8, 2, 2)

    def test_w12_values(self):
        b = aloff_wallach_constants(1, 2)
        assert b[1, 1, 0] == Fraction(54, 7)
        assert b[2, 2, 0] == Fraction(6, 7)
        assert b[3, 3, 0] == Fraction(24, 7)
        assert b[1, 2, 3] == 4

    @pytest.mark.parametrize("k1,k2", [(1, 1), (1, 2), (2, 3)])
    def test_zero_families_and_symmetry(self, k1, k2):
        b = aloff_wallach_constants(k1, k2)
        for i in (1, 2, 3):
            assert b[0, 0, i] == 0
            for j in (1, 2, 3):
                assert b[i, i, j] == 0
                if i != j:
                    assert b[i, j, 0] == 0
        assert np.array_equal(b, b.transpose(1, 0, 2))
        assert np.array_equal(b, b.transpose(0, 2, 1))

    @pytest.mark.parametrize("k1,k2", [(1, 1), (1, 2), (2, 3), (1, 10), (3, 7), (5, 8)])
    def test_derived_table_matches_the_package_families(self, k1, k2):
        package = dict.fromkeys(product(range(4), repeat=3), 0.0)
        for perms, value in zip(spaces._FAMILIES, spaces._family_values(k1, k2)):
            package.update(dict.fromkeys(perms, value))
        derived = aloff_wallach_constants(k1, k2)
        assert {index: float(derived[index]) for index in package} == package

    def test_rejects_invalid(self):
        for k1, k2 in ((2, 4), (3, 2)):
            with pytest.raises(ValueError, match="k1"):
                ricci_from_structure(k1, k2, [(1.0, 1.0, 1.0, 1.0)])


class TestStructureOracle:
    @pytest.mark.parametrize("k1,k2", [(1, 1), (1, 2), (2, 3), (1, 10)])
    def test_agrees_with_closed_forms(self, k1, k2):
        rng = np.random.default_rng(17 * k1 + k2)
        for _ in range(50):
            m = rng.uniform(0.5, 2.0, size=4)
            closed = np.array(aw_eigenvalue_tuple(*m, k1 / k2))
            (general,) = ricci_from_structure(k1, k2, [m])
            np.testing.assert_allclose(general, closed, rtol=1e-12)

    @pytest.mark.parametrize("k1,k2", [(1, 1), (1, 2), (2, 3), (1, 10), (3, 7), (5, 8)])
    def test_derived_table_gives_the_closed_forms_exactly(self, k1, k2):
        # Wang-Ziller with -B = 12 Q on su(3) and the module dimensions
        dims = [len(module) for module in aloff_wallach_modules(k1, k2)]
        table = aloff_wallach_constants(k1, k2)
        rng = np.random.default_rng(31 * k1 + k2)
        for _ in range(20):
            x = [Fraction(int(p), int(q)) for p, q in rng.integers(1, 50, size=(4, 2))]
            closed = aw_eigenvalue_tuple(*x, Fraction(k1, k2))
            assert all(type(r) is Fraction for r in closed)
            assert wang_ziller_ricci(table, dims, 12, x) == closed

    def test_round_metric(self):
        (r,) = ricci_from_structure(1, 1, [(1, 1, 1, 1)])
        np.testing.assert_allclose(r, (3, 3, 4.5, 4.5), rtol=1e-14)

    def test_slice_equality_on_independent_path(self):
        ((_, _, r2, r3),) = ricci_from_structure(1, 1, [(0.7, 0.9, 1.3, 1.3)])
        assert r2 == pytest.approx(r3, rel=1e-14)

    def test_homogeneity(self):
        lam = 1.7
        base = ricci_from_structure(1, 1, [(1, 1, 1, 1)])
        scaled = ricci_from_structure(1, 1, [(lam, lam, lam, lam)])
        np.testing.assert_allclose(scaled, base / lam, rtol=1e-14)


class TestBergerEigenvalues:
    def test_boundary_values(self):
        assert berger_eigenvalue_tuple(2, 1) == (6.0, 7.5)

    def test_round(self):
        assert berger_eigenvalue_tuple(1, 1) == (9.0, 8.75)

    def test_homogeneity_example(self):
        assert berger_eigenvalue_tuple(4, 2) == (3.0, 3.75)

    def test_unit_x2_slice_grid(self):
        for x1 in np.arange(0.1, 8.01, 0.1):
            r1, r2 = berger_eigenvalue_tuple(float(x1), 1.0)
            assert r1 == pytest.approx((8.0 + x1 * x1) / x1, rel=1e-13)
            assert r2 == pytest.approx(5.0 * (8.0 - x1) / 4.0, rel=1e-13)

    @given(x1=positive, x2=positive, lam=power_of_two)
    def test_degree_minus_one(self, x1, x2, lam):
        # scaling by a power of two commutes with every rounding: bit-exact
        base = np.array(berger_eigenvalue_tuple(x1, x2))
        scaled = np.array(berger_eigenvalue_tuple(lam * x1, lam * x2))
        np.testing.assert_array_equal(scaled, base / lam)

    @given(x1=positive, x2=positive, lam=scale)
    @example(x1=4.999999999999999, x2=0.625, lam=3.0)
    def test_degree_minus_one_general_scale(self, x1, x2, lam):
        # the rounding of lam * x moves each eigenvalue by O(eps) relative to its terms' magnitudes,
        # not to r2 = 5(8 x2 - x1)/(4 x2^2), in which they cancel near x1 = 8 x2
        base = np.array(berger_eigenvalue_tuple(x1, x2))
        scaled = np.array(berger_eigenvalue_tuple(lam * x1, lam * x2))
        terms = np.array([(8 * x2 * x2 + x1 * x1) / (x1 * x2 * x2), 5 * (8 * x2 + x1) / (4 * x2 * x2)])
        assert np.all(np.abs(scaled - base / lam) <= 1e-12 * terms / lam)
