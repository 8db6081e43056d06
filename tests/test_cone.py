"""Positivity cone: the sigma kernel, the A~ system, t_A paths, and the classifiers."""

import collections
import contextlib
import math
import random
import sys
import warnings
from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ricciflow import (
    ConeClass,
    ConeVerdict,
    DomainError,
    a_tilde,
    a_tilde_inverse_slice,
    classify_2param,
    classify_3param,
    classify_aw_slice,
    classify_berger,
    normalized_region,
    t_a,
    t_a_closed,
)
from ricciflow import cone
from ricciflow.verify import _TA_GRID
from homogeneous import v_vector

triple = st.tuples(*[st.floats(min_value=0.3, max_value=2.0)] * 3)
coefficient = st.floats(min_value=0.1, max_value=3.0)
# D_sigma points where the terms of sigma cancel to about 1e-4 or closer
NEAR_SIGMA_ZERO = [(1.0, 1.0, 3.99999), (1.0, 1.3, 4.579), (88.4, 1.03, 70.347)]
# A D_sigma point where sigma itself overflows
EXTREME = (1e160, 1.2e160, 1.2e160)
# Spreads max(s)/min(s) >= 2^1022, where s scaled into [1, 2) has a
# subnormal or zero component; the last one is outside Omega_sigma
SPREAD = [(1e-160, 1e160, 1e160), (1e-300, 1e300, 1e300), (1e-300, 1e300, 1.1e300)]


def spread_digits(s):
    """Decimal digits that the terms of sigma(s) span beyond one another."""
    return 2 * math.ceil(math.log10(max(s)) - math.log10(min(s)))


def cofactor_inverse(m):
    """Independent 3x3 inverse by cofactor expansion (test oracle)."""
    det = np.linalg.det(m)
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return cof.T / det


def mp_a_tilde(s0, s1, s2, sig=None):
    """A~(s) on mpf or float components, by the formula of the cone docstring
    (test oracle); `sig` replaces the polynomial sigma(s) when given."""
    if sig is None:
        sig = 2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0 * s0 - s1 * s1 - s2 * s2
    ss = (s0, s1, s2)
    b = [-sig / (s0 * s1 * s2) + (ss[j - 1] - ss[j] + ss[(j + 1) % 3])
         / (ss[j - 1] * ss[(j + 1) % 3]) for j in range(3)]
    return [[4 / s0, b[2], b[1]], [b[2], 4 / s1, b[0]], [b[1], b[0], 4 / s2]]


def mp_t_a(s, xi):
    """t_A = (2/9) <v, A~^-1 v>^-1 by an LU solve with 50 digits beyond
    `spread_digits(s)` (test oracle)."""
    with mpmath.workdps(50 + spread_digits(s)):
        s0, s1, s2 = (mpmath.mpf(c) for c in s)
        x = mpmath.mpf(xi)
        a = mpmath.matrix(mp_a_tilde(s0, s1, s2))
        den = mpmath.sqrt(2 * (x * x + x + 1))
        v = mpmath.matrix([-(1 + x) / (s0 * den), x / (s1 * den), 1 / (s2 * den)])
        w = mpmath.lu_solve(a, v)
        return mpmath.mpf(2) / 9 / sum(v[i] * w[i] for i in range(3))


def oracle_error(s, xi):
    """Relative error of t_a against the 50-digit oracle."""
    exact = mp_t_a(s, xi)
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(t_a(s, xi)) - exact) / exact)


def random_d_sigma(rng, ratio, count):
    """`count` points of D_sigma with max/min <= `ratio`, log-uniform."""
    points = []
    while len(points) < count:
        s = tuple(float(c) for c in np.exp(rng.uniform(0.0, math.log(ratio), 3)))
        if max(s) / min(s) <= ratio and cone._sigma(*s) > 0.0:
            points.append(s)
    return points


def a_tilde_accepts(s):
    """Whether `a_tilde` takes s as a point of D_sigma: it warns outside."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a_tilde(s)
    return not any("outside D_sigma" in str(w.message) for w in caught)


class TestSigma:
    """The kernel `_sigma`, and D_sigma as `a_tilde` and `t_a` decide it."""

    @pytest.mark.parametrize("s,value", [
        ((1, 1, 1), 3.0),
        ((1, 1, 3), 3.0),
        ((1, 1, 4), 0.0),   # boundary of the sigma-positive region
        ((1, 1, 5), -5.0),
    ])
    def test_values(self, s, value):
        assert cone._sigma(*map(float, s)) == value

    def test_symmetric(self):
        # symmetric polynomial; evaluation order differs by at most an ulp
        assert cone._sigma(0.7, 1.1, 1.9) == pytest.approx(cone._sigma(1.9, 0.7, 1.1), rel=1e-15)

    def test_membership_flags(self):
        assert a_tilde_accepts((1, 1, 3))
        assert not a_tilde_accepts((1, 1, 4))  # sigma = 0 is excluded
        assert not a_tilde_accepts((1, 1, 5))
        # sigma > 0 on the round diagonal, which is excluded: there t_a is 0 by convention
        assert cone._sigma(1.0, 1.0, 1.0) > 0.0 and cone._is_round(1.0, 1.0, 1.0)
        assert not a_tilde_accepts((1, 1, 1)) and t_a((1, 1, 1), 1.0) == 0.0

    def test_rejects_nonpositive(self):
        for fn in (a_tilde, lambda s: t_a(s, 1.0)):
            with pytest.raises(ValueError):
                fn((1.0, 0.0, 1.0))

    def test_overflow_gives_inf(self):
        # an exact value beyond the float range rounds to +-inf
        huge = Fraction(10) ** 400
        assert cone._rounded(huge) == math.inf and cone._rounded(-huge) == -math.inf
        # a_tilde reaches it at a spread >= 2^1022, which it evaluates in Fraction:
        # 4/s0 and -1/s0 + ... overflow there
        assert a_tilde_accepts((5e-324, 1.0, 1.0)) and a_tilde((5e-324, 1.0, 1.0))[0, 0] == math.inf
        with pytest.warns(RuntimeWarning, match="outside D_sigma"):
            assert a_tilde((5e-324, 1.0, 2.0))[0, 1] == -math.inf

    @pytest.mark.parametrize("s", [EXTREME, (1e308, 1.2e308, 1.7e308), (1e-200, 1.2e-200, 1.2e-200),
                                   *SPREAD, (1e-100, 1e100, 1e100)])
    def test_membership_at_extreme_scales(self, s):
        with mpmath.workdps(50 + spread_digits(s)):
            s0, s1, s2 = (mpmath.mpf(c) for c in s)
            exact = 2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0 * s0 - s1 * s1 - s2 * s2
        scaled, scale = cone._scaled(list(s))
        assert (cone._sigma(*scaled) > 0) == a_tilde_accepts(s) == (exact > 0)
        # exact Fractions where min(s), over the power of two of max(s)'s binade, is below the band
        below = math.ldexp(min(s), 1 - math.frexp(max(s))[1]) < cone._BAND_LO
        assert isinstance(scale, int) == below == isinstance(scaled[0], Fraction)
        assert not a_tilde_accepts((s[0], s[0], s[0]))

    @pytest.mark.parametrize("s", NEAR_SIGMA_ZERO)
    def test_correctly_rounded_near_zero(self, s):
        with mpmath.workdps(50):
            s0, s1, s2 = (mpmath.mpf(c) for c in s)
            exact = 2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0 * s0 - s1 * s1 - s2 * s2
        assert cone._sigma(*s) == float(exact)

    def test_exact_path_starts_strictly_below_a_sixteenth_of_the_square(self):
        # here 16 sigma equals (s0 + s1 + s2)^2 in floats, so the float value stands, 2 ulps above the exact one
        s = (0.7015463661686019, 1.771150605405849, 0.35866300099926623)
        assert 16 * cone._sigma(*s) == sum(s) ** 2
        assert cone._sigma(*s) == 0.5010374558932902


class TestATilde:
    def test_round_point(self):
        with pytest.warns(RuntimeWarning):  # round diagonal is outside D_sigma
            m = a_tilde((1.0, 1.0, 1.0))
        np.testing.assert_allclose(np.diag(m), [4.0, 4.0, 4.0])
        off = m[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -2.0)

    def test_slice_first_row(self):
        x = 0.7
        m = a_tilde((x, 1.0, 1.0))
        np.testing.assert_allclose(m[0], [4.0 / x, x - 3.0, x - 3.0], rtol=1e-15)
        np.testing.assert_allclose(m[1], [x - 3.0, 4.0, -2.0], rtol=1e-15)

    def test_symmetric_and_degree_minus_one(self):
        s = np.array([0.9, 1.1, 1.3])
        m = a_tilde(s)
        np.testing.assert_allclose(m, m.T, rtol=0, atol=0)
        np.testing.assert_allclose(a_tilde(2.0 * s), m / 2.0, rtol=1e-14)

    def test_extreme_scale(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = a_tilde(EXTREME)
        with mpmath.workdps(50):
            exact = mp_a_tilde(*(mpmath.mpf(c) for c in EXTREME))
            for i in range(3):
                for j in range(3):
                    assert abs(m[i, j] - exact[i][j]) <= 1e-13 * abs(exact[i][j]), (i, j)

    def test_warns_outside_d_sigma(self):
        with pytest.warns(RuntimeWarning):
            a_tilde((1.0, 1.0, 5.0))
        with pytest.warns(RuntimeWarning):
            a_tilde((1.0, 1.0, 1.0))


def test_sigma_and_a_tilde_scaling_changes_no_bits():
    # sigma and A~ are evaluated on s brought to a fixed binade; inside
    # [2^-64, 2^64) that is s itself, with the bits of the formulas on s
    rng = np.random.default_rng(5)
    for s in random_d_sigma(rng, 100.0, 300):
        assert cone._scaled(s) == ([*s], 1.0), s
        assert np.array_equal(a_tilde(s), np.array(mp_a_tilde(*s, sig=cone._sigma(*s)))), s


def fraction_sigma(s0, s1, s2):
    """sigma evaluated exactly in Fraction (test oracle)."""
    f0, f1, f2 = Fraction(s0), Fraction(s1), Fraction(s2)
    return 2 * f1 * f2 + 2 * f0 * f2 + 2 * f0 * f1 - f0 * f0 - f1 * f1 - f2 * f2


def near_cancellation_triples(rng, count):
    """Triples with s2 = (sqrt(s0) + sqrt(s1))^2 (1 + eps), where the terms of
    sigma cancel to |eps| relative, for |eps| log-uniform in [1e-17, 1e-1]."""
    s0, s1 = rng.uniform(0.01, 2.0, (2, count))
    eps = np.exp(rng.uniform(math.log(1e-17), math.log(1e-1), count)) * rng.choice([-1.0, 1.0], count)
    s2 = (np.sqrt(s0) + np.sqrt(s1)) ** 2 * (1.0 + eps)
    return [tuple(rng.permutation(t).tolist()) for t in zip(s0, s1, s2)]


def test_exact_sigma_branch_matches_fraction():
    # float triples take the cancellation branch in integers: its bits must
    # be those of the Fraction formula rounded once
    rng = np.random.default_rng(17)
    grid_ends = [(x, 1.0, 1.0) for x in _TA_GRID if x <= 0.06 or x >= 3.47]
    triples = [cone._scaled(cone._reals(s, 3))[0] for s in grid_ends + near_cancellation_triples(rng, 3000)]
    for s0, s1, s2 in triples:
        assert 16 * (2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0 * s0 - s1 * s1 - s2 * s2) < (s0 + s1 + s2) ** 2
        assert cone._sigma(s0, s1, s2).hex() == float(fraction_sigma(s0, s1, s2)).hex(), (s0, s1, s2)
    # exact Fraction triples (the exact path of `_scaled`) keep an exact Fraction
    exact = cone._sigma(*(Fraction(c) for c in (1e-300, 1e300, 1.1e300)))
    assert isinstance(exact, Fraction) and exact == fraction_sigma(1e-300, 1e300, 1.1e300)


@pytest.mark.parametrize("k", [-1000, -200, -66, -65, 60, 61, 62, 200, 1000])
def test_the_scale_rule_moves_no_bit_across_the_unscaled_band(k):
    # `_scaled` leaves s inside [2^-64, 2^64) as it is and brings any other s
    # into [1, 2): both give the bits of the kernels on s itself, so a rescaling
    # by 2^k that moves s over an edge of the band changes no value or margin
    rng = np.random.default_rng(9)
    for s in random_d_sigma(rng, 8.0, 100):
        t, (x, s1, s2) = 0.9 * t_a(s, 0.7), sorted(s)
        scaled = [math.ldexp(c, k) for c in (t, x, s1, s2)]
        assert np.array_equal(a_tilde(scaled[1:]), np.ldexp(a_tilde((x, s1, s2)), -k)), (s, k)
        assert t_a(scaled[1:], 0.7) == math.ldexp(t_a((x, s1, s2), 0.7), k), (s, k)
        for classify, args in ((classify_2param, (0, 3)), (classify_berger, (0, 3)), (classify_3param, (0, 1, 3))):
            margin = classify(*(scaled[i] for i in args)).margin
            assert margin == math.ldexp(classify(*((t, x, s1, s2)[i] for i in args)).margin, k), (s, k)
        margin = classify_aw_slice((*scaled[:2], scaled[3], scaled[3]), 0.7).margin
        assert margin == math.ldexp(classify_aw_slice((t, x, s2, s2), 0.7).margin, k), (s, k)


# Spreads 2^k of s = (1, 0.9, 2^-k) and (2^-k, 1, 1), seeded, with the edges of the band (64), of
# the float kernels' digits on s scaled into [1, 2) (518) and of the normal floats (1022)
BAND_SPREADS = sorted({*random.Random(46).sample(range(1075), 24), 63, 64, 65, 517, 518, 1022, 1074})


def spread_triples(k):
    return ((1.0, 0.9, 2.0 ** -k), (2.0 ** -k, 1.0, 1.0)) if k else ((1.0, 0.9, 1.0),)   # (1, 1, 1) is round


def exact_t_a(s, xi):
    return cone._t_a(*map(Fraction, s), Fraction(xi))


def ulps_off(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


class TestBandRule:
    """`_scaled` goes exact exactly where the scaled min(s) falls below the band; max(s) = 1 in
    the spreads, so there the scale is 1 and s takes the exact path from k = 65 on."""

    def test_the_scaled_minimum_at_the_lower_edge_stays_float(self):
        big = 2.0 ** 64
        at, below = (big, 0.9 * big, 1.0), (big, 0.9 * big, math.nextafter(1.0, 0.0))
        assert cone._scaled(list(at)) == ([1.0, 0.9, cone._BAND_LO], big)
        # the float value at the edge is not the exact one, and one ulp lower t_a gives the exact one
        assert t_a(at, 0.9) == big * t_a((1.0, 0.9, cone._BAND_LO), 0.9) == 7.2266666666666675
        assert float(exact_t_a(at, 0.9)) == 7.226666666666667
        assert big * cone._t_a(1.0, 0.9, below[2] / big, 0.9) == 7.226666666666665
        assert t_a(below, 0.9) == float(exact_t_a(below, 0.9)) == 7.226666666666666

    def test_a_normal_minimum_far_below_the_band_gets_its_value(self):
        for z, value in ((1e-200, 8e-200), (1e-300, 8e-300), (sys.float_info.min, 1.7800590868057611e-307)):
            assert t_a([1.0, 0.9, z], 1.0) == float(exact_t_a((1.0, 0.9, z), 1.0)) == value
        tiny = 2.0 ** -600
        rows = cone._t_a_rows([[1.0, 0.9, tiny]], 1.0).tolist()
        assert rows == [t_a((1.0, 0.9, tiny), 1.0)] == [1.9279358920823073e-180]
        verdict = classify_aw_slice((1e-3 * tiny, tiny, 1.0, 1.01), 0.7)
        assert verdict.classification is ConeClass.POSITIVELY_CURVED   # as the exact gap says

    @pytest.mark.parametrize("xi", [1.0, 0.7])
    def test_t_a_at_every_spread(self, xi):
        for k in BAND_SPREADS:
            for s in spread_triples(k):
                exact, value = exact_t_a(s, xi), t_a(s, xi)
                assert value != 0.0 and ulps_off(value, exact) <= 120, (s, xi)
                assert k <= 64 or value == float(exact), (s, xi)   # the exact path rounds once
            assert_rows_match(spread_triples(k), xi)

    def test_a_tilde_at_every_spread(self):
        for k in BAND_SPREADS:
            for s in spread_triples(k):
                outside = fraction_sigma(*s) <= 0
                with pytest.warns(RuntimeWarning, match="outside D_sigma") if outside else contextlib.nullcontext():
                    m = a_tilde(s)
                exact = mp_a_tilde(*map(Fraction, s))
                if k > 64:   # the exact path rounds once: +-inf where a value overflows
                    assert m.tolist() == [[cone._rounded(e) for e in row] for row in exact], s
                    continue
                s0, s1, s2 = s   # the float path: each entry within 8 eps of its terms' magnitudes
                size, prod = (s0 + s1 + s2) ** 2, s0 * s1 * s2
                b = [size / prod + (s0 + s1 + s2) / (s[j - 1] * s[(j + 1) % 3]) for j in range(3)]
                terms = [[4 / s0, b[2], b[1]], [b[2], 4 / s1, b[0]], [b[1], b[0], 4 / s2]]
                for i, j in np.ndindex(3, 3):
                    assert abs(Fraction(m[i, j]) - exact[i][j]) <= 8 * sys.float_info.epsilon * terms[i][j], (s, i, j)

    @pytest.mark.parametrize("xi", [1.0, 0.7])
    def test_slice_margin_at_every_spread(self, xi):
        for k in BAND_SPREADS:
            s, t = (2.0 ** -k, 1.0, 1.01), 2.0 ** -k
            boundary = exact_t_a(s, xi)
            exact, verdict = boundary - Fraction(t), classify_aw_slice((t, *s), xi)
            assert verdict.classification is (ConeClass.POSITIVELY_CURVED if exact > 0
                                              else ConeClass.HAS_NONPOSITIVE_PLANE), (k, xi)
            # t_a's bound, in ulps of t_A, holds the margin t_A - t, which is rounded once more
            assert abs(Fraction(verdict.margin) - exact) <= 120 * Fraction(math.ulp(float(boundary))), (k, xi)


class TestVVector:
    def test_xi_one_slice(self):
        x = 0.7
        v = v_vector((x, 1.0, 1.0), 1.0)
        np.testing.assert_allclose(
            v, [-2.0 / (x * math.sqrt(6)), 1.0 / math.sqrt(6), 1.0 / math.sqrt(6)],
            rtol=1e-15)

    def test_xi_one_half(self):
        v = v_vector((1.0, 1.0, 1.0), 0.5)
        root = math.sqrt(3.5)
        np.testing.assert_allclose(v, [-1.5 / root, 0.5 / root, 1.0 / root], rtol=1e-15)


class TestTA:
    def test_slice_closed_form(self):
        for x in (0.1, 0.5, 0.9, 1.5, 3.0):
            expected = x * (4.0 - x) / 3.0
            assert t_a((x, 1.0, 1.0), 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("xi", [1.0, 0.5, 0.25])
    def test_round_diagonal_is_zero(self, xi):
        assert t_a((1.0, 1.0, 1.0), xi) == 0.0
        assert t_a((2.5, 2.5, 2.5), xi) == 0.0

    def test_spread_of_exactly_the_round_tolerance_is_round(self):
        # max |s_i - mean| is exactly ROUND_DIAGONAL_RTOL * mean, both 2^-50 in floats; one ulp wider is not round
        s = (0.008881784197000364, 0.008881784197001252, 0.00888178419700214)
        assert t_a(s, 0.7) == t_a(list(s), 1.0) == 0.0
        assert t_a((*s[:2], math.nextafter(s[2], 1.0)), 0.7) > 0.0

    def test_cofactor_oracle(self):
        s = (0.9, 1.1, 1.3)
        a = a_tilde(s)
        v = v_vector(s, 2.0 / 3.0)
        oracle = (2.0 / 9.0) / (v @ cofactor_inverse(a) @ v)
        assert t_a(s, 2.0 / 3.0) == pytest.approx(oracle, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(s=triple, xi=st.floats(min_value=0.1, max_value=1.0))
    def test_scale_equivariance(self, s, xi):
        arr = np.asarray(s)
        if cone._sigma(*arr) <= 0.05 or np.max(np.abs(arr - arr.mean())) < 1e-3:
            return
        base = t_a(arr, xi)
        for lam in (0.5, 2.0, 10.0):
            assert t_a(lam * arr, xi) == pytest.approx(lam * base, rel=1e-12)

    @pytest.mark.parametrize("direction", [
        (0.0, 1.0, -0.7), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (1.0, -1.0, 0.0),
        (0.3, -0.5, 0.9), (-1.0, 0.2, 0.4)])
    @pytest.mark.parametrize("xi", [1.0, 0.6, 0.2])
    def test_rays_into_round_point(self, direction, xi):
        # spreads 1e-1 .. 1e-12, all above ROUND_DIAGONAL_RTOL = 1e-13
        for k in range(1, 13):
            s = tuple(2.5 * (1.0 + 10.0**-k * d) for d in direction)
            assert oracle_error(s, xi) <= 1e-13, (s, xi)

    def test_direction_dependent_limit(self):
        # the limit at the round point: 1 along the slice, 1.3288 along (0, 1, -0.7)
        # (the float inputs carry the direction to about 1e-7)
        h = 1e-9
        assert t_a((1.0 - h, 1.0, 1.0), 1.0) == pytest.approx(1.0, rel=1e-6)
        assert t_a((1.0, 1.0 + h, 1.0 - 0.7 * h), 1.0) == pytest.approx(1.3287827076, rel=1e-6)

    def test_near_round_slice_point(self):
        assert t_a((0.999999, 1.0, 1.0), 1.0) == pytest.approx(t_a_closed(0.999999, 1.0), rel=1e-13)
        assert t_a((0.999999, 1.0, 1.0), 1.0) == pytest.approx(0.9999993333, rel=1e-10)

    def test_pool_shaped_states(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            s = (rng.uniform(0.8, 1.0), *(1.0 + rng.uniform(-1e-3, 1e-3, 2)))
            xi = rng.uniform(0.5, 1.0)
            assert oracle_error(s, xi) <= 1e-13, (s, xi)

    @pytest.mark.parametrize("ratio, tol", [(4.0, 1e-13), (100.0, 1e-11)])
    def test_random_d_sigma_points(self, ratio, tol):
        rng = np.random.default_rng(int(ratio))
        for s in random_d_sigma(rng, ratio, 400):
            xi = rng.uniform(0.05, 1.0)
            assert oracle_error(s, xi) <= tol, (s, xi)

    @pytest.mark.parametrize("s", [
        (1e160, 1.2e160, 1.2e160), (1e-200, 1.0000001e-200, 1e-200),
        (1e308, 1.7e308, 1.2e308), (3e-310, 4e-310, 5e-310), *SPREAD])
    def test_extreme_scales(self, s):
        for xi in (1.0, 0.5, 0.1):
            assert oracle_error(s, xi) <= 1e-13, (s, xi)

    def test_power_of_two_rescaling_is_exact(self):
        # t_A has degree 1, and t_a evaluates it on s brought to a fixed
        # binade, so rescaling by 2^k changes no bit anywhere in the range
        rng = np.random.default_rng(3)
        for s in random_d_sigma(rng, 4.0, 50):
            xi = rng.uniform(0.05, 1.0)
            base = t_a(s, xi)
            for k in (-1000, -500, -60, 60, 500, 1000):
                assert t_a([math.ldexp(c, k) for c in s], xi) == math.ldexp(base, k), (s, xi, k)

    @pytest.mark.parametrize("s", NEAR_SIGMA_ZERO)
    def test_near_sigma_zero_edge(self, s):
        assert 0.0 < cone._sigma(*s) < 1e-2 * sum(s) ** 2
        for xi in (1.0, 0.5, 0.1):
            assert oracle_error(s, xi) <= 1e-13, (s, xi)


class TestTAListPath:
    """`t_a` on a list of three floats in [2^-64, 2^64), as the flow's events pass s,
    takes one type-and-band check in place of `_reals` and `_scaled`; the same values
    in any other form take those guards, and both give the same bits and errors."""

    LO, HI = 2.0 ** -64, 2.0 ** 64

    @staticmethod
    def _points():
        rng = random.Random(20261019)
        points = [[math.exp(rng.uniform(-2.3, 2.3)) for _ in range(3)] for _ in range(200)]
        points += [[1.0, 1.0 + 1e-14, 1.0 - 1e-14], [2.5, 2.5 * (1 + 4e-14), 2.5 * (1 - 4e-14)],   # round
                   [1.0, 1.0 + 1e-12, 1.0 - 1e-12]]   # just off the round diagonal
        points += [list(s) for s in NEAR_SIGMA_ZERO] + [[1.0, 1.0, 3.9], [3.9, 1.0, 1.0]]   # exact sigma
        lo, hi = TestTAListPath.LO, TestTAListPath.HI
        for edge in (lo, math.nextafter(lo, 0.0)):   # inside, then just outside the band
            points += [[edge, 1.1 * edge, 1.3 * edge], [0.9 * edge * 2 ** 40, edge, edge * 2 ** 41]]
        for edge in (math.nextafter(hi, 0.0), hi):
            points += [[0.8 * edge, 0.9 * edge, edge], [edge * 2.0 ** -41, edge, 0.7 * edge]]
        return points

    @pytest.mark.parametrize("xi", [1.0, 0.7, 0.13])
    def test_list_and_general_path_agree(self, monkeypatch, xi):
        guarded, scaled = [], cone._scaled
        monkeypatch.setattr(cone, "_scaled", lambda s: guarded.append(s) or scaled(s))
        covered = collections.Counter()
        for s in self._points():
            guarded.clear()
            value = t_a(s, xi)
            assert bool(guarded) == (not all(self.LO <= c < self.HI for c in s)), s
            covered["guards" if guarded else "list"] += 1
            if not guarded:
                s0, s1, s2 = s   # `_sigma` computes exactly where 16 sigma < (s0 + s1 + s2)^2
                plain_sigma = 2 * (s1 * s2 + s0 * s2 + s0 * s1) - s0 * s0 - s1 * s1 - s2 * s2
                covered["round"] += value == 0.0
                covered["exact sigma"] += 16 * plain_sigma < sum(s) ** 2
            for other in (tuple(s), np.array(s), [np.float64(c) for c in s]):
                assert t_a(other, xi).hex() == value.hex(), (s, xi)
        assert covered["guards"] == 4 and covered["round"] == 2 and covered["exact sigma"] >= 5, covered

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "1.0"])
    def test_list_gives_the_errors_of_the_tuple(self, bad):
        for s in ([0.9, 1.0, bad], [bad, 1.0, 1.1], [0.9, 1.0, 1.1, 1.2]):
            with pytest.raises(ValueError) as from_tuple:
                t_a(tuple(s), 0.7)
            with pytest.raises(ValueError) as from_list:
                t_a(s, 0.7)
            assert str(from_list.value) == str(from_tuple.value).replace(repr(tuple(s)), repr(s))


class TestTAClosed:
    def test_value(self):
        assert t_a_closed(0.9, 1.0) == pytest.approx(0.93, rel=1e-15)

    def test_scaling_identity(self):
        for x, s in ((0.5, 1.3), (2.0, 0.7), (1.4, 1.2)):
            assert t_a_closed(x / s, 1.0) == pytest.approx(t_a_closed(x, s) / s, rel=1e-13)

    def test_agrees_with_general_path(self):
        for s in (0.7, 1.0, 1.6):
            for u in (0.1, 0.35, 0.6, 0.85, 1.2, 2.0, 3.5):
                x = u * s
                if abs(x - s) < 1e-9 or x >= 4.0 * s:
                    continue
                assert t_a((x, s, s), 1.0) == pytest.approx(t_a_closed(x, s), rel=1e-12)

    def test_domain_error(self):
        grid = np.array([0.5, 0.6])
        for x, s in ((4.0, 1.0), (0.0, 1.0), (-0.1, 1.0), (0.5, math.inf), (math.inf, 1.0), (math.nan, 1.0),
                     (np.array([0.5, 4.0]), 1.0), (np.array([0.5, math.nan]), 1.0),
                     (np.array([-0.1, 0.5]), 1.0), (grid, np.array([1.0, math.inf])),
                     (grid, np.array([1.0, 0.1])), (0.5, np.array([1.0, math.nan]))):
            with pytest.raises(DomainError):
                t_a_closed(x, s)

    @pytest.mark.parametrize("x, s", [(1e300, 1e300), (1e-170, 1e-170), (1e-300, 1e10), (3e307, 1e308)])
    def test_extreme_scales_get_the_rounded_exact_value(self, x, s):
        # the float formula overflows to inf or underflows to 0 at the first two
        exact = Fraction(x) * (4 * Fraction(s) - Fraction(x)) / (3 * Fraction(s))
        assert t_a_closed(x, s) == float(exact)
        stack = t_a_closed(np.array([x, 0.5]), np.array([s, 1.0]))
        assert hexes(stack) == hexes([float(exact), t_a_closed(0.5, 1.0)])
        assert t_a_closed(Fraction(x), Fraction(s)) == exact

    def test_keeps_the_bits_of_the_float_formula(self):
        # inside the band [2^-64, 2^64) the float formula's bits are kept; outside it
        # (s = 1e-100, 3e150) the value is the exact one, rounded once
        rng = np.random.default_rng(5)
        xs = np.concatenate([np.array(_TA_GRID), rng.uniform(0.01, 3.99, 2000)])
        for s in (1.0, 1.2345):
            x = xs * s
            assert hexes(t_a_closed(x, s)) == hexes(x * (4.0 * s - x) / (3.0 * s))
        for s in (1e-100, 3e150):
            x = xs * s
            assert hexes(t_a_closed(x, s)) == hexes(
                [float(Fraction(a) * (4 * Fraction(s) - Fraction(a)) / (3 * Fraction(s))) for a in x.tolist()])
        # on the band's edges: s = 2^-64 lies inside it, x = 2^64 outside
        s, x = 2.0 ** -64, xs[xs >= 1.0] * 2.0 ** -64
        assert hexes(t_a_closed(x, s)) == hexes(x * (4.0 * s - x) / (3.0 * s))
        s, x = np.linspace(0.3, 0.9, 50) * 2.0 ** 64, 2.0 ** 64
        assert hexes(t_a_closed(x, s)) == hexes(
            [float(Fraction(x) * (4 * Fraction(b) - Fraction(x)) / (3 * Fraction(b))) for b in s.tolist()])

    def test_arrays_give_the_scalar_bits(self):
        xs = np.array(_TA_GRID)
        assert hexes(t_a_closed(xs, 1.0)) == hexes([t_a_closed(x, 1.0) for x in _TA_GRID])
        assert hexes(t_a_closed(0.2, xs[5:])) == hexes([t_a_closed(0.2, x) for x in _TA_GRID[5:]])


    @pytest.mark.parametrize("s", [3e307, 5e307, 1e308])
    def test_guards_raise_no_warning_where_4s_overflows(self, s):
        # above max/4 (the last two), 4s is inf, which still orders x < 4s and x != 4s right
        x, grid = 0.5 * s, np.array([0.5 * s, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = [t_a_closed(x, s), t_a_closed(grid, np.array([s, 1.0]))]
            inverse = [a_tilde_inverse_slice(x, s), a_tilde_inverse_slice(grid, np.array([s, 1.0]))]
            with pytest.raises(DomainError, match="closed form not certified"):
                t_a_closed(np.array([x, 4.0]), np.array([s, 1.0]))
        assert closed[0] == float(Fraction(x) * (4 * Fraction(s) - Fraction(x)) / (3 * Fraction(s)))
        assert hexes(closed[1]) == hexes([closed[0], t_a_closed(0.5, 1.0)])
        assert hexes(inverse[1]) == hexes([inverse[0], a_tilde_inverse_slice(0.5, 1.0)])


class TestInverseSlice:
    def test_product_identity_on_grid(self):
        # both sides of x = s, staying 0.05 away from x = s and x = 4s
        s = 1.0
        xs = np.concatenate([np.arange(0.2, 0.951, 0.05), np.arange(1.05, 3.951, 0.05)])
        for x in xs:
            prod = a_tilde((float(x), s, s)) @ a_tilde_inverse_slice(float(x), s)
            np.testing.assert_allclose(prod, np.eye(3), atol=1e-10)

    def test_matches_displayed_vector(self):
        x = 0.6
        inv_v = a_tilde_inverse_slice(x, 1.0) @ v_vector((x, 1.0, 1.0), 1.0)
        pref = 1.0 / (math.sqrt(6) * (1.0 - x) * (4.0 - x))
        np.testing.assert_allclose(inv_v, pref * np.array([x - 2.0, -1.0, -1.0]), rtol=1e-12)

    def test_entry_value(self):
        # prefactor at (0.5, 1) is 8/7, top-left entry s^3 x * 8/7 = 4/7
        assert a_tilde_inverse_slice(0.5, 1.0)[0, 0] == pytest.approx(4.0 / 7.0, rel=1e-15)

    def test_domain_errors(self):
        for x, s in ((1.0, 1.0), (4.0, 1.0), (0.25, 0.0625), (0.0, 1.0), (0.5, math.inf), (math.nan, 1.0),
                     (np.array([0.5, 1.0]), 1.0),
                     (np.array([0.5, math.nan]), 1.0), (0.5, np.array([1.0, -1.0]))):
            with pytest.raises(DomainError):
                a_tilde_inverse_slice(x, s)

    @pytest.mark.parametrize("x, s", [(1.0, 1e200), (1e-170, 2e-170), (1e100, 3e100), (3.0, 1.0)])
    def test_extreme_scales_get_the_rounded_exact_inverse(self, x, s):
        # (1, 1e200) overflows in a float **, (1e-170, 2e-170) underflows to a
        # vanishing prefactor and (1e100, 3e100) to inf / inf; at x = 3s an entry is 0
        exact = a_tilde_inverse_slice(Fraction(x), Fraction(s))
        sig = cone._sigma(Fraction(x), Fraction(s), Fraction(s))
        assert (np.array(cone._a_tilde(Fraction(x), Fraction(s), Fraction(s), sig)) @ exact == np.eye(3)).all()
        assert hexes(a_tilde_inverse_slice(x, s)) == hexes([float(e) for e in exact.ravel()])
        stack = a_tilde_inverse_slice(np.array([x, 0.5]), np.array([s, 1.0]))
        assert hexes(stack) == hexes([a_tilde_inverse_slice(x, s), a_tilde_inverse_slice(0.5, 1.0)])

    def test_keeps_the_bits_of_the_float_formula(self):
        # the formula as written in floats, kept inside the band [2^-64, 2^64); outside
        # it (s = 1e-50, 1e60) the same formula in Fraction, each entry rounded once
        def float_inverse(x, s):
            s3, x3 = s * s * s, x * x * x
            denom = (s - x) * (s - x) * (4.0 * s - x)
            diag0, off0 = s3 * x, s * s * x * (3.0 * s - x) / 2.0
            diag = s * (16.0 * s3 - 9.0 * s * s * x + 6.0 * s * x * x - x3) / 12.0
            off = s * (8.0 * s3 + 9.0 * s * s * x - 6.0 * s * x * x + x3) / 12.0
            return np.array([[diag0, off0, off0], [off0, diag, off], [off0, off, diag]]) / denom

        def exact_inverse(x, s):
            x, s = Fraction(x), Fraction(s)
            denom = (s - x) ** 2 * (4 * s - x)
            diag0, off0 = s ** 3 * x, s * s * x * (3 * s - x) / 2
            diag = s * (16 * s ** 3 - 9 * s * s * x + 6 * s * x * x - x ** 3) / 12
            off = s * (8 * s ** 3 + 9 * s * s * x - 6 * s * x * x + x ** 3) / 12
            return [float(e / denom) for e in (diag0, off0, off0, off0, diag, off, off0, off, diag)]

        rng = np.random.default_rng(6)
        xs = np.concatenate([np.array(_TA_GRID), rng.uniform(0.01, 3.99, 500)])
        for s, inverse in ((1.0, float_inverse), (1.2345, float_inverse),
                           (1e-50, exact_inverse), (1e60, exact_inverse)):
            points = [(x * s, s) for x in xs.tolist() if x != 1.0]
            assert hexes(a_tilde_inverse_slice(np.array([x for x, _ in points]), s)) == hexes(
                [inverse(x, s) for x, s in points])

    def test_arrays_give_the_scalar_bits(self):
        # NumPy's array ** differs from Python's in the last bit on some
        # hosts (x**3 at 25 of the 399 points k/100 on one AVX-512 machine)
        rng = np.random.default_rng(9)
        xs = np.concatenate([np.array(_TA_GRID), rng.uniform(0.01, 3.99, 2000)])
        for x, s in ((xs, 1.0), (xs, 1.2345), (0.6123, xs + 0.1), (xs, xs * 1.3 + 0.01)):
            stack = a_tilde_inverse_slice(x, s)
            scalar = [a_tilde_inverse_slice(a, b) for a, b in np.broadcast(x, s)]
            assert stack.shape == (len(scalar), 3, 3) and stack.flags.c_contiguous
            assert hexes(stack) == hexes(scalar)


def hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


def assert_rows_match(stack, xi):
    """Each row-wise kernel against its scalar function on every row, bit for bit."""
    rows = np.asarray(stack, dtype=float).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # A~ outside D_sigma
        assert hexes(cone._t_a_rows(stack, xi)) == hexes([t_a(s, xi) for s in rows])
        assert hexes(cone._a_tilde_rows(stack)) == hexes([a_tilde(s) for s in rows])


class TestRowwise:
    """The row-wise kernels give each row the bits of the scalar call, on the
    rows they evaluate as arrays and on those they hand to the scalar path."""

    @pytest.mark.parametrize("xi", [1.0, 0.7, 0.3])
    def test_ta_grid(self, xi):
        assert_rows_match([(x, 1.0, 1.0) for x in _TA_GRID], xi)

    def test_seeded_omega_sigma(self):
        rng = np.random.default_rng(14)
        stack = np.exp(rng.uniform(math.log(0.3), math.log(3.0), (27000, 3)))
        stack = stack[[cone._sigma(*s) > 0.0 for s in stack.tolist()]]
        assert len(stack) >= 20000
        for xi, part in zip((0.3, 0.7, 1.0), np.array_split(stack, 3)):
            assert_rows_match(part, xi)

    def test_near_cancellation(self):
        # sigma's terms cancel to 1e-17 .. 1e-1 relative: its exact branch, on both sides of sigma = 0
        rng = np.random.default_rng(15)
        stack = np.array(near_cancellation_triples(rng, 2000)) * np.exp(rng.uniform(-5.0, 5.0, (2000, 1)))
        for xi in (1.0, 0.4):
            assert_rows_match(stack, xi)

    def test_both_sides_of_the_round_diagonal(self):
        rtol = cone.ROUND_DIAGONAL_RTOL
        stack = [(c * (1.0 + k * rtol / 8 * d0), c * (1.0 + k * rtol / 8 * d1), c)
                 for c in (1.0, 1.9999, 3.7e-5) for k in range(0, 40) for d0, d1 in ((1.0, -1.0), (0.3, 0.8))]
        round_rows = [cone._is_round(*s) for s in stack]
        assert any(round_rows) and not all(round_rows)
        for xi in (1.0, 0.6):
            assert_rows_match(stack, xi)

    def test_exact_fraction_scale(self):
        # max/min >= 2^1022: the scalar path computes in Fraction
        rng = np.random.default_rng(16)
        stack = [*SPREAD, *((1e-160 * a, 1e160 * b, 1e160 * c)
                            for a, b, c in rng.uniform(0.5, 2.0, (20, 3)).tolist())]
        assert_rows_match(stack, 0.8)

    @pytest.mark.parametrize("edge, inside", [
        (cone._BAND_LO, True), (math.nextafter(cone._BAND_LO, 0.0), False),
        (math.nextafter(cone._BAND_HI, 0.0), True), (cone._BAND_HI, False)],
        ids=["lower bound", "below the lower bound", "below the upper bound", "upper bound"])
    def test_band_edges(self, monkeypatch, edge, inside):
        # the smallest component at a lower edge and the largest at an upper one, in every position: one
        # pair of constants sends the rows inside the band to the array path and the rest to `t_a`
        factors = (1.0, 1.1, 1.25) if edge < 1.0 else (1.0, 1 / 1.1, 1 / 1.25)
        stack = [[edge * f for f in order] for order in permutations(factors)]
        for xi in (1.0, 0.7):
            assert_rows_match(stack, xi)
        calls = []
        monkeypatch.setattr(cone, "t_a", lambda s, xi: calls.append(s) or t_a(s, xi))
        cone._t_a_rows(stack, 0.7)
        assert len(calls) == (0 if inside else len(stack))

    def test_a_float_array_takes_the_smallest_subnormal(self):
        # the array path of the stack guard accepts every positive float; the band rule makes such a row exact
        stack = np.array([[5e-324, 1.0, 1.0], [1.0, 0.9, 5e-324], [1.0, 0.9, 1.1]])
        for xi in (1.0, 0.7):
            assert_rows_match(stack, xi)
        assert cone._t_a_rows(stack, 1.0)[1] == float(exact_t_a((1.0, 0.9, 5e-324), 1.0))

    @pytest.mark.parametrize("stack", [
        [1.0, 1.0, 1.0], [[1.0, 1.0]], [[[1.0], [1.0], [1.0]]], [[1.0, 1.0, 1.0], [1.0, 1.0]],
        [["a", "b", "c"]], [[1.0, 0.0, 1.0]], [[1.0, -1.0, 1.0]], [[1.0, math.nan, 1.0]],
        [[1.0, 1.0, math.inf]]])
    def test_malformed_stacks(self, stack):
        for rows in (lambda s: cone._t_a_rows(s, 0.5), cone._a_tilde_rows):
            with pytest.raises(ValueError):
                rows(stack)


def test_t_a_stays_within_its_ulp_bound():
    # t_a is not correctly rounded; a reordering of `_t_a` that loses digits
    # moves these distances to the exact Fraction value
    rng = np.random.default_rng(28)
    points = []
    while len(points) < 1500:
        s = tuple(rng.uniform(0.3, 3.0, 3).tolist())
        if cone._sigma(*s) > 0.0:
            points.append((s, float(rng.uniform(0.05, 1.0))))
    points += [((float(rng.uniform(0.8, 1.0)), *(1.0 + rng.uniform(-1e-3, 1e-3, 2)).tolist()),
                float(rng.uniform(0.5, 1.0))) for _ in range(200)]
    distances = []
    for s, xi in points:
        exact = cone._t_a(*(Fraction(c) for c in s), Fraction(xi))
        distances.append(float(abs(Fraction(t_a(s, xi)) - exact) / Fraction(math.ulp(float(exact)))))
    assert np.median(distances) <= 2.0 and max(distances) <= 32.0


class TestClassifiers:
    def test_two_param(self):
        v = classify_2param(0.9, 1.0)
        assert v.classification is ConeClass.POSITIVELY_CURVED
        assert v.margin == pytest.approx(0.1)
        assert classify_2param(1.0, 1.0).classification is ConeClass.HAS_NONPOSITIVE_PLANE
        assert classify_2param(1.0, 1.0).margin == 0.0
        assert classify_2param(2.0, 1.0).classification is ConeClass.HAS_NONPOSITIVE_PLANE

    def test_three_param(self):
        v = classify_3param(0.9, 0.9, 1.0)
        assert v.classification is ConeClass.POSITIVELY_CURVED
        assert v.margin == pytest.approx(0.03)
        assert classify_3param(0.93, 0.9, 1.0).classification is ConeClass.HAS_NONPOSITIVE_PLANE
        assert classify_3param(0.5, 1.2, 1.0).classification is ConeClass.UNKNOWN
        assert classify_3param(0.5, 1.2, 1.0).margin == 0.0

    @settings(max_examples=50, deadline=None)
    @given(t=coefficient, x=coefficient, s=coefficient, k=st.integers(min_value=-4, max_value=4))
    @example(t=1.0, x=0.1, s=0.10000000000000002, k=3)
    def test_three_param_scale_invariance(self, t, x, s, k):
        # scaling by a power of two commutes with every rounding: the verdict is equal
        # and the margin, in units of t, scales by exactly lam
        lam = 2.0 ** k
        base = classify_3param(t, x, s)
        scaled = classify_3param(lam * t, lam * x, lam * s)
        assert scaled == ConeVerdict(base.classification, lam * base.margin)

    @settings(max_examples=50, deadline=None)
    @given(t=coefficient, x=coefficient, s=coefficient, lam=st.floats(min_value=0.1, max_value=10.0))
    def test_three_param_scale_invariance_general_scale(self, t, x, s, lam):
        # lam * x and lam * s round on their own and move x/s by a few ulps, so
        # an input at the window edge x = s (x/s = 1 - eps certified, x = s
        # Unknown) or on the boundary t = t_A may change sides; no other may
        base = classify_3param(t, x, s)
        assume(abs(x / s - 1.0) > 4 * sys.float_info.epsilon)
        assume(base.classification is ConeClass.UNKNOWN or abs(base.margin) > 1e-12 * t / s)
        assert classify_3param(lam * t, lam * x, lam * s).classification is base.classification

    def test_window_edge_and_slice_spread(self):
        # on the window's edge (aw3: x = s; aw4: s0 = (s1 + s2)/2) the verdict is Unknown, margin 0
        assert classify_3param(0.5, 1.0, 1.0) == ConeVerdict(ConeClass.UNKNOWN, 0.0)
        assert classify_aw_slice((0.5, 1.0, 1.0, 1.0), 0.7) == ConeVerdict(ConeClass.UNKNOWN, 0.0)
        # |s1 - s2| = SLICE_RTOL * mean exactly is still certified; the spread is relative at every scale
        assert abs(0.625 - 0.657051282051282) == cone.SLICE_RTOL * (0.5 * 0.625 + 0.5 * 0.657051282051282)
        assert classify_aw_slice((0.3, 0.5, 0.625, 0.657051282051282), 0.7).classification is not ConeClass.UNKNOWN
        # with s1 > s2 too: 0.0512 < SLICE_RTOL * 1.02565 < 0.0513
        assert classify_aw_slice((0.5, 0.5, 1.0512, 1.0), 0.7).classification is not ConeClass.UNKNOWN
        assert classify_aw_slice((0.5, 0.5, 1.0513, 1.0), 0.7) == ConeVerdict(ConeClass.UNKNOWN, 0.0)
        base = classify_aw_slice((0.9, 0.9, 1.0, 1.04), 0.7)
        assert base.classification is not ConeClass.UNKNOWN
        for k in (-20, 20):
            scaled = classify_aw_slice([math.ldexp(c, k) for c in (0.9, 0.9, 1.0, 1.04)], 0.7)
            assert scaled == ConeVerdict(base.classification, math.ldexp(base.margin, k))

    @pytest.mark.parametrize("u", [0.1, 0.4, 0.7, 0.95])
    def test_two_vs_three_param_consistency(self, u):
        # for t/s in (0, 1) both classifiers certify positive curvature
        t, s = u * 1.3, 1.3
        assert classify_2param(t, s).classification is ConeClass.POSITIVELY_CURVED
        assert classify_3param(t, t, s).classification is ConeClass.POSITIVELY_CURVED

    @pytest.mark.parametrize("classify, state", [
        (classify_3param, (1e300, 0.9e300, 1e300)),          # the unscaled gap overflows to inf
        (classify_3param, (0.92e-170, 0.9e-170, 1e-170)),    # ... and underflows to -t
        (classify_3param, (1.7e308, 3.0, 1.7e308)),          # max/min >= 2^1022: exact
        (classify_2param, (5e-324, 1e308)), (classify_berger, (1e308, 1e308)),
        (classify_berger, (1.0, 1e-300))])
    def test_margin_is_the_gap_at_any_scale(self, classify, state):
        # the margin is the gap in the units of the state, also where the
        # gap's float value over- or underflows on the state itself
        q = [Fraction(c) for c in state]
        gap = {classify_3param: lambda t, x, s: x * (4 * s - x) / (3 * s) - t,
               classify_2param: lambda t, s: s - t, classify_berger: lambda x1, x2: 2 * x2 - x1}[classify]
        exact, verdict = gap(*q), classify(*state)
        positive = verdict.classification is ConeClass.POSITIVELY_CURVED
        assert positive == (exact > 0) and verdict.classification is not ConeClass.UNKNOWN
        assert verdict.margin == pytest.approx(float(exact), rel=1e-15)

    def test_berger(self):
        assert classify_berger(1.9, 1.0).classification is ConeClass.POSITIVELY_CURVED
        boundary = classify_berger(2.0, 1.0)
        assert boundary.classification is ConeClass.HAS_NONPOSITIVE_PLANE
        assert boundary.margin == 0.0
        assert classify_berger(4.0, 1.0).classification is ConeClass.HAS_NONPOSITIVE_PLANE

    def test_zero_coefficient_is_rejected(self):
        # t = 0 is outside the domain, not a metric on the positive side;
        # neither is an infinite or NaN coefficient
        for classify, args in ((classify_2param, (0.0, 1.0)), (classify_2param, (1.0, math.inf)),
                               (classify_3param, (0.0, 0.9, 1.0)), (classify_3param, (math.nan, 0.9, 1.0)),
                               (classify_3param, (0.9, 0.9, math.inf)), (classify_berger, (math.inf, 1.0)),
                               (classify_berger, (1.0, math.nan)),
                               (classify_aw_slice, ((math.nan, 0.9, 1.0, 1.0), 0.9)),
                               (classify_aw_slice, ((0.9, 0.9, math.inf, 1.0), 0.9)),
                               # an invalid xi, also where the state is off the certified slice
                               (classify_aw_slice, ((1.0, 1.0, 1.0, 1.0), 5.0)),
                               (classify_aw_slice, ((1.0, 1.0, 1.0, 1.0), math.nan)),
                               (classify_aw_slice, ((1.0, 0.5, 1.0, 2.0), -1.0))):
            with pytest.raises(ValueError):
                classify(*args)

    def test_verdict_invariants(self):
        with pytest.raises(ValueError):
            ConeVerdict(ConeClass.POSITIVELY_CURVED, -0.5)
        with pytest.raises(ValueError):
            ConeVerdict(ConeClass.HAS_NONPOSITIVE_PLANE, 0.5)
        with pytest.raises(ValueError):
            ConeVerdict(ConeClass.UNKNOWN, 1.0)

    def test_near_slice_classifier(self):
        on = classify_aw_slice((0.9, 0.9, 1.0, 1.0), 1.0)
        assert on.classification is classify_3param(0.9, 0.9, 1.0).classification
        near = classify_aw_slice((0.9, 0.9, 1.001, 0.999), 0.9)
        assert near.classification is ConeClass.POSITIVELY_CURVED
        off = classify_aw_slice((0.9, 0.9, 1.2, 0.8), 0.9)
        assert off.classification is ConeClass.UNKNOWN
        wide = classify_aw_slice((0.2, 1.5, 1.0, 1.0), 1.0)
        assert wide.classification is ConeClass.UNKNOWN


class TestNormalizedRegion:
    def test_examples(self):
        assert normalized_region(1.0, 1.2) == "G"
        assert normalized_region(1.0, 1.0) == "P"  # tie 4 - 1 = 3 goes to P
        assert normalized_region(1.3, 1.0) == "W"

    def test_domain(self):
        for x, s in ((0.0, 1.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                normalized_region(x, s)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(min_value=0.1, max_value=3.0),
           s=st.floats(min_value=0.1, max_value=3.0))
    def test_partition(self, x, s):
        region = normalized_region(x, s)
        q = 4.0 * x**3 * s**4 - x**4 * s**3
        expected = "P" if 3.0 >= q else ("G" if x < s else "W")
        assert region == expected

    @pytest.mark.parametrize("x, s, region", [(1e100, 1e100, "W"), (1e-200, 1e100, "P"), (1e-200, 1e300, "G"),
                                              (1e77, 1e76, "P")])
    def test_overflow_is_decided_on_the_exact_value(self, x, s, region):
        # float ** raises on the first three; on the last both terms overflow to
        # inf and the float difference is nan.  A sign-only rule would call
        # (1e-200, 1e100) G: there 4 x^3 s^4 - x^4 s^3 = 4e-200 <= 3
        exact = 4 * Fraction(x) ** 3 * Fraction(s) ** 4 - Fraction(x) ** 4 * Fraction(s) ** 3
        assert region == ("P" if exact <= 3 else "G" if x < s else "W")
        assert normalized_region(x, s) == region


# Every function that takes a coefficient tuple, called on `values`, with a
# valid input of integers; the last field marks the functions that take the
# tuple as one argument (the others take its items as separate arguments).
GUARDED = {
    "t_a": (lambda v: t_a(v, 0.7), (3, 4, 5), True),
    "classify_2param": (lambda v: classify_2param(*v), (3, 4), False),
    "classify_3param": (lambda v: classify_3param(*v), (2, 3, 4), False),
    "classify_berger": (lambda v: classify_berger(*v), (3, 2), False),
    "classify_aw_slice": (lambda v: classify_aw_slice(v, 0.7), (2, 3, 4, 4), True),
    "normalized_region": (lambda v: normalized_region(*v), (1, 2), False),
}


class TestInputGuard:
    """One guard, `cone._reals`, decides what a valid coefficient tuple is."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, "1", b"1", None,
                                     np.ones(1), np.float64(math.nan), 10**400],
                             ids=["nan", "inf", "-inf", "int0", "zero", "negative", "str", "bytes", "none",
                                  "array", "numpy-nan", "huge-int"])
    @pytest.mark.parametrize("name", GUARDED)
    def test_rejects_a_bad_coefficient(self, name, bad):
        call, valid, _ = GUARDED[name]
        for i in range(len(valid)):
            values = list(valid)
            values[i] = bad
            with pytest.raises(ValueError):
                call(tuple(values))

    @pytest.mark.parametrize("form", ["str", "bytes", "column", "row", "short", "long"])
    @pytest.mark.parametrize("name", [name for name, (_, _, whole) in GUARDED.items() if whole])
    def test_rejects_a_malformed_tuple(self, name, form):
        call, valid, _ = GUARDED[name]
        n = len(valid)
        bad = {"str": "1" * n, "bytes": b"1" * n, "column": np.ones((n, 1)), "row": np.ones((1, n)),
               "short": valid[:-1], "long": (*valid, 1)}[form]
        with pytest.raises(ValueError, match="of reals"):
            call(bad)

    @pytest.mark.parametrize("form", [int, Fraction, np.float64, np.int64, np.float32])
    @pytest.mark.parametrize("name", GUARDED)
    def test_any_real_gives_the_bits_of_the_float(self, name, form):
        # a verdict's repr holds its margin's: a numpy scalar margin reads np.float64(...)
        call, valid, whole = GUARDED[name]
        expected = repr(call(tuple(float(c) for c in valid)))
        assert repr(call(tuple(form(c) for c in valid))) == expected
        if whole:
            assert repr(call(np.array(valid, dtype=float))) == expected
            assert repr(call([float(c) for c in valid])) == expected
