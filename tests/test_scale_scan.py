"""A seeded scan of the closed forms in `cone` and the ratio derivatives across the float range.

Each form decides float or exact on one input band, [2^-64, 2^64) for x and s: inside it
the value has the bits of the float formula, and outside it the value is the exact value at
the float inputs, rounded once (`normalized_region` decides on the exact quartic there).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ricciflow import a_tilde_inverse_slice, normalized_region, t_a_closed
from ricciflow.derivatives import (
    berger_ratio_derivative,
    d_polynomial,
    f1_prime0,
    f_xi_prime0,
    k_polynomial,
    two_param_ratio_derivative,
)

LO, HI = 2.0 ** -64, 2.0 ** 64


def in_band(x, s):
    return LO <= x < HI and LO <= s < HI


# Each form is written once with integer literals and its powers as products: the float
# formula on floats, the exact value on Fractions.
def _t_a(x, s):
    return x * (4 * s - x) / (3 * s)


def _inverse(x, s):
    s3, x3 = s * s * s, x * x * x
    denom = (s - x) * (s - x) * (4 * s - x)
    diag0, off0 = s3 * x, s * s * x * (3 * s - x) / 2
    diag = s * (16 * s3 - 9 * s * s * x + 6 * s * x * x - x3) / 12
    off = s * (8 * s3 + 9 * s * s * x - 6 * s * x * x + x3) / 12
    return [e / denom for e in (diag0, off0, off0, off0, diag, off, off0, off, diag)]


def _two_param(t, s):
    return (-4 * s * s - 5 * t * t + 12 * t * s) / (s * s * s)


def _berger(x1, x2):
    return (-9 * x1 * x1 - 32 * x2 * x2 + 40 * x1 * x2) / (4 * x2 * x2 * x2)


FORMS = {
    "t_a_closed": (t_a_closed, _t_a),
    "a_tilde_inverse_slice": (lambda x, s: a_tilde_inverse_slice(x, s).ravel().tolist(), _inverse),
    "two_param_ratio_derivative": (two_param_ratio_derivative, _two_param),
    "berger_ratio_derivative": (berger_ratio_derivative, _berger),
}

# out-of-band points where the float formula has a normal value but an intermediate
# underflows, so that it is off the exact value by a relative 0.75 (t_a_closed),
# 3e-4 (the inverse) and 1.25e-6 (both ratio derivatives)
PINNED = {
    "t_a_closed": [(9.16489027399253e-163, 1e-162)],
    "a_tilde_inverse_slice": [(3.25e-80, 1e-80)],
    "two_param_ratio_derivative": [(1e-106, 1e-106)],
    "berger_ratio_derivative": [(1e-106, 1e-106)],
}


def _rounded(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def expected(form, x, s):
    """form's float value inside the band, its exact value rounded once outside it."""
    if in_band(x, s):
        return form(x, s)
    exact = form(Fraction(x), Fraction(s))
    return [_rounded(e) for e in exact] if isinstance(exact, list) else _rounded(exact)


def hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


def draws(n, seed):
    """Log-uniform s in [1e-320, 1e307.5] with x = u s, u uniform in (0.01, 3.99):
    the points of the domain x != s, x < 4s shared by every form."""
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(-320.0, 307.5, n)
    x = s * rng.uniform(0.01, 3.99, n)
    return [(a, b) for a, b in zip(x.tolist(), s.tolist()) if a != b and a < 4 * b]


@pytest.mark.parametrize("name", FORMS)
def test_scan_off_the_band_gives_the_rounded_exact_value(name):
    function, form = FORMS[name]
    points = PINNED[name] + draws(120, 11)
    assert sum(not in_band(x, s) for x, s in points) > 100
    for x, s in points:
        assert hexes(function(x, s)) == hexes(expected(form, x, s)), (x, s)


@pytest.mark.parametrize("name", FORMS)
def test_band_edges(name):
    # 2^-64 and nextafter(2^64, 0) lie in the band, nextafter(2^-64, 0) and 2^64 do not;
    # on each side some draw tells the float formula from the rounded exact value
    function, form = FORMS[name]
    told = set()
    for v in np.random.default_rng(12).uniform(1.05, 3.95, 40).tolist():
        for x, s, inside in ((LO, LO * v, True), (math.nextafter(LO, 0.0), LO * v, False),
                             (HI / v, math.nextafter(HI, 0.0), True), (HI / v, HI, False)):
            assert in_band(x, s) is inside
            value = hexes(function(x, s))
            assert value == hexes(expected(form, x, s)), (x, s)
            exact = hexes([_rounded(e) for e in np.ravel(form(Fraction(x), Fraction(s)))])
            if hexes(form(x, s)) != exact:
                told.add(inside)
    assert told == {True, False}


def band_draws(n, seed):
    """s uniform in [0.3, 3] with x = u s as in `draws`: every point inside the band."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.3, 3.0, n)
    x = s * rng.uniform(0.01, 3.99, n)
    return [(a, b) for a, b in zip(x.tolist(), s.tolist()) if a != b]


def unit_draws(n, seed):
    """(xi, x) uniform in [0.5, 1) x (0, 1), the domain of the boundary derivatives."""
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(0.5, 1.0, n).tolist(), rng.uniform(1e-3, 1.0 - 1e-3, n).tolist()))


# every public closed form that takes arrays, as a form of two arguments, with its batches of points
ARRAY_FORMS = {
    **{name: (function, [band_draws(2000, 14), draws(200, 15)]) for name, (function, _) in FORMS.items()},
    "f1_prime0": (lambda _xi, x: f1_prime0(x), [unit_draws(2000, 16)]),
    "f_xi_prime0": (lambda _xi, x: f_xi_prime0(0.7, x), [unit_draws(2000, 17)]),
    "k_polynomial": (k_polynomial, [unit_draws(2000, 18)]),
    "d_polynomial": (lambda _xi, x: d_polynomial(8.0 * x - 7.0), [unit_draws(2000, 19)]),
}


@pytest.mark.parametrize("name", ARRAY_FORMS)
def test_arrays_have_the_bits_of_scalar_calls(name):
    # each point of an array call has the bits of its scalar call, inside the band and,
    # for the (x, s) forms, on draws across the float range, which an array takes point by point
    function, batches = ARRAY_FORMS[name]
    for points in batches:
        a, b = (np.array(c) for c in zip(*points))
        assert hexes(function(a, b)) == hexes([function(x, y) for x, y in points])


def test_normalized_region_scan():
    # near the curve x^3 s^4 = c, where q = 4c - c x / s crosses 3 at c = 3/4 as x / s -> 0,
    # and at independent log-uniform scales; the band edges on both sides
    rng = np.random.default_rng(13)
    lx = rng.uniform(-320.0, 308.0, 150)
    near = 10.0 ** ((np.log10(rng.uniform(0.5, 1.0, 150)) - 3.0 * lx) / 4.0)
    free = 10.0 ** rng.uniform(-320.0, 308.0, (150, 2))
    edges = [(LO, 1.5), (math.nextafter(LO, 0.0), 1.5), (1.5, math.nextafter(HI, 0.0)), (1.5, HI)]
    points = list(zip((10.0 ** lx).tolist(), near.tolist())) + [tuple(p) for p in free.tolist()] + edges
    assert sum(not in_band(x, s) for x, s in points) > 200
    for x, s in points:
        q = 4 * x**3 * s**4 - x**4 * s**3 if in_band(x, s) else (
            4 * Fraction(x) ** 3 * Fraction(s) ** 4 - Fraction(x) ** 4 * Fraction(s) ** 3)
        assert normalized_region(x, s) == ("P" if 3 >= q else "G" if x < s else "W"), (x, s)
