"""The flow kernels on Python floats against the same formulas on numpy scalars.

The right-hand sides and event functions evaluate on the state's components
as Python floats.  These tests hold them to the bits the same formulas give
on numpy float64 scalars, for every input type the kernels accept, and check
that states where float arithmetic raises or overflows still get numpy's inf or nan.
"""

import math
import statistics
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ricciflow import cone, derivatives, flow

RNG_SEED = 20240611
N_STATES = 400
XIS = (1.0, 0.7, 0.31)

RHS = {
    "aw4": (flow.aw_rhs, 4),
    "aw3": (flow.aw3_rhs, 3),
    "aw2": (flow.aw2_rhs, 2),
    "berger": (flow.berger_rhs, 2),
    "normalized": (flow.normalized_rhs, 2),
}

# The event formulas as written before they moved to Python floats: on an
# ndarray state they index numpy float64 scalars.
EVENTS = {
    "aw2": (lambda: flow.boundary_event("aw2"), lambda y: y[1] - y[0], 2),
    "aw3": (lambda: flow.boundary_event("aw3"),
            lambda y: y[1] * (4.0 * y[2] - y[1]) / (3.0 * y[2]) - y[0], 3),
    "berger": (lambda: flow.boundary_event("berger"), lambda y: 2.0 * y[1] - y[0], 2),
    "aw4": (lambda: flow.boundary_event("aw4", 0.7),
            lambda y: cone.t_a(y[1:], 0.7) - y[0], 4),
    "window3": (lambda: flow.window_event("aw3"), lambda y: y[2] - y[1], 3),
    "window4": (lambda: flow.window_event("aw4"), lambda y: 0.5 * (y[2] + y[3]) - y[1], 4),
}

# States where float `**` overflows or `/` divides by zero, per system.
RAISING_STATES = {
    "aw4": [(1.0, 1e-200, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (0.5, 1.0, 1.0, 0.0)],
    "aw3": [(1.0, 1e-200, 1.0), (1.0, 0.0, 1.0), (1.0, 1e120, 1.0)],
    "aw2": [(0.0, 1.0), (1.0, 1e-170), (1e-200, 1e-200)],
    "berger": [(1e200, 1e-200), (0.0, 1.0), (1.0, 0.0)],
    "normalized": [(1e-120, 1.0), (0.0, 1.0)],
}
# States where float products overflow to inf or nan without raising: the normalized kernel
# forms its powers by products, not `**`.
OVERFLOWING_STATES = {"normalized": [(1e70, 1.0), (1.0, 1e100)]}
RAISING_EVENT_STATES = {"aw3": [(1.0, 0.5, 0.0), (0.0, 0.0, 0.0)]}


def random_states(dim, n=N_STATES, seed=RNG_SEED):
    """Log-uniform positive states over six decades, plus near-degenerate ones."""
    rng = np.random.default_rng(seed + dim)
    states = np.exp(rng.uniform(-7.0, 7.0, size=(n, dim)))
    states[: n // 4] = states[: n // 4, :1] * (1.0 + rng.uniform(-1e-6, 1e-6, size=(n // 4, dim)))
    return states


def input_forms(y):
    """ndarray, array view, list and tuple forms of one state."""
    padded = np.concatenate([[7.0], y])
    return {"ndarray": y.copy(), "view": padded[1:], "list": y.tolist(), "tuple": tuple(y.tolist())}


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def rhs_args(kind, xi):
    return (xi,) if kind == "aw4" else ()


def numpy_rhs(kind, y, xi):
    """The right-hand side's formula on numpy float64 scalars."""
    rhs, _ = RHS[kind]
    return rhs.__wrapped__(*np.asarray(y, dtype=float), *rhs_args(kind, xi))


@pytest.mark.parametrize("kind", list(RHS))
def test_rhs_matches_numpy_scalars(kind):
    rhs, dim = RHS[kind]
    for i, y in enumerate(random_states(dim)):
        xi = XIS[i % len(XIS)]
        expected = bits(numpy_rhs(kind, y, xi))
        for form, state in input_forms(y).items():
            got = rhs(state, *rhs_args(kind, xi))
            assert isinstance(got, tuple) and all(type(v) is float for v in got)
            assert bits(got) == expected, (kind, form, y.tolist(), xi)


@pytest.mark.parametrize("kind", list(RHS))
def test_rhs_raising_states_get_numpy_values(kind):
    rhs, _ = RHS[kind]
    for state in RAISING_STATES[kind] + OVERFLOWING_STATES.get(kind, []):
        args = (*state, *rhs_args(kind, 0.7))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = numpy_rhs(kind, np.array(state), 0.7)
            for form, y in input_forms(np.array(state)).items():
                got = rhs(y, *rhs_args(kind, 0.7))
                assert bits(got) == bits(expected), (kind, form, state)
        assert not np.all(np.isfinite(expected)), state
        if state in RAISING_STATES[kind]:
            with pytest.raises((OverflowError, ZeroDivisionError)):
                rhs.__wrapped__(*args)   # on Python floats
        else:   # on Python floats too, without a raise
            assert bits(rhs.__wrapped__(*args)) == bits(expected), (kind, state)


@pytest.mark.parametrize("name", list(EVENTS))
def test_events_match_numpy_scalars(name):
    make, reference, dim = EVENTS[name]
    fn = make().fn
    states = random_states(dim).tolist() + RAISING_EVENT_STATES.get(name, [])
    for y in map(np.array, states):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = bits(reference(y))
            for form, state in input_forms(y).items():
                assert bits(fn(0.0, state)) == expected, (name, form, y.tolist())


def test_raising_event_states_do_raise_on_floats():
    t, x, s = RAISING_EVENT_STATES["aw3"][0]
    with pytest.raises(ZeroDivisionError):
        x * (4.0 * s - x) / (3.0 * s) - t


def test_t_a_matches_numpy_scalars(monkeypatch):
    """`t_a` against its own formula run on numpy scalars (the validator
    replaced by a plain conversion), on every input form."""
    rng = np.random.default_rng(RNG_SEED)
    triples = random_states(3)
    xis = rng.uniform(0.05, 1.0, size=len(triples)).tolist()
    with monkeypatch.context() as patch:
        patch.setattr(cone, "_reals", lambda s, _count: list(np.asarray(s, dtype=float)))
        expected = [bits(cone.t_a(s, xi)) for s, xi in zip(triples, xis)]
    for s, xi, want in zip(triples, xis, expected):
        for form, value in input_forms(s).items():
            assert bits(cone.t_a(value, xi)) == want, (form, s.tolist(), xi)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("fn", [lambda s: cone.t_a(s, 1.0),
                                lambda s: cone._sigma(*cone._scaled(cone._reals(s, 3))[0]),
                                lambda s: cone._is_round(*cone._scaled(cone._reals(s, 3))[0])],
                         ids=["t_a", "sigma", "is_round_diagonal"])
def test_scale_factors_must_be_positive_and_finite(fn, bad):
    # t_a, and the kernels `sigma` and `is_round` as `a_tilde` and `t_a` hand them s: guarded, then scaled
    for s in [(1.0, 1.0, bad), (bad, 0.9, 1.0), np.array([1.0, bad, 1.2])]:
        with pytest.raises(ValueError, match="positive and finite"):
            fn(s)


@pytest.mark.parametrize("s", [(1.0, 1.2), (1.0, 1.2, 0.9, 1.1), [[1.0], [1.2], [0.9]], np.ones((3, 1)),
                               np.ones((1, 3)), 1.0, (1.0, "x", 0.9), (1.0, None, 0.9), "123", b"123"],
                         ids=["two", "four", "nested", "column", "row", "scalar", "text", "none", "string",
                              "bytes"])
def test_scale_factors_must_be_a_triple_of_reals(s):
    with pytest.raises(ValueError, match="expected a triple of reals"):
        cone.t_a(s, 1.0)


def test_rhs_on_a_list_of_large_ints_gets_numpy_values():
    # a list is passed as it is, so x**5 = 10**350 stays an int until 18.0 * x5 converts it and raises
    # OverflowError; the numpy rerun reads 10**70 as a float
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert bits(flow.normalized_rhs([10**70, 1])) == bits(flow.normalized_rhs(np.array([1e70, 1.0])))


def normalized_quotients(x, s):
    """The normalized flow's numerator terms and denominators as `normalized_rhs` orders them,
    with the powers by `**`: libm `pow` on floats, exact on Fractions."""
    x2, x3, x4, x5, s2, s4, s5, s6 = x**2, x**3, x**4, x**5, s**2, s**4, s**5, s**6
    return (((-40 * x3 * s6, 24 * s2, -18 * x5 * s4, -2 * x2, 48 * x4 * s5), 7 * x3 * s6),
            ((-36 * x4 * s5, 16 * x3 * s6, 10 * x5 * s4, 5 * x2, -4 * s2), 7 * x4 * s5))


def test_normalized_rhs_is_as_accurate_as_its_pow_form():
    # Errors against the exact value of the same formula (on Fractions).  At E+- (equilibria) and near
    # the nullclines the numerator cancels, so the relative error there is rounding noise; the maximum
    # is taken against the terms' size sum |t_i| / |den|, of which the products' rounding is at most
    # gamma_23 (13 roundings in the longest numerator term and the sum, 9 in the denominator, 1 in /).
    rng = np.random.default_rng(RNG_SEED)
    points = rng.uniform(0.3, 2.0, size=(2000, 2)).tolist() + [
        [*p] for p in (*derivatives.einstein_points(), *derivatives.REFERENCE_SEEDS)]
    exact = [sum(num) / den for x, s in points for num, den in normalized_quotients(Fraction(x), Fraction(s))]
    sizes = [sum(map(abs, num)) / abs(den) for x, s in points for num, den in normalized_quotients(x, s)]
    forms = {"products": [v for x, s in points for v in flow.normalized_rhs([x, s])],
             "pow": [sum(num) / den for x, s in points for num, den in normalized_quotients(x, s)]}
    errors = {}
    for form, values in forms.items():
        diffs = [float(abs(Fraction(v) - e)) for v, e in zip(values, exact)]
        errors[form] = (statistics.median(d / abs(float(e)) for d, e in zip(diffs, exact)),
                        max(d / size for d, size in zip(diffs, sizes)))
    (median, worst), (pow_median, _) = errors["products"], errors["pow"]
    u = 2.0**-53
    assert median <= pow_median and worst <= 23 * u / (1 - 23 * u), errors
