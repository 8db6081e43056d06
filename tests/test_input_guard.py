"""One guard, `cone._reals`, checks the coefficient tuple of every entry point.

Every accepted form of a start gives the floats of its list form, bit for bit,
and every rejected form raises ValueError, in the flow's entry points as in
the cone's.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ricciflow import _rk45, cone, flow
from ricciflow.flow import FlowSystem, IntegratorConfig, integrate, make_system

SHORT = IntegratorConfig(max_time=1e-3)

# name: (call on the coefficients, valid integer coefficients (distinct, so that a set keeps
# them all), whether the entry point takes them as one sequence rather than as arguments)
ENTRY_POINTS = {
    "integrate": (lambda v: integrate(make_system("aw2"), v, SHORT), (1, 2), True),
    "integrate_rows": (lambda v: flow.integrate_rows(make_system("aw2"), [v], SHORT), (1, 2), True),
    "cone_exit": (lambda v: flow.cone_exit("berger", v), (3, 2), True),
    "post_exit_verdict": (lambda v: flow.post_exit_verdict("berger", v), (2, 1), True),
    "t_a": (lambda v: cone.t_a(v, 0.7), (9, 10, 11), True),
    "a_tilde": (cone.a_tilde, (9, 10, 11), True),
    "classify_2param": (lambda v: cone.classify_2param(*v), (1, 2), False),
    "classify_3param": (lambda v: cone.classify_3param(*v), (1, 2, 3), False),
    "classify_berger": (lambda v: cone.classify_berger(*v), (3, 2), False),
    "classify_aw_slice": (lambda v: cone.classify_aw_slice(v, 0.7), (20, 40, 60, 61), True),
    "normalized_region": (lambda v: cone.normalized_region(*v), (1, 2), False),
}

ACCEPTED = {
    "tuple": lambda v: tuple(float(c) for c in v),
    "ndarray": lambda v: np.array(v, dtype=float),
    "int ndarray": np.array,
    "ints": list,
    "Fractions": lambda v: [Fraction(c) for c in v],
    "numpy scalars": lambda v: [np.int64(v[0]), *map(np.float64, v[1:-1]), np.float32(v[-1])],
}

# put in place of one coefficient
BAD_COEFFICIENTS = {"str": "1", "bytes": b"1", "None": None, "complex": 1 + 0j, "10**400": 10**400,
                    "nested list": [1.0], "zero": 0, "-1": -1, "nan": math.nan, "inf": math.inf}

# in place of the whole sequence, for the entry points that take one
MALFORMED = {
    "str": lambda v: ",".join(map(str, v)),
    "bytes": bytes,   # iterates as ints
    "set": lambda v: {float(c) for c in v},
    "frozenset": lambda v: frozenset(float(c) for c in v),
    "dict": lambda v: dict.fromkeys(float(c) for c in v),
    "dict keys": lambda v: dict.fromkeys(float(c) for c in v).keys(),
    "generator": lambda v: (float(c) for c in v),
    "None": lambda v: None,
    "column": lambda v: np.array(v, dtype=float).reshape(-1, 1),
    "short": lambda v: [float(c) for c in v[:-1]],
    "long": lambda v: [*map(float, v), 1.0],
}


def bits(result):
    """Everything an entry point returns, with every float as its type and bits."""
    if isinstance(result, flow.Trajectory):
        return (bits(result.times), bits(result.states), result.status, result.stats,
                [(bits(ev.time), ev.name, bits(ev.state)) for ev in result.events])
    if isinstance(result, cone.ConeVerdict):
        return result.classification, bits(result.margin)
    if isinstance(result, (list, tuple)):
        return [bits(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    if isinstance(result, float):
        return type(result), result.hex()
    return result   # a region letter


def rejected_forms(valid, whole):
    for name, bad in BAD_COEFFICIENTS.items():
        for i in range(len(valid)):
            yield f"{name} at {i}", lambda bad=bad, i=i: [*valid[:i], bad, *valid[i + 1:]]
    if whole:
        for name, make in MALFORMED.items():
            yield name, lambda make=make: make(valid)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_accepted_form_gives_the_bits_of_the_list_of_floats(name):
    call, valid, _ = ENTRY_POINTS[name]
    expected = bits(call([float(c) for c in valid]))
    wrong = [form for form, make in ACCEPTED.items() if bits(call(make(valid))) != expected]
    assert not wrong, "; ".join(wrong)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_rejected_form_raises_value_error(name):
    call, valid, whole = ENTRY_POINTS[name]
    escaped = []
    for form, make in rejected_forms(valid, whole):
        try:
            call(make())
        except ValueError:
            continue
        except Exception as exc:   # any other outcome is listed
            escaped.append(f"{form}: {type(exc).__name__}")
        else:
            escaped.append(f"{form}: returned")
    assert not escaped, "; ".join(escaped)


@pytest.mark.parametrize("dim", [1, 5])
def test_a_custom_system_takes_any_dimension(dim):
    system = FlowSystem("decay", dim, lambda y: [-(k + 1) * c for k, c in enumerate(y)])
    init = [1.0 + k / 8 for k in range(dim)]
    # the stepper run on the list of floats itself: the guard hands it those floats
    expected = bits(flow._trajectory(_rk45.solve(system.rhs, init, *flow._solver_args(SHORT, ())), ()))
    for form in (init, tuple(init), np.array(init), [Fraction(c) for c in init]):
        assert bits(integrate(system, form, SHORT)) == expected
    for wrong in (init[:-1], [*init, 1.0]):
        with pytest.raises(ValueError, match=f"expected a {dim}-tuple of reals"):
            integrate(system, wrong, SHORT)
