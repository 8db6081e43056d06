"""One definition of a real input, in `spaces`, guards every entry point.

A real is a `numbers.Real` (`spaces._real`): a float, an int, a `Fraction` or a
numpy integer or floating scalar, read as the Python float it converts to.  A
string, bytes, an array item, a complex (numpy's too, whose `__float__` drops
the imaginary part) or an int past the float range is not one.  `spaces._reals`
guards every coefficient tuple, `spaces._stack` every stack of them (an int or
float array as it is, anything else row by row), and `spaces.xi_value` the
parameter xi; the closed forms, which take int or float arrays too, apply the
same test (`spaces._is_real`), and `IntegratorConfig` calls `_real` on each number.

Each table below is one entry point per row.  Every accepted form of an input
gives the bits of its list of floats, and every rejected form raises ValueError
with the entry point's message, in the flow's entry points as in the cone's.
"""

import math
import re
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from ricciflow import _rk45, cone, derivatives, flow, spaces
from ricciflow.flow import FlowSystem, IntegratorConfig, integrate, make_system

SHORT = IntegratorConfig(max_time=1e-3)

# `call` on the input; `valid` integer coefficients (distinct, so that a set keeps them all), a row
# of them per stack row; `kind` "args" (the coefficients as separate arguments), "tuple" (as one
# sequence) or "stack" (a sequence of rows); the messages of a form or item that is not a real and
# of a real that is not positive and finite.
Entry = namedtuple("Entry", "call valid kind not_real not_positive")
TUPLE = r"expected (a pair|a triple|a \d-tuple) of reals", "strictly positive and finite"
ROWS3, ROWS4 = ((rf"expected an \(N, {n}\) stack of positive finite reals",) * 2 for n in (3, 4))

ENTRY_POINTS = {
    "integrate": Entry(lambda v: integrate(make_system("aw2"), v, SHORT), (1, 2), "tuple", *TUPLE),
    "integrate_rows": Entry(lambda v: flow.integrate_rows(make_system("aw2"), [v], SHORT), (1, 2), "tuple", *TUPLE),
    "cone_exit": Entry(lambda v: flow.cone_exit("berger", v), (3, 2), "tuple", *TUPLE),
    "cone_exit aw2": Entry(lambda v: flow.cone_exit("aw2", v), (1, 2), "tuple", *TUPLE),
    "post_exit_verdict": Entry(lambda v: flow.post_exit_verdict("berger", v), (2, 1), "tuple", *TUPLE),
    "_reals": Entry(lambda v: spaces._reals(v, 3), (9, 10, 11), "tuple", *TUPLE),
    "t_a": Entry(lambda v: cone.t_a(v, 0.7), (9, 10, 11), "tuple", *TUPLE),
    "a_tilde": Entry(cone.a_tilde, (9, 10, 11), "tuple", *TUPLE),
    "classify_2param": Entry(lambda v: cone.classify_2param(*v), (1, 2), "args", *TUPLE),
    "classify_3param": Entry(lambda v: cone.classify_3param(*v), (1, 2, 3), "args", *TUPLE),
    "classify_berger": Entry(lambda v: cone.classify_berger(*v), (3, 2), "args", *TUPLE),
    "classify_aw_slice": Entry(lambda v: cone.classify_aw_slice(v, 0.7), (20, 40, 60, 61), "tuple", *TUPLE),
    "normalized_region": Entry(lambda v: cone.normalized_region(*v), (1, 2), "args", *TUPLE),
    "ricci_from_structure stack": Entry(lambda v: spaces.ricci_from_structure(1, 2, v),
                                        ((1, 2, 3, 4), (5, 4, 3, 2)), "stack", *ROWS4),
    "_t_a_rows": Entry(lambda v: cone._t_a_rows(v, 0.7), ((9, 10, 11), (10, 12, 11)), "stack", *ROWS3),
    "_a_tilde_rows": Entry(cone._a_tilde_rows, ((9, 10, 11), (10, 12, 11)), "stack", *ROWS3),
}

ACCEPTED = {
    "tuple": lambda v: tuple(float(c) for c in v),
    "ndarray": lambda v: np.array(v, dtype=float),
    "int ndarray": np.array,
    "ints": list,
    "Fractions": lambda v: [Fraction(c) for c in v],
    "numpy scalars": lambda v: [np.int64(v[0]), *map(np.float64, v[1:-1]), np.float32(v[-1])],
}

# whole stacks, next to a stack of rows in each form of ACCEPTED; an int or float array is read as it is
STACK_ACCEPTED = {
    "tuple of tuples": lambda rows: tuple(map(tuple, rows)),
    "ndarray": lambda rows: np.array(rows, dtype=float),
    "int ndarray": np.array,
    "float32 ndarray": lambda rows: np.array(rows, dtype=np.float32),
    "object ndarray": lambda rows: np.array(rows, dtype=object),
}


class OneElementRow:
    """A one-element array row as NumPy < 2.4 treats it: float() converts it."""
    ndim, shape = 1, (1,)

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


class Column(list):
    """The rows of an array of shape (n, 1), with that shape."""

    @property
    def shape(self):
        return len(self), 1


class Shaped:
    """An array look-alike, with shape (n,), length, items and iteration, that is no Sequence."""

    def __init__(self, *values):
        self.values, self.shape = values, (len(values),)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


# put in place of one coefficient: not a real, and a real that is not positive and finite
NOT_REAL = {"str": "1", "bytes": b"1", "None": None, "complex": 1 + 0j, "numpy complex": np.complex128(0.5 + 2j),
            "10**400": 10**400, "-10**400": -10**400, "nested list": [1.0], "one-element array": np.ones(1),
            "one-element row": OneElementRow(1.0)}
NOT_POSITIVE = {"zero": 0, "0.0": 0.0, "-1": -1, "-1.0": -1.0, "nan": math.nan, "numpy nan": np.float64(math.nan),
                "inf": math.inf, "-inf": -math.inf}

# in place of the whole sequence, for the entry points that take one
MALFORMED = {
    "str": lambda v: ",".join(map(str, v)),
    "digits": lambda v: "1" * len(v),   # as long as v
    "bytes": bytes,   # iterates as ints
    "set": lambda v: {float(c) for c in v},
    "frozenset": lambda v: frozenset(float(c) for c in v),
    "dict": lambda v: dict.fromkeys(float(c) for c in v),
    "dict keys": lambda v: dict.fromkeys(float(c) for c in v).keys(),
    "generator": lambda v: (float(c) for c in v),
    "None": lambda v: None,
    "scalar": lambda v: float(v[0]),
    "0-d array": lambda v: np.array(float(v[0])),   # has `__len__`, but len() raises TypeError
    "nested": lambda v: [[float(c)] for c in v],
    "column": lambda v: np.array(v, dtype=float).reshape(-1, 1),
    "row": lambda v: np.array(v, dtype=float).reshape(1, -1),
    "column of one-element rows": lambda v: Column(OneElementRow(float(c)) for c in v),
    "shaped non-sequence": lambda v: Shaped(*map(float, v)),
    "short": lambda v: [float(c) for c in v[:-1]],
    "long": lambda v: [*map(float, v), 1.0],
}

# in place of a whole stack
STACK_MALFORMED = {
    "set of rows": lambda rows: {tuple(map(float, r)) for r in rows},
    "dict": lambda rows: dict.fromkeys(tuple(map(float, r)) for r in rows),
    "generator": lambda rows: (list(map(float, r)) for r in rows),
    "None": lambda rows: None,
    "scalar": lambda rows: 1.0,
    "str": str,
    "0-d ndarray": lambda rows: np.array(1.0),
    "1-D ndarray": lambda rows: np.array(rows, dtype=float).ravel(),
    "3-D ndarray": lambda rows: np.array(rows, dtype=float)[None],
    "transposed ndarray": lambda rows: np.array(rows, dtype=float).T,
    "narrow ndarray": lambda rows: np.ones((len(rows), len(rows[0]) - 1)),
    "wide ndarray": lambda rows: np.ones((len(rows), len(rows[0]) + 1)),
    "complex ndarray": lambda rows: np.array(rows, dtype=complex),
    "str ndarray": lambda rows: np.array(rows).astype(str),
    "bool ndarray": lambda rows: np.ones((len(rows), len(rows[0])), dtype=bool),
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


def floats(valid, kind):
    return [floats(row, "tuple") for row in valid] if kind == "stack" else [float(c) for c in valid]


def accepted_forms(valid, kind):
    if kind != "stack":
        yield from ((form, make(valid)) for form, make in ACCEPTED.items())
        return
    for form, make in ACCEPTED.items():
        yield f"rows as {form}", [make(row) for row in valid]
    yield from ((form, make(valid)) for form, make in STACK_ACCEPTED.items())


def rejected_forms(entry):
    """(form, input, message) for every rejected input of `entry`."""
    valid, kind = entry.valid, entry.kind
    if kind == "stack":
        for r, row in enumerate(valid):
            for form, bad, match in rejected_forms(entry._replace(valid=row, kind="tuple")):
                yield f"{form} in row {r}", [*valid[:r], bad, *valid[r + 1:]], match
        for name, bad in NOT_POSITIVE.items():   # the array read as it is
            for dtype in (float, int) if type(bad) is int else (float,):
                for r, i in np.ndindex(len(valid), len(valid[0])):
                    rows = np.array(valid, dtype=dtype)
                    rows[r, i] = bad
                    yield f"{name} at {r, i} in a {dtype.__name__} ndarray", rows, entry.not_positive
        yield from ((form, make(valid), entry.not_real) for form, make in STACK_MALFORMED.items())
        return
    for table, match in ((NOT_REAL, entry.not_real), (NOT_POSITIVE, entry.not_positive)):
        for name, bad in table.items():
            for i in range(len(valid)):
                yield f"{name} at {i}", [*valid[:i], bad, *valid[i + 1:]], match
                if table is NOT_POSITIVE:
                    yield f"{name} at {i} in an ndarray", np.array([*valid[:i], bad, *valid[i + 1:]], float), match
    if kind == "tuple":
        yield from ((form, make(valid), entry.not_real) for form, make in MALFORMED.items())


def escaped(call, forms):
    """Each form on which `call` does not raise ValueError with a message matching the form's."""
    out = []
    for form, value, match in forms:
        try:
            call(value)
        except ValueError as exc:
            if not re.search(match, str(exc)):
                out.append(f"{form}: {exc}")
        except Exception as exc:   # any other outcome is listed
            out.append(f"{form}: {type(exc).__name__}")
        else:
            out.append(f"{form}: returned")
    return out


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_accepted_form_gives_the_bits_of_the_list_of_floats(name):
    entry = ENTRY_POINTS[name]
    expected = bits(entry.call(floats(entry.valid, entry.kind)))
    wrong = [form for form, value in accepted_forms(entry.valid, entry.kind) if bits(entry.call(value)) != expected]
    assert not wrong, "; ".join(wrong)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_rejected_form_raises_value_error(name):
    entry = ENTRY_POINTS[name]
    wrong = escaped(entry.call, rejected_forms(entry))
    assert not wrong, "; ".join(wrong)


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


# xi through `spaces.xi_value`: a real in (0, 1]
XI_ENTRY_POINTS = {
    "xi_value": spaces.xi_value,
    "t_a": lambda xi: cone.t_a([9.0, 10.0, 11.0], xi),
    "classify_aw_slice": lambda xi: cone.classify_aw_slice([20.0, 40.0, 60.0, 61.0], xi),
    "make_system": lambda xi: make_system("aw4", xi).rhs([1.0, 0.9, 1.0, 1.1]),   # None: the default, xi = 1
    "_t_a_rows": lambda xi: cone._t_a_rows(np.array([[9.0, 10.0, 11.0]]), xi),
    "f_xi_prime0": lambda xi: derivatives.f_xi_prime0(xi, 0.5),
}
XI_ACCEPTED = {"Fraction": Fraction(1, 2), "numpy float64": np.float64(0.5), "numpy float32": np.float32(0.5),
               "int": 1, "numpy int": np.int64(1)}
XI_REJECTED = {"str": "0.5", "bytes": b"0.5", "None": None, "list": [0.5], "complex": 0.5 + 0j,
               "numpy complex": np.complex128(0.5 + 1j), "one-element array": np.array([0.5]),
               "0-d array": np.array(0.5), "10**400": 10**400, "zero": 0, "negative": -0.5, "above 1": 1.5,
               "2": 2, "nan": math.nan, "numpy nan": np.float64(math.nan), "inf": math.inf}


@pytest.mark.parametrize("name", XI_ENTRY_POINTS)
def test_every_real_xi_gives_the_bits_of_its_float(name):
    call = XI_ENTRY_POINTS[name]
    wrong = [form for form, xi in XI_ACCEPTED.items() if bits(call(xi)) != bits(call(float(xi)))]
    assert not wrong, "; ".join(wrong)


@pytest.mark.parametrize("name", XI_ENTRY_POINTS)
def test_every_xi_that_is_not_a_real_in_the_unit_interval_raises_value_error(name):
    forms = ((form, xi, r"xi must lie in \(0, 1\]") for form, xi in XI_REJECTED.items()
             if not (xi is None and name == "make_system"))
    wrong = escaped(XI_ENTRY_POINTS[name], forms)
    assert not wrong, "; ".join(wrong)


# the closed forms take a real or an int or float array (`spaces._is_real`) in each argument, but for the x
# of `grad_f`, `gradient_anchor` and `initial_velocity`, which take a real only (SCALAR_X); a numpy
# complex compares, so without the test they return complex values
CLOSED_FORMS = {
    "t_a_closed x": (lambda v: cone.t_a_closed(v, 1.0), "need reals 0 < x < 4s"),
    "t_a_closed s": (lambda v: cone.t_a_closed(0.5, v), "need reals 0 < x < 4s"),
    "a_tilde_inverse_slice x": (lambda v: cone.a_tilde_inverse_slice(v, 1.0), "need real x > 0"),
    "a_tilde_inverse_slice s": (lambda v: cone.a_tilde_inverse_slice(0.5, v), "need real x > 0"),
    "two_param_ratio_derivative t": (lambda v: derivatives.two_param_ratio_derivative(v, 1.0), "need real x and s"),
    "two_param_ratio_derivative s": (lambda v: derivatives.two_param_ratio_derivative(0.5, v), "need real x and s"),
    "berger_ratio_derivative x1": (lambda v: derivatives.berger_ratio_derivative(v, 1.0), "need real x and s"),
    "berger_ratio_derivative x2": (lambda v: derivatives.berger_ratio_derivative(0.5, v), "need real x and s"),
    "f1_prime0": (derivatives.f1_prime0, r"x must lie in \(0, 1\)"),
    "f_xi_prime0": (lambda v: derivatives.f_xi_prime0(0.7, v), r"x must lie in \(0, 1\)"),
    "grad_f": (lambda v: derivatives.grad_f(v, 0.7), r"x must lie in \(0, 1\)"),
    "gradient_anchor": (derivatives.gradient_anchor, r"x must lie in \(0, 1\)"),
    "initial_velocity": (lambda v: derivatives.initial_velocity(v, 0.7), r"x must lie in \(0, 1\)"),
}
NOT_REAL_ARGUMENT = {"str": "0.5", "bytes": b"0.5", "None": None, "complex": 0.5 + 2j,
                     "numpy complex": np.complex128(0.5 + 2j), "complex ndarray": np.array([0.5 + 2j, 0.25]),
                     "str ndarray": np.array(["0.5", "0.25"])}
SCALAR_X = {"grad_f", "gradient_anchor", "initial_velocity"}
NOT_SCALAR_ARGUMENT = {"float ndarray": np.array([0.5, 0.25]), "one-element ndarray": np.array([0.5]),
                       "0-d ndarray": np.array(0.5)}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_closed_form_rejects_an_argument_that_is_not_real(name):
    call, match = CLOSED_FORMS[name]
    forms = {**NOT_REAL_ARGUMENT, **(NOT_SCALAR_ARGUMENT if name in SCALAR_X else {})}
    wrong = escaped(call, ((form, value, match) for form, value in forms.items()))
    assert not wrong, "; ".join(wrong)


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_step", "max_time"])
def test_integrator_config_takes_positive_reals(field):
    for real in (Fraction(1, 100), np.float64(0.01), np.float32(0.5), 1):
        assert getattr(IntegratorConfig(**{field: real}), field) == real
    bad = {"str": "1e-10", "None": None, "complex": 0.01 + 0j, "numpy complex": np.complex128(0.01 + 1j),
           "zero": 0.0, "negative": -1.0, "nan": math.nan, "one-element array": np.array([0.01]),
           "(1, 1) array": np.array([[0.01]]), "int array": np.array([1]), "0-d array": np.array(0.01)}
    if field != "max_step":   # max_step may be inf
        bad["inf"] = math.inf
    forms = ((form, value, field.replace("rel_", "").replace("abs_", "") + "s?") for form, value in bad.items())
    wrong = escaped(lambda value: IntegratorConfig(**{field: value}), forms)
    assert not wrong, "; ".join(wrong)


def test_a_pair_k1_k2_must_be_coprime_integers():
    for k1, k2 in ((1, 2), (np.int64(1), np.int64(2)), (np.int32(1), 2)):
        assert spaces.xi_from_integers(k1, k2) == 0.5
        assert bits(spaces.ricci_from_structure(k1, k2, [(1, 1, 1, 1)])) == bits(
            spaces.ricci_from_structure(1, 2, [(1, 1, 1, 1)]))
    bad = {"floats": (1.0, 2.0), "a fraction": (1.5, 2), "str": ("1", "2"), "None": (None, 2),
           "complex": (1 + 0j, 2), "zero": (0, 1), "descending": (2, 1), "common factor": (2, 4)}
    forms = [(form, pair, "need integers 0 < k1 <= k2|coprime") for form, pair in bad.items()]
    wrong = (escaped(lambda pair: spaces.xi_from_integers(*pair), forms)
             + escaped(lambda pair: spaces.ricci_from_structure(*pair, [(1, 1, 1, 1)]), forms))
    assert not wrong, "; ".join(wrong)
