"""Invariant diagonal metrics and their Ricci eigenvalues.

Two families are covered: SU(3)-invariant metrics (t, s0, s1, s2) on the
Aloff-Wallach spaces W^7_{k1,k2}, and SU(5)-invariant metrics (x1, x2) on the
Berger space B^13.  The Aloff-Wallach family is parametrized continuously by
xi = k1/k2 in (0, 1]; with Gamma(xi) = xi^2 + xi + 1 the four Ricci
eigenvalues are

    r0 = 3t / (2 Gamma) * ((xi+1)^2/s0^2 + xi^2/s1^2 + 1/s2^2)
    r1 = 6/s0 - 3(xi+1)^2 t / (2 Gamma s0^2) + (s0/(s1 s2) - s1/(s0 s2) - s2/(s0 s1))
    r2 = 6/s1 - 3 xi^2   t / (2 Gamma s1^2) + (s1/(s0 s2) - s0/(s1 s2) - s2/(s0 s1))
    r3 = 6/s2 - 3        t / (2 Gamma s2^2) + (s2/(s0 s1) - s0/(s1 s2) - s1/(s0 s2))

All eigenvalues are homogeneous of degree -1 in the metric coefficients.
`ricci_from_structure` recomputes the same eigenvalues from the structure
constants [ijk] of the isotropy decomposition and serves as an independent
cross-check of the closed forms, on an (N, 4) stack of metrics (t, s0, s1, s2).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from itertools import permutations, product
from math import gcd
from types import FunctionType

import numpy as np


def _real(c) -> float:
    """c as a strictly positive finite float.  A real is a `numbers.Real`: a float, int, `Fraction`, numpy integer
    or floating scalar, read by its `__float__`.  A string, an array or a complex is not one (a numpy complex's
    `__float__` drops the imaginary part)."""
    if not isinstance(c, numbers.Real):
        raise TypeError
    if not 0.0 < (c := c.__float__()) < math.inf:   # NaN too
        raise ValueError
    return c


def _is_real(c) -> bool:   # a real (`_real`), or an int or float array, whose items are reals: what a closed form takes
    return type(c) is float or isinstance(c, np.ndarray) and c.dtype.kind in "iuf" or isinstance(c, numbers.Real)


def _ordered(values) -> bool:   # a list, a tuple (one type test), a Sequence, an array; not a set, dict or generator
    return type(values) in (list, tuple) or isinstance(values, (np.ndarray, Sequence))


def _reals(values, count: int) -> Sequence[float]:
    """The guard of every coefficient tuple: `count` strictly positive finite floats from an ordered
    sequence (`_ordered`) of reals (`_real`), else ValueError.  A list or tuple of such floats comes back as is."""
    try:
        # a string iterates as its characters, an (n, 1) array as one-element rows, a set in hash
        # order: the sequence must be ordered and no string, and one with a shape needs shape (count,)
        if type(values) not in (list, tuple) and (isinstance(values, (str, bytes, bytearray)) or not _ordered(values)
                                                  or getattr(values, "shape", (count,)) != (count,)):
            raise TypeError
        for c in values:
            if type(c) is not float or not 0.0 < c < math.inf:
                values = [c if type(c) is float and 0.0 < c < math.inf else _real(c) for c in values]
                break
        if len(values) != count:
            raise TypeError
    except (TypeError, AttributeError, OverflowError):   # not a sequence of `count` reals
        what = {2: "a pair", 3: "a triple"}.get(count, f"a {count}-tuple")
        raise ValueError(f"expected {what} of reals, got {values!r}") from None
    except ValueError:
        raise ValueError(f"coefficients must be strictly positive and finite, got {values!r}") from None
    return values


def _stack(values, width: int) -> np.ndarray:
    """The guard of every stack of coefficient tuples: the (N, width) floats of an ordered sequence of rows that
    `_reals(row, width)` accepts, else ValueError.  An int or float array is read as it is, anything else by row."""
    try:
        if getattr(values, "ndim", None) == 2 and _is_real(values):
            rows = values.astype(float, copy=False)
            if rows.shape[1] != width or not ((0.0 < rows) & (rows < math.inf)).all():   # NaN too
                raise ValueError
            return rows
        if not _ordered(values):
            raise ValueError
        return np.array([_reals(row, width) for row in values], dtype=float).reshape(-1, width)
    except (TypeError, ValueError):   # TypeError: a 0-d array does not iterate
        raise ValueError(f"expected an (N, {width}) stack of positive finite reals, got {values!r}") from None


def xi_value(xi) -> float:
    """xi as a float: a real (as in `_real`) in (0, 1], else ValueError.  A float in range takes one type test."""
    if type(xi) is float and 0.0 < xi <= 1.0:
        return xi
    if not (isinstance(xi, numbers.Real) and 0 < xi <= 1):   # NaN too
        raise ValueError(f"xi must lie in (0, 1], got {xi!r}")
    return xi.__float__()


def _check_pair(k1: int, k2: int) -> None:
    if not (isinstance(k1, numbers.Integral) and isinstance(k2, numbers.Integral) and 0 < k1 <= k2):
        raise ValueError(f"need integers 0 < k1 <= k2, got ({k1!r}, {k2!r})")
    if gcd(k1, k2) != 1:
        raise ValueError(f"(k1, k2) must be coprime, got ({k1}, {k2})")


def xi_from_integers(k1: int, k2: int) -> float:
    """xi = k1/k2 of W^7_{k1,k2}, for coprime integers 0 < k1 <= k2."""
    _check_pair(k1, k2)
    return xi_value(k1 / k2)   # k1/k2 underflows to 0.0 for k2 > 2^1074 k1


def aw_eigenvalue_tuple(t, s0, s1, s2, xi):
    """Raw (r0, r1, r2, r3) for coefficients known to be positive.

    The four expressions are written in strictly parallel form so that
    r2 == r3 bit-for-bit whenever s1 == s2 and xi == 1.  The literals are
    integers, so `Fraction` coefficients give exact `Fraction` values.
    """
    g = xi * xi + xi + 1
    c0 = (xi + 1) * (xi + 1)
    c1 = xi * xi
    c2 = 1
    r0 = 3 * t / (2 * g) * (c0 / (s0 * s0) + c1 / (s1 * s1) + c2 / (s2 * s2))
    r1 = 6 / s0 - 3 * c0 * t / (2 * g * s0 * s0) + (s0 / (s1 * s2) - s1 / (s0 * s2) - s2 / (s0 * s1))
    r2 = 6 / s1 - 3 * c1 * t / (2 * g * s1 * s1) + (s1 / (s0 * s2) - s0 / (s1 * s2) - s2 / (s0 * s1))
    r3 = 6 / s2 - 3 * c2 * t / (2 * g * s2 * s2) + (s2 / (s0 * s1) - s0 / (s1 * s2) - s1 / (s0 * s2))
    return r0, r1, r2, r3


def berger_eigenvalue_tuple(x1, x2):
    """Raw (r1, r2) for the Berger metric (x1, x2).

    The x2 = 1 slice is r1 = (8 + x1^2)/x1, r2 = 5(8 - x1)/4; general x2
    follows from degree -1 homogeneity: r_i(x1, x2) = r_i(x1/x2, 1)/x2.
    """
    r1 = (8 * x2 * x2 + x1 * x1) / (x1 * x2 * x2)
    r2 = 5 * (8 * x2 - x1) / (4 * x2 * x2)
    return r1, r2


# The nonzero [ijk] form four families, each closed under permuting ijk; _BRACKETS_BY_I lists,
# for each i, the family and (j, k) of every one in (j, k) order, the order `ricci_from_structure` sums in.
_FAMILIES = [sorted(set(permutations(index))) for index in ((1, 1, 0), (2, 2, 0), (3, 3, 0), (1, 2, 3))]
_BRACKETS_BY_I = [[(f, j, k) for j, k in product(range(4), repeat=2) for f, perms in enumerate(_FAMILIES)
                   if (i, j, k) in perms] for i in range(4)]


def _family_values(k1: int, k2: int) -> tuple[float, float, float, float]:
    _check_pair(k1, k2)
    gamma = k1 * k1 + k2 * k2 + k1 * k2
    return (6.0 * (k1 + k2) ** 2 / gamma, 6.0 * k1 * k1 / gamma, 6.0 * k2 * k2 / gamma, 4.0)


# Killing-form coefficient of su(3) relative to <X,Y> = -tr(XY)/2, and the
# module dimensions of the isotropy decomposition.
_B_COEFF = 12.0
_MODULE_DIMS = (1.0, 2.0, 2.0, 2.0)


def ricci_from_structure(k1: int, k2: int, coeffs) -> np.ndarray:
    """Eigenvalues (r0, r1, r2, r3) of each metric (t, s0, s1, s2) of the (N, 4) stack `coeffs`
    (guarded by `_stack`), as an (N, 4) array, from the general structure-constant formula

        r_i = b_i/(2 x_i) - (1/2d_i) sum [ijk] x_j/(x_i x_k)
                          + (1/4d_i) sum [ijk] x_i/(x_j x_k)

    with b_i = 12, d = (1, 2, 2, 2) and x = (t, s0, s1, s2).  Independent of the closed forms in
    `aw_eigenvalue_tuple`: the two agree to 4.5e-14 relative on the battery's sample, and to 1.4e-15 of
    max|r_i| on 20 000 metrics per pair (an r_i near 0 may deviate more relatively).  Each row has the bits
    of a stack of that row alone: the formula runs on columns, each bracket sum left to right in (j, k) order.
    """
    c = _family_values(k1, k2)
    cols = _stack(coeffs, 4).T
    return np.array([_B_COEFF / (2.0 * cols[i])
                     - sum(c[f] * cols[j] / (cols[i] * cols[k]) for f, j, k in brackets) / (2.0 * d)
                     + sum(c[f] * cols[i] / (cols[j] * cols[k]) for f, j, k in brackets) / (4.0 * d)
                     for i, (d, brackets) in enumerate(zip(_MODULE_DIMS, _BRACKETS_BY_I))]).T


def _public(namespace: dict, *constants: str) -> list[str]:
    """A module's `__all__` from its `globals()`: the functions and classes it defines under a name without a
    leading underscore, in definition order, then the names of the `constants` it exports."""
    return [name for name, value in namespace.items() if not name.startswith("_") and isinstance(
        value, (type, FunctionType)) and value.__module__ == namespace["__name__"]] + [*constants]


__all__ = _public(globals())
