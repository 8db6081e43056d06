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
cross-check of the closed forms: a 4-tuple for one metric (t, s0, s1, s2),
an (N, 4) array for an (N, 4) stack, each row with the bits of its 4-tuple.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from math import gcd

import numpy as np

__all__ = [
    "xi_value",
    "xi_from_integers",
    "aw_eigenvalue_tuple",
    "berger_eigenvalue_tuple",
    "ricci_from_structure",
]


def xi_value(xi: float) -> float:
    """xi as a float, which must lie in (0, 1]."""
    x = float(xi)
    if not (0.0 < x <= 1.0):
        raise ValueError(f"xi must lie in (0, 1], got {x}")
    return x


def _check_pair(k1: int, k2: int) -> None:
    if not (0 < k1 <= k2):
        raise ValueError(f"need 0 < k1 <= k2, got ({k1}, {k2})")
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


def ricci_from_structure(k1: int, k2: int, coeffs):
    """Eigenvalues (r0, r1, r2, r3) of the metric `coeffs` = (t, s0, s1, s2)
    from the general structure-constant formula.

        r_i = b_i/(2 x_i) - (1/2d_i) sum [ijk] x_j/(x_i x_k)
                          + (1/4d_i) sum [ijk] x_i/(x_j x_k)

    with b_i = 12, d = (1, 2, 2, 2) and x = (t, s0, s1, s2).  Independent of
    the closed forms in `aw_eigenvalue_tuple`: the two agree to 3.3e-13
    relative on the battery's sample.  The coefficients must be positive
    and finite.  Four of them give the 4-tuple; an (N, 4) stack gives an
    (N, 4) array, each row with the bits of its 4-tuple (one column formula
    serves both, each bracket sum running left to right in (j, k) order).
    """
    c = _family_values(k1, k2)
    try:
        x = np.asarray(coeffs, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a ragged stack, a non-number, an int past the float range
        x = None
    if x is None or x.ndim not in (1, 2) or x.shape[-1] != 4 or not np.all((0.0 < x) & (x < math.inf)):  # NaN too
        raise ValueError(f"need positive finite (t, s0, s1, s2) or an (N, 4) stack of them, got {coeffs!r}")
    cols = np.atleast_2d(x).T
    r = np.array([_B_COEFF / (2.0 * cols[i])
                  - sum(c[f] * cols[j] / (cols[i] * cols[k]) for f, j, k in brackets) / (2.0 * d)
                  + sum(c[f] * cols[i] / (cols[j] * cols[k]) for f, j, k in brackets) / (4.0 * d)
                  for i, (d, brackets) in enumerate(zip(_MODULE_DIMS, _BRACKETS_BY_I))]).T
    return r if x.ndim == 2 else tuple(r[0].tolist())
