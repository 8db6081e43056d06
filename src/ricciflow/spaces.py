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
cross-check of the closed forms.
"""

from __future__ import annotations

import math
from itertools import permutations
from math import gcd

import numpy as np

__all__ = [
    "xi_value",
    "xi_from_integers",
    "aw_eigenvalue_tuple",
    "berger_eigenvalue_tuple",
    "bracket_constants",
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
    return k1 / k2


def aw_eigenvalue_tuple(t, s0, s1, s2, xi):
    """Raw (r0, r1, r2, r3) for coefficients known to be positive.

    The four expressions are written in strictly parallel form so that
    r2 == r3 bit-for-bit whenever s1 == s2 and xi == 1.
    """
    g = xi * xi + xi + 1.0
    c0 = (xi + 1.0) * (xi + 1.0)
    c1 = xi * xi
    c2 = 1.0
    r0 = 3.0 * t / (2.0 * g) * (c0 / (s0 * s0) + c1 / (s1 * s1) + c2 / (s2 * s2))
    r1 = 6.0 / s0 - 3.0 * c0 * t / (2.0 * g * s0 * s0) + (s0 / (s1 * s2) - s1 / (s0 * s2) - s2 / (s0 * s1))
    r2 = 6.0 / s1 - 3.0 * c1 * t / (2.0 * g * s1 * s1) + (s1 / (s0 * s2) - s0 / (s1 * s2) - s2 / (s0 * s1))
    r3 = 6.0 / s2 - 3.0 * c2 * t / (2.0 * g * s2 * s2) + (s2 / (s0 * s1) - s0 / (s1 * s2) - s1 / (s0 * s2))
    return r0, r1, r2, r3


def berger_eigenvalue_tuple(x1, x2):
    """Raw (r1, r2) for the Berger metric (x1, x2).

    The x2 = 1 slice is r1 = (8 + x1^2)/x1, r2 = 5(8 - x1)/4; general x2
    follows from degree -1 homogeneity: r_i(x1, x2) = r_i(x1/x2, 1)/x2.
    """
    r1 = (8.0 * x2 * x2 + x1 * x1) / (x1 * x2 * x2)
    r2 = 5.0 * (8.0 * x2 - x1) / (4.0 * x2 * x2)
    return r1, r2


# The nonzero [ijk] form four families, each closed under permuting ijk;
# _BRACKETS_BY_I lists, for each i, the family and (j, k) of every one.
_FAMILIES = [sorted(set(permutations(index))) for index in ((1, 1, 0), (2, 2, 0), (3, 3, 0), (1, 2, 3))]
_BRACKETS_BY_I = [[(f, j, k) for f, perms in enumerate(_FAMILIES) for i2, j, k in perms if i2 == i]
                  for i in range(4)]


def _family_values(k1: int, k2: int) -> tuple[float, float, float, float]:
    _check_pair(k1, k2)
    gamma = k1 * k1 + k2 * k2 + k1 * k2
    return (6.0 * (k1 + k2) ** 2 / gamma, 6.0 * k1 * k1 / gamma, 6.0 * k2 * k2 / gamma, 4.0)


def bracket_constants(k1: int, k2: int) -> np.ndarray:
    """Structure constants [ijk] of W^7_{k1,k2} as a symmetric 4x4x4 array.

    Index 0 is the one-dimensional module scaled by t, indices 1..3 the
    two-dimensional modules scaled by s0, s1, s2.  With
    Gamma = k1^2 + k2^2 + k1 k2 the nonzero families are

        [110] = 6(k1+k2)^2 / Gamma    [220] = 6 k1^2 / Gamma
        [330] = 6 k2^2 / Gamma        [123] = 4

    together with all permutations; every other entry vanishes.
    """
    table = np.zeros((4, 4, 4))
    for perms, value in zip(_FAMILIES, _family_values(k1, k2)):
        for index in perms:
            table[index] = value
    return table


# Killing-form coefficient of su(3) relative to <X,Y> = -tr(XY)/2, and the
# module dimensions of the isotropy decomposition.
_B_COEFF = 12.0
_MODULE_DIMS = (1.0, 2.0, 2.0, 2.0)


def ricci_from_structure(k1: int, k2: int, coeffs) -> tuple[float, float, float, float]:
    """Eigenvalues (r0, r1, r2, r3) of the metric `coeffs` = (t, s0, s1, s2)
    from the general structure-constant formula.

        r_i = b_i/(2 x_i) - (1/2d_i) sum [ijk] x_j/(x_i x_k)
                          + (1/4d_i) sum [ijk] x_i/(x_j x_k)

    with b_i = 12, d = (1, 2, 2, 2) and x = (t, s0, s1, s2).  Independent of
    the closed forms in `aw_eigenvalue_tuple`; sums are compensated so the
    two paths agree to ~1e-13 relative.  The four coefficients must be
    positive and finite.
    """
    c = _family_values(k1, k2)
    x = [float(v) for v in coeffs]
    if len(x) != 4 or not all(0.0 < v < math.inf for v in x):  # NaN too
        raise ValueError(f"need four positive finite coefficients (t, s0, s1, s2), got {coeffs}")
    r = []
    for x_i, d, brackets in zip(x, _MODULE_DIMS, _BRACKETS_BY_I):
        first = math.fsum([c[f] * x[j] / (x_i * x[k]) for f, j, k in brackets])
        second = math.fsum([c[f] * x_i / (x[j] * x[k]) for f, j, k in brackets])
        r.append(math.fsum([_B_COEFF / (2.0 * x_i), -first / (2.0 * d), second / (4.0 * d)]))
    return tuple(r)
