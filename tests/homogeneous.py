"""Exact oracles of the paper's definitions, derived from matrices.

A reductive split g = h + m_0 + ... + m_n of a compact matrix Lie algebra,
with Q(X, Y) = -tr(XY)/2, has the structure constants

    [ijk] = sum Q([X_a, X_b], X_c)^2 / (Q(X_a, X_a) Q(X_b, X_b) Q(X_c, X_c))

over Q-orthogonal bases X_a of m_i, X_b of m_j and X_c of m_k.  On matrices
with Gaussian-integer entries every trace is an integer, so the constants
come out as exact `Fraction`s.  From them the Wang-Ziller formula (Invent.
Math. 84, 1986) gives the Ricci eigenvalues of the diagonal metric
x_0 Q|m_0 + ... + x_n Q|m_n.  `aloff_wallach_modules` is the split of su(3)
behind W^7_{k1,k2}; `v_vector` is the direction vector of the cone boundary
t_A = (2/9) <v, A~^-1 v>^-1.
"""

import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np


def _gaussian(x):
    """A matrix with Gaussian-integer entries as (real, imaginary) arrays of Python ints."""
    x = np.asarray(x, dtype=complex)
    re, im = np.rint(x.real), np.rint(x.imag)
    if not (np.array_equal(re, x.real) and np.array_equal(im, x.imag)):
        raise ValueError(f"need Gaussian-integer entries, got {x!r}")
    return re.astype(np.int64).astype(object), im.astype(np.int64).astype(object)


def _q(x, y):  # -tr(XY)/2; real for skew-Hermitian X, Y
    (a, b), (c, d) = x, y
    return Fraction(-int(np.sum(a * c.T) - np.sum(b * d.T)), 2)


def _bracket(x, y):
    (a, b), (c, d) = x, y
    return a @ c - b @ d - c @ a + d @ b, a @ d + b @ c - c @ b - d @ a


def structure_constants(modules):
    """The exact [ijk] of the modules, each a list of Q-orthogonal matrices,
    as an n x n x n object array of `Fraction`s."""
    basis = [(i, _gaussian(x)) for i, module in enumerate(modules) for x in module]
    norms = [_q(x, x) for _, x in basis]
    n = len(modules)
    table = np.array([Fraction(0)] * n ** 3, dtype=object).reshape(n, n, n)
    for (i, x), nx in zip(basis, norms):
        for (j, y), ny in zip(basis, norms):
            z = _bracket(x, y)
            for (k, w), nw in zip(basis, norms):
                table[i, j, k] += _q(z, w) ** 2 / (nx * ny * nw)
    return table


def _unit(j, k):  # the matrix unit E_jk
    e = np.zeros((3, 3), dtype=complex)
    e[j, k] = 1
    return e


def aloff_wallach_modules(k1, k2):
    """The modules of W_{k1,k2} = SU(3)/U(1), the U(1) spanned by
    i diag(k1, k2, -k1-k2): index 0 is m0, spanned by
    i diag(k1 + 2k2, -(2k1 + k2), k1 - k2); indices 1, 2, 3 are the root
    spaces (1,2), (2,3) and (1,3), which the metric scales by s0, s1, s2."""
    m0 = [1j * np.diag([k1 + 2 * k2, -(2 * k1 + k2), k1 - k2])]
    roots = [[_unit(j, k) - _unit(k, j), 1j * (_unit(j, k) + _unit(k, j))]
             for j, k in ((0, 1), (1, 2), (0, 2))]
    return [m0, *roots]


@functools.cache
def aloff_wallach_constants(k1, k2):
    """The exact [ijk] of W_{k1,k2}, computed once per pair (read-only)."""
    table = structure_constants(aloff_wallach_modules(k1, k2))
    table.flags.writeable = False  # every caller gets this one array
    return table


def wang_ziller_ricci(table, dims, b, x):
    """Ricci eigenvalues of the metric sum x_i Q|m_i, for -B = b Q:

        r_i = b/(2 x_i) - (1/2d_i) sum [ijk] x_j/(x_i x_k) + (1/4d_i) sum [ijk] x_i/(x_j x_k)

    in the number type of x (exact on `Fraction`s)."""
    n = len(dims)
    return tuple(b / (2 * x[i])
                 - sum(table[i, j, k] * x[j] / (x[i] * x[k]) for j, k in product(range(n), repeat=2)) / (2 * dims[i])
                 + sum(table[i, j, k] * x[i] / (x[j] * x[k]) for j, k in product(range(n), repeat=2)) / (4 * dims[i])
                 for i in range(n))


def v_vector(s, xi):
    """Direction vector v(s, xi) of the boundary scale t_A."""
    s0, s1, s2 = (float(c) for c in s)
    den = math.sqrt(2.0 * (xi * xi + xi + 1.0))
    return np.array([-(1.0 + xi) / (s0 * den), xi / (s1 * den), 1.0 / (s2 * den)])
