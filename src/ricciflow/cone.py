"""Positive-sectional-curvature cone: boundary scale t_A and classifiers.

A diagonal Aloff-Wallach metric (t, s) with s in the admissible region has
positive sectional curvature exactly when t < t_A(s, xi).  The boundary scale
is t_A = (2/9) <v, A~^-1 v>^-1, built from the symmetric matrix A~(s) with

    a~_j = 4/s_j
    b~_j = -sigma(s)/(s0 s1 s2) + (s_{j-1} - s_j + s_{j+1})/(s_{j-1} s_{j+1})
    sigma(s) = 2 s1 s2 + 2 s0 s2 + 2 s0 s1 - s0^2 - s1^2 - s2^2

(indices cyclic mod 3) and the unit-circle direction vector

    v(s, xi) = (-(1+xi), xi, 1) / (s_j * sqrt(2(xi^2+xi+1))) componentwise.

`t_a` evaluates t_A in closed form.  With S = diag(s), 1 = (1, 1, 1) and
E_jk = (s_j - s_k)^2 / s_l (l the third index, E_jj = 0),
M = S A~ S = 6 S - s 1^T - 1 s^T + E and det M = 3 sigma mu, mu = 1^T M 1.
M is singular along 1 at the round point and S v is orthogonal to 1, so
<v, A~^-1 v> reduces to the Schur complement of mu:

    t_A = 12 Gamma sigma / (p^T M p - (p^T M 1)^2 / mu),
    Gamma = xi^2 + xi + 1,   p = (xi - 1, xi + 2, -(2 xi + 1)) (p orthogonal to 1 and S v).

As p is orthogonal to 1, mu, p^T M p and p^T M 1 need only E and the
differences s_j - s_k, so nothing cancels near the round diagonal.  There
the limit of t_A depends on the direction of approach (1 along the s1 = s2
slice, about 1.3288 along (0, 1, -0.7)); on the round diagonal itself `t_a`
returns 0 by convention.  At xi = 1, t_A(x, s, s) = x(4s - x)/(3s).
The Berger cone is simply x1 < 2 x2.  `_CONES` writes each family's cone once.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .spaces import _is_real, _public, _reals, _stack, xi_value

# Relative width of the numerical round diagonal {s0 = s1 = s2}.
ROUND_DIAGONAL_RTOL = 1e-13
# The band [_BAND_LO, _BAND_HI) of every float-or-exact decision: on inputs inside it no intermediate of a
# kernel of degree <= 4 over- or underflows, so the float formula needs neither scaling nor Fractions.
_BAND_LO, _BAND_HI = 2.0 ** -64, 2.0 ** 64
# Largest relative spread |s1 - s2| / mean that `classify_aw_slice` certifies.
SLICE_RTOL = 0.05


def _scaled(s: Sequence[float]) -> tuple[list, float]:
    """The guarded floats s as a list divided by a power of two `scale`, and `scale`: one band
    decides.  On s inside [_BAND_LO, _BAND_HI) no intermediate of a kernel of degree <= 4 over- or
    underflows, so scale is 1.  Else scale brings max(s) into [1, 2); where the scaled s lies in the
    band (always for max(s)/min(s) <= 2^64), a kernel of degree d on it, times scale**d, has the bits
    of the kernel on s.  Where the scaled min(s) is below the band, s comes back as exact Fractions,
    scale 1: the kernels compute in the number type of s, and `_rounded` rounds their result once.
    That path costs about 0.7 ms per `t_a` call, against 3.5 us in the band; no benchmark case takes it."""
    lo, hi = min(s), max(s)
    if _BAND_LO <= lo and hi < _BAND_HI:
        return [*s], 1.0
    scale = _power_of_two(hi)
    if lo < scale * _BAND_LO:
        return [*map(Fraction, s)], 1
    return [c / scale for c in s], scale


def _power_of_two(c: float) -> float:  # the power of two p with c/p in [1, 2), for c > 0 finite
    return 2.0 ** (math.frexp(c)[1] - 1)


def _rounded(value) -> float:
    """A kernel's float or exact Fraction value as a float: +-inf where it overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _on_floats(kernel):
    """`kernel(*state)` as `f(state)`, or as `f(state, xi)` where its last parameter is xi or _xi
    (chosen here, not per call), on Python floats: the bits of numpy float64 scalars at half the cost.
    A list must hold floats and is passed as it is (a conversion costs a third of a call); any other
    sequence is converted.  Where float `**` or `/` raises and numpy gives inf or nan, the kernel runs
    again on numpy scalars, so a stage that overflows is rejected, not raised."""
    def f(state):
        state = state if type(state) is list else np.asarray(state, dtype=float).tolist()
        try:
            return kernel(*state)
        except (OverflowError, ZeroDivisionError):
            return kernel(*np.array(state, dtype=float))

    def f_xi(state, xi):
        state = state if type(state) is list else np.asarray(state, dtype=float).tolist()
        try:
            return kernel(*state, xi)
        except (OverflowError, ZeroDivisionError):
            return kernel(*np.array(state, dtype=float), xi)
    code = kernel.__code__
    return functools.wraps(kernel)(f_xi if code.co_varnames[code.co_argcount - 1] in ("xi", "_xi") else f)


def _sigma(s0: float, s1: float, s2: float) -> float:
    """sigma(s) of the module docstring, correctly rounded where its terms nearly cancel."""
    value = 2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0 * s0 - s1 * s1 - s2 * s2
    # The terms' magnitudes sum to (s0 + s1 + s2)^2; near sigma = 0 they
    # cancel, so there a float value is computed exactly, in integers over
    # the common denominator of s, and rounded once (int / int is correctly
    # rounded, as float(Fraction) is).  Fraction s is exact already.
    if isinstance(s0, float) and 16 * value < (s0 + s1 + s2) ** 2:
        (n0, d0), (n1, d1), (n2, d2) = (c.as_integer_ratio() for c in (s0, s1, s2))
        d = math.lcm(d0, d1, d2)
        n0, n1, n2 = n0 * (d // d0), n1 * (d // d1), n2 * (d // d2)
        num = 2 * n1 * n2 + 2 * n0 * n2 + 2 * n0 * n1 - n0 * n0 - n1 * n1 - n2 * n2
        value = num / (d * d)
    return value


def _is_round(s0: float, s1: float, s2: float) -> bool:
    mean = (s0 + s1 + s2) / 3
    return max(abs(s0 - mean), abs(s1 - mean), abs(s2 - mean)) <= ROUND_DIAGONAL_RTOL * mean


def a_tilde(s) -> np.ndarray:
    """Symmetric 3x3 matrix A~(s); warns when s is outside D_sigma.  A~ has
    degree -1 and is evaluated on s scaled as in `_scaled`."""
    (s0, s1, s2), scale = _scaled(_reals(s, 3))
    sig = _sigma(s0, s1, s2)
    if sig <= 0.0 or _is_round(s0, s1, s2):
        warnings.warn("A~ evaluated outside D_sigma; matrix may be singular",
                      RuntimeWarning, stacklevel=2)
    return np.array([[_rounded(a / scale) for a in row] for row in _a_tilde(s0, s1, s2, sig)])


def _a_tilde(s0, s1, s2, sig):  # the rows of A~, elementwise on arrays
    arr, prod = (s0, s1, s2), s0 * s1 * s2
    b = [-sig / prod + (arr[j - 1] - arr[j] + arr[(j + 1) % 3]) / (arr[j - 1] * arr[(j + 1) % 3])
         for j in range(3)]
    return [[4 / s0, b[2], b[1]], [b[2], 4 / s1, b[0]], [b[1], b[0], 4 / s2]]


def _t_a(s0, s1, s2, x):
    """The Schur form of t_A off the round diagonal, in the number type of its arguments."""
    d01, d02, d12 = s1 - s0, s2 - s0, s2 - s1
    e01, e02, e12 = d01 * d01 / s2, d02 * d02 / s1, d12 * d12 / s0  # E_jk
    mu = 2 * (e01 + e02 + e12)
    p0, p1, p2 = x - 1, x + 2, -(2 * x + 1)
    pm1 = (3 * (p1 * d01 + p2 * d02)  # p^T M 1
           + p0 * (e01 + e02) + p1 * (e01 + e12) + p2 * (e02 + e12))
    pmp = (6 * (p0 * p0 * s0 + p1 * p1 * s1 + p2 * p2 * s2)  # p^T M p
           + 2 * (p0 * p1 * e01 + p0 * p2 * e02 + p1 * p2 * e12))
    return 12 * (x * x + x + 1) * _sigma(s0, s1, s2) / (pmp - pm1 * pm1 / mu)


def t_a(s, xi) -> float:
    """Boundary scale t_A(s, xi) = (2/9) <v, A~^-1 v>^-1 in closed form.

    Evaluates 12 Gamma sigma / (p^T M p - (p^T M 1)^2 / mu) of the module
    docstring (`_t_a`): no matrix is formed or solved, and the value stays
    accurate up to the round diagonal.  On the round diagonal itself (within
    ROUND_DIAGONAL_RTOL), where the limit of t_A depends on the direction
    of approach, returns 0 by convention.  t_A has degree 1 and is evaluated on s
    scaled as in `_scaled`.  The result is not correctly rounded: it lies a median
    1.4 ulps, and up to 120 where sigma is small, from the exact `_t_a` in `Fraction`,
    so interval work must evaluate `_t_a` itself.
    """
    if type(s) is list and len(s) == 3:   # the flow's events pass a list of floats
        s0, s1, s2 = s
        if (type(s0) is type(s1) is type(s2) is float   # then `_reals` and `_scaled` give s with scale 1
                and _BAND_LO <= s0 < _BAND_HI and _BAND_LO <= s1 < _BAND_HI and _BAND_LO <= s2 < _BAND_HI):
            x = xi_value(xi)
            return 0.0 if _is_round(s0, s1, s2) else _t_a(s0, s1, s2, x)   # a float: `_rounded` keeps it
    (s0, s1, s2), scale = _scaled(_reals(s, 3))
    x = type(s0)(xi_value(xi))
    if _is_round(s0, s1, s2):
        return 0.0
    return _rounded(_t_a(s0, s1, s2, x) * scale)


def t_a_closed(x: float, s: float) -> float:
    """Closed form t_A(x, s, s) = x(4s - x)/(3s) on the s1 = s2 slice at xi = 1.

    Only certified where sigma(x, s, s) = x(4s - x) > 0, i.e. 0 < x < 4s.  The float formula
    inside the band, the exact value rounded once outside it (`_float_or_exact`).
    """
    with np.errstate(over="ignore"):   # 4s = inf where s > max/4, which still orders right
        if not (_is_real(x) and _is_real(s) and _all((0.0 < x) & (x < 4.0 * s))):   # non-finite s: `_float_or_exact`
            raise DomainError(f"need reals 0 < x < 4s, got ({x!r}, {s!r}): closed form not certified")
    return _float_or_exact(lambda x, s: x * (4 * s - x) / (3 * s), x, s)


def a_tilde_inverse_slice(x: float, s: float) -> np.ndarray:
    """Closed-form inverse of A~(x, s, s), prefactor 1/((s-x)^2 (4s-x)); a stack (..., 3, 3) on arrays.
    Evaluated as `t_a_closed` is, entry by entry (an entry may be 0, at x = 3s)."""
    with np.errstate(over="ignore"):   # as in `t_a_closed`
        if not (_is_real(x) and _is_real(s) and _all((0.0 < x) & (x != s) & (x != 4.0 * s))):   # as in `t_a_closed`
            raise DomainError(f"need real x > 0 off the inverse prefactor's poles x = s, 4s, got ({x!r}, {s!r})")
    return _float_or_exact(_inverse_slice, x, s)


def _inverse_slice(x, s):
    s3, x3 = s * s * s, x * x * x
    denom = (s - x) * (s - x) * (4 * s - x)
    diag0 = s3 * x
    off0 = s * s * x * (3 * s - x) / 2
    diag = s * (16 * s3 - 9 * s * s * x + 6 * s * x * x - x3) / 12
    off = s * (8 * s3 + 9 * s * s * x - 6 * s * x * x + x3) / 12
    inv = np.array([[diag0, off0, off0], [off0, diag, off], [off0, off, diag]]) / denom
    return np.moveaxis(inv, (0, 1), (-2, -1)).copy() if inv.ndim > 2 else inv


def _float_or_exact(form, x, s):
    """form(x, s) for a closed form of degree <= 4 with integer literals: exact on Fractions.  On floats,
    elementwise on arrays, the float formula where x and s lie in the band; elsewhere the exact value at the
    float inputs, rounded once, for 0 <= x < inf and 0 < s < inf, else DomainError, as for an input that is
    not real (`_is_real`).  An array with any point outside the band is evaluated point by point.  A form
    writes its integer powers as products, not `**` (NumPy's array `**` need not give Python's bits), so
    each point of an array has the bits of its scalar call."""
    if not (_is_real(x) and _is_real(s)):   # a numpy complex compares, and would give a complex value
        raise DomainError(f"need real x and s, got ({x!r}, {s!r})")
    if (isinstance(x, Fraction) or isinstance(s, Fraction)
            or _all((_BAND_LO <= x) & (x < _BAND_HI) & (_BAND_LO <= s) & (s < _BAND_HI))):
        return form(x, s)
    if isinstance(x, np.ndarray) or isinstance(s, np.ndarray):
        points = [_float_or_exact(form, a, b) for a, b in np.broadcast(x, s)]
        return np.reshape(points, np.broadcast(x, s).shape + np.shape(points[0]))
    if not (0.0 <= x < math.inf and 0.0 < s < math.inf):   # NaN too
        raise DomainError(f"need finite x >= 0 and s > 0, got ({x}, {s})")
    exact = form(Fraction(x), Fraction(s))
    return np.vectorize(_rounded, otypes=[float])(exact) if isinstance(exact, np.ndarray) else _rounded(exact)


def _all(cond) -> bool:  # a comparison of floats or arrays holds everywhere; np.all is slow on a scalar
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def _rowwise(kernel, s, scalar) -> np.ndarray:
    """`kernel(columns)` on an (N, 3) stack guarded by `_stack`, and `scalar(row)` on the rows outside
    the band, where the scalar path scales, and on supersets of the rows where it branches.  Inside
    the band no intermediate over- or underflows, so the kernel has the scalar bits there."""
    rows = _stack(s, 3)
    with np.errstate(all="ignore"):  # the rows that take `scalar` may overflow or divide by zero
        out = kernel(rows.T)
        top = rows.max(axis=1)
        fallback = ((rows.min(axis=1) < _BAND_LO) | (top >= _BAND_HI)
                    | (np.ptp(rows, axis=1) <= 4 * ROUND_DIAGONAL_RTOL * top)  # round: <= 2 RTOL mean
                    | (15 * _sigma(*rows.T) < np.square(rows.sum(axis=1))))  # 16 sigma < sum**2
    for i in np.flatnonzero(fallback):
        out[i] = scalar(rows[i].tolist())
    return out


def _t_a_rows(s, xi) -> np.ndarray:
    return _rowwise(lambda c: _t_a(*c, xi_value(xi)), s, lambda row: t_a(row, xi))


def _a_tilde_rows(s) -> np.ndarray:
    return _rowwise(lambda c: np.array(_a_tilde(*c, _sigma(*c))).transpose(2, 0, 1).copy(), s, a_tilde)


class ConeClass(enum.Enum):
    POSITIVELY_CURVED = "PositivelyCurved"
    HAS_NONPOSITIVE_PLANE = "HasNonpositivePlane"
    UNKNOWN = "Unknown"


# bound once: reading an enum member costs an attribute lookup through the enum's metaclass
_POSITIVE, _NONPOSITIVE, _UNKNOWN = ConeClass.POSITIVELY_CURVED, ConeClass.HAS_NONPOSITIVE_PLANE, ConeClass.UNKNOWN


@dataclass(frozen=True)
class ConeVerdict:
    """Classification plus the signed margin of the deciding inequality."""

    classification: ConeClass
    margin: float

    def __post_init__(self):
        c, m = self.classification, self.margin
        if c is (_POSITIVE if m > 0.0 else _NONPOSITIVE):   # every verdict of a classifier but Unknown
            return
        if c is _POSITIVE:
            raise ValueError("PositivelyCurved requires margin > 0")
        if c is _NONPOSITIVE:
            raise ValueError("HasNonpositivePlane requires margin <= 0")
        if c is _UNKNOWN and m != 0.0:
            raise ValueError("Unknown carries margin 0 by convention")


def _aw4_gap(y, xi) -> float:
    """t_A(s, xi) - t, or inf where a coefficient of s is <= 0."""
    try:
        return t_a(y[1:], xi) - float(y[0])
    except ValueError:  # in a flow such a step end is past the collapse floor, whose root ends the run
        if any(c <= 0.0 for c in y[1:]):
            return math.inf
        raise


# Each family's cone, for its classifier and the flow's events alike:
# `gap(state, xi)` is positive strictly inside it and `window(state)` positive
# where the classifier certifies a verdict (None: everywhere).  Both have
# degree 1 and integer literals, so a Fraction state gives the exact value.
_Cone = namedtuple("_Cone", "gap window")
_CONES = {
    "aw2": _Cone(_on_floats(lambda t, s, _xi: s - t), None),
    "aw3": _Cone(_on_floats(lambda t, x, s, _xi: x * (4 * s - x) / (3 * s) - t),
                 _on_floats(lambda t, x, s: s - x)),
    "aw4": _Cone(_aw4_gap, _on_floats(lambda t, x, s1, s2: (s1 + s2) / 2 - x)),
    "berger": _Cone(_on_floats(lambda x1, x2, _xi: 2 * x2 - x1), None),
}


def _classify(family: str, y: Sequence[float], xi: float = 1.0) -> ConeVerdict:
    """Unknown where `family`'s window is <= 0 at the checked state `y`, else
    the sign of its gap, with the gap as margin.  The kernels run on y scaled
    as in `_scaled`: the margin has a value at any scale, and the bits of the
    flow's event wherever that neither over- nor underflows."""
    gap, window = _CONES[family]
    y, scale = _scaled(y)
    if window is not None and not window(y) > 0:
        return ConeVerdict(_UNKNOWN, 0.0)
    margin = _rounded(gap(y, xi) * scale)
    return ConeVerdict(_POSITIVE if margin > 0.0 else _NONPOSITIVE, margin)


def classify_2param(t: float, s: float) -> ConeVerdict:
    """Metrics (t, t, s, s) on W^7_{1,1}: positively curved iff t < s."""
    return _classify("aw2", _reals((t, s), 2))


def classify_3param(t: float, x: float, s: float) -> ConeVerdict:
    """Metrics (t, x, s, s) on W^7_{1,1}.

    Certified for x in (0, s), where the verdict is t < t_A = x(4s - x)/(3s)
    against t >= t_A (boundary included on the non-positive side), with the
    margin t_A - t.  For x >= s nothing is certified and the verdict is Unknown.
    """
    return _classify("aw3", _reals((t, x, s), 3))


def classify_berger(x1: float, x2: float) -> ConeVerdict:
    """Berger metrics (x1, x2): positively curved iff x1 < 2 x2."""
    return _classify("berger", _reals((x1, x2), 2))


def classify_aw_slice(state, xi) -> ConeVerdict:
    """Classify a 4-tuple (t, s0, s1, s2) near the s1 = s2 slice at any xi.

    The certified slice statement (x in (0, s), t vs t_A) extends to an open
    neighbourhood; SLICE_RTOL bounds the accepted relative spread
    |s1 - s2| / mean.  Off-slice beyond that, or with s0 outside (0, mean),
    the verdict is Unknown.
    """
    y = _reals(state, 4)
    xi = xi_value(xi)
    if abs(y[2] - y[3]) > SLICE_RTOL * (0.5 * y[2] + 0.5 * y[3]):   # the mean, without overflow
        return ConeVerdict(_UNKNOWN, 0.0)
    return _classify("aw4", y, xi)


def _q(x, s):
    """The region test's quartic 4 x^3 s^4 - x^4 s^3, written with integer literals:
    exact on Fractions, and on floats the bits of `4.0 * x**3 * s**4 - x**4 * s**3`."""
    return 4 * x**3 * s**4 - x**4 * s**3


def normalized_region(x: float, s: float) -> str:
    """Region of the unit-volume plane: G (sec > 0), P (non-positive plane),
    W (undetermined).  Ties q = 4x^3 s^4 - x^4 s^3 = 3 belong to P.  q is taken in floats
    inside the band, else in Fraction."""
    x, s = _reals([x, s], 2)
    if not (_BAND_LO <= x < _BAND_HI and _BAND_LO <= s < _BAND_HI):
        x, s = Fraction(x), Fraction(s)
    return "P" if 3.0 >= _q(x, s) else "G" if x < s else "W"


__all__ = _public(globals())
