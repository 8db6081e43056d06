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
The Berger cone is simply x1 < 2 x2.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .spaces import xi_value

__all__ = [
    "ConeClass",
    "ConeVerdict",
    "sigma",
    "is_round_diagonal",
    "in_omega_sigma",
    "in_d_sigma",
    "a_tilde",
    "v_vector",
    "t_a",
    "t_a_closed",
    "a_tilde_inverse_slice",
    "classify_2param",
    "classify_3param",
    "classify_berger",
    "classify_aw_slice",
    "normalized_region",
]

# Relative width of the numerical round diagonal {s0 = s1 = s2}.
ROUND_DIAGONAL_RTOL = 1e-13
# Largest relative spread |s1 - s2| / mean that `classify_aw_slice` certifies.
SLICE_RTOL = 0.05


def _real(c) -> float:
    """float(c); an array of one element, which NumPy < 2.4 converts, is not a real."""
    if getattr(c, "ndim", 0):
        raise TypeError
    return float(c)


def _s_floats(s) -> list[float]:
    try:
        # a string iterates as its characters and an array of shape (3, 1) as
        # one-element rows: neither is a triple
        if type(s) is not list and (isinstance(s, (str, bytes)) or getattr(s, "shape", (3,)) != (3,)):
            raise TypeError
        s0, s1, s2 = values = [c if type(c) is float else _real(c) for c in s]
    except (TypeError, ValueError):   # not iterable, not three items, or an item not a real
        raise ValueError(f"expected a triple of reals, got {s!r}") from None
    if not (0.0 < s0 < math.inf and 0.0 < s1 < math.inf and 0.0 < s2 < math.inf):  # NaN too
        raise ValueError(f"scale factors must be strictly positive and finite, got {values}")
    return values


def _scaled(s) -> tuple[float, float, float, float]:
    """s divided by the power of two `scale` that brings max(s) into [1, 2),
    and `scale`.  A kernel of degree d on the scaled s, times scale**d, has no
    intermediate over- or underflow and the bits of the kernel on s itself.
    Where a scaled component would be subnormal and lose digits
    (max(s)/min(s) >= 2^1022), s itself comes back as exact Fractions with
    scale 1: the kernels compute in the number type of s, so they are exact
    there, and `_rounded` rounds their result once."""
    s0, s1, s2 = _s_floats(s)
    scale = 2.0 ** (math.frexp(max(s0, s1, s2))[1] - 1)
    if min(s0, s1, s2) < scale * sys.float_info.min:
        return Fraction(s0), Fraction(s1), Fraction(s2), 1
    return s0 / scale, s1 / scale, s2 / scale, scale


def _rounded(value) -> float:
    """A kernel's float or exact Fraction value as a float: +-inf where it overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _sigma(s0: float, s1: float, s2: float) -> float:
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


def sigma(s) -> float:
    """Quadratic sigma(s) = 2s1s2 + 2s0s2 + 2s0s1 - s0^2 - s1^2 - s2^2,
    correctly rounded where its terms nearly cancel; inf where it overflows."""
    s0, s1, s2, scale = _scaled(s)
    return _rounded(_sigma(s0, s1, s2) * scale * scale)


def _is_round(s0: float, s1: float, s2: float) -> bool:
    mean = (s0 + s1 + s2) / 3
    return max(abs(s0 - mean), abs(s1 - mean), abs(s2 - mean)) <= ROUND_DIAGONAL_RTOL * mean


def is_round_diagonal(s) -> bool:
    return _is_round(*_scaled(s)[:3])


def in_omega_sigma(s) -> bool:
    return _sigma(*_scaled(s)[:3]) > 0.0


def in_d_sigma(s) -> bool:
    return in_omega_sigma(s) and not is_round_diagonal(s)


def a_tilde(s) -> np.ndarray:
    """Symmetric 3x3 matrix A~(s); warns when s is outside D_sigma.  A~ has
    degree -1 and is evaluated on s scaled as in `_scaled`."""
    s0, s1, s2, scale = _scaled(s)
    sig = _sigma(s0, s1, s2)
    if sig <= 0.0 or _is_round(s0, s1, s2):
        warnings.warn("A~ evaluated outside D_sigma; matrix may be singular",
                      RuntimeWarning, stacklevel=2)
    arr, prod = (s0, s1, s2), s0 * s1 * s2
    b = [-sig / prod + (arr[j - 1] - arr[j] + arr[(j + 1) % 3]) / (arr[j - 1] * arr[(j + 1) % 3])
         for j in range(3)]
    rows = [[4 / s0, b[2], b[1]], [b[2], 4 / s1, b[0]], [b[1], b[0], 4 / s2]]
    return np.array([[_rounded(a / scale) for a in row] for row in rows])


def v_vector(s, xi) -> np.ndarray:
    """Direction vector v(s, xi) entering the boundary scale t_A."""
    arr = np.array(_s_floats(s))
    x = xi_value(xi)
    den = np.sqrt(2.0 * (x * x + x + 1.0))
    return np.array([-(1.0 + x) / (arr[0] * den),
                     x / (arr[1] * den),
                     1.0 / (arr[2] * den)])


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
    of approach, returns 0 by convention.  t_A has degree 1 and is
    evaluated on s scaled as in `_scaled`.
    """
    s0, s1, s2, scale = _scaled(s)
    x = type(s0)(xi_value(xi))
    if _is_round(s0, s1, s2):
        return 0.0
    return _rounded(_t_a(s0, s1, s2, x) * scale)


def t_a_closed(x: float, s: float) -> float:
    """Closed form t_A(x, s, s) = x(4s - x)/(3s) on the s1 = s2 slice at xi = 1.

    Only certified where sigma(x, s, s) = x(4s - x) > 0, i.e. x < 4s.
    """
    if not (0.0 < x < math.inf and 0.0 < s < math.inf):
        raise DomainError(f"need finite x > 0 and s > 0, got ({x}, {s})")
    if x >= 4.0 * s:
        raise DomainError(f"x = {x} >= 4s = {4 * s}: sigma <= 0, closed form not certified")
    return x * (4.0 * s - x) / (3.0 * s)


def a_tilde_inverse_slice(x: float, s: float) -> np.ndarray:
    """Closed-form inverse of A~(x, s, s), prefactor 1/((s-x)^2 (4s-x))."""
    if not (0.0 < x < math.inf and 0.0 < s < math.inf):
        raise DomainError(f"need finite x > 0 and s > 0, got ({x}, {s})")
    denom = (s - x) ** 2 * (4.0 * s - x)
    if denom == 0.0:
        raise DomainError(f"inverse prefactor vanishes at (x, s) = ({x}, {s})")
    diag0 = s**3 * x
    off0 = s * s * x * (3.0 * s - x) / 2.0
    diag = s * (16.0 * s**3 - 9.0 * s * s * x + 6.0 * s * x * x - x**3) / 12.0
    off = s * (8.0 * s**3 + 9.0 * s * s * x - 6.0 * s * x * x + x**3) / 12.0
    return np.array([
        [diag0, off0, off0],
        [off0, diag, off],
        [off0, off, diag],
    ]) / denom


class ConeClass(enum.Enum):
    POSITIVELY_CURVED = "PositivelyCurved"
    HAS_NONPOSITIVE_PLANE = "HasNonpositivePlane"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ConeVerdict:
    """Classification plus the signed margin of the deciding inequality."""

    classification: ConeClass
    margin: float

    def __post_init__(self):
        if self.classification is ConeClass.POSITIVELY_CURVED and not self.margin > 0.0:
            raise ValueError("PositivelyCurved requires margin > 0")
        if self.classification is ConeClass.HAS_NONPOSITIVE_PLANE and self.margin > 0.0:
            raise ValueError("HasNonpositivePlane requires margin <= 0")
        if self.classification is ConeClass.UNKNOWN and self.margin != 0.0:
            raise ValueError("Unknown carries margin 0 by convention")


def _verdict_from_margin(margin: float) -> ConeVerdict:
    if margin > 0.0:
        return ConeVerdict(ConeClass.POSITIVELY_CURVED, margin)
    return ConeVerdict(ConeClass.HAS_NONPOSITIVE_PLANE, margin)


def classify_2param(t: float, s: float) -> ConeVerdict:
    """Metrics (t, t, s, s) on W^7_{1,1}: positively curved iff t < s."""
    if not (0.0 < t < math.inf and 0.0 < s < math.inf):
        raise ValueError(f"need finite t, s > 0, got ({t}, {s})")
    return _verdict_from_margin(s - t)


def classify_3param(t: float, x: float, s: float) -> ConeVerdict:
    """Metrics (t, x, s, s) on W^7_{1,1}.

    After rescaling to s = 1: certified for x in (0, 1), where the verdict
    is t < t_A against t >= t_A (boundary included on the non-positive
    side).  For x >= s nothing is certified and the verdict is Unknown.
    """
    if not (0.0 < t < math.inf and 0.0 < x < math.inf and 0.0 < s < math.inf):
        raise ValueError(f"need finite t, x, s > 0, got ({t}, {x}, {s})")
    t_hat, x_hat = t / s, x / s
    if x_hat >= 1.0:
        return ConeVerdict(ConeClass.UNKNOWN, 0.0)
    return _verdict_from_margin(t_a_closed(x_hat, 1.0) - t_hat)


def classify_berger(x1: float, x2: float) -> ConeVerdict:
    """Berger metrics (x1, x2): positively curved iff x1 < 2 x2."""
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf):
        raise ValueError(f"need finite x1, x2 > 0, got ({x1}, {x2})")
    return _verdict_from_margin(2.0 * x2 - x1)


def classify_aw_slice(state, xi) -> ConeVerdict:
    """Classify a 4-tuple (t, s0, s1, s2) near the s1 = s2 slice at any xi.

    The certified slice statement (x in (0, s), t vs t_A) extends to an open
    neighbourhood; SLICE_RTOL bounds the accepted relative spread
    |s1 - s2| / mean.  Off-slice beyond that, or with s0 outside (0, mean),
    the verdict is Unknown.
    """
    t, s0, s1, s2 = (float(c) for c in state)
    if not all(0.0 < c < math.inf for c in (t, s0, s1, s2)):  # NaN too
        raise ValueError(f"state must be strictly positive and finite, got {state}")
    s_mean = 0.5 * (s1 + s2)
    if abs(s1 - s2) > SLICE_RTOL * s_mean or s0 >= s_mean:
        return ConeVerdict(ConeClass.UNKNOWN, 0.0)
    return _verdict_from_margin(t_a((s0, s1, s2), xi) - t)


def normalized_region(x: float, s: float) -> str:
    """Region of the unit-volume plane: G (sec > 0), P (non-positive plane),
    W (undetermined).  Ties 4x^3 s^4 - x^4 s^3 = 3 belong to P."""
    if not (0.0 < x < math.inf and 0.0 < s < math.inf):
        raise ValueError(f"need finite x, s > 0, got ({x}, {s})")
    q = 4.0 * x**3 * s**4 - x**4 * s**3
    if 3.0 >= q:
        return "P"
    return "G" if x < s else "W"
