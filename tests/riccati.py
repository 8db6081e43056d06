"""mpmath oracle of the cone exits of the two-parameter flows.

On (t, s) (aw2, xi = 1) and (x1, x2) (Berger) the Ricci eigenvalues are
homogeneous of degree -1, so with dtau = dl/x, x the second coefficient, the
ratio u of the two coefficients obeys an autonomous Riccati equation
du/dtau = a (u - r1)(u - r2), and d ln x/dtau = g0 + g1 u:

    aw2     u = t/s     du/dtau = 5 (u - 2/5)(2 - u)        d ln s/dtau = -3 (4 - u)
    Berger  v = x1/x2   dv/dtau = -(9/2) v^2 + 20 v - 16    d ln x2/dtau = -(5/2)(8 - v)

Partial fractions give x(u) = x0 prod_i |(u - r_i)/(u0 - r_i)|^(p_i), and the
exit time, where u reaches the boundary ratio u1 (1 for aw2, 2 for Berger), is
the quadrature l = int_{u0}^{u1} x(u)/(a (u - r1)(u - r2)) du.  The integrand
is smooth on [u0, u1] for r1 < u0 < u1 < r2, where the flow leaves the cone;
it varies on the scale u0 - r1 next to u0, so the quadrature runs over
w = ln(u - r1), in which it varies on a scale of order one.
"""

import mpmath as mp

# family: ((a, b, q), (g0, g1), u1) of du/dtau = a u^2 + b u + q, d ln x/dtau = g0 + g1 u,
# and u1 the ratio on the cone boundary (every number exact in binary)
REDUCTIONS = {"aw2": ((-5, 12, -4), (-12, 3), 1), "berger": ((-4.5, 20, -16), (-20, 2.5), 2)}


def riccati(family, u):
    """(du/dtau, d ln x/dtau) at the ratio u."""
    (a, b, q), (g0, g1), _u1 = REDUCTIONS[family]
    return a * u * u + b * u + q, g0 + g1 * u


def exit_at(family, init, dps=34):
    """(l, (u1 x, x)) of the cone exit from the float start `init` = (y0, x0),
    u0 = y0/x0, as mpf at `dps` digits; None where u0 is not between the
    lower root r1 and u1 (the flow then never leaves the cone)."""
    (a, b, q), (g0, g1), u1 = REDUCTIONS[family]
    with mp.workdps(dps):
        disc = mp.sqrt(b * b - 4 * a * q)
        r1, r2 = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
        y0, x0 = (mp.mpf(v) for v in init)
        u0 = y0 / x0
        if not r1 < u0 < u1:
            return None
        p1, p2 = (g0 + g1 * r1) / (a * (r1 - r2)), (g0 + g1 * r2) / (a * (r2 - r1))

        def x(u):
            return x0 * abs((u - r1) / (u0 - r1)) ** p1 * abs((u - r2) / (u0 - r2)) ** p2

        def dl_dw(w):   # du = (u - r1) dw
            u = r1 + mp.exp(w)
            return x(u) / (a * (u - r2))

        time = mp.quad(dl_dw, [mp.log(u0 - r1), mp.log(u1 - r1)])
        return +time, (u1 * x(u1), x(u1))
