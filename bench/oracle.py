"""High-precision oracles used only by the benchmark.

`t_a` solves the 3x3 system A~ w = v of the cone boundary in 50-digit
mpmath arithmetic, independently of `ricciflow.cone`.  `reference_exit`
integrates the four-parameter Aloff-Wallach flow with its own right-hand
side and the mpmath boundary as event function; it supplies reference
outcomes where the package at the recording commit raises instead of
answering (the near-round share of the `exit_map_xi` inputs).
"""

from __future__ import annotations

DIGITS = 50


def t_a(s, xi) -> float:
    """Boundary scale t_A(s, xi) = (2/9) <v, A~^-1 v>^-1 to 50 digits."""
    import mpmath
    with mpmath.workdps(DIGITS):
        s0, s1, s2 = (mpmath.mpf(c) for c in s)
        x = mpmath.mpf(xi)
        sig = 2 * s1 * s2 + 2 * s0 * s2 + 2 * s0 * s1 - s0 * s0 - s1 * s1 - s2 * s2
        prod = s0 * s1 * s2
        ss = (s0, s1, s2)
        b = [-sig / prod + (ss[j - 1] - ss[j] + ss[(j + 1) % 3]) / (ss[j - 1] * ss[(j + 1) % 3])
             for j in range(3)]
        a = mpmath.matrix([[4 / s0, b[2], b[1]],
                           [b[2], 4 / s1, b[0]],
                           [b[1], b[0], 4 / s2]])
        den = mpmath.sqrt(2 * (x * x + x + 1))
        v = mpmath.matrix([-(1 + x) / (s0 * den), x / (s1 * den), 1 / (s2 * den)])
        w = mpmath.lu_solve(a, v)
        q = sum(v[i] * w[i] for i in range(3))
        return float(mpmath.mpf(2) / 9 / q)


def boundary_residual(family: str, state, xi: float = 1.0) -> float:
    """Relative distance of an exit state from the cone boundary.

    aw2: t = s; aw3 at xi = 1: t = x(4s - x)/(3s); berger: x1 = 2 x2; aw3 at
    xi < 1 (the four-parameter state): t = t_A(s0, s1, s2, xi) via `t_a`.
    """
    if family == "aw2":
        t, s = state[0], state[-1]
        return abs(s - t) / s
    if family == "berger":
        x1, x2 = state
        return abs(2.0 * x2 - x1) / x1
    if len(state) == 3:
        import mpmath
        t, x, s = state
        with mpmath.workdps(DIGITS):
            t, x, s = (mpmath.mpf(c) for c in (t, x, s))
            edge = x * (4 * s - x) / (3 * s)
            return float(abs(edge - t) / edge)
    edge = t_a(state[1:], xi)
    return abs(edge - state[0]) / edge


def _aw4_rhs(xi):
    g = xi * xi + xi + 1.0
    c = ((xi + 1.0) ** 2, xi * xi, 1.0)

    def rhs(_l, y):
        t, s0, s1, s2 = y
        r0 = 1.5 * t / g * (c[0] / (s0 * s0) + c[1] / (s1 * s1) + c[2] / (s2 * s2))
        r1 = 6.0 / s0 - 1.5 * c[0] * t / (g * s0 * s0) + (s0 * s0 - s1 * s1 - s2 * s2) / (s0 * s1 * s2)
        r2 = 6.0 / s1 - 1.5 * c[1] * t / (g * s1 * s1) + (s1 * s1 - s0 * s0 - s2 * s2) / (s0 * s1 * s2)
        r3 = 6.0 / s2 - 1.5 * c[2] * t / (g * s2 * s2) + (s2 * s2 - s0 * s0 - s1 * s1) / (s0 * s1 * s2)
        return [-2.0 * r0 * t, -2.0 * r1 * s0, -2.0 * r2 * s1, -2.0 * r3 * s2]

    return rhs


def _first_crossing(fn, grid):
    """First grid interval on which fn falls to <= 0, refined by bisection."""
    lo, f_lo = grid[0], fn(grid[0])
    for hi in grid[1:]:
        f_hi = fn(hi)
        if f_hi <= 0.0 < f_lo:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if fn(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return float(hi)
        lo, f_lo = hi, f_hi
    return None


def reference_exit(t: float, x: float, xi: float, horizon: float = 1.0):
    """Outcome of the flow from (t, x, 1, 1) at parameter xi.

    Returns (outcome, exit_time, window_time): outcome is "exit" when the
    boundary t = t_A(s, xi) is crossed before the certified window
    s0 < (s1 + s2)/2 is left, else "no_exit_window"; None marks a crossing
    not found before `horizon`.  The flow is integrated with DOP853 at
    rel_tol 1e-13 by an independent right-hand side; both crossings are
    located on a log-spaced grid of the dense output (so a boundary dip
    shorter than one solver step is not skipped) and refined by bisection
    with the 50-digit boundary.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    sol = solve_ivp(_aw4_rhs(xi), (0.0, horizon), [t, x, 1.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    grid = np.concatenate([[0.0], np.logspace(-13, np.log10(horizon), 131)])

    def boundary(l):
        y = sol.sol(l)
        return t_a(y[1:], xi) - y[0]

    def window(l):
        y = sol.sol(l)
        return 0.5 * (y[2] + y[3]) - y[1]

    hit = _first_crossing(boundary, grid)
    leave = _first_crossing(window, grid)
    if hit is not None and (leave is None or hit < leave):
        return "exit", hit, leave
    return "no_exit_window", hit, leave
