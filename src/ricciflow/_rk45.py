"""Dormand-Prince 5(4) integration with Shampine's dense output and event roots.

The embedded pair of Dormand & Prince (1980, J. Comput. Appl. Math. 6) with
the step-size control and initial-step heuristic of Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4, and Shampine's quartic dense output.  The
array operations are those of `scipy.integrate.solve_ivp(method="RK45",
dense_output=True, events=...)`, in the same order, so steps, event roots
and outputs are the same bit for bit.  Event signs are tested at step ends;
a sign change is refined by Brent's method on that step's interpolant,
which is only built on such steps.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

EPS = float(np.finfo(float).eps)
TOL = 4 * EPS   # Brent's xtol and rtol, as in solve_ivp's event location
SAFETY, MIN_FACTOR, MAX_FACTOR, EXPONENT = 0.9, 0.2, 10.0, -1 / 5
UNDERFLOW = "Required step size is less than spacing between numbers."

A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _norm(x) -> float:
    """RMS norm."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound, direction, rtol, atol, max_step) -> float:
    """First step size from the local error of an Euler step (HNW II.4), order 4."""
    span = abs(t_bound)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(y0 + h0 * direction * f0)
    d2 = _norm((f1 - f0) / scale) / h0 if h0 else math.inf  # h0 = 0: f0 not finite
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, max_step)


def brentq(f, xa: float, xb: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), step for
    step the C routine behind `scipy.optimize.brentq` with xtol = rtol = TOL."""
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (TOL + TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                                     # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                          # good short step
            else:
                spre = scur = sbis                               # bisect
        else:
            spre = scur = sbis                                   # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def solve(fun, y0: np.ndarray, t_bound: float, rtol: float, atol: float,
          max_step: float, events) -> dict:
    """Integrate y' = fun(y) from (0, y0) to t_bound, forward or backward.

    `events` are (g, terminal, direction) triples with g(t, y) a scalar; a
    root is recorded where g changes sign in `direction` (0: either), and
    the first terminal root in time ends the run.  Returns the step ends
    `t`, `y`, the roots `t_events`/`y_events` per event, `status` (0 at
    t_bound, 1 terminal event, -1 step-size underflow), and `stats`.
    """
    if rtol < 100 * EPS:
        warnings.warn(f"rtol is too small, using rtol = {100 * EPS}", stacklevel=3)
        rtol = 100 * EPS
    direction = 1.0 if t_bound > 0 else -1.0
    n_steps = n_rejected = 0
    t, y, f = 0.0, y0, fun(y0)
    h_abs = _initial_step(fun, y0, f, t_bound, direction, rtol, atol, max_step)
    K = np.empty((7, y0.size))
    stages = [(K[:s].T, A[s, :s]) for s in range(1, 6)]
    # Products of two short arrays cost about half of those of an array and
    # a Python float, with the same bits, so h and the tolerances are arrays.
    hv, atol_v, rtol_v = np.empty(y0.size), np.full(y0.size, atol), np.full(y0.size, rtol)
    ts, ys = [t], [y]
    g = [float(ev(t, y)) for ev, _, _ in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            hv.fill(h)
            K[0] = f
            for s, (Ks, a) in enumerate(stages, start=1):
                K[s] = fun(y + np.dot(Ks, a) * hv)
            y_new = y + hv * np.dot(K[:-1].T, B)
            K[-1] = f_new = fun(y_new)
            scale = atol_v + np.maximum(np.abs(y), np.abs(y_new)) * rtol_v
            error_norm = _norm(np.dot(K.T, E) * hv / scale)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
            n_rejected += 1
        else:
            status = -1
            break
        n_steps += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        g_new = [float(ev(t, y)) for ev, _, _ in events]
        active = [i for i, (_, _, d) in enumerate(events)
                  if (g[i] <= 0 <= g_new[i] and d >= 0) or (g[i] >= 0 >= g_new[i] and d <= 0)]
        g = g_new
        if active:
            Q, dt = K.T.dot(P), t - t_old

            def sol(tt):
                x = (tt - t_old) / dt
                return dt * np.dot(Q, np.array([x, x * x, x * x * x, x * x * x * x])) + y_old

            hits = [(i, brentq(lambda tt: events[i][0](tt, sol(tt)), t_old, t)) for i in active]
            if any(events[i][1] for i in active):
                hits.sort(key=lambda hit: direction * hit[1])
                hits = hits[:1 + next(k for k, (i, _) in enumerate(hits) if events[i][1])]
                status = 1
                t = hits[-1][1]
                y = sol(t)
            for i, te in hits:
                t_events[i].append(te)
                y_events[i].append(sol(te))
        if not (len(ts) > 1 and ts[-1] == t):   # a terminal root at the last step end
            ts.append(t)
            ys.append(y)
    # six RHS calls per step attempt, plus f(y0) and the initial-step probe
    stats = {"n_steps": n_steps, "n_rejected": n_rejected, "nfev": 2 + 6 * (n_steps + n_rejected)}
    return {"t": np.array(ts), "y": np.vstack(ys), "t_events": t_events, "y_events": y_events,
            "status": status, "stats": stats}
