"""Dormand-Prince 5(4) integration with Shampine's dense output and event roots.

The embedded pair of Dormand & Prince (1980, J. Comput. Appl. Math. 6) with the step-size
control and initial-step heuristic of Hairer, Norsett & Wanner, *Solving ODEs I*, II.4, and
Shampine's quartic dense output, bit for bit as `scipy.integrate.solve_ivp(method="RK45",
dense_output=True, events=...)`.  Only the BLAS products (stage increments, B and E sums,
the norm's x.dot(x), K^T P, Q (x, .., x^4)) run in numpy, on solve_ivp's operands, since
OpenBLAS sums them with fused multiply-adds in its own order; the state is a list of Python
floats, on which the elementwise work rounds as in numpy but costs less.  Event signs are
tested at step ends; a sign change is refined by Brent's method on that step's interpolant,
only built on such steps.  The collapse floor, min(y) - floor, is event 0: terminal in either
direction, refined and recorded first, and tested apart only in a run without caller events.
One run is the coroutine `_run`, which yields each step attempt; `solve` evaluates the attempts
of one state and `solve_rows` those of a stack, each row bit for bit its own `solve`.  Both
return lists of floats.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain

import numpy as np

EPS = float(np.finfo(float).eps)
TOL = 4 * EPS   # Brent's xtol and rtol, as in solve_ivp's event location
SAFETY, MIN_FACTOR, MAX_FACTOR, EXPONENT = 0.9, 0.2, 10.0, -1 / 5
UNDERFLOW = "Required step size is less than spacing between numbers."

A_ROWS = [np.array(row) for row in (   # the coefficients of stages 1..5
    [1/5],
    [3/40, 9/40],
    [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])]
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
    """RMS norm of a list of floats."""
    x = np.array(x)
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _values(f, n: int):
    """f, a right-hand side's value, if it holds n values, one per component, else ValueError:
    the stage stacks would broadcast one value, or a scalar, over every component."""
    try:
        if len(f) == n:
            return f
    except TypeError:   # a scalar
        pass
    raise ValueError(f"the right-hand side must give {n} values, one per component, got {f!r}")


def _initial_step(fun, y0, f0, t_bound, direction, rtol, atol, max_step) -> float:
    """First step size from the local error of an Euler step (HNW II.4), order 4."""
    span = abs(t_bound)
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0, d1 = (_norm([xi / si for xi, si in zip(x, scale)]) for x in (y0, f0))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = _values(fun([yi + h0 * direction * float(fi) for yi, fi in zip(y0, f0)]), len(y0))
    d2 = _norm([(a - b) / si for a, b, si in zip(f1, f0, scale)]) / h0 if h0 else math.inf  # f0 not finite
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, max_step)


def brentq(f, xa: float, xb: float, maxiter: int = 100, fa: float | None = None) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), step for
    step the C routine behind `scipy.optimize.brentq` with xtol = rtol = TOL.
    `fa`, if given, is f(xa), which is then not evaluated again."""
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre) if fa is None else fa, call(xcur)
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


def _checked_rtol(rtol: float) -> float:
    """rtol, raised to 100 EPS with a warning where it is below, as in solve_ivp."""
    if rtol < 100 * EPS:
        warnings.warn(f"rtol is too small, using rtol = {100 * EPS}", stacklevel=4)
    return max(rtol, 100 * EPS)


def _run(fun, y0: list, t_bound: float, rtol: float, atol: float, max_step: float, floor: float, events):
    """One integration as a coroutine, on Python floats: the step-size control of
    HNW II.4, the accepted steps and the event roots.  It yields each step attempt
    (y, f, h), f = fun(y), is sent (error_norm, y_new, f_new, K) for it, K the
    attempt's (7, n) stages, and returns the run as `solve` documents it.  Only a run without
    caller events tests the floor apart; in the others that made the cone exits slower."""
    alone, events = not events, [(lambda _l, y: min(y) - floor, True, 0.0), *events]
    direction = 1.0 if t_bound > 0 else -1.0
    n_steps = n_rejected = 0
    t, y, f = 0.0, y0, _values(fun(y0), len(y0))
    h_abs = _initial_step(fun, y, f, t_bound, direction, rtol, atol, max_step)
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
            error_norm, y_new, f_new, K = yield y, f, h
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
        t_old, y_old, g_old = t, y, g
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        if alone:
            g = [min(y) - floor]
            active = (0,) if g_old[0] <= 0.0 <= g[0] or g_old[0] >= 0.0 >= g[0] else ()
        else:
            g = [float(ev(t, y)) for ev, _, _ in events]
            active = [i for i, (_, _, d) in enumerate(events)
                      if (g_old[i] <= 0 <= g[i] and d >= 0) or (g_old[i] >= 0 >= g[i] and d <= 0)]
        if active:
            Q, dt = K.T.dot(P), t - t_old

            def sol(tt):
                x = (tt - t_old) / dt
                x2 = x * x
                x3 = x2 * x   # x2 * x and x3 * x round as x * x * x and x * x * x * x
                return [dt * qi + yi for qi, yi in zip(Q.dot((x, x2, x3, x3 * x)).tolist(), y_old)]

            # sol(t_old) is y_old, so g_old[i] is the event's value at the left end
            hits = [(i, brentq(lambda tt, ev=events[i][0]: ev(tt, sol(tt)), t_old, t, fa=g_old[i]))
                    for i in active]
            if any(events[i][1] for i in active):
                hits.sort(key=lambda hit: direction * hit[1])
                hits = hits[:1 + next(k for k, (i, _) in enumerate(hits) if events[i][1])]
                status = 1
                t = hits[-1][1]
            for i, te in hits:
                t_events[i].append(te)
                y_events[i].append(sol(te))
            if status == 1:
                y = y_events[hits[-1][0]][-1]
        if not (len(ts) > 1 and ts[-1] == t):   # a terminal root at the last step end
            ts.append(t)
            ys.append(y)
    # six RHS calls per step attempt, plus f(y0) and the initial-step probe
    stats = {"n_steps": n_steps, "n_rejected": n_rejected, "nfev": 2 + 6 * (n_steps + n_rejected)}
    return {"t": ts, "y": ys, "t_events": t_events, "y_events": y_events, "status": status, "stats": stats}


def solve(fun, y0: list, t_bound: float, rtol: float, atol: float,
          max_step: float, floor: float, events) -> dict:
    """Integrate y' = fun(y) from (0, y0) to t_bound, forward or backward.

    y0 and every state passed to `fun` and to the events is a list of floats.  `events` are
    (g, terminal, direction) triples with g(t, y) a scalar; a root is recorded where g changes
    sign in `direction` (0: either), and the first terminal root in time ends the run.  `floor`
    acts as event 0, g = min(y) - floor, terminal, either direction.  Returns lists, each state
    a list of floats: the step ends `t`, `y` and the roots `t_events`/`y_events` per event, the
    floor's first; `status` (0 at t_bound, 1 terminal event, -1 step-size underflow); `stats`.
    A value of `fun` without one value per component raises ValueError (`_values`).
    """
    rtol = _checked_rtol(rtol)
    run = _run(fun, y0, t_bound, rtol, atol, max_step, floor, events)
    n = len(y0)
    K = np.empty((7, n))
    stages = [(K[:s].T, a) for s, a in enumerate(A_ROWS, start=1)]
    K_B, K_T = K[:-1].T, K.T
    try:
        y, f, h = next(run)
        while True:
            K[0] = f
            for s, (Ks, a) in enumerate(stages, start=1):
                K[s] = _values(fun([yi + di * h for yi, di in zip(y, Ks.dot(a).tolist())]), n)
            y_new = [yi + h * bi for yi, bi in zip(y, K_B.dot(B).tolist())]
            K[-1] = f_new = _values(fun(y_new), n)
            # with y_new first, max() propagates its NaN as np.maximum does
            error_norm = _norm([ei * h / (atol + max(abs(yn), abs(yo)) * rtol)
                                for ei, yn, yo in zip(K_T.dot(E).tolist(), y_new, y)])
            y, f, h = run.send((error_norm, y_new, f_new, K))
    except StopIteration as end:
        return end.value


def solve_rows(fun, y0s: list, t_bound: float, rtol: float, atol: float,
               max_step: float, floor: float, events) -> list[dict]:
    """`solve` from each state of y0s, every row's result bit for bit that of its own `solve`.

    Each iteration, every live row attempts one step with its own h.  The stage, B and E
    products and the norm's dot are each one `np.matmul` over the stack, which hands every
    row to the BLAS routine of its own `.dot`; `Y + D * H` does the IEEE operations of
    `yi + di * h`.  The stacks are built once per count of live rows and computed into in
    place.  `fun`, the events and the row's `_run` run per row.  Below four rows, each goes
    through `solve`, which is then the faster: per row and step attempt the stack took
    24.6 us at 1 row, 14.5 at 2, 12.4 at 3, 10.4 at 4, 7.4 at 8, 6.2 at 16 and 5.4 at 32,
    against 11.2 for `solve` (the normalized flow to l = 10 from portrait seeds)."""
    if len(y0s) < 4:
        return [solve(fun, y0, t_bound, rtol, atol, max_step, floor, events) for y0 in y0s]
    rtol = _checked_rtol(rtol)
    results = [None] * len(y0s)

    def attempt(i, run, message):
        """Row i's next attempt (i, run, (y, f, h)), or None once its run ended."""
        try:
            return i, run, run.send(message)
        except StopIteration as end:
            results[i] = end.value

    rows = [attempt(i, _run(fun, y0, t_bound, rtol, atol, max_step, floor, events), None)
            for i, y0 in enumerate(y0s)]
    N, n = 0, len(y0s[0])

    def stack(states):
        """The (N, n) array of N states of n floats, through one flat np.fromiter."""
        return np.fromiter(chain.from_iterable(states), float, N * n).reshape(N, n)

    def rhs(states):
        """`fun` at each state, each value checked as `solve` checks it: fromiter reads
        N * n values, so one of another length would shift the rows after it."""
        values = list(map(fun, states))
        try:
            if list(map(len, values)).count(n) == len(values):
                return values
        except TypeError:   # a scalar
            pass
        return [_values(f, n) for f in values]   # raises at the first value of another length

    while rows := [row for row in rows if row is not None]:
        if len(rows) != N:   # the stacks of N live rows, built again only when a row leaves
            N = len(rows)
            K, H, dots = np.empty((N, 7, n)), np.empty((N, 1)), np.empty((N, 1, 1))
            Y, Y_new, D = np.empty((3, N, n))
            stages = [(K[:, s], K[:, :s].transpose(0, 2, 1), a) for s, a in enumerate(A_ROWS, start=1)]
            K_B, K_T, D_row, D_col = K[:, :-1].transpose(0, 2, 1), K.transpose(0, 2, 1), D[:, None], D[:, :, None]
            # _run uses its row's view only inside the send (sol closes over Q = K.T.dot(P), not K)
            K_rows = list(K)
        ys, fs, hs = zip(*(step for _, _, step in rows))
        Y[:], K[:, 0], H[:, 0] = stack(ys), stack(fs), hs
        for K_s, K_prev, a in stages:
            np.add(Y, np.multiply(np.matmul(K_prev, a, out=D), H, out=D), out=D)
            K_s[:] = stack(rhs(D.tolist()))
        np.add(Y, np.multiply(H, np.matmul(K_B, B, out=Y_new), out=Y_new), out=Y_new)
        y_new = Y_new.tolist()
        K[:, -1] = stack(f_new := rhs(y_new))
        # the norm's terms E.K * H / (atol + max(|y_new|, |y|) * rtol); Y and Y_new are spent
        np.maximum(np.abs(Y_new, out=Y_new), np.abs(Y, out=Y), out=Y)
        np.multiply(np.matmul(K_T, E, out=D), H, out=D)
        np.divide(D, np.add(atol, np.multiply(Y, rtol, out=Y), out=Y), out=D)
        np.matmul(D_row, D_col, out=dots)
        rows = [attempt(i, run, (math.sqrt(d) / n ** 0.5, yn, fn, K_r))
                for (i, run, _), d, yn, fn, K_r in zip(rows, dots.ravel().tolist(), y_new, f_new, K_rows)]
    return results
