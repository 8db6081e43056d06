"""The row stepper: `flow.integrate_rows` gives every row the bits of its own `integrate`.

`_rk45.solve_rows` steps a stack of states at once, with one `np.matmul` over
the stacked stages where `solve` calls `.dot` per state.  The premise test
checks that the stacked product rounds every row as its own `.dot` does; the
batch tests check the whole run, row by row, for every system kind, in both
directions, over every way a row ends.  Run this file again under e.g.
OPENBLAS_CORETYPE=Haswell to check them on another BLAS kernel set.
"""

import functools
import random

import numpy as np
import pytest

from ricciflow import _rk45, cli, flow, serialize
from ricciflow.errors import StepSizeUnderflow
from ricciflow.flow import EventSpec, FlowSystem, IntegratorConfig, integrate, integrate_rows, make_system

XI = {"aw4": 0.7}
ROWS = 12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_matmul_rounds_each_row_as_its_own_dot(dim):
    # the stepper's shapes: stages (n, s) @ (s,), B (n, 6) @ (6,), E (n, 7) @ (7,), norm x.x,
    # each into a preallocated array, as the stepper computes them
    rng = np.random.default_rng(dim)
    K = rng.standard_normal((64, 7, dim)) * 10.0 ** rng.integers(-6, 6, size=(64, 7, dim))
    out = np.empty((len(K), dim))
    for s, a in enumerate(_rk45.A_ROWS, start=1):
        stacked = np.matmul(K[:, :s].transpose(0, 2, 1), a, out=out)
        assert all(stacked[r].tobytes() == K[r][:s].T.dot(a).tobytes() for r in range(len(K)))
    for rows, coef in ((slice(None, -1), _rk45.B), (slice(None), _rk45.E)):
        stacked = np.matmul(K[:, rows].transpose(0, 2, 1), coef, out=out)
        assert all(stacked[r].tobytes() == K[r][rows].T.dot(coef).tobytes() for r in range(len(K)))
    X = K[:, 3].copy()
    dots = np.matmul(X[:, None], X[:, :, None], out=np.empty((len(X), 1, 1))).ravel().tolist()
    assert dots == [np.array(x).dot(np.array(x)) for x in X.tolist()]


def _bits(traj):
    return (traj.times.tobytes(), traj.states.tobytes(),
            [(ev.time.hex(), ev.name, ev.state.tobytes()) for ev in traj.events], traj.status, traj.stats)


def _outcome(run):
    """The bits of run()'s Trajectory, or of the partial one its StepSizeUnderflow holds."""
    try:
        return "ok", _bits(run())
    except StepSizeUnderflow as exc:
        return "underflow", _bits(exc.trajectory)


@functools.lru_cache(maxsize=None)
def _batch(kind, direction):
    """Random starts of the system `kind` with its cone events (none for "normalized"):
    the outcomes of each row stepped in the stack and alone, those of `integrate_rows`
    on the rows that do not raise and theirs alone, and the ways the rows end."""
    rng = random.Random(f"{kind}-{direction}")
    system = make_system(kind, XI.get(kind))
    events = flow.cone_events(kind, XI.get(kind, 1.0)) if kind in flow.FAMILIES else []
    cfg = IntegratorConfig(max_time=2.0, max_step=0.25, direction=direction)
    inits = [[rng.uniform(0.05, 2.0) for _ in range(system.dim)] for _ in range(ROWS)]
    sols = _rk45.solve_rows(system.rhs, [flow._start(system, init) for init in inits],
                            *flow._solver_args(cfg, events))
    rows = [_outcome(lambda sol=sol: flow._trajectory(sol, events)) for sol in sols]
    loop = [_outcome(lambda init=init: integrate(system, init, cfg, events)) for init in inits]
    ends = set()
    for end, bits in loop:
        ends |= {"underflow"} if end == "underflow" else {bits[3], *(name for _, name, _ in bits[2])}
    ok = [init for init, (end, _) in zip(inits, loop) if end == "ok"]
    public = [_outcome(lambda traj=traj: traj) for traj in integrate_rows(system, ok, cfg, events)]
    return rows, loop, public, [bits for end, bits in loop if end == "ok"], ends


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("kind", list(flow.SYSTEMS))
def test_rows_match_integrate_bit_for_bit(kind, direction):
    rows, loop, public, ok, _ = _batch(kind, direction)
    assert len(rows) == ROWS
    for r, (got, expected) in enumerate(zip(rows, loop)):
        assert got == expected, f"row {r}"
    # the public entry on the rows that do not raise
    assert [bits for _, bits in public] == ok


def test_the_batches_cover_every_way_a_row_ends():
    ends = set().union(*(_batch(kind, d)[4] for kind in flow.SYSTEMS for d in ("forward", "backward")))
    assert {"horizon", "event", "singular", "cone_exit", "window_exit", "underflow"} <= ends


# y0' = y0^2 from y0(0) = c blows up at l = 1/c: underflow within max_time 2 for c > 1/2;
# y1 stays at its start, a mark for the events
BLOWUP = FlowSystem("blowup", 2, lambda y: [y[0] * y[0], 0.0])
BLOWUP_CFG = IntegratorConfig(max_time=2.0)


def test_the_first_failing_row_in_input_order_raises():
    inits = [[0.2, 1.0], [0.3, 1.0], [0.9, 1.0], [0.25, 1.0], [0.6, 1.0], [0.1, 1.0]]
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_rows(BLOWUP, inits, BLOWUP_CFG)
    with pytest.raises(StepSizeUnderflow) as first:
        integrate(BLOWUP, inits[2], BLOWUP_CFG)
    assert _bits(info.value.trajectory) == _bits(first.value.trajectory)

    # an invalid start before it raises first, and after it does not
    with pytest.raises(ValueError, match="expected a pair of reals"):
        integrate_rows(BLOWUP, [*inits[:1], [1.0], *inits[1:]], BLOWUP_CFG)
    with pytest.raises(StepSizeUnderflow):
        integrate_rows(BLOWUP, [*inits, [1.0]], BLOWUP_CFG)

    # so does an event that raises in a later row, even before the underflow in time
    def guard(l, y):
        if y[1] > 1.5 and l > 0.5:
            raise ArithmeticError("a marked row passed l = 0.5")
        return 1.0
    late = [[0.2, 1.0], [0.6, 1.0], [0.25, 1.0], [0.1, 2.0]]
    with pytest.raises(StepSizeUnderflow):
        integrate_rows(BLOWUP, late, BLOWUP_CFG, [EventSpec("guard", guard)])
    with pytest.raises(ArithmeticError):
        integrate_rows(BLOWUP, late[::-1], BLOWUP_CFG, [EventSpec("guard", guard)])


@pytest.mark.parametrize("form", [lambda rows: (row for row in rows), set, dict.fromkeys],
                         ids=["generator", "set", "dict"])
def test_inits_must_be_an_ordered_sequence(form):
    # they are read again after a failing row: a generator returned the trajectories of the rows after it
    system, cfg = make_system("normalized"), IntegratorConfig(max_time=0.01)
    inits = [(0.9, 1.1), (0.8, 1.0), (-1.0, 1.0), (0.7, 1.0), (0.6, 1.0)]
    with pytest.raises(ValueError, match="strictly positive"):
        integrate_rows(system, inits, cfg)
    for rows in (inits, inits[3:] * 2):
        with pytest.raises(ValueError, match="inits must be an ordered sequence"):
            integrate_rows(system, form(rows), cfg)


def test_a_too_small_rel_tol_is_raised_as_in_integrate():
    system, cfg = make_system("aw3"), IntegratorConfig(rel_tol=1e-17, max_time=0.05)
    inits = [[0.8 + 0.02 * r, 0.9, 1.0] for r in range(5)]
    with pytest.warns(UserWarning, match="rtol is too small"):
        rows = integrate_rows(system, inits, cfg)
    with pytest.warns(UserWarning, match="rtol is too small"):
        alone = [integrate(system, init, cfg) for init in inits]
    assert [_bits(traj) for traj in rows] == [_bits(traj) for traj in alone]


def test_few_rows_go_one_at_a_time_through_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(_rk45, "solve", lambda *args: calls.append(args) or {})
    _rk45.solve_rows(None, [[1.0], [2.0], [3.0]], 1.0, 1e-10, 1e-12, np.inf, 1e-12, [])
    assert [args[1] for args in calls] == [[1.0], [2.0], [3.0]]
    assert _rk45.solve_rows(None, [], 1.0, 1e-10, 1e-12, np.inf, 1e-12, []) == []


def test_brent_takes_the_known_left_value():
    def f(x):
        calls.append(x)
        return x ** 3 - 0.3
    calls = []
    root = _rk45.brentq(f, 0.0, 1.0)
    n = len(calls)
    calls = []
    assert _rk45.brentq(f, 0.0, 1.0, fa=f(0.0)) == root
    assert len(calls) == n   # its own f(0) call replaces brentq's


@pytest.mark.parametrize("n_seeds", [2, 16])
def test_portrait_writes_the_bytes_of_one_integrate_per_seed(tmp_path, capsys, n_seeds):
    rng = random.Random(n_seeds)
    seeds = [(x, x ** -0.75) for x in (rng.uniform(0.6, 1.6) for _ in range(n_seeds))]   # on x^3 s^4 = 1
    (tmp_path / "seeds.txt").write_text("".join(f"{x!r},{s!r}\n" for x, s in seeds))
    assert cli.main(["portrait", "--grid", "0.5:1.5:3,0.5:1.5:3", "--horizon", "4",
                     "--seeds", str(tmp_path / "seeds.txt"), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    system, cfg = make_system("normalized"), IntegratorConfig(max_time=4.0)
    for i, seed in enumerate(seeds):
        ref = serialize.write_trajectory_csv(tmp_path / "ref.csv", integrate(system, seed, cfg))
        assert (tmp_path / "out" / f"seed_{i:03d}.csv").read_bytes() == ref.read_bytes()



@pytest.mark.parametrize("width", [1, 3])
def test_a_rhs_of_another_length_fares_as_in_integrate(width):
    # both raise the ValueError of the first row's first right-hand side
    odd = FlowSystem("odd", 2, lambda y: [0.5 * y[0]] * width)
    inits = [[0.5 + 0.1 * i, 1.0] for i in range(6)]

    def outcome(run):
        try:
            return [_bits(traj) for traj in run()]
        except ValueError as exc:
            return str(exc)
    assert (outcome(lambda: integrate_rows(odd, inits, BLOWUP_CFG))
            == outcome(lambda: [integrate(odd, init, BLOWUP_CFG) for init in inits]))


@pytest.mark.parametrize("late", [lambda y: [0.5 * y[0]], lambda y: 0.5 * y[0], lambda y: [0.5 * y[0], 0.1, 7.0]],
                         ids=["one value", "a scalar", "three values"])
def test_a_rhs_that_changes_length_mid_run_raises(late):
    # only the second of 4 rows passes y[0] = 0.6 by l = 1; the stacks read N * n values,
    # so a longer value would shift every row after it, and a shorter one would broadcast
    odd = FlowSystem("odd", 2, lambda y: [0.5 * y[0], 0.1] if y[0] < 0.6 else late(y))
    inits, cfg = [[0.3, 1.0], [0.55, 1.0], [0.3, 1.0], [0.3, 1.0]], IntegratorConfig(max_time=1.0)
    with pytest.raises(ValueError, match="the right-hand side must give 2 values"):
        _rk45.solve_rows(odd.rhs, inits, *flow._solver_args(cfg, []))
    with pytest.raises(ValueError, match="the right-hand side must give 2 values"):
        integrate_rows(odd, inits, cfg)


@pytest.mark.parametrize("wrong", [lambda y: [0.5 * y[0]], lambda y: 0.5 * y[0]], ids=["one value", "a scalar"])
def test_a_rhs_of_another_length_at_the_initial_step_probe_raises(wrong):
    # the probe is the call right after a row's call at its start, in the batch
    # and in the per-row rerun alike; it used to run to the horizon or raise TypeError
    inits, last = [[0.3, 1.0], [0.55, 1.0], [0.4, 1.0], [0.5, 1.0]], [None]

    def rhs(y):
        probe, last[0] = last[0] in inits, y
        return wrong(y) if probe else [0.5 * y[0], 0.1]
    cfg = IntegratorConfig(max_time=1.0)
    with pytest.raises(ValueError, match="the right-hand side must give 2 values"):
        _rk45.solve_rows(rhs, inits, *flow._solver_args(cfg, []))
    with pytest.raises(ValueError, match="the right-hand side must give 2 values"):
        integrate_rows(FlowSystem("odd", 2, rhs), inits, cfg)
