"""aw4 cone exits against the benchmark's high-precision oracle.

The first 21 cases of the benchmark's `exit_map_xi` table start the flow at
(t, x, 1, 1) with xi < 1.  `bench/oracle.reference_exit` integrates that flow
with DOP853 at rel_tol 1e-13 by its own right-hand side and locates the
boundary with a 50-digit t_A; each case's outcome and exit time, computed by
it once, are pinned in ORACLE.  `cone_exit` from aw4's own state (t, x, 1, 1)
lies within the bound the `flow` docstring states of each pinned time, and
gives the bits of `cone_exit` from aw3's (t, x, 1).  Two cases are computed
by the oracle again, where scipy and mpmath are installed.
"""

import sys
from pathlib import Path

import pytest

from ricciflow import NoExitWithinHorizon, cone_exit

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:   # `inputs` imports `oracle` by name
    sys.path.append(str(BENCH))
import inputs  # noqa: E402
import oracle  # noqa: E402

# The relative distance of an exit time from the oracle's that the `flow` docstring states
STATED_BOUND = 4.5e-8

# (outcome, exit time) of `oracle.reference_exit` for cases 0-20, in file order
ORACLE = [
    ("exit", 0.0003361398427580217),
    ("exit", 0.0016028112358521711),
    ("exit", 0.00013731193127657003),
    ("exit", 0.00025202528658964857),
    ("exit", 0.004621037037106197),
    ("exit", 0.003192618303394843),
    ("exit", 0.00015034977875862468),
    ("exit", 0.0068393852438083),
    ("exit", 0.0012234918429786705),
    ("exit", 0.01789424085427541),
    ("exit", 0.010982271986419503),
    ("exit", 0.00821185577361256),
    ("exit", 0.0009553806194288657),
    ("exit", 0.0018497821665345612),
    ("exit", 5.587344497736838e-05),
    ("exit", 0.0002693678351382967),
    ("exit", 0.00015615102732425548),
    ("no_exit_window", None),
    ("exit", 0.00027316177378004634),
    ("exit", 0.001624066494142709),
    ("exit", 0.0001581377715612543),
]
CASES = inputs.load_exit_table("exit_map_xi", limit=len(ORACLE))


def outcome(family, init, xi):
    """(outcome, exit time, exit state bytes) of `cone_exit`, the outcome named as the oracle names it."""
    try:
        time, state = cone_exit(family, init, xi=xi)
    except NoExitWithinHorizon as exc:
        return "no_exit_window" if "certified window" in str(exc) else "no_exit_horizon", None, None
    return "exit", time, state.tobytes()


@pytest.mark.parametrize("case", range(len(ORACLE)))
def test_aw4_exit_lies_within_the_stated_bound_of_the_oracle(case):
    (t, x, s), xi = CASES[case]["init"], CASES[case]["xi"]
    expected, time = ORACLE[case]
    aw4 = outcome("aw4", (t, x, s, s), xi)
    assert aw4[0] == expected
    if time is not None:
        assert abs(aw4[1] - time) <= STATED_BOUND * time
    # aw3 off xi = 1 integrates aw4 from the same slice point: the same bits (a positive time equal is bit-equal)
    assert outcome("aw3", (t, x, s), xi) == aw4


@pytest.mark.parametrize("case", [4, 17], ids=["farthest exit", "window"])
def test_the_oracle_gives_the_pinned_outcome(case):
    pytest.importorskip("scipy")
    pytest.importorskip("mpmath")
    t, x, _s = CASES[case]["init"]
    expected, time = ORACLE[case]
    got, hit, _leave = oracle.reference_exit(t, x, CASES[case]["xi"])
    assert got == expected
    if time is not None:
        assert hit == pytest.approx(time, rel=1e-12)
