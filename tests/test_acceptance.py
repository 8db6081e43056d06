"""Acceptance battery: one test per check, at its frozen tolerance.

Each test prints a PASS/FAIL line (run with -s to see them all).  Two checks
are expected to be red: the packaged two-digit brackets for the outer
irrational roots of the derivative quintic do not contain the true roots
-7.489652155... and 2.697788435... (the root values themselves are verified
by the exact-pair and residual checks); see the verification report notes.
"""

import pytest

from ricciflow import NoExitWithinHorizon, flow, verify


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in verify.run_all()}


def test_registry_complete():
    names = [result.name for result in verify.run_all()]
    assert len(set(names)) == len(names) == 30


@pytest.mark.parametrize("name", [result.name for result in verify.run_all()])
def test_criterion(results, name):
    result = results[name]
    line = (f"{'PASS' if result.passed else 'FAIL'} {result.name}: "
            f"measured={result.measured:.6g} tolerance={result.tolerance:.6g}")
    if result.detail:
        line += f" ({result.detail})"
    print(line)
    assert result.passed, line


def test_exit_check_fails_on_documented_errors_only(monkeypatch):
    def no_exit(*_args, **_kwargs):
        raise NoExitWithinHorizon("stub")

    def broken(*_args, **_kwargs):
        raise TypeError("stub")

    monkeypatch.setattr(flow, "cone_exit", no_exit)
    assert not verify._exit_check("cone_exit_aw2", "aw2", (0.99, 1.0)).passed
    monkeypatch.setattr(flow, "cone_exit", broken)
    with pytest.raises(TypeError):
        verify._exit_check("cone_exit_aw2", "aw2", (0.99, 1.0))
