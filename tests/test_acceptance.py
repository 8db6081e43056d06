"""Acceptance battery: one test per check, at its frozen tolerance.

Each test prints a PASS/FAIL line (run with -s to see them all).  Two checks
are expected to be red: the packaged two-digit brackets for the outer
irrational roots of the derivative quintic do not contain the true roots
-7.489652155... and 2.697788435... (the root values themselves are verified
by the exact-pair and residual checks); see the verification report notes.
The module also checks that each package module's `__all__`, which
`spaces._public` derives from the module's globals, names each public function
and class the module defines once and no other, that the package exports
exactly the names in the `__all__` of its library modules, and that the
program itself calls every name those lists make public.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ricciflow
from ricciflow import NoExitWithinHorizon, cone, derivatives, errors, flow, serialize, spaces, verify


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in verify.run_all()}


# The battery's contract, one row per check in run order: name, tolerance, pass flag, whether the row
# reports a headroom, and its detail string.  The details of the exit rows and of `flow_oracle_sign`
# print exit times and differences, whose last digits follow the host's BLAS kernels (None: not pinned).
CONTRACT = [
    ("two_param_derivative_at_round", 1e-12, True, False, "target 3, exact in rational arithmetic"),
    ("berger_derivative_at_boundary", 1e-12, True, False, "target 3, exact in rational arithmetic"),
    ("berger_eigenvalues_at_boundary", 1e-12, True, True, "r1 = 6.0, r2 = 7.5, targets (6, 7.5)"),
    ("d_roots_exact_pair", 1e-12, True, True, ""),
    ("d_roots_residuals", 1e-9, True, True, ""),
    ("d_roots_lambda1_bracket", 0.005, False, False, "reference bracket [-7.485, -7.475]"),
    ("d_roots_lambda4_bracket", 0.005, True, False, "reference bracket [0.785, 0.795]"),
    ("d_roots_lambda5_bracket", 0.005, False, False, "reference bracket [2.685, 2.695]"),
    ("d_negative_between_roots", 0.0, True, False, "max of D on the inner 1e-3 grid of (lambda4, lambda5)"),
    ("t_a_closed_form_grid", 1e-12, True, True, "relative deviation over the 1e-2 grid of (0,1) and (1,3.99)"),
    ("a_tilde_inverse_identity_grid", 1e-10, True, True, ""),
    ("gradient_finite_difference", 1e-6, True, True, "central differences of t_A/t at the anchor tuple, h = 1e-6"),
    ("gradient_assembly", 1e-9, True, True, "<grad F, initial velocity> against f_xi_prime0"),
    ("k_limit_x1", 1e-9, True, True, "|K(xi, 1) + 432(xi^2-1)^2| / (1 + 432(xi^2-1)^2)"),
    ("f_xi_denominator_positive", 0.0, True, False, "min of x(x-4)(x-1)R^2 on the 1e-2 grid of (0,1) x (0,1]"),
    ("sign_theorem_xi1", 0.0, True, False, "max of f1'(0) on the 1e-3 grid of [0.801, 0.999]"),
    ("sign_theorem_nearby_xi", 0.0, True, False, "per xi in {0.1..0.9}: min over x in [0.9, 1) of f_xi'(0)"),
    ("flow_oracle_sign", 1e-4, True, True, None),
    ("cone_exit_aw2", 1.0, True, False, None),
    ("cone_exit_aw3", 1.0, True, False, None),
    ("cone_exit_berger", 1.0, True, False, None),
    ("cone_exit_aw3_xi090", 1.0, True, False, None),
    ("cone_exit_aw3_xi095", 1.0, True, False, None),
    ("subfamily_invariance_slice", 1e-9, True, True, "s1 = s2 preserved over horizon 0.5 from (4, 4.4, 4, 4)"),
    ("subfamily_invariance_two_param", 1e-9, True, True,
     "t = s0 and s1 = s2 preserved over horizon 0.5 from (4, 4, 5, 5)"),
    ("einstein_equilibria", 1e-9, True, True, ""),
    ("seed_p1_stays_on_curve", 1e-6, True, True, "|x^3 s^4 - 1| along the p1 trajectory, horizon 10"),
    ("seed_p1_terminal_near_e_minus", 1e-3, True, True, ""),
    ("seed_p2_enters_pink", 10.0, True, False,
     "flow time at which the p2 trajectory crosses into region P (an event root)"),
    ("eigenvalue_oracle_randomized", 1e-12, True, True,
     "100 SplitMix64 metrics in U(0.5, 2)^4 per (k1, k2) pair, seed 20240810"),
]


def test_the_battery_keeps_its_contract(results):
    unpinned = {row[0] for row in CONTRACT if row[4] is None}
    assert [(r.name, r.tolerance, bool(r.passed), r.headroom is not None, None if r.name in unpinned else r.detail)
            for r in results.values()] == CONTRACT


def test_registry_complete():
    names = [result.name for result in verify.run_all()]
    assert len(set(names)) == len(names) == 30


def test_registry_is_every_check_group_in_definition_order(monkeypatch):
    groups = [name for name in vars(verify) if name.startswith("_check_")]
    assert len(groups) == 12 and groups[0] == "_check_two_param_derivative"
    extra = verify.CheckResult("extra_check", True, 0.0, 1.0)
    monkeypatch.setattr(verify, "_check_zz_extra", lambda: [extra], raising=False)
    rows = verify.run_all()
    assert len(rows) == 31 and rows[-1] is extra


def test_rows_store_floats_and_bounds_give_headroom(results):
    bounds = {name for name, r in results.items() if r.headroom is not None}
    assert len(bounds) == 15
    assert {"flow_oracle_sign", "subfamily_invariance_slice", "d_roots_exact_pair"} <= bounds
    for r in results.values():
        assert type(r.measured) is float, r.name
        if r.headroom is not None:
            assert r.headroom == r.measured / r.tolerance and r.passed == (r.headroom <= 1.0), r.name


def test_bound_fails_where_the_side_condition_fails():
    assert verify._bound("row", 0.5, 1.0).passed
    assert not verify._bound("row", 0.5, 1.0, holds=False).passed
    assert not verify._bound("row", 2.0, 1.0).passed
    assert not verify._bound("row", float("nan"), 1.0).passed
    row = verify._bound("row", np.float64(0.25), 0.5, "detail")
    assert (type(row.measured), row.measured, row.headroom, row.detail) == (float, 0.25, 0.5, "detail")


_MODULES = [importlib.import_module(f"ricciflow.{info.name}")
            for info in pkgutil.iter_modules(ricciflow.__path__)]


@pytest.mark.parametrize("mod", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_the_public_definitions(mod):
    # __all__ names exactly the public functions and classes the module
    # itself defines, plus any data it exports
    defined = {name for name, value in vars(mod).items()
               if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == mod.__name__}
    listed = {name for name in mod.__all__
              if inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name))}
    assert listed == defined
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_namespace_is_the_union_of_the_library_all_lists():
    exported = {name for name, value in vars(ricciflow).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for mod in (spaces, cone, flow, derivatives, errors) for name in mod.__all__}
    assert len(exported) == 54


def _named(paths) -> set[str]:
    """Every name the code in `paths` names, as a load-context Name, an Attribute or an
    equal string constant, outside the top-level statement that defines it."""
    named = set()
    for path in paths:
        for stmt in ast.parse(Path(path).read_text(encoding="utf-8")).body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            defined = {getattr(stmt, "name", None), *(t.id for t in targets if isinstance(t, ast.Name))}
            named |= set(_names_in(stmt)) - defined
    return named


def _names_in(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_has_a_caller_in_the_program():
    # the package and the benchmark, not the tests: the bench tracer and flow.SYSTEMS name functions by string
    root = Path(__file__).resolve().parent.parent
    named = _named([*sorted((root / "src" / "ricciflow").glob("*.py")), *sorted((root / "bench").glob("*.py"))])
    modules = (spaces, cone, flow, derivatives, errors, serialize, verify)
    unused = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if name not in named]
    assert not unused, f"public names without a caller in the program: {unused}"


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


def test_exit_check_fails_an_exit_at_time_zero(monkeypatch):
    def exit_at(time):
        monkeypatch.setattr(flow, "cone_exit", lambda *_args, **_kwargs: (time, np.array([0.99, 1.0])))
        return verify._exit_check("cone_exit_aw2", "aw2", (0.99, 1.0)).passed

    nonpositive = cone.ConeVerdict(cone.ConeClass.HAS_NONPOSITIVE_PLANE, -1.0)
    monkeypatch.setattr(flow, "post_exit_verdict", lambda *_args: nonpositive)
    assert (exit_at(0.0), exit_at(5e-324)) == (False, True)


def test_k_limit_row_measures_the_largest_deviation(results):
    deviations = []
    for k in range(1, 10):
        xi = k / 10.0
        target = -432.0 * (xi * xi - 1.0) ** 2
        deviations.append(abs(derivatives.k_polynomial(xi, 1.0) - target) / (1.0 - target))
    assert max(deviations) > 0.0   # 2.5186293171719323e-14
    assert results["k_limit_x1"].measured == max(deviations)


def test_p2_entry_is_the_crossing_inside_the_first_step_into_p(results):
    system, cfg = flow.make_system("normalized"), flow.IntegratorConfig(max_time=10.0)
    p2 = derivatives.REFERENCE_SEEDS[1]
    assert cone.normalized_region(*p2) != "P"
    # t_k, the first sample inside P of the run to the horizon: the root lies in the step that ends there
    # (0.06035300902390263; its last bits depend on the BLAS kernels: 0.0603530088... on Haswell's)
    full = flow.integrate(system, p2, cfg)
    k = next(k for k, state in enumerate(full.states.tolist()) if cone.normalized_region(*state) == "P")
    assert full.times[k] == pytest.approx(0.06035300902390263, rel=1e-7)
    entry = results["seed_p2_enters_pink"].measured
    assert full.times[k - 1] < entry <= full.times[k]
    enters_p = flow.EventSpec("enters_p", lambda _l, y: cone._q(*y) - 3, True, -1.0)
    event = flow.integrate(system, p2, cfg, [enters_p]).first_event("enters_p")
    assert event.time == entry
    assert abs(cone._q(*event.state.tolist()) - 3) <= 1e-9
