"""The battery's array and table-free evaluations against the scalar loops
they replace, bit for bit.

Each reference below is the per-point form the check used before: a scan
of the 4x4x4 table of `ricci_from_structure` (derived from su(3) matrices
in `homogeneous`, each bracket sum in plain floats left to right in (j, k)
order, as the package sums its columns), four draws of a pure-Python
SplitMix64 stream and one scalar call of each eigenvalue form per metric,
one `t_a` call per finite-difference point of the gradient check, one `@`
per grid point, one `t_a`, `a_tilde` and `a_tilde_inverse_slice` call per
point of the t_A grid, and the double and single loops over the
K-denominator and f'(0) grids. Values are compared through `float.hex`, so even a sign of zero
counts. The stacked `@` goes through BLAS; run this file again under e.g.
OPENBLAS_CORETYPE=Haswell to check a second kernel set.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from ricciflow import cone, derivatives, flow, verify
from ricciflow.spaces import aw_eigenvalue_tuple, ricci_from_structure
from homogeneous import aloff_wallach_constants

PAIRS = ((1, 1), (1, 2), (2, 3), (1, 10))


def bits(values):
    return [float(v).hex() for v in np.ravel(values)]


def table_scan_ricci(k1, k2, coeffs):
    """`ricci_from_structure` as a scan of all 64 entries of the table
    derived from su(3) matrices, each bracket sum left to right in (j, k)
    order."""
    table = aloff_wallach_constants(k1, k2).astype(float)
    x = [float(c) for c in coeffs]
    r = []
    for i in range(4):
        first, second = [], []
        for j in range(4):
            for k in range(4):
                c = table[i, j, k]
                if c != 0.0:
                    first.append(c * x[j] / (x[i] * x[k]))
                    second.append(c * x[i] / (x[j] * x[k]))
        d = (1.0, 2.0, 2.0, 2.0)[i]
        r.append(12.0 / (2.0 * x[i]) - sum(first) / (2.0 * d) + sum(second) / (4.0 * d))
    return tuple(r)


def scan_metrics(k1, k2):
    rng = np.random.default_rng(k1 * 100 + k2)
    return np.concatenate([rng.uniform(0.5, 2.0, size=(50, 4)),
                           np.exp(rng.uniform(-30.0, 30.0, size=(50, 4)))])


@pytest.mark.parametrize("k1,k2", PAIRS + ((3, 7), (5, 8)))
def test_ricci_from_structure_matches_the_table_scan(k1, k2):
    for coeffs in scan_metrics(k1, k2):
        assert bits(ricci_from_structure(k1, k2, [coeffs])) == bits(table_scan_ricci(k1, k2, coeffs))


@pytest.mark.parametrize("k1,k2", PAIRS + ((3, 7), (5, 8)))
def test_ricci_from_structure_stack_matches_the_row_calls(k1, k2):
    # each row of the stack against a stack of that row alone, as a list and as a (1, 4) array
    metrics = scan_metrics(k1, k2)
    rows = [ricci_from_structure(k1, k2, [coeffs]) for coeffs in metrics.tolist()]
    assert all(r.dtype == float and r.shape == (1, 4) for r in rows)
    stacked = ricci_from_structure(k1, k2, metrics)
    assert stacked.shape == (100, 4)
    assert bits(stacked) == bits(rows)
    for i in (0, 99):  # in the uniform and the exp(+-30) half
        assert bits(ricci_from_structure(k1, k2, metrics[i:i + 1])) == bits(rows[i])


MASK, GAMMA, SEED = (1 << 64) - 1, 0x9E3779B97F4A7C15, 20240810


def mix(z):
    """SplitMix64's output function on Python ints, every product reduced mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def coefficient(z):
    """The top 53 bits of an output as u in [0, 1), then 0.5 + 1.5 u in U(0.5, 2)."""
    return 0.5 + 1.5 * ((z >> 11) * 2.0**-53)


def splitmix64_stream(seed=SEED):
    """SplitMix64 as Steele, Lea and Flood state it: each draw adds gamma to the state and mixes it."""
    while True:
        seed = (seed + GAMMA) & MASK
        yield coefficient(mix(seed))


def per_metric_draws():
    """Each (k1, k2) pair with its 100 metrics, each metric four draws of one stream, in PAIRS order."""
    stream = splitmix64_stream()
    return [((k1, k2), [[next(stream) for _ in range(4)] for _ in range(100)]) for k1, k2 in PAIRS]


def test_oracle_sample_is_splitmix64_on_python_ints():
    # output k mixes seed + k*gamma mod 2^64, for all 1600 draws
    sample = verify._oracle_sample()
    assert sample.shape == (4, 100, 4) and sample.dtype == float
    assert bits(sample) == [coefficient(mix((SEED + k * GAMMA) & MASK)).hex() for k in range(1, 1601)]


def test_oracle_draws_the_per_metric_stream():
    for block, (_, metrics) in zip(verify._oracle_sample(), per_metric_draws()):
        assert block.tolist() == metrics


def scalar_eigenvalue_oracle():
    worst = 0.0
    for (k1, k2), metrics in per_metric_draws():
        for coeffs in metrics:
            closed = np.array(aw_eigenvalue_tuple(*coeffs, k1 / k2))
            general = np.array(table_scan_ricci(k1, k2, coeffs))
            worst = max(worst, float(np.max(np.abs(closed - general) / np.abs(general))))
    return worst


def per_metric_eigenvalue_oracle():
    """`_check_eigenvalue_oracle` as one call of each form per metric, the oracle's on a stack of one."""
    worst = 0.0
    for (k1, k2), metrics in per_metric_draws():
        for coeffs in metrics:
            closed = aw_eigenvalue_tuple(*coeffs, k1 / k2)
            (general,) = ricci_from_structure(k1, k2, [coeffs]).tolist()
            worst = max(worst, *(abs(c - g) / abs(g) for c, g in zip(closed, general)))
    return worst


def test_eigenvalue_oracle_matches_the_scalar_loop():
    (result,) = verify._check_eigenvalue_oracle()
    assert result.measured.hex() == scalar_eigenvalue_oracle().hex()
    assert result.measured.hex() == per_metric_eigenvalue_oracle().hex()


def test_closed_forms_hold_on_the_earlier_numpy_sample():
    # the sample the oracle drew from numpy.random before: 3.29e-13 at the row's tolerance
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k1, k2 in PAIRS:
        coeffs = rng.uniform(0.5, 2.0, size=(100, 4))
        closed = np.transpose(aw_eigenvalue_tuple(*coeffs.T, k1 / k2))
        general = ricci_from_structure(k1, k2, coeffs)
        worst = max(worst, float(np.max(np.abs(closed - general) / np.abs(general))))
    assert worst <= 1e-12


@pytest.mark.parametrize("k1,k2", PAIRS)
def test_closed_forms_hold_normwise_where_an_eigenvalue_nears_zero(k1, k2):
    # the componentwise deviation of the battery row exceeds 1e-12 on about 1e-4 of such metrics, each with an
    # eigenvalue within 4e-3 of 0; measured against the largest eigenvalue the closed forms stay within 1.4e-15
    coeffs = np.random.default_rng(1000 * k1 + k2).uniform(0.5, 2.0, size=(20_000, 4))
    closed = np.transpose(aw_eigenvalue_tuple(*coeffs.T, k1 / k2))
    general = ricci_from_structure(k1, k2, coeffs)
    assert np.max(np.max(np.abs(closed - general), axis=1) / np.max(np.abs(general), axis=1)) <= 1e-14


def test_battery_runs_on_numpy_core_alone():
    # numpy.roots raises, and no call loads numpy.random where importing numpy did not (numpy 1.x loads it)
    script = """if True:
        import sys
        import numpy
        eager = "numpy.random" in sys.modules
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.roots called")
        numpy.roots = refuse
        from ricciflow import cli, derivatives, verify
        verify.run_all()
        derivatives.d_roots()
        assert cli.main(["roots"]) == 0
        print(eager, "numpy.random" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()[-2:]
    assert loaded == eager


def test_d_roots_are_the_doubles_nearest_the_exact_roots():
    mpmath = pytest.importorskip("mpmath")
    roots = derivatives.d_roots()
    assert (roots[1], roots[2]) == (-2.0, 0.0)
    with mpmath.workdps(40):
        exact = sorted(mpmath.polyroots([1, 4, -24, 16], maxsteps=200, extraprec=200))
        for root, x in zip(roots[[0, 3, 4]], exact):
            neighbours = (np.nextafter(root, -np.inf), root, np.nextafter(root, np.inf))
            below, at, above = (abs(mpmath.mpf(y) - x) for y in neighbours)
            assert at < min(below, above), (root, x)


def per_point_gradient_oracle():
    """`_check_gradient_oracle` as one scalar `t_a` call per finite-difference point."""
    h = 1e-6
    worst_fd = worst_asm = 0.0
    for x in verify._GRAD_X:
        for xi in verify._GRAD_XI:
            anchor = derivatives.gradient_anchor(x)
            t0, s = anchor[0], anchor[1:]
            grad = derivatives.grad_f(x, xi)
            fd = np.empty(4)
            fd[0] = (verify._f_value(t0 + h, s, xi) - verify._f_value(t0 - h, s, xi)) / (2.0 * h)
            for i in range(3):
                sp, sm = s.copy(), s.copy()
                sp[i] += h
                sm[i] -= h
                fd[i + 1] = (verify._f_value(t0, sp, xi) - verify._f_value(t0, sm, xi)) / (2.0 * h)
            worst_fd = max(worst_fd, float(np.max(np.abs(fd - grad) / np.abs(grad))))
            assembled = float(grad @ derivatives.initial_velocity(x, xi))
            target = derivatives.f_xi_prime0(xi, x)
            worst_asm = max(worst_asm, abs(assembled - target) / abs(target))
    return worst_fd, worst_asm


def test_gradient_oracle_matches_the_per_point_loop(monkeypatch):
    # the stacked rows are neither round nor on sigma's exact branch, so none
    # falls back to the scalar t_a
    scalar_calls = []

    def counted_t_a(s, xi, t_a=cone.t_a):
        scalar_calls.append(s)
        return t_a(s, xi)

    monkeypatch.setattr(cone, "t_a", counted_t_a)
    fd, asm = verify._check_gradient_oracle()
    assert scalar_calls == []
    assert (fd.measured.hex(), asm.measured.hex()) == tuple(v.hex() for v in per_point_gradient_oracle())


def test_deviation_rows_are_relative_to_the_larger_value_and_to_the_closed_form():
    # the rows' measured values, recomputed per point from the same runs: |a - b| / max(a, b) and |fd - f'| / |f'|
    h, x, xi = 1e-5, 0.9, 1.0
    system = flow.make_system("aw4", xi)
    states = flow.integrate(system, (4.0, 4.0, 5.0, 5.0), flow.IntegratorConfig(max_time=0.5)).states.tolist()
    two_param = max(abs(a - b) / max(a, b) for state in states for a, b in (state[:2], state[2:]))
    assert verify._check_subfamily_invariance()[1].measured == two_param
    ends = [flow.integrate(system, derivatives.gradient_anchor(x),
                           flow.IntegratorConfig(max_time=h, direction=d)).final_state for d in ("forward", "backward")]
    fd = (cone.t_a(ends[0][1:], xi) / ends[0][0] - cone.t_a(ends[1][1:], xi) / ends[1][0]) / (2.0 * h)
    target = derivatives.f1_prime0(x)
    assert verify._check_flow_oracle()[0].measured == abs(fd - target) / abs(target)


def test_stacked_products_match_the_per_point_products():
    grid = verify._TA_GRID
    a = [cone.a_tilde((x, 1.0, 1.0)) for x in grid]
    inv = [cone.a_tilde_inverse_slice(x, 1.0) for x in grid]
    stacked = np.array(a) @ np.array(inv)
    assert bits(stacked) == bits([p @ q for p, q in zip(a, inv)])
    worst_inv = 0.0
    for p, q in zip(a, inv):
        worst_inv = max(worst_inv, float(np.max(np.abs(p @ q - np.eye(3)))))
    (_, result) = verify._check_t_a_closed_form()
    assert result.measured.hex() == worst_inv.hex()


def test_t_a_grid_matches_the_per_point_loop():
    # the check runs the grid through the row-wise kernels; the scalar
    # loop it replaced gives the same worst relative deviation
    closed = [cone.t_a_closed(x, 1.0) for x in verify._TA_GRID]
    worst = max(abs(cone.t_a((x, 1.0, 1.0), 1.0) - c) / c for x, c in zip(verify._TA_GRID, closed))
    (result, _) = verify._check_t_a_closed_form()
    assert result.measured.hex() == worst.hex()


def test_denominator_grid_matches_the_double_loop():
    scalar = []
    for xk in range(1, 100):
        x = xk / 100.0
        for xik in range(1, 101):
            xi = xik / 100.0
            r = (xi - 1.0) ** 2 * x * x - 4.0 * (xi - 1.0) ** 2 * x - 12.0 * (xi + 1.0) ** 2
            scalar.append(x * (x - 4.0) * (x - 1.0) * r * r)
    grid = derivatives._f_denominator(np.array(verify._grid(1, 100))[:, None], np.array(verify._grid(1, 101)))
    assert bits(grid) == bits(scalar)
    (_, result) = verify._check_k_polynomial()
    assert result.measured.hex() == min(scalar).hex()


@pytest.mark.parametrize("xi,start", [(1.0, 0.801)] + [(k / 10.0, 0.9) for k in range(1, 10)])
def test_f_prime0_grids_match_the_scalar_calls(xi, start):
    xs = np.arange(start, 0.9995, 1e-3)
    scalar = [derivatives.f_xi_prime0(xi, float(x)) for x in xs]
    assert bits(derivatives.f_xi_prime0(xi, xs)) == bits(scalar)


def test_sign_theorem_matches_the_scalar_loops():
    worst = max(derivatives.f1_prime0(float(x)) for x in np.arange(0.801, 0.9995, 1e-3))
    nearby = max(min(derivatives.f_xi_prime0(k / 10.0, float(x)) for x in np.arange(0.9, 0.9995, 1e-3))
                 for k in range(1, 10))
    xi1, nearby_xi = verify._check_sign_theorem()
    assert (xi1.measured.hex(), nearby_xi.measured.hex()) == (worst.hex(), nearby.hex())
