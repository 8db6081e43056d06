"""The battery's array and table-free evaluations against the scalar loops
they replace, bit for bit.

Each reference below is the per-point form the check used before: the
4x4x4 table scan of `ricci_from_structure`, one `rng.uniform(size=4)` draw
per metric, one `@` per grid point, and the double and single loops over
the K-denominator and f'(0) grids.  Values are compared through
`float.hex`, so even a sign of zero counts.  The stacked `@` goes through
BLAS; run this file again under e.g. OPENBLAS_CORETYPE=Haswell to check a
second kernel set.
"""

import math

import numpy as np
import pytest

from ricciflow import cone, derivatives, verify
from ricciflow.spaces import aw_eigenvalue_tuple, bracket_constants, ricci_from_structure

PAIRS = ((1, 1), (1, 2), (2, 3), (1, 10))


def bits(values):
    return [float(v).hex() for v in np.ravel(values)]


def table_scan_ricci(k1, k2, coeffs):
    """`ricci_from_structure` as a scan of all 64 entries of the table."""
    table = bracket_constants(k1, k2)
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
        r.append(math.fsum([12.0 / (2.0 * x[i]), -math.fsum(first) / (2.0 * d),
                            math.fsum(second) / (4.0 * d)]))
    return tuple(r)


@pytest.mark.parametrize("k1,k2", PAIRS + ((3, 7), (5, 8)))
def test_ricci_from_structure_matches_the_table_scan(k1, k2):
    rng = np.random.default_rng(k1 * 100 + k2)
    metrics = np.concatenate([rng.uniform(0.5, 2.0, size=(50, 4)),
                              np.exp(rng.uniform(-30.0, 30.0, size=(50, 4)))])
    for coeffs in metrics:
        assert bits(ricci_from_structure(k1, k2, coeffs)) == bits(table_scan_ricci(k1, k2, coeffs))


def test_oracle_draws_the_per_metric_stream():
    one, per_metric = np.random.default_rng(20240810), np.random.default_rng(20240810)
    for _ in PAIRS:
        block = one.uniform(0.5, 2.0, size=(100, 4)).tolist()
        assert block == [per_metric.uniform(0.5, 2.0, size=4).tolist() for _ in range(100)]


def scalar_eigenvalue_oracle():
    rng = np.random.default_rng(20240810)
    worst = 0.0
    for k1, k2 in PAIRS:
        for _ in range(100):
            coeffs = rng.uniform(0.5, 2.0, size=4)
            closed = np.array(aw_eigenvalue_tuple(*coeffs, k1 / k2))
            general = np.array(table_scan_ricci(k1, k2, coeffs))
            worst = max(worst, float(np.max(np.abs(closed - general) / np.abs(general))))
    return worst


def test_eigenvalue_oracle_matches_the_scalar_loop():
    (result,) = verify._check_eigenvalue_oracle()
    assert result.measured.hex() == scalar_eigenvalue_oracle().hex()


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
