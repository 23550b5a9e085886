"""Gegenbauer evaluation, norms, and zonal-expansion helpers."""

import math

import numpy as np
import pytest
from scipy.special import roots_gegenbauer

from spheremra.oracle import generating_function_gegenbauer
from spheremra.specfun import (
    GegenbauerParams,
    ZonalSpectrum,
    gegenbauer,
    gegenbauer_at_one,
    gegenbauer_norm_1d,
    gegenbauer_table,
    zonal_eval,
)


def test_low_degree_values():
    assert gegenbauer(GegenbauerParams(0.75, 0), 0.3) == pytest.approx(1.0)
    assert gegenbauer(GegenbauerParams(0.5, 1), 0.5) == pytest.approx(0.5)
    assert gegenbauer(GegenbauerParams(1.0, 2), 0.0) == pytest.approx(-1.0)
    assert gegenbauer(GegenbauerParams(1.0, 2), 1.0) == pytest.approx(3.0)


def test_value_at_one_is_binomial():
    # C_l(1) = binom(l + 2 lam - 1, l)
    assert gegenbauer_at_one(GegenbauerParams(1.0, 2)) == pytest.approx(3.0)
    assert gegenbauer_at_one(GegenbauerParams(0.5, 3)) == pytest.approx(1.0)
    assert gegenbauer_at_one(GegenbauerParams(1.5, 4)) == pytest.approx(15.0)
    assert gegenbauer_at_one(GegenbauerParams(2.5, 6)) == pytest.approx(math.comb(10, 6))


def test_one_dimensional_norms():
    assert gegenbauer_norm_1d(GegenbauerParams(0.5, 0)) == pytest.approx(2.0)
    assert gegenbauer_norm_1d(GegenbauerParams(0.5, 1)) == pytest.approx(2.0 / 3.0)
    assert gegenbauer_norm_1d(GegenbauerParams(1.0, 0)) == pytest.approx(math.pi / 2.0)
    # lam = 1 gives Chebyshev U_l, whose weighted norm is pi/2 for every degree
    for l in (1, 2, 7, 20):
        assert gegenbauer_norm_1d(GegenbauerParams(1.0, l)) == pytest.approx(math.pi / 2.0)
    # Legendre: 2/(2l + 1)
    for l in (2, 5, 11):
        assert gegenbauer_norm_1d(GegenbauerParams(0.5, l)) == pytest.approx(2.0 / (2 * l + 1))


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
def test_recurrence_matches_exact_expansion(lam):
    """The three-term recurrence agrees with the exact rational expansion of
    the generating function, up to the expansion's degree cap."""
    degrees = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64]
    ts = np.linspace(-1.0, 1.0, 21)
    table = gegenbauer_table(lam, 64, ts)
    for l in degrees:
        scale = max(abs(gegenbauer_at_one(GegenbauerParams(lam, l))), 1.0)
        for i, t in enumerate(ts):
            exact = generating_function_gegenbauer(lam, l, float(t))
            assert abs(table[l, i] - exact) <= 1e-9 * scale


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_orthogonality_gauss(lam):
    """Weighted orthogonality on [-1, 1] via Gauss-Gegenbauer nodes, which
    integrate polynomials up to degree 2*len(nodes) - 1 exactly."""
    lmax = 16
    nodes, weights = roots_gegenbauer(lmax + 4, lam)
    table = gegenbauer_table(lam, lmax, nodes)
    gram = (table * weights) @ table.T
    norms = np.array(
        [gegenbauer_norm_1d(GegenbauerParams(lam, l)) for l in range(lmax + 1)]
    )
    normalized = gram / np.sqrt(np.outer(norms, norms))
    off = normalized - np.diag(np.diag(normalized))
    assert np.max(np.abs(off)) <= 1e-9
    assert np.max(np.abs(np.diag(gram) / norms - 1.0)) <= 1e-10


def test_orthogonality_simpson_cross_check():
    """One moderate pair checked with plain Simpson in theta, independent of
    any quadrature library: int_0^pi C_k(cos) C_l(cos) sin^(2 lam) dtheta,
    which carries the same value as the [-1, 1] weighted integral."""
    lam, k, l = 1.5, 4, 6
    theta = np.linspace(0.0, np.pi, 4097)
    w = np.ones(theta.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (np.pi / 4096) / 3.0
    table = gegenbauer_table(lam, 6, np.cos(theta))
    weight = np.sin(theta) ** (2.0 * lam)
    cross = np.sum(w * table[k] * table[l] * weight)
    diag = np.sum(w * table[l] ** 2 * weight)
    assert abs(cross) <= 1e-9 * diag
    assert diag == pytest.approx(gegenbauer_norm_1d(GegenbauerParams(lam, l)), rel=1e-8)


def test_table_shape_and_consistency():
    ts = np.linspace(-1.0, 1.0, 7).reshape(7, 1)
    table = gegenbauer_table(1.0, 5, ts)
    assert table.shape == (6, 7, 1)
    single = gegenbauer(GegenbauerParams(1.0, 5), float(ts[2, 0]))
    assert table[5, 2, 0] == pytest.approx(single)


def test_domain_validation():
    with pytest.raises(ValueError):
        gegenbauer(GegenbauerParams(1.0, 3), 1.5)
    with pytest.raises(ValueError):
        GegenbauerParams(0.0, 2)
    with pytest.raises(ValueError):
        GegenbauerParams(1.0, -1)
    # values a rounding error beyond the endpoints are clamped, not rejected
    assert gegenbauer(GegenbauerParams(1.0, 2), 1.0 + 1e-12) == pytest.approx(3.0)


def test_zonal_eval_is_linear_combination():
    lam = 0.5
    spec = ZonalSpectrum(lam, np.array([1.0, -2.0, 0.5], dtype=complex))
    assert spec.max_degree == 2
    t = 0.37
    expected = 1.0 - 2.0 * (2 * lam * t) + 0.5 * gegenbauer(GegenbauerParams(lam, 2), t)
    assert zonal_eval(spec, t) == pytest.approx(expected)
    ts = np.array([-0.9, 0.0, 0.9])
    values = zonal_eval(spec, ts)
    assert values.shape == (3,)
    assert values[1] == pytest.approx(1.0 - 0.0 + 0.5 * gegenbauer(GegenbauerParams(lam, 2), 0.0))
