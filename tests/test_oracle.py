"""Brute-force integration oracle used to certify closed forms elsewhere."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spheremra.harmonics import (
    HarmonicIndex,
    SphereGeometry,
    SphericalPoint,
    harmonic_eval,
    normalization_constant,
)
from spheremra.oracle import (
    IntegrationSpec,
    brute_fourier,
    default_resolution,
    dense_integral,
    generating_function_gegenbauer,
    inner_product,
    zonal_convolution,
    zonal_inner_product,
    zonal_integral,
)
from spheremra.specfun import GegenbauerParams, gegenbauer, gegenbauer_norm_1d


def test_spec_validation():
    geo = SphereGeometry(2)
    with pytest.raises(ValueError):
        IntegrationSpec(geo, resolution=63)
    with pytest.raises(ValueError):
        IntegrationSpec(geo, resolution=129)
    assert default_resolution(2) == 2048
    assert default_resolution(5) == 512


def test_constant_integrates_to_total_measure():
    spec2 = IntegrationSpec(SphereGeometry(2), resolution=256)
    value = dense_integral(lambda theta, phi: np.ones_like(theta * phi), spec2)
    assert value == pytest.approx(4.0 * math.pi, rel=1e-8)
    spec3 = IntegrationSpec(SphereGeometry(3), resolution=128)
    value3 = dense_integral(
        lambda t1, t2, phi: np.ones_like(t1 * t2 * phi), spec3
    )
    assert value3 == pytest.approx(2.0 * math.pi**2, rel=1e-7)


def test_inner_product_normalization():
    geo = SphereGeometry(2)
    spec = IntegrationSpec(geo, resolution=256)
    one = lambda theta, phi: np.ones_like(theta * phi)
    assert inner_product(one, one, spec) == pytest.approx(1.0, rel=1e-8)
    # <cos theta, cos theta> = 1/3 on S^2
    ct = lambda theta, phi: np.cos(theta) * np.ones_like(phi)
    assert inner_product(ct, ct, spec) == pytest.approx(1.0 / 3.0, rel=1e-7)


def test_zonal_integral_values():
    geo = SphereGeometry(2)
    assert zonal_integral(lambda t: np.ones_like(t), geo, 256) == pytest.approx(
        4.0 * math.pi, rel=1e-8
    )
    # degree >= 1 Gegenbauer polynomials integrate to zero against sin^{n-1}
    assert abs(zonal_integral(lambda t: t, geo, 256)) <= 1e-14
    lam = geo.lam
    c2 = lambda t: gegenbauer(GegenbauerParams(lam, 2), t)
    assert abs(zonal_integral(c2, geo, 512)) <= 1e-8
    # squared norm reduces to the 1-d weighted norm times Sigma_{n-1}
    sq = lambda t: gegenbauer(GegenbauerParams(lam, 2), t) ** 2
    expected = 2.0 * math.pi * gegenbauer_norm_1d(GegenbauerParams(lam, 2))
    assert zonal_integral(sq, geo, 512) == pytest.approx(expected, rel=1e-7)
    with pytest.raises(ValueError):
        zonal_integral(lambda t: t, geo, 30)


def test_zonal_inner_product_orthogonality():
    geo = SphereGeometry(3)
    lam = geo.lam
    c1 = lambda t: gegenbauer(GegenbauerParams(lam, 1), t)
    c3 = lambda t: gegenbauer(GegenbauerParams(lam, 3), t)
    assert abs(zonal_inner_product(c1, c3, geo, 512)) <= 1e-12
    norm = zonal_inner_product(c1, c1, geo, 512)
    expected = (
        total_measure_ratio(geo) * gegenbauer_norm_1d(GegenbauerParams(lam, 1))
    )
    assert norm == pytest.approx(expected, rel=1e-10)


def total_measure_ratio(geo):
    from spheremra.harmonics import total_measure

    return total_measure(geo.n - 1) / total_measure(geo.n)


def test_zonal_convolution_projects_degrees():
    """Convolving with the degree-l kernel acts on harmonics as the scalar
    lambda / (l + lambda): degree-l inputs pass through scaled, other degrees
    are annihilated."""
    geo = SphereGeometry(2)
    spec = IntegrationSpec(geo, resolution=256)
    lam = geo.lam
    kernel = lambda t: gegenbauer(GegenbauerParams(lam, 1), t)
    y1 = HarmonicIndex(1, (1,), 1)
    y2 = HarmonicIndex(2, (1,), -1)

    def f1(theta, phi):
        return _harmonic_on_angles(geo, y1, theta, phi)

    def f2(theta, phi):
        return _harmonic_on_angles(geo, y2, theta, phi)

    x = SphericalPoint((0.9,), 2.2)
    passed = zonal_convolution(f1, kernel, spec)(x)
    assert passed == pytest.approx(
        (lam / (1 + lam)) * harmonic_eval(geo, y1, x), rel=1e-7
    )
    killed = zonal_convolution(f2, kernel, spec)(x)
    assert abs(killed) <= 1e-10


def _harmonic_on_angles(geo, index, theta, phi):
    from spheremra.harmonics import axis_profile, azimuth_profile

    value = axis_profile(geo, index, 1, theta).astype(complex)
    return normalization_constant(geo, index) * value * azimuth_profile(index, phi)


def test_brute_fourier_picks_out_coefficients():
    geo = SphereGeometry(2)
    spec = IntegrationSpec(geo, resolution=256)
    y10 = HarmonicIndex(1, (0,), 1)

    def f(theta, phi):
        return (
            2.0 * _harmonic_on_angles(geo, y10, theta, phi)
            - 0.5j * _harmonic_on_angles(geo, HarmonicIndex(2, (2,), 1), theta, phi)
        )

    assert brute_fourier(f, y10, spec) == pytest.approx(2.0, rel=1e-6)
    assert brute_fourier(f, HarmonicIndex(2, (2,), 1), spec) == pytest.approx(
        -0.5j, rel=1e-6
    )
    assert abs(brute_fourier(f, HarmonicIndex(2, (1,), 1), spec)) <= 1e-12


def test_exact_expansion_reference_values():
    # closed-form expansion in exact rational arithmetic
    assert generating_function_gegenbauer(0.5, 3, Fraction(1, 2)) == Fraction(-7, 16)
    assert generating_function_gegenbauer(1.0, 2, 0) == -1
    assert generating_function_gegenbauer(1.5, 4, 1) == 15
    # spot-check a higher degree against the recurrence
    value = generating_function_gegenbauer(2.5, 40, Fraction(3, 10))
    assert float(value) == pytest.approx(
        gegenbauer(GegenbauerParams(2.5, 40), 0.3), rel=1e-12
    )


def test_exact_expansion_argument_errors():
    with pytest.raises(ValueError):
        generating_function_gegenbauer(1.0, 65, 0.5)  # beyond the degree cap
    with pytest.raises(ValueError):
        generating_function_gegenbauer(1.0, 2, 1.5)
    with pytest.raises(ValueError):
        generating_function_gegenbauer(-1.0, 2, 0.5)


def test_half_resolution_check_is_quiet_for_smooth_integrands():
    spec = IntegrationSpec(SphereGeometry(2), resolution=512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = dense_integral(
            lambda theta, phi: np.cos(theta) ** 2 * np.ones_like(phi),
            spec,
            check=True,
        )
    assert value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)
