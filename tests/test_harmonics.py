"""Orthonormal spherical harmonics on S^n and the addition theorem."""

import itertools
import math

import numpy as np
import pytest

from spheremra.harmonics import (
    HarmonicIndex,
    SphereGeometry,
    SphericalPoint,
    addition_kernel,
    dim_pi,
    dot,
    enumerate_indices,
    harmonic_count,
    harmonic_eval,
    index_rank,
    index_table,
    total_measure,
)
from spheremra.specfun import GegenbauerParams, gegenbauer


def random_point(n, rng):
    thetas = tuple(float(t) for t in rng.uniform(0.05, math.pi - 0.05, n - 1))
    return SphericalPoint(thetas, float(rng.uniform(0.0, 2.0 * math.pi)))


def test_total_measure_values():
    assert total_measure(1) == pytest.approx(2.0 * math.pi)
    assert total_measure(2) == pytest.approx(4.0 * math.pi)
    assert total_measure(3) == pytest.approx(2.0 * math.pi**2)
    assert total_measure(4) == pytest.approx(8.0 * math.pi**2 / 3.0)


def test_geometry_parameters():
    geo = SphereGeometry(3)
    assert geo.lam == pytest.approx(1.0)
    assert geo.measure == pytest.approx(2.0 * math.pi**2)
    with pytest.raises(ValueError):
        SphereGeometry(1)


def test_harmonic_and_polynomial_space_counts():
    two = SphereGeometry(2)
    three = SphereGeometry(3)
    assert harmonic_count(two, 0) == 1
    assert harmonic_count(two, 1) == 3
    assert harmonic_count(two, 5) == 11
    assert harmonic_count(three, 4) == 25
    assert dim_pi(two, 1) == 4
    assert dim_pi(two, 7) == 64
    assert dim_pi(three, 2) == 14
    assert dim_pi(three, 7) == 204
    # exact at degrees no factorial form reaches: (m+1)^2 on S^2
    assert dim_pi(two, 2**29 - 1) == 2**58
    assert dim_pi(three, 10**6) == (10**6 + 1) * (10**6 + 2) * (2 * 10**6 + 3) // 6


@pytest.mark.parametrize("n", range(2, 9))
def test_space_dimension_is_sum_of_harmonic_counts(n):
    """dim of polynomials of degree <= m restricted to the sphere equals the
    total number of harmonics of degree <= m, checked in exact arithmetic."""
    geo = SphereGeometry(n)
    for m in (0, 1, 2, 5, 17, 64):
        total = sum(harmonic_count(geo, l) for l in range(m + 1))
        assert total == dim_pi(geo, m)
        closed = (n + 2 * m) * math.factorial(n + m - 1) // (
            math.factorial(n) * math.factorial(m)
        )
        assert dim_pi(geo, m) == closed


def reference_rows(n, max_degree):
    """(l, k_1, ..., k_(n-1), sign) in enumeration order, from the
    nonincreasing chains below each degree, sign +1 before -1."""
    rows = []
    for l in range(max_degree + 1):
        pool = itertools.combinations_with_replacement(range(l + 1), n - 1)
        for chain in sorted(c[::-1] for c in pool):
            rows.append((l, *chain, 1))
            if chain[-1]:
                rows.append((l, *chain, -1))
    return np.array(rows)


def degree_with_about(n, count):
    """The largest degree whose index set on S^n has at most `count` rows."""
    geo = SphereGeometry(n)
    return next(m for m in itertools.count() if dim_pi(geo, m + 1) > count)


@pytest.mark.parametrize("n", range(2, 8))
def test_index_table_matches_the_chain_reference(n):
    max_degree = degree_with_about(n, 2000)
    table = index_table(n, max_degree)
    np.testing.assert_array_equal(table, reference_rows(n, max_degree))
    assert len(table) == dim_pi(SphereGeometry(n), max_degree)


@pytest.mark.parametrize("n", range(2, 8))
def test_index_rank_gives_the_table_positions(n):
    table = index_table(n, degree_with_about(n, 2000))
    np.testing.assert_array_equal(index_rank(n, table), np.arange(len(table)))
    picks = np.random.default_rng(n).choice(len(table), size=64, replace=False)
    assert index_rank(n, table[picks].tolist()).tolist() == picks.tolist()
    assert index_rank(n, []).shape == (0,)


def test_enumeration_of_a_high_dimension_needs_no_recursion():
    """Degree 0 has one index; degree 1 has n chains and one extra sign."""
    indices = enumerate_indices(SphereGeometry(1500), 1)
    assert len(indices) == 1502
    assert indices[-1] == HarmonicIndex(1, (1,) * 1499, -1)


def test_enumeration_order_and_sizes():
    two = SphereGeometry(2)
    indices = enumerate_indices(two, 2)
    assert len(indices) == dim_pi(two, 2) == 9
    assert indices[0] == HarmonicIndex(0, (0,), 1)
    assert indices[1] == HarmonicIndex(1, (0,), 1)
    assert indices[2] == HarmonicIndex(1, (1,), 1)
    assert indices[3] == HarmonicIndex(1, (1,), -1)
    degrees = [ix.l for ix in indices]
    assert degrees == sorted(degrees)
    three = SphereGeometry(3)
    assert len(enumerate_indices(three, 3)) == dim_pi(three, 3) == 30


def test_index_validation():
    with pytest.raises(ValueError):
        HarmonicIndex(2, (1, 3), 1)  # chain must be nonincreasing from l
    with pytest.raises(ValueError):
        HarmonicIndex(1, (-1,), 1)
    with pytest.raises(ValueError):
        HarmonicIndex(1, (1,), 2)
    with pytest.raises(ValueError):
        HarmonicIndex(1, (0,), -1)  # sign -1 requires a nonzero azimuthal index


def test_point_geometry():
    p = SphericalPoint((0.3, 1.2), 2.5)
    assert p.n == 3
    x = p.cartesian()
    assert x.shape == (4,)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
    q = SphericalPoint((0.3, 1.2), 2.5)
    assert dot(p, q) == pytest.approx(1.0)
    north = SphericalPoint((0.0, 0.0), 0.0)
    south = SphericalPoint((math.pi, 0.0), 0.0)
    assert dot(north, south) == pytest.approx(-1.0)


def test_constant_and_first_degree_harmonics_on_s2():
    geo = SphereGeometry(2)
    p = SphericalPoint((0.7,), 1.1)
    assert harmonic_eval(geo, HarmonicIndex(0, (0,), 1), p) == pytest.approx(1.0)
    # k = 0, l = 1 is sqrt(3) cos(theta) in this normalization
    y10 = harmonic_eval(geo, HarmonicIndex(1, (0,), 1), p)
    assert y10 == pytest.approx(math.sqrt(3.0) * math.cos(0.7))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_one_sum_of_squares(n):
    """sum_k |Y_1^k(x)|^2 = N(n, 1) = n + 1 at any point."""
    geo = SphereGeometry(n)
    rng = np.random.default_rng(7 + n)
    p = random_point(n, rng)
    total = sum(
        abs(harmonic_eval(geo, ix, p)) ** 2
        for ix in enumerate_indices(geo, 1)
        if ix.l == 1
    )
    assert total == pytest.approx(n + 1)


def _axis_gram(geo, indices, resolution=512):
    """Gram matrix of the harmonics via separable 1-d Simpson quadratures.

    Factorizes <Y, Y'> into per-axis integrals: each theta_nu axis carries
    weight sin^(n - nu), the azimuth is a plain Fourier integral, and the
    whole inner product is the elementwise product of the axis Grams divided
    by the total measure.  Profiles omit the normalization constants, so the
    constants are applied at the end.
    """
    from spheremra.harmonics import axis_profile, azimuth_profile, normalization_constant

    n = geo.n
    m = len(indices)
    gram = np.ones((m, m), dtype=complex)
    for nu in range(1, n):
        theta = np.linspace(0.0, math.pi, resolution + 1)
        w = np.ones(theta.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (math.pi / resolution) / 3.0
        w = w * np.sin(theta) ** (n - nu)
        profiles = np.array([axis_profile(geo, ix, nu, theta) for ix in indices])
        gram *= (np.conj(profiles) * w) @ profiles.T
    phi = np.linspace(0.0, 2.0 * math.pi, resolution + 1)
    w = np.ones(phi.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (2.0 * math.pi / resolution) / 3.0
    profiles = np.array([azimuth_profile(ix, phi) for ix in indices])
    gram *= (np.conj(profiles) * w) @ profiles.T
    consts = np.array([normalization_constant(geo, ix) for ix in indices])
    return gram * np.outer(consts, consts) / geo.measure


@pytest.mark.parametrize("n", [2, 3])
def test_orthonormality(n):
    geo = SphereGeometry(n)
    indices = enumerate_indices(geo, 4)
    gram = _axis_gram(geo, indices)
    assert np.max(np.abs(gram - np.eye(len(indices)))) <= 1e-8


def test_orthonormality_full_tensor_cross_check():
    """A few S^2 pairs against the brute-force surface integral, to guard the
    separable Gram construction itself."""
    from spheremra.oracle import IntegrationSpec, inner_product

    geo = SphereGeometry(2)
    spec = IntegrationSpec(geo, resolution=512)
    picks = [
        (HarmonicIndex(1, (1,), 1), HarmonicIndex(1, (1,), 1)),
        (HarmonicIndex(2, (1,), -1), HarmonicIndex(2, (1,), -1)),
        (HarmonicIndex(1, (1,), 1), HarmonicIndex(2, (1,), 1)),
        (HarmonicIndex(2, (2,), 1), HarmonicIndex(2, (0,), 1)),
    ]
    for ia, ib in picks:
        def fa(theta, phi, ia=ia):
            return _eval_on_angles(geo, ia, theta, phi)

        def fb(theta, phi, ib=ib):
            return _eval_on_angles(geo, ib, theta, phi)

        value = inner_product(fa, fb, spec)
        expected = 1.0 if ia == ib else 0.0
        assert value == pytest.approx(expected, abs=5e-9)


def _eval_on_angles(geo, index, theta, phi):
    from spheremra.harmonics import axis_profile, azimuth_profile, normalization_constant

    value = axis_profile(geo, index, 1, theta).astype(complex)
    value = value * azimuth_profile(index, phi)
    return normalization_constant(geo, index) * value


@pytest.mark.parametrize("n", [2, 3, 4])
def test_addition_theorem(n):
    """C_l(x . y) * lam / (l + lam) equals the harmonic bilinear sum."""
    geo = SphereGeometry(n)
    rng = np.random.default_rng(100 + n)
    for l in (0, 1, 2, 5, 8):
        indices = [ix for ix in enumerate_indices(geo, l) if ix.l == l]
        assert len(indices) == harmonic_count(geo, l)
        for _ in range(5):
            x, y = random_point(n, rng), random_point(n, rng)
            direct = addition_kernel(geo, l, x, y)
            summed = sum(
                np.conj(harmonic_eval(geo, ix, x)) * harmonic_eval(geo, ix, y)
                for ix in indices
            )
            lam = geo.lam
            expected = (lam / (l + lam)) * summed
            assert direct == pytest.approx(gegenbauer(GegenbauerParams(lam, l), dot(x, y)))
            assert abs(direct - expected) <= 1e-9 * max(1.0, abs(direct))


def test_addition_theorem_at_coincident_points():
    """At x = y the sum of |Y|^2 collapses to N(n, l)."""
    for n in (2, 3):
        geo = SphereGeometry(n)
        lam = geo.lam
        for l in (1, 3, 6):
            value = ((l + lam) / lam) * gegenbauer(GegenbauerParams(lam, l), 1.0)
            assert value == pytest.approx(harmonic_count(geo, l))


def test_eval_rejects_mismatched_dimensions():
    geo = SphereGeometry(3)
    p2 = SphericalPoint((0.5,), 0.5)
    with pytest.raises(ValueError):
        harmonic_eval(geo, HarmonicIndex(0, (0, 0), 1), p2)
    with pytest.raises(ValueError):
        dot(p2, SphericalPoint((0.5, 0.5), 0.5))
    with pytest.raises(ValueError):
        harmonic_eval(geo, HarmonicIndex(0, (0,), 1), random_point(3, np.random.default_rng(1)))
