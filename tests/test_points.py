"""Point evaluation: the batched basis of mra against the per-index
reference of the oracle, harmonic_eval against the same reference, and the
grid caches that neither may touch."""

import math

import numpy as np
import pytest

from spheremra import mra, oracle, quadrature
from spheremra.harmonics import SphereGeometry, SphericalPoint, enumerate_indices, harmonic_eval


def points_with_poles(n, count, rng):
    """Random points; the first ones sit at theta = 0 and theta = pi on
    every axis, and every third has phi = 0."""
    points = []
    for i in range(count):
        thetas = rng.uniform(0.0, math.pi, n - 1)
        if i < 2:
            thetas[:] = (0.0, math.pi)[i]
        phi = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, 2.0 * math.pi))
        points.append(SphericalPoint(tuple(thetas.tolist()), phi))
    return points


CASES = [(2, j) for j in range(1, 7)] + [(3, j) for j in range(1, 5)] + [
    (n, j) for n in (4, 5) for j in range(1, 4)
]


@pytest.mark.parametrize("n,j", CASES)
@pytest.mark.parametrize("count", [1, 50])
def test_batched_basis_is_the_reference_bit_for_bit(n, j, count):
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(100 * n + 10 * j + count)
    indices = mra.space_indices(geometry, j)
    positions = np.flatnonzero(rng.random(len(indices)) < 0.5)
    if not len(positions):
        positions = np.array([len(indices) - 1])
    points = points_with_poles(n, count, rng)
    got = mra._basis_at_points(geometry, mra.space_degree_bound(j), positions, points)
    want = oracle.point_basis(geometry, [indices[p] for p in positions], points)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_synthesize_at_points_is_the_reference_product():
    geometry, j = SphereGeometry(3), 3
    rng = np.random.default_rng(7)
    size = len(mra.space_indices(geometry, j))
    coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
    coeffs[rng.random(size) < 0.3] = 0.0
    spectrum = mra.Spectrum(geometry, j, coeffs)
    points = points_with_poles(3, 20, rng)
    nonzero = np.flatnonzero(coeffs)
    indices = [mra.space_indices(geometry, j)[p] for p in nonzero]
    basis = oracle.point_basis(geometry, indices, points)
    assert mra.synthesize(spectrum, points).tobytes() == (coeffs[nonzero] @ basis).tobytes()
    single = oracle.point_basis(geometry, indices, points[5:6])
    assert mra.synthesize(spectrum, points[5]) == complex((coeffs[nonzero] @ single)[0])


@pytest.mark.parametrize("n,sample", [(2, None), (3, None), (4, 400), (5, 400)])
def test_harmonic_eval_matches_the_reference(n, sample):
    """Every index of degree <= 12 on S^2 and S^3, a random 400 on S^4 and
    S^5, at random points and at both poles.  The relative bound holds down
    to the smallest normal number; below it (sin(pi)^k at the pole) the
    spacing of the subnormals is absolute."""
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(40 + n)
    indices = enumerate_indices(geometry, 12)
    if sample is not None:
        indices = [indices[p] for p in rng.choice(len(indices), sample, replace=False)]
    points = points_with_poles(n, 4, rng)
    want = oracle.point_basis(geometry, indices, points)
    got = np.array([[harmonic_eval(geometry, ix, x) for x in points] for ix in indices])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + np.finfo(float).tiny)


def test_point_evaluation_leaves_the_grid_caches_alone():
    geometry, j = SphereGeometry(4), 3
    rng = np.random.default_rng(9)
    spectrum = mra.Spectrum(geometry, j, rng.normal(size=len(mra.space_indices(geometry, j))))
    points = points_with_poles(4, 5, rng)
    caches = [
        mra._plan_cached,
        quadrature._level_weights_cached,
        quadrature._cached_rule,
    ]
    before = [cache.cache_info() for cache in caches]
    mra.synthesize(spectrum, points)
    mra.synthesize(spectrum, points[0])
    for ix in enumerate_indices(geometry, 5):
        harmonic_eval(geometry, ix, points[1])
    assert [cache.cache_info() for cache in caches] == before
