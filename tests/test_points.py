"""Point evaluation: the batched basis of mra against the per-index
reference of the oracle, on dense and sparse rows, the chain normalisations
a point synthesis forms, harmonic_eval against the same reference and, bit
for bit, against its own loop before the plan cache, that cache's bound,
and the grid caches that point evaluation may not touch."""

import cmath
import math

import numpy as np
import pytest

from spheremra import harmonics, mra, oracle, quadrature
from spheremra.harmonics import (
    HarmonicIndex,
    SphereGeometry,
    SphericalPoint,
    _chain_normalization,
    addition_kernel,
    dot,
    enumerate_indices,
    harmonic_eval,
    normalization_constant,
)
from spheremra.specfun import gegenbauer_sequence, gegenbauer_table


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
    """A random half of the level's rows, and three sparse sets: every third
    row, the -1 rows alone (each without its chain's +1 row) and the last row."""
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(100 * n + 10 * j + count)
    indices = mra.space_indices(geometry, j)
    half = np.flatnonzero(rng.random(len(indices)) < 0.5)
    minus = np.flatnonzero([ix.sign == -1 for ix in indices])
    points = points_with_poles(n, count, rng)
    for positions in (half, np.arange(0, len(indices), 3), minus, np.array([len(indices) - 1])):
        if not len(positions):
            continue
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


def loop_harmonic_eval(geometry, index, point):
    """harmonic_eval as it was before the plan cache, verbatim: every value
    of the cached evaluator must carry these bits."""
    n, ks = geometry.n, (index.l,) + index.chain
    value = _chain_normalization(n, ks)
    for nu, theta in enumerate(point.thetas, start=1):
        d, lam_nu, k_nu = ks[nu - 1] - ks[nu], (n - nu) / 2.0 + ks[nu], ks[nu]
        *_, factor = gegenbauer_sequence(lam_nu, d, math.cos(theta))
        value *= factor * math.sin(theta) ** k_nu
    return value * cmath.exp(1j * index.sign * index.chain[-1] * point.phi)


def same_bits(a, b):
    """Equal real and imaginary parts, signs of zero included."""
    a, b = complex(a), complex(b)
    return all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


def points_with_axes(n, count, rng):
    """Seeded random points, the same with phi = 0, and every axis at
    theta = 0, pi/2 and pi with phi = 0."""
    points = []
    for _ in range(count):
        thetas = tuple(rng.uniform(0.0, math.pi, n - 1).tolist())
        points += [SphericalPoint(thetas, float(rng.uniform(0.0, 2.0 * math.pi))), SphericalPoint(thetas, 0.0)]
    return points + [SphericalPoint((theta,) * (n - 1), 0.0) for theta in (0.0, math.pi / 2, math.pi)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_harmonic_eval_keeps_the_loop_bits(n):
    geometry = SphereGeometry(n)
    points = points_with_axes(n, 3, np.random.default_rng(70 + n))
    for ix in enumerate_indices(geometry, 8):
        assert normalization_constant(geometry, ix) == _chain_normalization(n, (ix.l,) + ix.chain)
        for x in points:
            assert same_bits(harmonic_eval(geometry, ix, x), loop_harmonic_eval(geometry, ix, x)), (ix, x)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_addition_kernel_keeps_the_table_bits(n):
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(80 + n)
    points = points_with_axes(n, 3, rng)
    antipode = SphericalPoint((math.pi,) * (n - 1), math.pi)
    pairs = [(x, y) for x in points for y in points[:3]] + [(points[-3], antipode)]
    for x, y in pairs:
        table = gegenbauer_table(geometry.lam, 19, np.asarray(dot(x, y)))
        for l in range(20):
            assert same_bits(addition_kernel(geometry, l, x, y), float(table[l])), (l, x, y)


@pytest.mark.parametrize(
    "rows",
    [[((511, 300), -1)], [((300, 200), 1), ((300, 200), -1)]],
    ids=["one-row", "both-signs-of-one-chain"],
)
def test_point_synthesis_forms_only_its_rows_chain_norms(rows, monkeypatch):
    """At S^2 j=10 (131,328 chains) a one-row spectrum, and a two-row one
    holding both signs of one chain, form A_l^k once, with the row bits."""
    geometry = SphereGeometry(2)
    entries = {HarmonicIndex(ks[0], ks[1:], sign): 0.5 - 1.5j * sign for ks, sign in rows}
    spectrum = mra.Spectrum(geometry, 10, entries)
    points = points_with_poles(2, 5, np.random.default_rng(11))
    calls = []

    def counted(n, ks):
        calls.append(ks)
        return _chain_normalization(n, ks)

    monkeypatch.setattr(mra, "_chain_normalization", counted)
    got = mra.synthesize(spectrum, points)
    assert len(calls) == 1
    want = np.array(list(entries.values())) @ oracle.point_basis(geometry, list(entries), points)
    assert got.tobytes() == want.tobytes()


def test_plan_cache_holds_the_pointwise_traffic():
    """Every index of degree <= 8 on S^2, S^3 and S^4, the indices the
    pointwise benchmark evaluates, fit in the plan cache with none evicted."""
    harmonics._plan.cache_clear()
    point = SphericalPoint((0.3, 0.7, 1.1), 0.5)
    for n in (2, 3, 4):
        geometry = SphereGeometry(n)
        x = SphericalPoint(point.thetas[: n - 1], point.phi)
        for ix in enumerate_indices(geometry, 8):
            harmonic_eval(geometry, ix, x)
    info = harmonics._plan.cache_info()
    assert info.currsize == 81 + 285 + 825 == 1191
    assert info.maxsize > 1191


def test_plan_cache_keeps_every_check():
    """A wrong chain length raises the same error on every call and caches
    nothing; a cached plan does not skip the point's dimension check."""
    geometry, point = SphereGeometry(3), SphericalPoint((0.5, 0.5), 0.5)
    wrong = HarmonicIndex(2, (1,), 1)
    size = harmonics._plan.cache_info().currsize
    calls = (lambda: normalization_constant(geometry, wrong), lambda: harmonic_eval(geometry, wrong, point))
    for call in calls * 2:
        with pytest.raises(ValueError, match=r"^index chain length 1 incompatible with S\^3$"):
            call()
    assert harmonics._plan.cache_info().currsize == size
    index = HarmonicIndex(2, (1, 1), -1)
    harmonic_eval(geometry, index, point)
    with pytest.raises(ValueError, match=r"point on S\^2 passed for S\^3"):
        harmonic_eval(geometry, index, SphericalPoint((0.5,), 0.5))
