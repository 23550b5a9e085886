"""Point evaluation: the polar table builder that grids and points share,
kept to the grid's bits; the batched basis of mra against the per-index
reference of the oracle on dense and sparse rows and against mpmath at the
top of the S^2 ladder; the chain normalisations neither a point synthesis
nor harmonic_eval forms; harmonic_eval against the same reference and, as
floats, against the batched basis, the bounds of its plan and axis-constant
caches, and the grid caches that point evaluation may not touch."""

import cmath
import math

import mpmath
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
from spheremra.specfun import GegenbauerParams, gegenbauer_norm_1d, gegenbauer_table


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


def grid_axis_table(base_order, max_degree, thetas):
    """mra._axis_table as it was before it took the orders, verbatim: the
    grid's tables must keep these bits."""
    size = max_degree + 1
    t, sine = np.cos(thetas), np.sin(thetas)
    lam = base_order + np.arange(size)
    table = np.zeros((size, size, len(thetas)))
    table[0, 0] = 1.0 / math.sqrt(gegenbauer_norm_1d(GegenbauerParams(base_order, 0)))
    for b in range(1, size):
        table[b, b] = table[b - 1, b - 1] * sine * math.sqrt(
            (lam[b - 1] + 1.0) / (lam[b - 1] + 0.5)
        )
    for d in range(size - 1):
        # degree d -> d+1 for every order b that still has room below max_degree
        b = np.arange(size - 1 - d)
        lb = lam[b]
        up = 2.0 * np.sqrt((d + lb) * (d + lb + 1.0) / ((d + 1.0) * (d + 2.0 * lb)))
        table[b, b + d + 1] = up[:, None] * t * table[b, b + d]
        if d:
            down = np.sqrt(
                d * (d + 2.0 * lb - 1.0) * (d + lb + 1.0)
                / ((d + 1.0) * (d + 2.0 * lb) * (d + lb - 1.0))
            )
            table[b, b + d + 1] -= down[:, None] * table[b, b + d - 1]
    return table


@pytest.mark.parametrize("n,j", CASES)
def test_shared_builder_keeps_the_grid_tables(n, j):
    """Every axis on the grid N_j, with the degrees of V_j and of V_(j+1)
    (the synthesis of a finer spectrum on a coarse grid)."""
    geometry = SphereGeometry(n)
    thetas, _ = quadrature.grid_axes(geometry, j)
    for max_degree in (mra.space_degree_bound(j), mra.space_degree_bound(j + 1)):
        for nu in range(1, n):
            want = grid_axis_table((n - nu) / 2.0, max_degree, thetas[nu - 1])
            got = mra._axis_table((n - nu) / 2.0, max_degree, thetas[nu - 1], np.arange(max_degree + 1))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (max_degree, nu)


@pytest.mark.parametrize("n,j", CASES)
@pytest.mark.parametrize("count", [1, 50])
def test_batched_basis_agrees_with_the_reference(n, j, count):
    """A random half of the level's rows, and three sparse sets: every third
    row, the -1 rows alone (each without its chain's +1 row) and the last
    row.  The bound, 1e-13 of max|Y|, is about five times the largest
    deviation; with one point, at the pole theta = 0, the -1 rows are all
    zero and so must be the basis."""
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
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_synthesize_at_points_is_the_basis_product():
    geometry, j = SphereGeometry(3), 3
    rng = np.random.default_rng(7)
    indices = mra.space_indices(geometry, j)
    coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    coeffs[rng.random(len(indices)) < 0.3] = 0.0
    spectrum = mra.Spectrum(geometry, j, coeffs)
    points = points_with_poles(3, 20, rng)
    nonzero = np.flatnonzero(coeffs)
    basis = mra._basis_at_points(geometry, mra.space_degree_bound(j), nonzero, points)
    got = mra.synthesize(spectrum, points)
    assert got.tobytes() == (coeffs[nonzero] @ basis).tobytes()
    single = mra._basis_at_points(geometry, mra.space_degree_bound(j), nonzero, points[5:6])
    assert mra.synthesize(spectrum, points[5]) == complex((coeffs[nonzero] @ single)[0])
    want = coeffs[nonzero] @ oracle.point_basis(geometry, [indices[p] for p in nonzero], points)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n,sample", [(2, None), (3, None), (4, 400), (5, 400)])
def test_harmonic_eval_matches_the_reference(n, sample):
    """Every index of degree <= 12 on S^2 and S^3, a random 400 on S^4 and
    S^5, at random points and at both poles, within the batched basis's
    bound, 1e-13 of max|Y|: the reference, an unnormalised product, is
    itself off by up to 5e-14 of a row's max|Y| at S^5 degree 12."""
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(40 + n)
    indices = enumerate_indices(geometry, 12)
    if sample is not None:
        indices = [indices[p] for p in rng.choice(len(indices), sample, replace=False)]
    points = points_with_poles(n, 4, rng)
    want = oracle.point_basis(geometry, indices, points)
    got = np.array([[harmonic_eval(geometry, ix, x) for x in points] for ix in indices])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
def test_harmonic_eval_is_the_batched_basis(n):
    """Every index of degree <= 8, at seeded points and with every axis at
    theta = 0, pi/2 and pi: the scalar and the batched form of one recurrence
    give the same floats (a sign of zero may differ where a pole underflows)."""
    geometry = SphereGeometry(n)
    points = points_with_axes(n, 3, np.random.default_rng(70 + n))
    indices = enumerate_indices(geometry, 8)
    basis = mra._basis_at_points(geometry, 8, np.arange(len(indices)), points)
    for i, ix in enumerate(indices):
        assert normalization_constant(geometry, ix) == _chain_normalization(n, (ix.l,) + ix.chain)
        for p, x in enumerate(points):
            assert harmonic_eval(geometry, ix, x) == basis[i, p], (ix, x)


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


def mpmath_harmonic(n, ks, sign, point):
    """Y at a point of S^n from the index chain ks = (l, k_1, ..., k_(n-1)),
    in mpmath at the working precision: A_l^k from the Gamma functions, each
    polar factor C sin^k / sqrt(h) and the azimuthal exponential."""
    lam = mpmath.mpf(n - 1) / 2
    value = mpmath.sqrt(mpmath.pi**lam / mpmath.gamma(lam + 1))
    for nu, theta in enumerate(point.thetas, start=1):
        d, order = ks[nu - 1] - ks[nu], mpmath.mpf(n - nu) / 2 + ks[nu]
        h = (
            mpmath.pi * mpmath.mpf(2) ** (1 - 2 * order) * mpmath.gamma(d + 2 * order)
            / (mpmath.factorial(d) * (d + order) * mpmath.gamma(order) ** 2)
        )
        theta = mpmath.mpf(theta)
        value *= mpmath.gegenbauer(d, order, mpmath.cos(theta)) * mpmath.sin(theta) ** ks[nu] / mpmath.sqrt(h)
    return complex(value * mpmath.expj(sign * ks[-1] * mpmath.mpf(point.phi)))


@pytest.mark.parametrize(
    "rows",
    [[((511, 300), -1)], [((300, 200), 1), ((300, 200), -1)]],
    ids=["one-row", "both-signs-of-one-chain"],
)
def test_point_synthesis_forms_no_chain_norms(rows, monkeypatch):
    """At S^2 j=10 (131,328 chains) a one-row spectrum, and a two-row one
    holding both signs of one chain, evaluate without forming A_l^k.  At
    these degrees the reference loses digits (7e-13 of max|Y| at (511,
    (300,))), so the values are checked against mpmath."""
    geometry = SphereGeometry(2)
    entries = {HarmonicIndex(ks[0], ks[1:], sign): 0.5 - 1.5j * sign for ks, sign in rows}
    spectrum = mra.Spectrum(geometry, 10, entries)
    points = points_with_poles(2, 5, np.random.default_rng(11))
    with mpmath.workdps(40):
        exact = [[mpmath_harmonic(2, ks, sign, x) for x in points] for ks, sign in rows]
    want = np.array(list(entries.values())) @ np.array(exact)
    calls = []

    def counted(n, ks):
        calls.append(ks)
        return _chain_normalization(n, ks)

    monkeypatch.setattr(harmonics, "_chain_normalization", counted)
    got = mra.synthesize(spectrum, points)
    assert calls == []
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("chain", [(1023, 511), (1023, 0)])
def test_top_rows_of_s2_j11_match_mpmath(chain):
    """The top degree of S^2 j=11 at theta = 1, phi = 1/2, through the
    batched basis (mra.synthesize) and through harmonic_eval: finite (forming
    A_l^k for (1023, (511,)) overflows) and within 1e-11 relative."""
    geometry, point, index = SphereGeometry(2), SphericalPoint((1.0,), 0.5), HarmonicIndex(chain[0], chain[1:], 1)
    with mpmath.workdps(40):
        want = mpmath_harmonic(2, chain, 1, point)
    for got in (mra.synthesize(mra.Spectrum(geometry, 11, {index: 1.0}), point), harmonic_eval(geometry, index, point)):
        assert cmath.isfinite(got)
        assert abs(got - want) <= 1e-11 * abs(want)


def test_harmonic_eval_forms_no_chain_norms(monkeypatch):
    """Cold plans for every index of degree <= 6 on S^2 to S^5 and for the
    top S^2 j=11 row call _chain_normalization zero times."""
    calls = []
    monkeypatch.setattr(harmonics, "_chain_normalization", lambda n, ks: calls.append(ks))
    harmonics._plan.cache_clear()
    for n in (2, 3, 4, 5):
        geometry = SphereGeometry(n)
        point = SphericalPoint((0.4,) * (n - 1), 0.5)
        for ix in enumerate_indices(geometry, 6):
            harmonic_eval(geometry, ix, point)
    harmonic_eval(SphereGeometry(2), HarmonicIndex(1023, (511,), 1), SphericalPoint((1.0,), 0.5))
    assert calls == []


@pytest.mark.parametrize("j", [6, 8])
def test_batched_basis_is_no_less_accurate_than_the_reference(j):
    """300 random rows of S^2 j=6 and j=8 at 4 random points, against mpmath."""
    geometry = SphereGeometry(2)
    rng = np.random.default_rng(j)
    indices = mra.space_indices(geometry, j)
    positions = np.sort(rng.choice(len(indices), 300, replace=False))
    points = [SphericalPoint((float(rng.uniform(0.0, math.pi)),), float(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(4)]
    rows = [indices[p] for p in positions]
    with mpmath.workdps(40):
        exact = np.array([[mpmath_harmonic(2, (ix.l,) + ix.chain, ix.sign, x) for x in points] for ix in rows])
    batched = mra._basis_at_points(geometry, mra.space_degree_bound(j), positions, points)
    reference = oracle.point_basis(geometry, rows, points)
    assert np.max(np.abs(batched - exact)) <= np.max(np.abs(reference - exact))


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


def test_axis_constant_cache_holds_the_pointwise_traffic():
    """The same traffic needs one key per (base order, k_nu, degree), 45 per
    base order 1/2, 1 and 3/2; each is built once, so none is evicted."""
    harmonics._plan.cache_clear()
    harmonics._axis_constants.cache_clear()
    point = SphericalPoint((0.3, 0.7, 1.1), 0.5)
    for n in (2, 3, 4):
        geometry = SphereGeometry(n)
        x = SphericalPoint(point.thetas[: n - 1], point.phi)
        for ix in enumerate_indices(geometry, 8):
            harmonic_eval(geometry, ix, x)
    info = harmonics._axis_constants.cache_info()
    assert info.currsize == info.misses == 3 * 45
    assert info.maxsize > 3 * 45


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
