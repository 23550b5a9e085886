"""Scaling and wavelet kernels, sampling analysis, and frame identities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from spheremra.harmonics import (
    HarmonicIndex,
    SphereGeometry,
    SphericalPoint,
    addition_kernel,
    dim_pi,
    dot,
    harmonic_eval,
)
from spheremra.mra import (
    GridSignal,
    Spectrum,
    analysis_constant,
    analyze,
    frame_constant,
    frame_functional,
    interpolatory_synthesis,
    localization_check,
    scaling_integral,
    scaling_kernel,
    scaling_norm_sq,
    scaling_spectrum,
    space_degree_bound,
    space_indices,
    synthesis_constant,
    synthesize,
    synthesize_on_grid,
    wavelet_frame_constant,
    wavelet_frame_functional,
    wavelet_integral,
    wavelet_interpolatory_synthesis,
    wavelet_kernel,
    wavelet_norm_sq,
    wavelet_spectrum,
    wavelet_synthesis_constant,
)
from spheremra.oracle import zonal_inner_product, zonal_integral
from spheremra.quadrature import grid_axes, grid_size


def random_spectrum(geometry, j, rng):
    entries = {}
    for ix in space_indices(geometry, j):
        entries[ix] = complex(rng.normal(), rng.normal())
    return Spectrum(geometry, j, entries)


def random_points(n, rng, count):
    return [
        SphericalPoint(
            tuple(float(t) for t in rng.uniform(0.1, math.pi - 0.1, n - 1)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        for _ in range(count)
    ]


def test_space_degree_bounds_and_indices():
    assert space_degree_bound(1) == 0
    assert space_degree_bound(2) == 1
    assert space_degree_bound(4) == 7
    two = SphereGeometry(2)
    assert len(space_indices(two, 2)) == dim_pi(two, 1) == 4
    with pytest.raises(ValueError):
        space_indices(two, 0)


def test_scaling_spectrum_coefficients():
    two = SphereGeometry(2)
    spec = scaling_spectrum(two, 2)
    # coefficients 2^(-nj/2) (l + lam) / lam for l < 2^(j-1)
    assert spec.lam == pytest.approx(0.5)
    assert spec.coeffs == pytest.approx([0.25, 0.75])
    wav = wavelet_spectrum(two, 2)
    # band [2^(j-1), 2^j - 1] at the same dyadic scale
    assert wav.coeffs[:2] == pytest.approx([0.0, 0.0])
    assert wav.coeffs[2:] == pytest.approx([1.25, 1.75])


def test_kernel_value_at_one():
    # phi_j(1) = 2^(-nj/2) dim V_j
    for n in (2, 3):
        geo = SphereGeometry(n)
        for j in (1, 2, 3):
            expected = 2.0 ** (-n * j / 2.0) * dim_pi(geo, space_degree_bound(j))
            assert scaling_kernel(geo, j, 1.0) == pytest.approx(expected)


def test_kernel_matches_addition_sums():
    """phi_j(x . y) equals the truncated sum of addition kernels, so the
    zonal construction and the harmonic expansion agree."""
    rng = np.random.default_rng(5)
    for n in (2, 3):
        geo = SphereGeometry(n)
        j = 2
        lam = geo.lam
        for x, y in zip(random_points(n, rng, 3), random_points(n, rng, 3)):
            t = dot(x, y)
            expected = 2.0 ** (-n * j / 2.0) * sum(
                ((l + lam) / lam) * addition_kernel(geo, l, x, y)
                for l in range(space_degree_bound(j) + 1)
            )
            assert scaling_kernel(geo, j, t) == pytest.approx(expected, rel=1e-9)
            full = scaling_kernel(geo, j + 1, t)
            low = 2.0 ** (n / 2.0) * scaling_kernel(geo, j, t)
            band = 2.0 ** (-n * (j + 1) / 2.0) * sum(
                ((l + lam) / lam) * addition_kernel(geo, l, x, y)
                for l in range(2 ** (j - 1), 2**j)
            )
            # two-scale split: phi_{j+1} = 2^(n/2) phi_j + band part = psi_j part
            assert wavelet_kernel(geo, j, t) == pytest.approx(
                2.0 ** (n / 2.0) * band, rel=1e-9, abs=1e-12
            )


def test_norms_match_closed_forms_and_oracle():
    two = SphereGeometry(2)
    assert scaling_norm_sq(two, 1) == pytest.approx(0.25)
    assert scaling_norm_sq(two, 3) == pytest.approx(0.25)
    assert wavelet_norm_sq(two, 2) == pytest.approx(0.75)
    three = SphereGeometry(3)
    assert wavelet_norm_sq(three, 1) == pytest.approx(0.5)
    # dim V_2 on S^3 is dim Pi_1 = 5, scaled by 2^(-nj) = 1/64
    assert scaling_norm_sq(three, 2) == pytest.approx(Fraction(5, 64))
    for n, j in ((2, 2), (3, 1)):
        geo = SphereGeometry(n)
        h = lambda t: scaling_kernel(geo, j, t)
        assert zonal_inner_product(h, h, geo, 1024) == pytest.approx(
            scaling_norm_sq(geo, j), rel=1e-9
        )
        w = lambda t: wavelet_kernel(geo, j, t)
        assert zonal_inner_product(w, w, geo, 1024) == pytest.approx(
            wavelet_norm_sq(geo, j), rel=1e-9
        )


def test_norm_limit_for_large_level():
    # 2^(-nj) dim Pi tends to 2^(1-n)/n!
    for n in (2, 3, 4):
        geo = SphereGeometry(n)
        limit = 2.0 ** (1 - n) / math.factorial(n)
        assert scaling_norm_sq(geo, 12) == pytest.approx(limit, rel=0.01)


def test_kernel_integrals():
    two = SphereGeometry(2)
    assert scaling_integral(two, 1) == pytest.approx(2.0 * math.pi)
    assert scaling_integral(two, 2) == pytest.approx(math.pi)
    assert wavelet_integral(two, 2) == 0.0
    for n, j in ((2, 2), (3, 1)):
        geo = SphereGeometry(n)
        value = zonal_integral(lambda t: scaling_kernel(geo, j, t), geo, 1024)
        assert value == pytest.approx(scaling_integral(geo, j), rel=1e-9)
        wvalue = zonal_integral(lambda t: wavelet_kernel(geo, j, t), geo, 1024)
        assert abs(wvalue) <= 1e-8


def test_analyze_constant_signal():
    two = SphereGeometry(2)
    j = 2
    values = np.full(grid_size(two, j), 3.5 - 1.25j)
    spectrum = analyze(GridSignal(two, j, values))
    vec = {ix: c for ix, c in spectrum.entries.items() if abs(c) > 1e-12}
    assert set(vec) == {HarmonicIndex(0, (0,), 1)}
    # a_0 of the constant c is c (Y_0 = 1 and <Y_0, c> = c)
    assert vec[HarmonicIndex(0, (0,), 1)] == pytest.approx(3.5 - 1.25j)


@pytest.mark.parametrize("n,j", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_exact_analysis_of_band_limited_signals(n, j):
    """Sampling + quadrature recovers every coefficient of a V_j function
    from its values on the level-j grid."""
    geo = SphereGeometry(n)
    rng = np.random.default_rng(17 * n + j)
    spectrum = random_spectrum(geo, j, rng)
    signal = synthesize_on_grid(spectrum, j)
    recovered = analyze(signal)
    for ix in space_indices(geo, j):
        assert recovered.entries.get(ix, 0.0) == pytest.approx(
            spectrum.entries[ix], abs=1e-10
        )


def test_analyze_single_harmonic():
    geo = SphereGeometry(2)
    j, target = 3, HarmonicIndex(2, (1,), -1)
    spectrum = Spectrum(geo, j, {target: 1.0})
    recovered = analyze(synthesize_on_grid(spectrum, j))
    for ix, coeff in recovered.entries.items():
        expected = 1.0 if ix == target else 0.0
        assert coeff == pytest.approx(expected, abs=1e-11)


def test_norm_identities():
    geo = SphereGeometry(2)
    j = 3
    rng = np.random.default_rng(23)
    spectrum = random_spectrum(geo, j, rng)
    signal = synthesize_on_grid(spectrum, j)
    # Parseval: weighted sample energy equals coefficient energy
    assert signal.norm_sq() == pytest.approx(spectrum.norm_sq(), rel=1e-10)
    assert frame_functional(spectrum, j) == pytest.approx(spectrum.norm_sq(), rel=1e-8)
    assert frame_functional(signal) == pytest.approx(spectrum.norm_sq(), rel=1e-8)


def test_wavelet_frame_functional():
    geo = SphereGeometry(2)
    j = 2
    rng = np.random.default_rng(29)
    # a detail-band function: degrees in [2^(j-1), 2^j - 1], living in V_{j+1}
    entries = {
        ix: complex(rng.normal(), rng.normal())
        for ix in space_indices(geo, j + 1)
        if space_degree_bound(j) < ix.l <= space_degree_bound(j + 1)
    }
    band = Spectrum(geo, j + 1, entries)
    expected = sum(abs(c) ** 2 for c in entries.values())
    assert wavelet_frame_functional(band, j) == pytest.approx(expected, rel=1e-8)


def test_synthesize_matches_direct_expansion():
    geo = SphereGeometry(3)
    j = 2
    rng = np.random.default_rng(31)
    spectrum = random_spectrum(geo, j, rng)
    for p in random_points(3, rng, 4):
        direct = sum(
            c * harmonic_eval(geo, ix, p) for ix, c in spectrum.entries.items()
        )
        assert synthesize(spectrum, p) == pytest.approx(direct, rel=1e-10)
    pts = random_points(3, rng, 3)
    batch = synthesize(spectrum, pts)
    assert batch.shape == (3,)
    assert batch[2] == pytest.approx(synthesize(spectrum, pts[2]))


def test_interpolatory_synthesis_reproduces_band_limited_functions():
    for n, j in ((2, 2), (3, 1)):
        geo = SphereGeometry(n)
        rng = np.random.default_rng(41 + n)
        spectrum = random_spectrum(geo, j, rng)
        signal = synthesize_on_grid(spectrum, j)
        rebuilt = interpolatory_synthesis(signal)
        for p in random_points(n, rng, 4):
            assert rebuilt(p) == pytest.approx(synthesize(spectrum, p), rel=1e-8)


def test_wavelet_interpolatory_synthesis_reproduces_band_functions():
    geo = SphereGeometry(2)
    j = 2
    rng = np.random.default_rng(47)
    entries = {
        ix: complex(rng.normal(), rng.normal())
        for ix in space_indices(geo, j + 1)
        if space_degree_bound(j) < ix.l <= space_degree_bound(j + 1)
    }
    band = Spectrum(geo, j + 1, entries)
    signal = synthesize_on_grid(band, j + 1)
    rebuilt = wavelet_interpolatory_synthesis(signal, j)
    for p in random_points(2, rng, 4):
        assert rebuilt(p) == pytest.approx(synthesize(band, p), rel=1e-7, abs=1e-10)
    with pytest.raises(ValueError):
        wavelet_interpolatory_synthesis(signal, j + 1)


def test_sampled_kernel_coefficients():
    """Analyzing phi_j(. x0) sampled on its own grid gives the conjugated
    harmonic values scaled by 2^(-nj/2)."""
    geo = SphereGeometry(2)
    j = 2
    x0 = SphericalPoint((1.0,), 0.7)
    kernel_signal = GridSignal(
        geo,
        j,
        np.array(
            [
                scaling_kernel(geo, j, dot(x0, node_point))
                for node_point in _grid_points(geo, j)
            ]
        ),
    )
    spectrum = analyze(kernel_signal)
    scale = 2.0 ** (-geo.n * j / 2.0)
    for ix, coeff in spectrum.entries.items():
        expected = scale * np.conj(harmonic_eval(geo, ix, x0))
        assert coeff == pytest.approx(expected, abs=1e-10)


def _grid_points(geo, j):
    """The nodes of N_j in grid order (azimuth fastest)."""
    thetas, phis = grid_axes(geo, j)
    for *angles, phi in itertools.product(*thetas, phis):
        yield SphericalPoint(tuple(float(t) for t in angles), float(phi))


def test_constants_scale_between_levels():
    """The five level constants track the dyadic scalings used throughout."""
    for n in (2, 3):
        geo = SphereGeometry(n)
        for j in (1, 2, 3):
            assert analysis_constant(geo, j + 1) == pytest.approx(
                analysis_constant(geo, j) / 2.0
            )
            assert frame_constant(geo, j + 1) == pytest.approx(
                frame_constant(geo, j) * 2.0 ** (n - 1)
            )
            assert synthesis_constant(geo, j + 1) == pytest.approx(
                synthesis_constant(geo, j) * 2.0 ** ((n - 2) / 2.0)
            )
            assert wavelet_frame_constant(geo, j) == pytest.approx(
                frame_constant(geo, j) / 2.0
            )
            assert wavelet_synthesis_constant(geo, j) == pytest.approx(
                synthesis_constant(geo, j) / 2.0
            )


def test_localization_bound():
    geo = SphereGeometry(2)
    j = 2
    x0 = SphericalPoint((1.1,), 0.4)
    rng = np.random.default_rng(53)
    trials = [random_spectrum(geo, j, rng) for _ in range(12)]
    assert localization_check(geo, j, x0, trials)
    # the normalized kernel itself attains the bound exactly
    scale = 2.0 ** (-geo.n * j / 2.0)
    kernel_entries = {
        ix: scale * np.conj(harmonic_eval(geo, ix, x0))
        for ix in space_indices(geo, j)
    }
    kernel_spec = Spectrum(geo, j, kernel_entries)
    bound = 1.0 / math.sqrt(dim_pi(geo, space_degree_bound(j)))
    attained = math.sqrt(kernel_spec.norm_sq()) / abs(synthesize(kernel_spec, x0))
    assert attained == pytest.approx(bound, rel=1e-12)
    assert localization_check(geo, j, x0, [kernel_spec])


def test_validation_errors():
    geo = SphereGeometry(2)
    with pytest.raises(ValueError):
        GridSignal(geo, 1, np.ones(11))  # level-1 grid has 12 nodes
    with pytest.raises(ValueError):
        Spectrum(geo, 1, {HarmonicIndex(1, (0,), 1): 1.0})  # V_1 is constants
    spectrum = Spectrum(geo, 2, {HarmonicIndex(1, (0,), 1): 1.0})
    with pytest.raises(ValueError):
        synthesize_on_grid(spectrum, 0)
    with pytest.raises(ValueError, match="reaches degree 1,"):
        frame_functional(spectrum, 1)  # spectrum degree exceeds V_1


def test_spectrum_level_is_sized_against_the_node_cap(monkeypatch):
    """A spectrum whose dim V_j passes the node cap is refused at
    construction, before any index is enumerated."""
    geo = SphereGeometry(2)
    for j in (30, 10**12):
        with pytest.raises(ValueError, match="cap"):
            Spectrum(geo, j)
    monkeypatch.setenv("SPHEREMRA_NODE_CAP", str(dim_pi(geo, space_degree_bound(4))))
    Spectrum(geo, 4)  # dim V_4 = 64, exactly the cap
    with pytest.raises(ValueError, match="cap"):
        Spectrum(geo, 5)
