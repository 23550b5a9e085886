"""Pyramid decomposition and perfect reconstruction between grid levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremra import mra, transform
from spheremra.harmonics import SphereGeometry
from spheremra.mra import (
    GridSignal,
    Spectrum,
    analyze,
    space_degree_bound,
    space_indices,
    synthesize_on_grid,
)
from spheremra.transform import (
    Pyramid,
    detail,
    prolong_sum,
    pyramid_decompose,
    pyramid_reconstruct,
    restrict,
)


def random_signal(geometry, j, rng):
    entries = {
        ix: complex(rng.normal(), rng.normal())
        for ix in space_indices(geometry, j)
    }
    return synthesize_on_grid(Spectrum(geometry, j, entries), j)


def test_restrict_keeps_only_the_low_band():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(101)
    signal = random_signal(geo, 3, rng)
    coarse = restrict(signal)
    assert coarse.j == 2
    original = analyze(signal)
    recovered = analyze(coarse)
    for ix in space_indices(geo, 2):
        assert recovered.entries.get(ix, 0.0) == pytest.approx(
            original.entries.get(ix, 0.0), abs=1e-10
        )


def test_detail_kills_the_low_band():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(103)
    signal = random_signal(geo, 3, rng)
    fine = analyze(signal)
    band = analyze(detail(signal))
    bound = space_degree_bound(2)
    for ix, coeff in band.entries.items():
        if ix.l <= bound:
            assert abs(coeff) <= 1e-10
        else:
            assert coeff == pytest.approx(fine.entries.get(ix, 0.0), abs=1e-10)


def test_prolong_sum_recombines():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(107)
    signal = random_signal(geo, 3, rng)
    rebuilt = prolong_sum(restrict(signal), detail(signal))
    assert rebuilt.j == signal.j
    assert np.allclose(rebuilt.values, signal.values, atol=1e-10)


@pytest.mark.parametrize("n,levels", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_perfect_reconstruction(n, levels):
    geo = SphereGeometry(n)
    rng = np.random.default_rng(1000 + 10 * n + levels)
    for _ in range(4):
        signal = random_signal(geo, levels + 1, rng)
        pyramid = pyramid_decompose(signal, levels)
        assert pyramid.base.j == 1
        assert [d.j for d in pyramid.details] == list(range(2, levels + 2))
        rebuilt = pyramid_reconstruct(pyramid)
        scale = max(1.0, float(np.max(np.abs(signal.values))))
        assert np.max(np.abs(rebuilt.values - signal.values)) <= 1e-8 * scale


def test_energy_splits_across_levels():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(113)
    signal = random_signal(geo, 4, rng)
    pyramid = pyramid_decompose(signal, 3)
    total = analyze(signal).norm_sq()
    parts = analyze(pyramid.base).norm_sq() + sum(
        analyze(d).norm_sq() for d in pyramid.details
    )
    assert parts == pytest.approx(total, rel=1e-9)


def test_decompose_of_reconstruct_is_identity():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(127)
    signal = random_signal(geo, 3, rng)
    pyramid = pyramid_decompose(signal, 2)
    again = pyramid_decompose(pyramid_reconstruct(pyramid), 2)
    assert np.allclose(again.base.values, pyramid.base.values, atol=1e-9)
    for a, b in zip(again.details, pyramid.details):
        assert np.allclose(a.values, b.values, atol=1e-9)


def test_level_validation():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(131)
    signal = random_signal(geo, 2, rng)
    with pytest.raises(ValueError):
        pyramid_decompose(signal, 2)  # would need a level-3 input
    with pytest.raises(ValueError):
        restrict(random_signal(geo, 1, rng))
    with pytest.raises(ValueError):
        Pyramid(random_signal(geo, 2, rng), [])  # base must sit at level 1
    base = random_signal(geo, 1, rng)
    with pytest.raises(ValueError):
        Pyramid(base, [random_signal(geo, 3, rng)])  # detail levels must chain
    with pytest.raises(ValueError):
        prolong_sum(random_signal(geo, 2, rng), random_signal(geo, 2, rng))


def band_reference(spectrum, levels):
    """The pyramid of a level-(levels+1) spectrum, one degree band at a time:
    degree 0 on N_1, then the degrees (2^(i-1) - 1, 2^i - 1] on N_{i+1}."""

    def band(lo, hi, level):
        entries = {ix: c for ix, c in spectrum.entries.items() if lo < ix.l <= hi}
        return synthesize_on_grid(Spectrum(spectrum.geometry, level, entries), level)

    base = band(-1, 0, 1)
    details = [
        band(space_degree_bound(i), space_degree_bound(i + 1), i + 1)
        for i in range(1, levels + 1)
    ]
    return base, details


def random_spectrum(geometry, j, rng):
    indices = space_indices(geometry, j)
    coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    return Spectrum(geometry, j, dict(zip(indices, coeffs.tolist())))


@pytest.mark.parametrize(
    "n,j", [(n, j) for n, top in [(2, 6), (3, 4), (4, 3)] for j in range(2, top + 1)]
)
def test_decompose_matches_band_by_band_synthesis(n, j):
    geometry = SphereGeometry(n)
    spectrum = random_spectrum(geometry, j, np.random.default_rng(500 + 10 * n + j))
    pyramid = pyramid_decompose(synthesize_on_grid(spectrum, j), j - 1)
    base, details = band_reference(spectrum, j - 1)
    for got, want in zip([pyramid.base] + pyramid.details, [base] + details):
        assert got.j == want.j
        scale = max(1.0, float(np.max(np.abs(want.values))))
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale


def test_reconstruct_drops_out_of_band_detail_content():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(137)
    signal = random_signal(geo, 4, rng)
    pyramid = pyramid_decompose(signal, 3)
    # each detail w_i also carries V_i content, below its own band W_i
    noisy = Pyramid(
        pyramid.base,
        [
            GridSignal(
                geo,
                d.j,
                d.values + synthesize_on_grid(random_spectrum(geo, d.j - 1, rng), d.j).values,
            )
            for d in pyramid.details
        ],
    )
    rebuilt = pyramid_reconstruct(noisy)
    assert np.allclose(rebuilt.values, signal.values, atol=1e-10)
    # the same holds for one level of prolong_sum
    v, w = pyramid.base, noisy.details[0]
    want = pyramid_reconstruct(Pyramid(v, pyramid.details[:1]))
    assert np.allclose(prolong_sum(v, w).values, want.values, atol=1e-10)


def test_one_analysis_per_decomposition_one_synthesis_per_reconstruction(monkeypatch):
    geo = SphereGeometry(3)
    signal = random_signal(geo, 4, np.random.default_rng(139))
    calls = {"analyze": 0, "synthesize": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def no_spectrum(self):
        raise AssertionError("the pyramid built a Spectrum")

    monkeypatch.setattr(transform, "analyze_coeffs", counted("analyze", mra.analyze_coeffs))
    monkeypatch.setattr(
        transform, "synthesize_coeffs", counted("synthesize", mra.synthesize_coeffs)
    )
    monkeypatch.setattr(Spectrum, "__post_init__", no_spectrum)
    pyramid = pyramid_decompose(signal, 3)
    assert calls == {"analyze": 1, "synthesize": 4}
    calls.update(analyze=0, synthesize=0)
    pyramid_reconstruct(pyramid)
    assert calls == {"analyze": 4, "synthesize": 1}


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pyramid_round_trip_and_energy_split_property(case, seed):
    # criterion 05's bounds: identity 1e-8 of the max norm, energy split 1e-9
    n, levels = case
    geo = SphereGeometry(n)
    signal = random_signal(geo, levels + 1, np.random.default_rng(seed))
    pyramid = pyramid_decompose(signal, levels)
    rebuilt = pyramid_reconstruct(pyramid)
    scale = max(1.0, float(np.max(np.abs(signal.values))))
    assert np.max(np.abs(rebuilt.values - signal.values)) <= 1e-8 * scale
    total = analyze(signal).norm_sq()
    parts = analyze(pyramid.base).norm_sq() + sum(
        analyze(d).norm_sq() for d in pyramid.details
    )
    assert abs(parts - total) <= 1e-9 * total
