"""Round-trips and error handling for the JSON wire formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremra.formats import (
    format_float,
    pyramid_from_json,
    pyramid_to_json,
    signal_from_json,
    signal_to_json,
    spectrum_from_json,
    spectrum_to_json,
    zonal_from_json,
    zonal_to_json,
)
from spheremra.harmonics import SphereGeometry
from spheremra.mra import GridSignal, Spectrum, space_indices, synthesize_on_grid
from spheremra.specfun import ZonalSpectrum
from spheremra.transform import Pyramid, pyramid_decompose


def random_signal(n, j, rng):
    geo = SphereGeometry(n)
    size = (2**j + 1) ** (n - 1) * 2 ** (j + 1)
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return GridSignal(geo, j, values)


def test_format_float_is_lossless():
    rng = np.random.default_rng(600)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1"
    assert format_float(1 / 3) == "0.33333333333333331"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            format_float(bad)


@pytest.mark.parametrize("n,j", [(2, 1), (2, 3), (3, 2)])
def test_signal_round_trip(n, j):
    rng = np.random.default_rng(601)
    signal = random_signal(n, j, rng)
    back = signal_from_json(signal_to_json(signal))
    assert back.geometry.n == n
    assert back.j == j
    assert np.array_equal(back.values, signal.values)


def test_signal_reserialization_is_byte_identical():
    rng = np.random.default_rng(602)
    text = signal_to_json(random_signal(2, 2, rng))
    assert signal_to_json(signal_from_json(text)) == text


def test_spectrum_round_trip():
    geo = SphereGeometry(3)
    rng = np.random.default_rng(603)
    indices = space_indices(geo, 2)
    entries = {
        ix: complex(rng.standard_normal(), rng.standard_normal()) for ix in indices
    }
    spectrum = Spectrum(geo, 2, entries)
    text = spectrum_to_json(spectrum)
    back = spectrum_from_json(text)
    assert back.geometry.n == 3 and back.j == 2
    assert back.entries == entries
    assert spectrum_to_json(back) == text


def test_pyramid_round_trip():
    geo = SphereGeometry(2)
    rng = np.random.default_rng(604)
    indices = space_indices(geo, 3)
    entries = {
        ix: complex(rng.standard_normal(), rng.standard_normal()) for ix in indices
    }
    signal = synthesize_on_grid(Spectrum(geo, 3, entries), 3)
    pyramid = pyramid_decompose(signal, 2)
    text = pyramid_to_json(pyramid)
    back = pyramid_from_json(text)
    assert back.base.j == pyramid.base.j
    assert np.array_equal(back.base.values, pyramid.base.values)
    assert len(back.details) == len(pyramid.details)
    for got, want in zip(back.details, pyramid.details):
        assert got.j == want.j
        assert np.array_equal(got.values, want.values)
    assert pyramid_to_json(back) == text


def test_zonal_round_trip():
    rng = np.random.default_rng(605)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    spec = ZonalSpectrum(1.5, coeffs)
    text = zonal_to_json(spec)
    back = zonal_from_json(text)
    assert back.lam == 1.5
    assert np.array_equal(back.coeffs, coeffs)
    assert zonal_to_json(back) == text


def test_malformed_documents_raise_value_error():
    with pytest.raises(ValueError):
        signal_from_json("this is not json")
    with pytest.raises(ValueError):
        signal_from_json('{"n": 2, "values": [[0.0, 0.0]]}')  # no level
    with pytest.raises(ValueError):
        signal_from_json('{"n": 2, "j": 1, "values": [[0.0, 0.0, 0.0]]}')
    with pytest.raises(ValueError):
        # row count must match the level-1 grid
        signal_from_json('{"n": 2, "j": 1, "values": [[1.0, 0.0], [2.0, 0.0]]}')
    with pytest.raises(ValueError):
        spectrum_from_json('{"n": 2, "j": 1, "entries": [{"l": 0, "k": [0]}]}')
    with pytest.raises(ValueError):
        spectrum_from_json(
            '{"n": 2, "j": 2, "entries": '
            '[{"l": 1, "k": [2], "sign": 1, "re": 1.0, "im": 0.0}]}'
        )  # chain exceeds degree
    with pytest.raises(ValueError):
        pyramid_from_json('{"details": []}')
    with pytest.raises(ValueError):
        zonal_from_json('{"lambda": 0.5}')
    with pytest.raises(ValueError):
        zonal_from_json('{"lambda": 0.5, "coeffs": [[1.0], [2.0]]}')


@pytest.mark.parametrize(
    "pairs",
    ["5", '[["a", 1]]', "[null]", '[["1.5", 0]]', "[[1" + "0" * 400 + ", 0]]",
     "[[1, 2], [3]]", "[[1, 2, 3]]", '{"re": 1}'],
    ids=["scalar", "string", "null", "number-string", "huge-int", "ragged", "triple", "object"],
)
def test_pair_readers_reject_anything_but_number_pairs(pairs):
    with pytest.raises(ValueError):
        signal_from_json(f'{{"n": 2, "j": 1, "values": {pairs}}}')
    with pytest.raises(ValueError):
        zonal_from_json(f'{{"lambda": 0.5, "coeffs": {pairs}}}')


def test_pair_readers_keep_the_bits_of_each_number():
    values = ", ".join(["[-0.0, 5e-324]", "[1, true]"] + ["[2.5, -0.0]"] * 10)
    signal = signal_from_json(f'{{"n": 2, "j": 1, "values": [{values}]}}')
    assert np.signbit(signal.values[0].real) and signal.values[0].imag == 5e-324
    assert signal.values[1] == 1 + 1j
    assert np.signbit(signal.values[2].imag)
    assert len(zonal_from_json('{"lambda": 0.5, "coeffs": []}').coeffs) == 0


def test_readers_refuse_deep_nesting_and_repeated_indices():
    with pytest.raises(ValueError, match="nests"):
        signal_from_json("[" * 100_000)
    row = '{"l": 1, "k": [1], "sign": -1, "re": 1.0, "im": 0.0}'
    with pytest.raises(ValueError, match="twice"):
        spectrum_from_json(f'{{"n": 2, "j": 2, "entries": [{row}, {row}]}}')


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.0, -3.0]
)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)]), data=st.data())
def test_spectrum_wire_round_trip_is_bitwise(case, data):
    n, j = case
    geo = SphereGeometry(n)
    size = 2 * len(space_indices(geo, j))
    parts = data.draw(st.lists(FINITE, min_size=size, max_size=size))
    spectrum = Spectrum(geo, j, np.array(parts, dtype=float).view(complex))
    back = spectrum_from_json(spectrum_to_json(spectrum))
    assert back.coeffs.tobytes() == spectrum.coeffs.tobytes()


def _draw_values(data, count):
    parts = data.draw(st.lists(FINITE, min_size=2 * count, max_size=2 * count))
    return np.array(parts, dtype=float).view(complex)


def _draw_signal(data, n, j):
    count = (2**j + 1) ** (n - 1) * 2 ** (j + 1)
    return GridSignal(SphereGeometry(n), j, _draw_values(data, count))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([(2, 1), (2, 2), (3, 1)]), data=st.data())
def test_signal_wire_round_trip_is_bitwise(case, data):
    signal = _draw_signal(data, *case)
    back = signal_from_json(signal_to_json(signal))
    assert (back.geometry, back.j) == (signal.geometry, signal.j)
    assert back.values.tobytes() == signal.values.tobytes()


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([(2, 0), (2, 1), (3, 0)]), data=st.data())
def test_pyramid_wire_round_trip_is_bitwise(case, data):
    n, levels = case
    pyramid = Pyramid(
        _draw_signal(data, n, 1), [_draw_signal(data, n, i + 1) for i in range(1, levels + 1)]
    )
    back = pyramid_from_json(pyramid_to_json(pyramid))
    assert len(back.details) == levels
    for got, want in zip([back.base] + back.details, [pyramid.base] + pyramid.details):
        assert (got.geometry, got.j) == (want.geometry, want.j)
        assert got.values.tobytes() == want.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([0.5, 1.0, 1.797e308]),
    count=st.integers(min_value=0, max_value=12),
    data=st.data(),
)
def test_zonal_wire_round_trip_is_bitwise(lam, count, data):
    spec = ZonalSpectrum(lam, _draw_values(data, count))
    back = zonal_from_json(zonal_to_json(spec))
    assert np.float64(back.lam).tobytes() == np.float64(lam).tobytes()
    assert back.coeffs.tobytes() == spec.coeffs.tobytes()
