"""The batched certification records against the per-point loop they replace.

Each synthesis record evaluates its points in one batch and each closed-form
record samples its kernels once; the report must keep every bit of the
per-point reference below, which is the record loop written one point, one
spectrum and one integral at a time.
"""

from functools import partial

import numpy as np
import pytest

from spheremra import mra, verify
from spheremra.harmonics import SphereGeometry
from spheremra.oracle import zonal_integral, zonal_inner_product
from spheremra.quadrature import level_weights
from spheremra.specfun import zonal_eval


def per_point_rebuild(signal, j, wavelet):
    """The band rebuild of one signal, one point per call."""
    level = j + wavelet
    geometry = signal.geometry
    nodes = mra._node_cartesians(geometry, level)
    constant = mra._band_constants(geometry, j, wavelet)[0]
    weighted = constant * level_weights(geometry, level) * signal.values
    spectrum = mra._band_spectrum(geometry, j, wavelet)

    def evaluate(x):
        dots = np.clip(nodes @ x.cartesian(), -1.0, 1.0)
        return complex(np.dot(weighted, zonal_eval(spectrum, dots)))

    return evaluate


def reference_synthesis_record(geometry, j, wavelet, tol, rng):
    expected = mra._band_constants(geometry, j, wavelet)[0]
    points = verify._random_points(geometry, 3, rng)
    worst = 0.0
    measured = expected
    for _ in range(2):
        spectrum = verify._random_spectrum(geometry, j, wavelet, rng)
        rebuild = per_point_rebuild(mra.synthesize_on_grid(spectrum, spectrum.j), j, wavelet)
        for x in points:
            truth = mra.synthesize(spectrum, x)
            measured = expected * abs(truth / rebuild(x))
            worst = max(worst, abs(truth / rebuild(x) - 1.0))
    name = f"{'wavelet' if wavelet else 'scaling'} synthesis constant"
    return verify.CertRecord(name, geometry.n, j, expected, measured, worst, tol)


def reference_closed_form_records(geometry, j, tol, resolution):
    phi = partial(mra.scaling_kernel, geometry, j)
    psi = partial(mra.wavelet_kernel, geometry, j)
    pairs = [
        ("scaling norm squared", mra.scaling_norm_sq(geometry, j),
         zonal_inner_product(phi, phi, geometry, resolution).real),
        ("wavelet norm squared", mra.wavelet_norm_sq(geometry, j),
         zonal_inner_product(psi, psi, geometry, resolution).real),
        ("scaling kernel integral", mra.scaling_integral(geometry, j),
         zonal_integral(phi, geometry, resolution).real),
        ("wavelet kernel integral", mra.wavelet_integral(geometry, j),
         zonal_integral(psi, geometry, resolution).real),
    ]
    records = []
    for name, expected, measured in pairs:
        scale = abs(expected) if expected else 1.0
        deviation = abs(measured - expected) / scale
        records.append(verify.CertRecord(name, geometry.n, j, expected, measured, deviation, tol))
    return records


def reference_certify(ns, max_j, seed, tol=1e-8, resolution=4096):
    report = verify.CertificationReport()
    rng = np.random.default_rng(seed)
    for n in ns:
        geometry = SphereGeometry(n)
        for j in range(1, max_j + 1):
            report.records.append(verify._analysis_record(geometry, j, tol))
            for wavelet in (False, True):
                report.records.append(reference_synthesis_record(geometry, j, wavelet, tol, rng))
                report.records.append(verify._frame_record(geometry, j, wavelet, tol, rng))
            report.records.append(verify._two_scale_record(geometry, j, tol))
            report.records.extend(reference_closed_form_records(geometry, j, tol, resolution))
            report.variants.extend(verify._variant_records(geometry, j))
    return report


def complex_bits(value):
    return value.real.hex(), value.imag.hex()


def bits(report):
    """Every field of every record and variant, floats as their hex strings."""
    def row(record):
        return tuple(v.hex() if isinstance(v, float) else v for v in vars(record).values())

    return [row(r) for r in report.records], [row(v) for v in report.variants]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_certify_is_the_per_point_loop_bit_for_bit(n, seed):
    got = verify.certify(ns=(n,), max_j=3, seed=seed)
    want = reference_certify((n,), 3, seed)
    assert bits(got) == bits(want)
    assert verify.format_report(got) == verify.format_report(want)


@pytest.mark.parametrize("n,j,wavelet", [(2, 2, False), (2, 3, True), (3, 2, True), (4, 1, False)])
def test_stacked_rebuild_is_the_single_point_synthesis(n, j, wavelet):
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(10 * n + j)
    points = verify._random_points(geometry, 4, rng)
    signals = [
        mra.synthesize_on_grid(s, s.j)
        for s in (verify._random_spectrum(geometry, j, wavelet, rng) for _ in range(2))
    ]
    stacked = mra._band_rebuild(signals, j, wavelet)(points)
    for signal, values in zip(signals, stacked):
        single = (
            mra.wavelet_interpolatory_synthesis(signal, j) if wavelet
            else mra.interpolatory_synthesis(signal)
        )
        reference = per_point_rebuild(signal, j, wavelet)
        for x, value in zip(points, values):
            assert complex_bits(value) == complex_bits(single(x)) == complex_bits(reference(x))
