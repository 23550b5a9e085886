"""Certification of the analysis/synthesis/frame constants and closed forms.

Every constant the transforms rely on is measured here from first principles
(weighted node sums, synthesis ratios, dense 1-d integration) and compared to
its closed form.  The report also lists, for each constant, an alternate
closed form that the derivation rules out (missing measure normalization, a
degenerate norm formula, a unit two-scale factor); large deviations on those
lines are expected and document why the adopted forms are what they are.

Each record evaluates its basis and kernels once for all its points; every
value stays one dot per point, as a one-point call takes it, bit for bit.

`printed_table_comparison` checks the closed-form uncertainty table against
previously tabulated reference values, rounding each computed value to the
digit count of the tabulated string (ties away from zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .harmonics import SphereGeometry, SphericalPoint, dim_pi
from .mra import (
    GridSignal,
    Spectrum,
    analysis_constant,
    analyze_coeffs,
    frame_constant,
    scaling_integral,
    scaling_kernel,
    scaling_norm_sq,
    space_degree_bound,
    synthesize_on_grid,
    wavelet_frame_constant,
    wavelet_integral,
    wavelet_kernel,
    wavelet_norm_sq,
    wavelet_synthesis_constant,
    synthesis_constant,
)
from .oracle import grid_basis, zonal_integral, zonal_inner_product
from .quadrature import level_weights
from .uncertainty import phi_m_variances, round_half_away
from . import mra

__all__ = [
    "CertRecord",
    "VariantRecord",
    "CertificationReport",
    "certify",
    "format_report",
    "REFERENCE_TABLE",
    "TABLE_MS",
    "TABLE_LAMBDAS",
    "printed_table_comparison",
]


@dataclass(frozen=True)
class CertRecord:
    name: str
    n: int
    j: int
    expected: float
    measured: float
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol


@dataclass(frozen=True)
class VariantRecord:
    """An alternate closed form that measurement rules out (informational)."""

    name: str
    n: int
    j: int
    adopted: float
    variant: float

    @property
    def factor(self) -> float:
        return self.variant / self.adopted if self.adopted else math.inf


@dataclass
class CertificationReport:
    records: list[CertRecord] = field(default_factory=list)
    variants: list[VariantRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _random_spectrum(
    geometry: SphereGeometry, j: int, wavelet: bool, rng: np.random.Generator
) -> Spectrum:
    """Random coefficients on the band of V_j, or of W_j when `wavelet` (then
    in a level-(j+1) container)."""
    band = mra._band_slice(geometry, j, wavelet)
    size = band.stop - band.start
    coeffs = np.zeros(band.stop, dtype=complex)
    coeffs[band] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return Spectrum(geometry, j + wavelet, coeffs)


def _random_points(
    geometry: SphereGeometry, count: int, rng: np.random.Generator
) -> list[SphericalPoint]:
    points = []
    for _ in range(count):
        thetas = tuple(rng.uniform(0.15, math.pi - 0.15, size=geometry.n - 1).tolist())
        points.append(SphericalPoint(thetas, float(rng.uniform(0.0, 2.0 * math.pi))))
    return points


def _analysis_record(geometry: SphereGeometry, j: int, tol: float) -> CertRecord:
    """Weighted Gram matrix of the I_j harmonics on N_j must be (1/c) I."""
    indices, basis = grid_basis(geometry, j, space_degree_bound(j))
    w = level_weights(geometry, j)
    gram = (basis.conj() * w) @ basis.T
    expected = analysis_constant(geometry, j)
    deviation = float(np.max(np.abs(expected * gram - np.eye(len(indices)))))
    measured = 1.0 / float(np.median(np.real(np.diag(gram))))
    return CertRecord("analysis constant", geometry.n, j, expected, measured, deviation, tol)


def _synthesis_record(
    geometry: SphereGeometry, j: int, wavelet: bool, tol: float, rng: np.random.Generator
) -> CertRecord:
    expected = mra._band_constants(geometry, j, wavelet)[0]
    points = _random_points(geometry, 3, rng)
    spectra = [_random_spectrum(geometry, j, wavelet, rng) for _ in range(2)]
    rebuilt = mra._band_rebuild([synthesize_on_grid(s, s.j) for s in spectra], j, wavelet)(points)
    band = mra._band_slice(geometry, j, wavelet)
    positions = np.arange(band.start, band.stop)
    basis = mra._basis_at_points(geometry, space_degree_bound(j + wavelet), positions, points)
    # one dot per point, as a one-point synthesize: one product for all rounds differently
    columns = np.ascontiguousarray(basis.T)
    worst = 0.0
    measured = expected
    for spectrum, values in zip(spectra, rebuilt):
        for column, value in zip(columns, values):
            truth = complex(spectrum.coeffs[band] @ column)
            measured = expected * abs(truth / value)
            worst = max(worst, abs(truth / value - 1.0))
    name = f"{'wavelet' if wavelet else 'scaling'} synthesis constant"
    return CertRecord(name, geometry.n, j, expected, measured, worst, tol)


def _frame_record(
    geometry: SphereGeometry, j: int, wavelet: bool, tol: float, rng: np.random.Generator
) -> CertRecord:
    expected = mra._band_constants(geometry, j, wavelet)[1]
    worst = 0.0
    measured = expected
    for _ in range(3):
        spectrum = _random_spectrum(geometry, j, wavelet, rng)
        truth = spectrum.norm_sq()
        functional = mra._band_frame_functional(spectrum, j, wavelet)
        measured = expected * truth / functional
        worst = max(worst, abs(functional / truth - 1.0))
    name = f"{'wavelet' if wavelet else 'scaling'} frame constant"
    return CertRecord(name, geometry.n, j, expected, measured, worst, tol)


def _two_scale_record(geometry: SphereGeometry, j: int, tol: float) -> CertRecord:
    """Detail-band coefficients of psi_j(. x0) are 2^(n/2) times those of
    phi_{j+1}(. x0)."""
    expected = 2.0 ** (geometry.n / 2.0)
    x0 = SphericalPoint((1.0,) * (geometry.n - 1), 0.7)
    nodes = mra._node_cartesians(geometry, j + 1)
    dots = np.clip(nodes @ x0.cartesian(), -1.0, 1.0)
    band = mra._band_slice(geometry, j, wavelet=True)
    fine = analyze_coeffs(GridSignal(geometry, j + 1, scaling_kernel(geometry, j + 1, dots)))
    det = analyze_coeffs(GridSignal(geometry, j + 1, wavelet_kernel(geometry, j, dots)))
    fine, det = fine[band].tolist(), det[band].tolist()
    floor = 1e-6 * max(abs(c) for c in fine)
    ratios = [d / c for d, c in zip(det, fine) if abs(c) > floor]
    measured = float(np.mean(np.real(ratios)))
    deviation = float(np.max(np.abs(np.array(ratios) / expected - 1.0)))
    return CertRecord("wavelet two-scale factor", geometry.n, j, expected, measured, deviation, tol)


def _closed_form_records(
    geometry: SphereGeometry, j: int, tol: float, resolution: int
) -> list[CertRecord]:
    n = geometry.n
    # each kernel once, on the abscissae that oracle.zonal_integral samples
    t = np.cos(np.linspace(0.0, np.pi, resolution + 1))
    phi_t, psi_t = scaling_kernel(geometry, j, t), wavelet_kernel(geometry, j, t)
    phi, psi = (lambda _: phi_t), (lambda _: psi_t)
    records = []
    pairs = [
        ("scaling norm squared", scaling_norm_sq(geometry, j),
         zonal_inner_product(phi, phi, geometry, resolution).real),
        ("wavelet norm squared", wavelet_norm_sq(geometry, j),
         zonal_inner_product(psi, psi, geometry, resolution).real),
        ("scaling kernel integral", scaling_integral(geometry, j),
         zonal_integral(phi, geometry, resolution).real),
        ("wavelet kernel integral", wavelet_integral(geometry, j),
         zonal_integral(psi, geometry, resolution).real),
    ]
    for name, expected, measured in pairs:
        # relative deviation, absolute when the target is zero
        scale = abs(expected) if expected else 1.0
        records.append(
            CertRecord(name, n, j, expected, measured, abs(measured - expected) / scale, tol)
        )
    return records


def _variant_records(geometry: SphereGeometry, j: int) -> list[VariantRecord]:
    n, sigma = geometry.n, geometry.measure
    dim_fine, dim_coarse = dim_pi(geometry, 2**j - 1), dim_pi(geometry, space_degree_bound(j))
    forms = [
        ("analysis constant without measure normalization",
         analysis_constant(geometry, j), math.pi / 2.0**j),
        ("scaling synthesis constant without measure normalization",
         synthesis_constant(geometry, j), math.sqrt(2.0 ** (j * (n - 2))) * math.pi),
        ("scaling frame constant, alternate form 2^(nj-1) pi",
         frame_constant(geometry, j), 2.0 ** (n * j - 1) * math.pi),
        ("wavelet synthesis constant without measure normalization",
         wavelet_synthesis_constant(geometry, j), math.sqrt(2.0 ** ((n - 2) * j - 2)) * math.pi),
        ("wavelet frame constant, alternate unsquared form", wavelet_frame_constant(geometry, j),
         math.sqrt(2.0 ** ((n - 2) * j - 2)) * math.pi / sigma),
        ("wavelet norm squared, alternate degenerate form",
         wavelet_norm_sq(geometry, j), 2.0 ** (-n * j) * (2.0**-n * dim_fine - dim_coarse)),
        ("wavelet two-scale factor, alternate value 1", 2.0 ** (n / 2.0), 1.0),
    ]
    return [VariantRecord(name, n, j, adopted, variant) for name, adopted, variant in forms]


def certify(
    ns: tuple[int, ...] = (2, 3),
    max_j: int = 3,
    tol: float = 1e-8,
    seed: int = 20240917,
    resolution: int = 4096,
) -> CertificationReport:
    """Measure every adopted constant for the requested geometries/levels."""
    report = CertificationReport()
    rng = np.random.default_rng(seed)
    for n in ns:
        geometry = SphereGeometry(n)
        for j in range(1, max_j + 1):
            report.records.append(_analysis_record(geometry, j, tol))
            for wavelet in (False, True):
                report.records.append(_synthesis_record(geometry, j, wavelet, tol, rng))
                report.records.append(_frame_record(geometry, j, wavelet, tol, rng))
            report.records.append(_two_scale_record(geometry, j, tol))
            report.records.extend(_closed_form_records(geometry, j, tol, resolution))
            report.variants.extend(_variant_records(geometry, j))
    return report


def format_report(report: CertificationReport) -> str:
    lines = []
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] n={r.n} j={r.j} {r.name}: expected {r.expected:.12g}, "
            f"measured {r.measured:.12g}, deviation {r.deviation:.3e} (tol {r.tol:.1e})"
        )
    lines.append("")
    lines.append("alternate forms ruled out by measurement:")
    for v in report.variants:
        lines.append(
            f"[info] n={v.n} j={v.j} {v.name}: adopted {v.adopted:.12g}, "
            f"alternate {v.variant:.12g} (x{v.factor:.6g})"
        )
    lines.append("")
    lines.append("certification " + ("PASSED" if report.passed else "FAILED"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reference uncertainty table (printed values; each cell var_S, var_M, U)

TABLE_MS = (1, 2, 3, 4, 5, 6, 7, 15, 31, 63, 127, 255)
TABLE_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

REFERENCE_TABLE: dict[tuple[int, float], tuple[str, str, str]] = {
    (1, 0.5): ("3", "1.5", "2.12"),
    (1, 1.0): ("5.25", "2.4", "3.55"),
    (1, 1.5): ("8", "3.33", "5.16"),
    (1, 2.0): ("11.3", "4.29", "6.94"),
    (1, 2.5): ("15", "5.25", "8.87"),
    (1, 3.0): ("19.3", "6.22", "10.94"),
    (2, 0.5): ("1.25", "4", "2.24"),
    (2, 1.0): ("2.06", "6", "3.52"),
    (2, 1.5): ("3", "8", "4.9"),
    (2, 2.0): ("4.06", "10", "6.37"),
    (2, 2.5): ("5.25", "12", "7.94"),
    (2, 3.0): ("6.56", "14", "9.59"),
    (3, 0.5): ("0.78", "7.5", "2.42"),
    (3, 1.0): ("1.25", "10.8", "3.67"),
    (3, 1.5): ("1.78", "14", "4.99"),
    (3, 2.0): ("2.36", "17.14", "6.36"),
    (3, 2.5): ("3", "20.25", "7.79"),
    (3, 3.0): ("3.69", "23.33", "9.29"),
    (4, 0.5): ("0.56", "12", "2.6"),
    (4, 1.0): ("0.89", "16.8", "3.87"),
    (4, 1.5): ("1.25", "21.33", "5.16"),
    (4, 2.0): ("1.64", "25.71", "6.5"),
    (4, 2.5): ("2.06", "30", "7.87"),
    (4, 3.0): ("2.52", "34.22", "9.28"),
    (5, 0.5): ("0.44", "17.5", "2.78"),
    (5, 1.0): ("0.69", "24", "4.07"),
    (5, 1.5): ("0.96", "30", "5.37"),
    (5, 2.0): ("1.25", "35.71", "6.68"),
    (5, 2.5): ("1.56", "41.25", "8.02"),
    (5, 3.0): ("1.89", "46.67", "9.39"),
    (6, 0.5): ("0.36", "24", "2.94"),
    (6, 1.0): ("0.56", "32.4", "4.27"),
    (6, 1.5): ("0.78", "40", "5.58"),
    (6, 2.0): ("1.01", "47.14", "6.89"),
    (6, 2.5): ("1.25", "54", "8.22"),
    (6, 3.0): ("1.51", "60.67", "9.56"),
    (7, 0.5): ("0.31", "31.5", "3.11"),
    (7, 1.0): ("0.47", "42", "4.46"),
    (7, 1.5): ("0.65", "51.33", "5.79"),
    (7, 2.0): ("0.84", "60", "7.11"),
    (7, 2.5): ("1.04", "68.25", "8.43"),
    (7, 3.0): ("1.25", "76.22", "9.76"),
    (15, 0.5): ("0.14", "127.5", "4.19"),
    (15, 1.0): ("0.21", "162", "5.83"),
    (15, 1.5): ("0.28", "190", "7.35"),
    (15, 2.0): ("0.36", "214.29", "8.8"),
    (15, 2.5): ("0.44", "236.25", "10.2"),
    (15, 3.0): ("0.52", "256.67", "11.57"),
    (31, 0.5): ("0.07", "511.5", "5.79"),
    (31, 1.0): ("0.1", "632.4", "7.92"),
    (31, 1.5): ("0.13", "723.33", "9.82"),
    (31, 2.0): ("0.17", "797.14", "11.57"),
    (31, 2.5): ("0.2", "860.25", "13.21"),
    (31, 3.0): ("0.24", "916.22", "14.78"),
    (63, 0.5): ("0.03", "2047.5", "8.01"),
    (63, 1.0): ("0.05", "2494.8", "10.99"),
    (63, 1.5): ("0.06", "2814", "13.47"),
    (63, 2.0): ("0.08", "3060", "15.74"),
    (63, 2.5): ("0.1", "3260.25", "17.83"),
    (63, 3.0): ("0.11", "3430", "19.79"),
    (127, 0.5): ("0.02", "8191.5", "11.38"),
    (127, 1.0): ("0.02", "9906", "15.34"),
    (127, 1.5): ("0.03", "11091.3", "18.76"),
    (127, 2.0): ("0.04", "11974.3", "21.82"),
    (127, 2.5): ("0.05", "12668.3", "24.61"),
    (127, 3.0): ("0.06", "13236.2", "27.2"),
    (255, 0.5): ("0.01", "32767.5", "16.05"),
    (255, 1.0): ("0.01", "39474", "21.58"),
    (255, 1.5): ("0.02", "44030", "26.33"),
    (255, 2.0): ("0.02", "47357.1", "30.55"),
    (255, 2.5): ("0.02", "49916.3", "34.37"),
    (255, 3.0): ("0.03", "51963", "37.9"),
}


@dataclass(frozen=True)
class TableMismatch:
    m: int
    lam: float
    column: str
    printed: str
    computed: float
    rounded: str


def _printed_decimals(text: str) -> int:
    return len(text.split(".")[1]) if "." in text else 0


def _tabulated_round(value: float, decimals: int) -> Decimal:
    """Reproduce the reference table's rounding pipeline.

    The tabulated values were evidently produced from three-decimal
    intermediates: the cells (m=3, lam=3) and (m=5, lam=1/2) print 9.29 and
    2.78 where the exact products are 9.2846 and 2.7749, which only a
    round-to-3-then-round-again pipeline yields, and no cell in the table
    contradicts that pipeline.  Both stages round half away from zero, the
    second one on the Decimal itself so the intermediate is exact.
    """
    staged = round_half_away(value, 3)
    if decimals >= 3:
        return staged
    return staged.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)


def printed_table_comparison() -> tuple[int, int, list[TableMismatch]]:
    """(matching cells, total cells, mismatches) against the reference table.

    A cell matches when var_S, var_M and U all agree with the tabulated
    strings after rounding to each string's own decimal count (via the
    pipeline in _tabulated_round).  Mismatches carry the full-precision
    computed value.
    """
    mismatches: list[TableMismatch] = []
    matches = 0
    for (m, lam), printed in REFERENCE_TABLE.items():
        rep = phi_m_variances(m, lam)
        computed = (rep.var_space, rep.var_momentum, rep.product)
        ok = True
        for column, text, value in zip(("var_space", "var_momentum", "product"), printed, computed):
            rounded = _tabulated_round(value, _printed_decimals(text))
            if rounded != Decimal(text):
                ok = False
                mismatches.append(
                    TableMismatch(m, lam, column, text, value, str(rounded))
                )
        matches += ok
    return matches, len(REFERENCE_TABLE), mismatches
