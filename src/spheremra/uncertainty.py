"""Space/momentum uncertainty of zonal functions on S^n.

For f = sum_l f_l C_l^lambda the angular variance and the momentum (surface
Laplacian) variance have closed forms in the coefficients:

    var_S(f) = (E / D)^2 - 1,
    var_M(f) = (sum_{l>=1} l (l+2 lambda) w_l |f_l|^2) / E,

with w_l = (lambda/(l+lambda)) binom(l+2 lambda-1, l), E = sum_l w_l |f_l|^2
and the first-moment cross sum

    D = sum_l binom(l+2 lambda, l) lambda^2
        (conj(f_l) f_{l+1} + f_l conj(f_{l+1})) / ((l+lambda)(l+lambda+1)).

The product U = sqrt(var_S) sqrt(var_M) is bounded below by lambda + 1/2
(= n/2 on S^n), approached by heat-kernel coefficients as the bandwidth
concentrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .harmonics import SphereGeometry
from .specfun import ZonalSpectrum

__all__ = [
    "DegenerateMomentError",
    "UncertaintyReport",
    "TableRow",
    "AsymptoticRatio",
    "var_space",
    "var_momentum",
    "uncertainty_product",
    "phi_m_spectrum",
    "phi_m_variances",
    "uncertainty_table",
    "round_half_away",
    "format_rounded",
    "asymptotic_check",
    "gaussian_spectrum",
]


class DegenerateMomentError(ValueError):
    """The spectrum's center of mass sits at the origin: var_space undefined."""


@dataclass(frozen=True)
class UncertaintyReport:
    var_space: float
    var_momentum: float
    product: float


def _log_binom(top: float, k: int) -> float:
    return gammaln(top + 1.0) - gammaln(top - k + 1.0) - gammaln(k + 1.0)


def _energy(spec: ZonalSpectrum, geometry: SphereGeometry | None) -> tuple[np.ndarray, float]:
    """w_l = (lambda/(l+lambda)) binom(l + 2 lambda - 1, l) and the energy
    E = sum_l w_l |f_l|^2, which both variances share."""
    lam = spec.lam
    if geometry is not None and geometry.lam != lam:
        raise ValueError(
            f"spectrum order {lam} does not match S^{geometry.n} (lambda = {geometry.lam})"
        )
    ls = np.arange(len(spec.coeffs))
    log_b = gammaln(ls + 2.0 * lam) - gammaln(2.0 * lam) - gammaln(ls + 1.0)
    w = lam / (ls + lam) * np.exp(log_b)
    energy = math.fsum((w * np.abs(spec.coeffs) ** 2).tolist())
    if energy == 0.0:
        raise ValueError("zero spectrum has no variance")
    return w, energy


def _var_space(spec: ZonalSpectrum, energy: float) -> float:
    lam = spec.lam
    coeffs = spec.coeffs
    cross_terms = []
    for l in range(len(coeffs) - 1):
        log_b = _log_binom(l + 2.0 * lam, l)
        pair = 2.0 * (np.conj(coeffs[l]) * coeffs[l + 1]).real
        cross_terms.append(
            math.exp(log_b) * (lam * lam) * pair / ((l + lam) * (l + lam + 1.0))
        )
    denom = math.fsum(cross_terms)
    if abs(denom) < 1e-14 * energy:
        raise DegenerateMomentError(
            "first-moment sum vanishes; the spectral center of mass is the origin"
        )
    return (energy / denom) ** 2 - 1.0


def _var_momentum(spec: ZonalSpectrum, w: np.ndarray, energy: float) -> float:
    ls = np.arange(len(spec.coeffs))
    numer = math.fsum((ls * (ls + 2.0 * spec.lam) * w * np.abs(spec.coeffs) ** 2).tolist())
    return numer / energy


def var_space(spec: ZonalSpectrum, geometry: SphereGeometry | None = None) -> float:
    """Angular variance ((E/D)^2 - 1); raises DegenerateMomentError when the
    cross sum D vanishes relative to the energy E."""
    return _var_space(spec, _energy(spec, geometry)[1])


def var_momentum(spec: ZonalSpectrum, geometry: SphereGeometry | None = None) -> float:
    """Momentum variance: Laplacian eigenvalue average l(l+2 lambda) over the
    energy distribution w_l |f_l|^2."""
    return _var_momentum(spec, *_energy(spec, geometry))


def uncertainty_product(
    spec: ZonalSpectrum, geometry: SphereGeometry | None = None
) -> UncertaintyReport:
    w, energy = _energy(spec, geometry)
    vs = _var_space(spec, energy)
    vm = _var_momentum(spec, w, energy)
    return UncertaintyReport(vs, vm, math.sqrt(vs) * math.sqrt(vm))


# ---------------------------------------------------------------------------
# the band-limited family Phi_m and its closed forms

def phi_m_spectrum(m: int, lam: float) -> ZonalSpectrum:
    """Coefficients f_l = (l + lambda)/lambda, l <= m (the flat-spectrum
    family whose variances have rational closed forms)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not lam > 0:
        raise ValueError(f"order lambda must be positive, got {lam}")
    ls = np.arange(m + 1)
    return ZonalSpectrum(lam, (ls + lam) / lam)


def phi_m_variances(m: int, lam: float) -> UncertaintyReport:
    """var_S = ((2m + 2 lambda + 1)/(2m))^2 - 1,
    var_M = m (m + 2 lambda + 1)(2 lambda + 1)/(2 lambda + 3)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not lam > 0:
        raise ValueError(f"order lambda must be positive, got {lam}")
    vs = ((2.0 * m + 2.0 * lam + 1.0) / (2.0 * m)) ** 2 - 1.0
    vm = m * (m + 2.0 * lam + 1.0) * (2.0 * lam + 1.0) / (2.0 * lam + 3.0)
    return UncertaintyReport(vs, vm, math.sqrt(vs) * math.sqrt(vm))


# ---------------------------------------------------------------------------
# tabulation

def round_half_away(value: float, decimals: int) -> Decimal:
    """Round to `decimals` places, ties going away from zero (0.125 -> 0.13)."""
    quantum = Decimal(1).scaleb(-decimals)
    return Decimal(value).quantize(quantum, rounding=ROUND_HALF_UP)


def format_rounded(value: float, decimals: int = 2) -> str:
    """Fixed-point rounding with trailing zeros stripped: 3.00 -> '3'."""
    text = str(round_half_away(value, decimals))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


@dataclass(frozen=True)
class TableRow:
    m: int
    lam: float
    var_space: float
    var_momentum: float
    product: float
    var_space_str: str
    var_momentum_str: str
    product_str: str


def uncertainty_table(ms: Sequence[int], lams: Sequence[float]) -> list[TableRow]:
    """Closed-form variances of Phi_m over a (m, lambda) grid, row-major in m
    then lambda, with display strings rounded half away from zero."""
    rows = []
    for m in ms:
        for lam in lams:
            rep = phi_m_variances(m, lam)
            rows.append(
                TableRow(
                    m,
                    lam,
                    rep.var_space,
                    rep.var_momentum,
                    rep.product,
                    format_rounded(rep.var_space),
                    format_rounded(rep.var_momentum),
                    format_rounded(rep.product),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# asymptotic regimes

@dataclass(frozen=True)
class AsymptoticRatio:
    law: str
    m: int
    lam: float
    exact: float
    asymptote: float

    @property
    def ratio(self) -> float:
        return self.exact / self.asymptote


def asymptotic_check(
    m_large: int = 10_000,
    lam_large: float = 1e3,
    lams: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    ms: Sequence[int] = (1, 2, 3, 5, 8),
) -> list[AsymptoticRatio]:
    """Exact-to-asymptote ratios at the sweep endpoints.

    Large m at fixed lambda: var_S ~ (2 lambda + 1)/m,
    var_M ~ (2 lambda + 1) m^2/(2 lambda + 3), U ~ (2 lambda + 1)
    sqrt(m/(2 lambda + 3)).  Large lambda at fixed m: var_S ~ lambda^2/m^2
    (every m >= 1), var_M ~ 2 m lambda, U ~ sqrt(2/m) lambda^(3/2).

    The var_S ratio in the large-lambda regime deviates by (2m + 1)/lambda
    to leading order, so the default band limits stay small enough that the
    deviation is under 2% at lambda = 1e3.
    """
    out: list[AsymptoticRatio] = []
    for lam in lams:
        rep = phi_m_variances(m_large, lam)
        out.append(
            AsymptoticRatio("var_space_large_m", m_large, lam, rep.var_space, (2 * lam + 1) / m_large)
        )
        out.append(
            AsymptoticRatio(
                "var_momentum_large_m",
                m_large,
                lam,
                rep.var_momentum,
                (2 * lam + 1) * m_large**2 / (2 * lam + 3),
            )
        )
        out.append(
            AsymptoticRatio(
                "product_large_m",
                m_large,
                lam,
                rep.product,
                (2 * lam + 1) * math.sqrt(m_large / (2 * lam + 3)),
            )
        )
    for m in ms:
        rep = phi_m_variances(m, lam_large)
        out.append(
            AsymptoticRatio("var_space_large_lam", m, lam_large, rep.var_space, lam_large**2 / m**2)
        )
        out.append(
            AsymptoticRatio(
                "var_momentum_large_lam", m, lam_large, rep.var_momentum, 2 * m * lam_large
            )
        )
        out.append(
            AsymptoticRatio(
                "product_large_lam",
                m,
                lam_large,
                rep.product,
                math.sqrt(2.0 / m) * lam_large**1.5,
            )
        )
    return out


# ---------------------------------------------------------------------------
# heat-kernel (Gaussian) spectra

def gaussian_spectrum(
    t: float,
    geometry: SphereGeometry,
    truncation: int | None = None,
    tail_tol: float = 1e-12,
) -> ZonalSpectrum:
    """Zonal heat-kernel coefficients at time t > 0:

        f_l = exp(-t l (l + 2 lambda)/2) (l + lambda) / lambda.

    (l + lambda)/lambda C_l is the reproducing kernel of the degree-l
    harmonics, so this is the diffusion semigroup kernel whose uncertainty
    product tends to the optimal n/2 as t -> 0.  A reading that divides by
    the Gegenbauer norm instead agrees only on S^2 and loses that limit in
    higher dimensions.

    The truncation degree is chosen so the next factor exp(-t L(L+2 lambda)/2)
    drops below tail_tol; passing an explicit truncation that leaves a larger
    tail raises.
    """
    if not t > 0:
        raise ValueError(f"diffusion time must be positive, got {t}")
    lam = geometry.lam
    need = 2.0 * math.log(1.0 / tail_tol) / t
    auto = math.ceil(-lam + math.sqrt(lam * lam + need))
    if truncation is None:
        truncation = auto
    else:
        tail = math.exp(-t * truncation * (truncation + 2.0 * lam) / 2.0)
        if tail >= tail_tol:
            raise ValueError(
                f"truncation {truncation} leaves tail {tail:.3e} >= {tail_tol:.1e}; "
                f"need at least {auto}"
            )
    ls = np.arange(truncation + 1)
    log_f = -t * ls * (ls + 2.0 * lam) / 2.0 + np.log(ls + lam) - math.log(lam)
    return ZonalSpectrum(lam, np.exp(log_f))
