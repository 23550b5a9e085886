"""Pyramid decomposition and reconstruction between sample levels.

A level-(j+1) sample vector of a V_{j+1} function splits into the samples of
its V_j part (on the coarser grid N_j) and the samples of its W_j detail part
(kept on N_{j+1}).  Both directions are spectral, on coefficient vectors:
the enumeration is ordered by degree, so V_j and the band W_j are each one
slice of a coefficient vector (mra._band_slice).

- Decomposition analyses once on the top grid, then synthesises the
  degree-0 base on N_1 and each detail band i on N_{i+1}.
- Reconstruction analyses the base and each detail on its own grid, keeps
  each detail's own band (out-of-band content is dropped), sums the slices
  into one vector and synthesises once on the top grid.

An L-level round trip therefore costs 2L + 4 grid transforms.  This is exact
at every level; quadrature applied to fine-level data on a coarse grid is
not, once cross-term degrees pass the coarse rule's range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .harmonics import SphereGeometry
from .mra import GridSignal, _band_slice, analyze_coeffs, synthesize_coeffs

__all__ = [
    "Pyramid",
    "restrict",
    "detail",
    "prolong_sum",
    "pyramid_decompose",
    "pyramid_reconstruct",
]


@dataclass
class Pyramid:
    """Base samples v^(1) on N_1 plus details w^(i) on N_{i+1}, i = 1..j."""

    base: GridSignal
    details: list[GridSignal] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.base.j != 1:
            raise ValueError(f"pyramid base must live at level 1, got {self.base.j}")
        for i, w in enumerate(self.details, start=1):
            if w.geometry != self.base.geometry:
                raise ValueError("pyramid mixes geometries")
            if w.j != i + 1:
                raise ValueError(
                    f"detail {i} must be sampled at level {i + 1}, got {w.j}"
                )

    @property
    def levels(self) -> int:
        return len(self.details)


def _band(geometry: SphereGeometry, coeffs: np.ndarray, j: int) -> GridSignal:
    """Samples on N_{j+1} of the W_j band of coefficients that reach I_{j+1}."""
    band = _band_slice(geometry, j, wavelet=True)
    kept = np.zeros(band.stop, dtype=complex)
    kept[band] = coeffs[band]
    return synthesize_coeffs(geometry, j + 1, kept, j + 1)


def restrict(signal: GridSignal) -> GridSignal:
    """Samples of the V_j part of a level-(j+1) signal, on N_j."""
    if signal.j < 2:
        raise ValueError("cannot restrict below level 1")
    geometry, j = signal.geometry, signal.j - 1
    coeffs = analyze_coeffs(signal)
    return synthesize_coeffs(geometry, j, coeffs[_band_slice(geometry, j, wavelet=False)], j)


def detail(signal: GridSignal) -> GridSignal:
    """Samples of the W_j part of a level-(j+1) signal, kept on N_{j+1}."""
    if signal.j < 2:
        raise ValueError("no detail below level 1")
    return _band(signal.geometry, analyze_coeffs(signal), signal.j - 1)


def prolong_sum(v: GridSignal, w: GridSignal) -> GridSignal:
    """Level-(j+1) samples of v + w from V_j samples v (on N_j) and W_j
    samples w (on N_{j+1}); content of w outside the W_j band is dropped."""
    if w.j != v.j + 1:
        raise ValueError(
            f"detail must be sampled one level above the base: got {v.j} and {w.j}"
        )
    if v.geometry != w.geometry:
        raise ValueError("operands live on different spheres")
    coeffs = analyze_coeffs(w)
    coeffs[_band_slice(v.geometry, v.j, wavelet=False)] = analyze_coeffs(v)
    return synthesize_coeffs(v.geometry, w.j, coeffs, w.j)


def pyramid_decompose(signal: GridSignal, levels: int) -> Pyramid:
    """Split a level-(levels+1) signal into base samples and `levels` details."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if signal.j != levels + 1:
        raise ValueError(
            f"a {levels}-level pyramid starts from level {levels + 1} samples, "
            f"got level {signal.j}"
        )
    geometry = signal.geometry
    coeffs = analyze_coeffs(signal)
    base = synthesize_coeffs(geometry, 1, coeffs[_band_slice(geometry, 1, wavelet=False)], 1)
    details = [_band(geometry, coeffs, j) for j in range(1, levels + 1)]
    return Pyramid(base=base, details=details)


def pyramid_reconstruct(pyramid: Pyramid) -> GridSignal:
    """Invert pyramid_decompose: returns level-(levels+1) samples."""
    geometry, top = pyramid.base.geometry, pyramid.levels + 1
    coeffs = np.empty(_band_slice(geometry, top, wavelet=False).stop, dtype=complex)
    coeffs[_band_slice(geometry, 1, wavelet=False)] = analyze_coeffs(pyramid.base)
    for j, w in enumerate(pyramid.details, start=1):
        band = _band_slice(geometry, j, wavelet=True)
        coeffs[band] = analyze_coeffs(w)[band]
    return synthesize_coeffs(geometry, top, coeffs, top)
