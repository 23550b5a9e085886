"""Scaling/wavelet multiresolution analysis on S^n.

Level j carries the sample space V_j = Pi_{2^(j-1)-1} (spherical polynomials
below degree 2^(j-1)), the detail space W_j spanned by harmonics of degree
2^(j-1) .. 2^j - 1, and the zonal kernels

    phi_j = 2^(-nj/2) sum_{l < 2^(j-1)}      ((l+lam)/lam) C_l^lam,
    psi_j = 2^(-nj/2) sum_{2^(j-1) <= l < 2^j} ((l+lam)/lam) C_l^lam.

Discrete analysis on the equiangular grid N_j recovers Fourier coefficients
of V_j functions exactly; the synthesis and frame identities below hold with
constants normalized by the sphere measure Sigma_n.

Grid analysis and synthesis are separable (the scheme of Driscoll and Healy,
extended to the chains k_0 >= ... >= k_(n-1)): every harmonic is a product
of one factor per angle and N_j is a tensor grid with a uniform azimuth, so
analysis is an FFT over the 2M azimuth nodes (M = 2^j), then the quadrature
weights, then one contraction per polar axis from theta_(n-1) down to
theta_1 against a table of normalised factors
C_(k_(nu-1)-k_nu)^(lam_nu)(cos theta) sin^(k_nu)(theta) / sqrt(h).  Synthesis
runs the same steps in reverse; its azimuthal frequencies are assigned (not
accumulated) onto distinct bins of the smallest period 2M 2^r that holds
them, and the inverse FFT keeps every 2^r-th node, so a coarse grid gets
exact point samples.  That costs O(M^(n+1)) time and
(n-1) (M/2)^2 (M+1) table entries, in place of a dense (dim V_j) x (grid
nodes) basis of O(M^(2n)) bytes (136 MB at S^2 j=6, 34 GB at j=8).  What a
level pair (j_spec, j_grid) needs, the weights, tables, dense positions,
azimuth bins and stride 2^r, is one read-only plan in a bounded cache; the
node-cap guard runs once per call, before and outside it.

Evaluation at scattered points (synthesize, localization_check and verify's
synthesis records) reads the same normalised factors, harmonics._axis_table
over the points; see _basis_at_points.

A Spectrum is one coefficient vector on I_j in enumeration order (a mapping
from HarmonicIndex to value is accepted and only its own indices ranked).
The cores analyze_coeffs and synthesize_coeffs work on such vectors;
analyze and synthesize_on_grid only wrap and unwrap them.

phi_j and psi_j are one kernel over two degree bands, [0, 2^(j-1)) for V_j
and [2^(j-1), 2^j) for W_j (sampled on N_{j+1}).  One band core,
_degree_band and the _band_* functions, carries the spectrum, kernel, norm,
constants, interpolatory synthesis and frame functional of both, and each
public scaling_*/wavelet_* name is one call into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from .harmonics import (
    HarmonicIndex,
    SphereGeometry,
    SphericalPoint,
    _axis_table,
    _harmonic_scale,
    dim_pi,
    enumerate_indices,
    index_rank,
    index_table,
)
from .quadrature import (
    _NODE_CAP_ENV, checked_grid_shape, grid_axes, grid_shape, level_weights, node_cap,
)
from .specfun import ZonalSpectrum, zonal_eval

__all__ = [
    "Spectrum",
    "GridSignal",
    "analysis_constant",
    "synthesis_constant",
    "frame_constant",
    "wavelet_synthesis_constant",
    "wavelet_frame_constant",
    "space_degree_bound",
    "space_indices",
    "analyze",
    "analyze_coeffs",
    "synthesize",
    "synthesize_coeffs",
    "synthesize_on_grid",
    "scaling_spectrum",
    "wavelet_spectrum",
    "scaling_kernel",
    "wavelet_kernel",
    "scaling_norm_sq",
    "wavelet_norm_sq",
    "scaling_integral",
    "wavelet_integral",
    "interpolatory_synthesis",
    "wavelet_interpolatory_synthesis",
    "frame_functional",
    "wavelet_frame_functional",
    "localization_check",
]


def space_degree_bound(j: int) -> int:
    """Largest harmonic degree in V_j: 2^(j-1) - 1."""
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    return 2 ** (j - 1) - 1


def space_indices(geometry: SphereGeometry, j: int) -> list[HarmonicIndex]:
    """The index set I_j of V_j in enumeration order."""
    return enumerate_indices(geometry, space_degree_bound(j))


@dataclass
class Spectrum:
    """Fourier coefficients on I_j: one complex vector of length dim V_j, in
    enumeration order (degrees up to 2^(j-1) - 1).

    The constructor also takes a mapping from HarmonicIndex to value, where
    an absent index is zero, and ranks only the indices it holds.  `entries`
    is the read-only {HarmonicIndex: complex} view over all of I_j, built on
    first use.
    """

    geometry: SphereGeometry
    j: int
    coeffs: np.ndarray = field(default_factory=dict)

    def __post_init__(self) -> None:
        # dim V_j >= 2^(j-1) and every grid on S^n has over 2^n nodes, so a
        # level or a dimension past the cap's bit length is refused before
        # any integer of its size is formed
        cap, n = node_cap(), self.geometry.n
        if max(self.j, n) > cap.bit_length() or (
            size := dim_pi(self.geometry, space_degree_bound(self.j))
        ) > cap:
            raise ValueError(
                f"level-{self.j} spectrum on S^{n} has more coefficients or grid nodes "
                f"than the cap {cap}; raise {_NODE_CAP_ENV} to override"
            )
        if isinstance(self.coeffs, Mapping):
            entries, bound = self.coeffs, space_degree_bound(self.j)
            for index in entries:
                if len(index.chain) != n - 1:
                    raise ValueError(f"index {index} incompatible with S^{n}")
                if index.l > bound:
                    raise ValueError(f"degree {index.l} exceeds the level-{self.j} bound {bound}")
            rows = [(ix.l,) + ix.chain + (ix.sign,) for ix in entries]
            self.coeffs = np.zeros(size, dtype=complex)
            self.coeffs[index_rank(n, rows)] = list(entries.values())
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (size,):
            raise ValueError(
                f"level-{self.j} spectrum on S^{n} has {size} coefficients, "
                f"got an array of shape {self.coeffs.shape}"
            )

    @cached_property
    def entries(self) -> Mapping[HarmonicIndex, complex]:
        return MappingProxyType(
            dict(zip(space_indices(self.geometry, self.j), self.coeffs.tolist()))
        )

    def vector(self, indices: Sequence[HarmonicIndex]) -> np.ndarray:
        entries = self.entries
        return np.array([entries.get(ix, 0.0) for ix in indices], dtype=complex)

    def norm_sq(self) -> float:
        # a sequential sum in enumeration order: the verify report's bits depend on it
        return float(sum(abs(v) ** 2 for v in self.coeffs.tolist()))


@dataclass
class GridSignal:
    """Samples on the level-j grid N_j, flattened in grid order."""

    geometry: SphereGeometry
    j: int
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = math.prod(checked_grid_shape(self.geometry, self.j))
        self.values = np.asarray(self.values, dtype=complex).ravel()
        if self.values.shape[0] != expected:
            raise ValueError(
                f"level-{self.j} grid on S^{self.geometry.n} has {expected} nodes, "
                f"got {self.values.shape[0]} samples"
            )

    def norm_sq(self) -> float:
        """Squared L2 norm of the underlying V_j function, via exact
        quadrature of |f|^2 on the level's own grid."""
        w = level_weights(self.geometry, self.j)
        return float(
            analysis_constant(self.geometry, self.j)
            * np.real(np.dot(w, np.abs(self.values) ** 2))
        )


# ---------------------------------------------------------------------------
# constants

def analysis_constant(geometry: SphereGeometry, j: int) -> float:
    """pi / (Sigma_n 2^j): turns weighted node sums into Fourier coefficients."""
    return math.pi / (geometry.measure * 2.0**j)


def synthesis_constant(geometry: SphereGeometry, j: int) -> float:
    """sqrt(2^(j(n-2))) pi / Sigma_n for interpolatory V_j synthesis."""
    n = geometry.n
    return math.sqrt(2.0 ** (j * (n - 2))) * math.pi / geometry.measure


def frame_constant(geometry: SphereGeometry, j: int) -> float:
    """2^(j(n-1)) pi / Sigma_n: tight-frame constant of the phi_j system."""
    n = geometry.n
    return 2.0 ** (j * (n - 1)) * math.pi / geometry.measure


def wavelet_synthesis_constant(geometry: SphereGeometry, j: int) -> float:
    """sqrt(2^((n-2)j - 2)) pi / Sigma_n for W_j synthesis from N_{j+1} samples."""
    return _band_constants(geometry, j, wavelet=True)[0]


def wavelet_frame_constant(geometry: SphereGeometry, j: int) -> float:
    """2^((n-1)j - 1) pi / Sigma_n: tight-frame constant of the psi_j system."""
    return _band_constants(geometry, j, wavelet=True)[1]


# ---------------------------------------------------------------------------
# separable transform on grids

def _plan(geometry: SphereGeometry, j_spec: int, j_grid: int) -> tuple:
    """The level pair's plan (see _plan_cached), after the node-cap guard,
    which runs once and outside the plan cache."""
    checked_grid_shape(geometry, j_grid)
    return _plan_cached(geometry.n, j_spec, j_grid)


@lru_cache(maxsize=32)
def _plan_cached(n: int, j_spec: int, j_grid: int) -> tuple:
    """What the grid cores read for level-j_spec spectra on N_{j_grid}, all
    read-only: the grid shape; the level weights (quadrature's own cached
    array); the _axis_table of every polar axis nu = 1..n-1 (base order
    (n-nu)/2); the flat position of each index (enumeration order) in the
    dense array D[k_0, ..., k_(n-1), s] of shape (max_degree+1,)*n + (2,),
    where slot s is 0 for the azimuthal sign +1 and 1 for -1; the FFT bin of
    the azimuthal frequency sign * k (rows k, columns sign +1, -1) on the
    synthesis period 2M 2^r; and the stride 2^r."""
    geometry, max_degree = SphereGeometry(n), space_degree_bound(j_spec)
    thetas, _ = grid_axes(geometry, j_grid)
    tables = tuple(
        _axis_table((n - nu) / 2.0, max_degree, thetas[nu - 1], np.arange(max_degree + 1))
        for nu in range(1, n)
    )
    rows = index_table(n, max_degree)
    rows[:, n] = (1 - rows[:, n]) // 2
    positions = np.ravel_multi_index(tuple(rows.T), (max_degree + 1,) * n + (2,))
    # the smallest period 2M 2^r that holds the 2^j_spec signed frequencies
    stride = 2 ** max(0, j_spec - j_grid - 1)
    bins = (np.arange(max_degree + 1)[:, None] * np.array([1, -1])) % (stride * 2 ** (j_grid + 1))
    for array in tables + (positions, bins):
        array.setflags(write=False)
    weights = level_weights(geometry, j_grid)
    return grid_shape(geometry, j_grid), weights, tables, positions, bins, stride


def _contract(table: np.ndarray, x: np.ndarray, transpose: bool) -> np.ndarray:
    """y[p, a, b, r] = sum_s table[b, a, s] x[p, s, b, r], or with the roles
    of a and s swapped when `transpose` is set.  One real matmul per b on the
    interleaved real and imaginary parts."""
    p, _, b, r = x.shape
    stacked = np.ascontiguousarray(x.transpose(2, 1, 0, 3)).view(np.float64)
    matrix = table.transpose(0, 2, 1) if transpose else table
    out = matrix @ stacked.reshape(b, x.shape[1], 2 * p * r)
    return out.view(complex).reshape(b, -1, p, r).transpose(2, 1, 0, 3)


def _basis_at_points(
    geometry: SphereGeometry, max_degree: int, positions: np.ndarray, points: Sequence[SphericalPoint]
) -> np.ndarray:
    """B[i, p] = Y_i at points[p] for the indices at `positions` (enumeration
    order, degree <= max_degree), the values of harmonic_eval: sqrt(Sigma_n /
    2 pi) times one exponential per distinct signed frequency, then per polar
    axis T[k_nu, k_(nu-1)] gathered from one _axis_table over the points for
    the orders these rows hold.  It reads no grid plan and keeps no array."""
    n = geometry.n
    for p in points:
        if p.n != n:
            raise ValueError(f"point on S^{p.n} passed for S^{n}")
    thetas = [np.array([p.thetas[nu - 1] for p in points]) for nu in range(1, n)]
    phis = np.array([p.phi for p in points])
    rows = index_table(n, max_degree)[positions]
    frequencies, which = np.unique(rows[:, n] * rows[:, n - 1], return_inverse=True)
    basis = (_harmonic_scale(geometry) * np.exp(1j * np.outer(frequencies, phis)))[which]
    for nu in range(1, n):
        # T[k_nu, k_(nu-1)] from a table of the orders these rows hold
        orders, which = np.unique(rows[:, nu], return_inverse=True)
        table = _axis_table((n - nu) / 2.0, int(rows[:, nu - 1].max()), thetas[nu - 1], orders)
        basis *= table[which, rows[:, nu - 1]]
    return basis


# ---------------------------------------------------------------------------
# analysis and synthesis

def analyze_coeffs(signal: GridSignal) -> np.ndarray:
    """Fourier coefficients on I_j from level-j samples, in enumeration order.

    Exact (to rounding) whenever the samples come from a V_j function: the
    product of any two I_j harmonics stays within the degree range the
    level-j rules integrate exactly.
    """
    geometry, j = signal.geometry, signal.j
    n, max_degree = geometry.n, space_degree_bound(j)
    shape, weights, tables, positions, bins, _ = _plan(geometry, j, j)
    weighted = (weights * signal.values).reshape(shape)
    # axes (s_1, ..., s_(n-1), k_(n-1), sign) after the azimuthal FFT
    dense = np.fft.fft(weighted, axis=-1)[..., bins]
    for nu in range(n - 1, 0, -1):
        # contract s_nu into k_(nu-1): (.., s_nu, k_nu, ..) -> (.., k_(nu-1), k_nu, ..)
        lead = dense.shape[: nu - 1]
        flat = dense.reshape(math.prod(lead), shape[nu - 1], max_degree + 1, -1)
        dense = _contract(tables[nu - 1], flat, transpose=False).reshape(
            lead + (max_degree + 1,) + dense.shape[nu:]
        )
    scale = analysis_constant(geometry, j) * _harmonic_scale(geometry)
    return scale * dense.ravel()[positions]


def analyze(signal: GridSignal) -> Spectrum:
    """analyze_coeffs as a Spectrum on I_j."""
    return Spectrum(signal.geometry, signal.j, analyze_coeffs(signal))


def synthesize(spectrum: Spectrum, points) -> complex | np.ndarray:
    """Evaluate sum a_i Y_i, over the nonzero a_i, at one point or a
    sequence of points."""
    single = isinstance(points, SphericalPoint)
    pts = [points] if single else list(points)
    nonzero = np.flatnonzero(spectrum.coeffs)
    if not len(nonzero):
        return 0.0 + 0.0j if single else np.zeros(len(pts), dtype=complex)
    basis = _basis_at_points(spectrum.geometry, space_degree_bound(spectrum.j), nonzero, pts)
    values = spectrum.coeffs[nonzero] @ basis
    return complex(values[0]) if single else values


def synthesize_coeffs(
    geometry: SphereGeometry, j_spec: int, coeffs: np.ndarray, j_grid: int
) -> GridSignal:
    """Evaluate the level-j_spec coefficients (I_(j_spec) in enumeration
    order) at every node of N_{j_grid}.

    On a grid too coarse to carry every azimuthal frequency this is exact
    point sampling: the frequencies go onto the smallest period 2M 2^r that
    holds them without collisions, and the inverse FFT keeps every 2^r-th
    node.
    """
    n, max_degree = geometry.n, space_degree_bound(j_spec)
    if len(coeffs) != (count := dim_pi(geometry, max_degree)):
        raise ValueError(
            f"level-{j_spec} spectrum on S^{n} has {count} coefficients, got {len(coeffs)}"
        )
    shape, _, tables, positions, bins, stride = _plan(geometry, j_spec, j_grid)
    size = max_degree + 1
    dense = np.zeros(2 * size**n, dtype=complex)
    dense[positions] = _harmonic_scale(geometry) * coeffs
    dense = dense.reshape((size,) * n + (2,))
    for nu in range(1, n):
        # expand k_(nu-1) into s_nu: (.., k_(nu-1), k_nu, ..) -> (.., s_nu, k_nu, ..)
        lead = dense.shape[: nu - 1]
        flat = dense.reshape(math.prod(lead), size, size, -1)
        dense = _contract(tables[nu - 1], flat, transpose=True).reshape(
            lead + (shape[nu - 1],) + dense.shape[nu:]
        )
    # assign (k_(n-1), sign) onto distinct azimuthal bins, without the
    # always-zero slot (k = 0, sign -1), then the inverse FFT
    rows = dense.reshape(-1, 2 * size)
    spectra = np.zeros((rows.shape[0], stride * shape[-1]), dtype=complex)
    spectra[:, 0] = rows[:, 0]
    spectra[:, bins.ravel()[2:]] = rows[:, 2:]
    values = np.fft.ifft(spectra, axis=-1, norm="forward")[:, ::stride]
    return GridSignal(geometry, j_grid, values.ravel())


def synthesize_on_grid(spectrum: Spectrum, j_grid: int) -> GridSignal:
    """Evaluate the spectrum at every node of N_{j_grid} (see synthesize_coeffs)."""
    return synthesize_coeffs(spectrum.geometry, spectrum.j, spectrum.coeffs, j_grid)


# ---------------------------------------------------------------------------
# the degree-band core: V_j and W_j are two bands of one zonal kernel

def _degree_band(j: int, wavelet: bool) -> tuple[int, int]:
    """Degrees [lo, hi) of V_j, [0, 2^(j-1)), or with `wavelet` of W_j,
    [2^(j-1), 2^j).  W_j is sampled on N_{j+1}, one level above V_j."""
    half = space_degree_bound(j) + 1
    return (half, 2 * half) if wavelet else (0, half)


def _band_slice(geometry: SphereGeometry, j: int, wavelet: bool) -> slice:
    """Positions of the band's harmonics in enumeration order (which is
    ordered by degree): [dim Pi_(lo-1), dim Pi_(hi-1))."""
    lo, hi = _degree_band(j, wavelet)
    return slice(dim_pi(geometry, lo - 1) if lo else 0, dim_pi(geometry, hi - 1))


def _band_constants(geometry: SphereGeometry, j: int, wavelet: bool) -> tuple[float, float]:
    """(synthesis, frame) constants of the band.  W_j's are half of V_j's,
    which equals their closed forms to the bit: halving commutes with rounding."""
    share = 2.0 if wavelet else 1.0
    return synthesis_constant(geometry, j) / share, frame_constant(geometry, j) / share


def _band_spectrum(geometry: SphereGeometry, j: int, wavelet: bool) -> ZonalSpectrum:
    """Gegenbauer coefficients 2^(-nj/2) (l+lam)/lam of the band's kernel on
    its degrees, zero below them."""
    lo, hi = _degree_band(j, wavelet)
    lam = geometry.lam
    coeffs = 2.0 ** (-geometry.n * j / 2.0) * (np.arange(hi) + lam) / lam
    coeffs[:lo] = 0.0
    return ZonalSpectrum(lam, coeffs)


def _band_kernel(geometry: SphereGeometry, j: int, wavelet: bool, t):
    """The band's kernel at t in [-1, 1] (scalar or array)."""
    value = zonal_eval(_band_spectrum(geometry, j, wavelet), t)
    return value.real if isinstance(value, complex) else np.real(value)


def _band_norm_sq(geometry: SphereGeometry, j: int, wavelet: bool) -> float:
    """2^(-nj) times the number of harmonics in the band, exactly in rationals."""
    band = _band_slice(geometry, j, wavelet)
    return float(Fraction(band.stop - band.start, 2 ** (geometry.n * j)))


# ---------------------------------------------------------------------------
# kernels and their closed forms

def scaling_spectrum(geometry: SphereGeometry, j: int) -> ZonalSpectrum:
    """Gegenbauer coefficients of phi_j: 2^(-nj/2) (l+lam)/lam on l < 2^(j-1)."""
    return _band_spectrum(geometry, j, wavelet=False)


def wavelet_spectrum(geometry: SphereGeometry, j: int) -> ZonalSpectrum:
    """Gegenbauer coefficients of psi_j: 2^(-nj/2) (l+lam)/lam on
    2^(j-1) <= l < 2^j, zero below."""
    return _band_spectrum(geometry, j, wavelet=True)


def scaling_kernel(geometry: SphereGeometry, j: int, t):
    """phi_j(t) for t in [-1, 1] (scalar or array)."""
    return _band_kernel(geometry, j, False, t)


def wavelet_kernel(geometry: SphereGeometry, j: int, t):
    """psi_j(t) for t in [-1, 1] (scalar or array)."""
    return _band_kernel(geometry, j, True, t)


def scaling_norm_sq(geometry: SphereGeometry, j: int) -> float:
    """||phi_j(. x)||^2 = 2^(-nj) dim Pi_{2^(j-1)-1}, exactly in rationals.

    Tends to 2^(1-n)/n! as j grows (and equals 1/4 for every j when n = 2).
    """
    return _band_norm_sq(geometry, j, wavelet=False)


def wavelet_norm_sq(geometry: SphereGeometry, j: int) -> float:
    """||psi_j(. x)||^2 = 2^(-nj)(dim Pi_{2^j-1} - dim Pi_{2^(j-1)-1})."""
    return _band_norm_sq(geometry, j, wavelet=True)


def scaling_integral(geometry: SphereGeometry, j: int) -> float:
    """int_{S^n} phi_j(x . e) dsigma(x) in closed form:

    2^(3 - n(1 + j/2)) pi^(n/2 + 1) Gamma(2 lam)
        / (Gamma(lam) Gamma(lam + 1/2) Gamma(lam + 1)).
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    n, lam = geometry.n, geometry.lam
    log_value = (
        (3.0 - n * (1.0 + j / 2.0)) * math.log(2.0)
        + (n / 2.0 + 1.0) * math.log(math.pi)
        + gammaln(2.0 * lam)
        - gammaln(lam)
        - gammaln(lam + 0.5)
        - gammaln(lam + 1.0)
    )
    return math.exp(log_value)


def wavelet_integral(geometry: SphereGeometry, j: int) -> float:
    """int_{S^n} psi_j(x . e) dsigma(x) = 0: psi_j has no degree-0 component."""
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    return 0.0


# ---------------------------------------------------------------------------
# interpolatory synthesis, frames, localization

def _node_cartesians(geometry: SphereGeometry, j: int) -> np.ndarray:
    """Unit vectors of all N_j nodes, (grid_size, n+1), in grid order."""
    thetas, phis = grid_axes(geometry, j)
    n = geometry.n
    shape = tuple(len(a) for a in thetas) + (len(phis),)
    coords = []
    running = np.ones(shape)
    for nu, axis in enumerate(thetas):
        view = [1] * n
        view[nu] = len(axis)
        coords.append(running * np.cos(axis).reshape(view))
        running = running * np.broadcast_to(np.sin(axis).reshape(view), shape)
    view = [1] * n
    view[-1] = len(phis)
    coords.append(running * np.cos(phis).reshape(view))
    coords.append(running * np.sin(phis).reshape(view))
    return np.stack([c.ravel() for c in coords], axis=1)


def _band_rebuild(
    signals: Sequence[GridSignal], j: int, wavelet: bool
) -> Callable[[Sequence[SphericalPoint]], list[list[complex]]]:
    """The band's functions from their samples on N_{j+wavelet}, as a map
    from points to values[signal][point], each one dot with a kernel row
    evaluated once for all signals (the bits of a one-point call):

        f(x) = c_syn sum_{s,t} chi_prod v_{s,t} kernel(x . x_{s,t}).
    """
    level = j + wavelet
    if wrong := [s.j for s in signals if s.j != level]:
        raise ValueError(
            f"{'W' if wavelet else 'V'}_{j} synthesis needs samples at level {level}, "
            f"got level {wrong[0]}"
        )
    geometry = signals[0].geometry
    nodes = _node_cartesians(geometry, level)
    constant = _band_constants(geometry, j, wavelet)[0]
    weighted = [constant * level_weights(geometry, level) * s.values for s in signals]
    spectrum = _band_spectrum(geometry, j, wavelet)

    def evaluate(points: Sequence[SphericalPoint]) -> list[list[complex]]:
        dots = np.stack([np.clip(nodes @ x.cartesian(), -1.0, 1.0) for x in points])
        kernel = zonal_eval(spectrum, dots)
        return [[complex(np.dot(v, row)) for row in kernel] for v in weighted]

    return evaluate


def interpolatory_synthesis(signal: GridSignal) -> Callable[[SphericalPoint], complex]:
    """Rebuild the V_j function from its level-j samples; the callable
    evaluates anywhere on the sphere."""
    evaluate = _band_rebuild([signal], signal.j, wavelet=False)
    return lambda x: evaluate([x])[0][0]


def wavelet_interpolatory_synthesis(
    signal: GridSignal, j: int
) -> Callable[[SphericalPoint], complex]:
    """Rebuild a W_j function from its samples on the finer grid N_{j+1}."""
    evaluate = _band_rebuild([signal], j, wavelet=True)
    return lambda x: evaluate([x])[0][0]


def _as_samples(f: Spectrum | GridSignal, j: int) -> GridSignal:
    if isinstance(f, GridSignal):
        if f.j != j:
            raise ValueError(f"signal at level {f.j} passed for level {j}")
        return f
    if j < f.j and np.any(f.coeffs[_band_slice(f.geometry, j, wavelet=False).stop :]):
        top = index_table(f.geometry.n, space_degree_bound(f.j))[np.flatnonzero(f.coeffs)[-1], 0]
        raise ValueError(f"spectrum reaches degree {top}, outside the level-{j} space")
    return synthesize_on_grid(f, j)


def _band_frame_functional(f: Spectrum | GridSignal, j: int, wavelet: bool) -> float:
    """c_F sum over N_{j+wavelet} of chi_prod |<kernel(. x), f>|^2, which
    equals ||f||^2 on the band.  The inner products reduce to 2^(-nj/2) f(x)."""
    samples = _as_samples(f, j + wavelet)
    geometry = samples.geometry
    w = level_weights(geometry, samples.j)
    quadratic = float(np.dot(w, np.abs(samples.values) ** 2))
    return _band_constants(geometry, j, wavelet)[1] * 2.0 ** (-geometry.n * j) * quadratic


def frame_functional(f: Spectrum | GridSignal, j: int | None = None) -> float:
    """c_F sum_{s,t} chi_prod |<phi_j(. x_{s,t}), f>|^2; equals ||f||^2 on V_j."""
    return _band_frame_functional(f, f.j if j is None else j, wavelet=False)


def wavelet_frame_functional(f: Spectrum | GridSignal, j: int) -> float:
    """c_F' sum over N_{j+1} of chi_prod |<psi_j(. x), f>|^2; ||f||^2 on W_j."""
    return _band_frame_functional(f, j, wavelet=True)


def localization_check(
    geometry: SphereGeometry,
    j: int,
    x0: SphericalPoint,
    trials: Iterable[Spectrum],
    slack: float = 1e-10,
) -> bool:
    """Among f in V_j with f(x0) = 1, the normalized kernel
    phi_j(. x0)/phi_j(1) minimizes ||f||, with minimum 1/sqrt(dim V_j).

    Each trial spectrum is rescaled to f(x0) = 1 and tested against the bound
    (up to `slack`).  Returns True when every trial respects it.
    """
    bound = 1.0 / math.sqrt(dim_pi(geometry, space_degree_bound(j)))
    for spectrum in trials:
        if spectrum.j > j:
            raise ValueError(f"trial at level {spectrum.j} is not inside V_{j}")
        value = synthesize(spectrum, x0)
        norm = math.sqrt(spectrum.norm_sq())
        if abs(value) < 1e-12 * max(norm, 1.0):
            raise ValueError("trial function vanishes at x0; cannot normalize")
        if norm / abs(value) < bound - slack:
            return False
    return True
