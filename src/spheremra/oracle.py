"""Slow, independent reference computations used to certify the fast paths.

Everything here is deliberately naive: composite Simpson integration over the
polar-coordinate box (never the equiangular quadrature rules or the discrete
transforms), Gegenbauer values from the exact rational expansion of the
generating function (never the recurrence), and dense harmonic bases on the
grid nodes or at points, built one harmonic at a time (never the separable
transform or the batched point evaluator).
Accuracy comes from resolution, and self-consistency is checked by comparing
two resolutions.

Integrand callables receive one array per angle (theta_1, ..., theta_{n-1},
phi), shaped for broadcasting over the tensor grid, and must return a
broadcastable array; evaluation is slabbed to bound memory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .harmonics import (
    HarmonicIndex,
    SphereGeometry,
    SphericalPoint,
    axis_profile,
    azimuth_profile,
    enumerate_indices,
    normalization_constant,
    total_measure,
)
from .quadrature import grid_axes

__all__ = [
    "IntegrationSpec",
    "default_resolution",
    "dense_integral",
    "inner_product",
    "zonal_integral",
    "zonal_inner_product",
    "zonal_convolution",
    "brute_fourier",
    "grid_basis",
    "point_basis",
    "generating_function_gegenbauer",
]

_SLAB_ELEMENTS = 4_000_000


def default_resolution(n: int) -> int:
    """Per-angle Simpson resolution: 2048 up to S^3, 512 beyond (cost control)."""
    return 2048 if n <= 3 else 512


@dataclass(frozen=True)
class IntegrationSpec:
    """Geometry plus per-angle resolution for composite Simpson integration.

    The tensor grid has resolution+1 polar nodes per axis and 2*resolution+1
    azimuthal nodes, so full-tensor cost grows like resolution^n; callers pick
    the resolution to match integrand degree and dimension.
    """

    geometry: SphereGeometry
    resolution: int = 2048

    def __post_init__(self) -> None:
        if self.resolution < 64 or self.resolution % 2:
            raise ValueError(
                f"resolution must be an even number >= 64, got {self.resolution}"
            )


def _simpson_weights(npoints: int, step: float) -> np.ndarray:
    if npoints % 2 == 0 or npoints < 3:
        raise ValueError("composite Simpson needs an odd number of points")
    w = np.ones(npoints)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def _axes(spec: IntegrationSpec) -> tuple[list[np.ndarray], np.ndarray]:
    res = spec.resolution
    theta = np.linspace(0.0, np.pi, res + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * res + 1)
    return [theta] * (spec.geometry.n - 1), phi


def _axis_weights(spec: IntegrationSpec) -> list[np.ndarray]:
    """Simpson weights times the surface-element sine powers, one per angle."""
    res = spec.resolution
    n = spec.geometry.n
    theta = np.linspace(0.0, np.pi, res + 1)
    out = []
    for nu in range(1, n):
        out.append(_simpson_weights(res + 1, np.pi / res) * np.sin(theta) ** (n - nu))
    out.append(_simpson_weights(2 * res + 1, np.pi / res))
    return out


def dense_integral(f, spec: IntegrationSpec, check: bool = False) -> complex:
    """int_{S^n} f dsigma by tensor-product composite Simpson.

    With check=True the integral is recomputed at half resolution and a
    warning is emitted if the two values disagree by more than 1e-8 relative
    to max(1, |value|).
    """
    thetas, phi = _axes(spec)
    weights = _axis_weights(spec)
    shape = tuple(len(a) for a in thetas) + (len(phi),)
    tail = math.prod(shape[1:])
    chunk = max(1, _SLAB_ELEMENTS // max(tail, 1))
    total = 0.0 + 0.0j
    for start in range(0, shape[0], chunk):
        stop = min(start + chunk, shape[0])
        args = []
        for ax, vec in enumerate(list(thetas) + [phi]):
            piece = vec[start:stop] if ax == 0 else vec
            reshaped = [1] * len(shape)
            reshaped[ax] = len(piece)
            args.append(piece.reshape(reshaped))
        block = np.asarray(f(*args))
        block = np.broadcast_to(block, (stop - start,) + shape[1:]).astype(complex)
        block = block * weights[0][start:stop].reshape([-1] + [1] * (len(shape) - 1))
        for ax in range(1, len(shape)):
            wshape = [1] * len(shape)
            wshape[ax] = shape[ax]
            block = block * weights[ax].reshape(wshape)
        total += block.sum()
    if check:
        half = IntegrationSpec(spec.geometry, spec.resolution // 2)
        other = dense_integral(f, half, check=False)
        scale = max(1.0, abs(total))
        if abs(total - other) > 1e-8 * scale:
            warnings.warn(
                f"dense_integral self-check: resolutions {spec.resolution} and "
                f"{half.resolution} disagree by {abs(total - other):.3e}",
                stacklevel=2,
            )
    return complex(total)


def inner_product(f, g, spec: IntegrationSpec, check: bool = False) -> complex:
    """<f, g> = (1/Sigma_n) int conj(f) g dsigma."""

    def integrand(*angles):
        return np.conj(f(*angles)) * g(*angles)

    return dense_integral(integrand, spec, check=check) / spec.geometry.measure


def zonal_integral(h, geometry: SphereGeometry, resolution: int = 2048) -> complex:
    """int_{S^n} h(x . e) dsigma(x) for a callable h on [-1, 1].

    Rotation invariance reduces this to Sigma_{n-1} int_0^pi h(cos theta)
    sin^{n-1}(theta) dtheta, a single dense 1-d integral.
    """
    if resolution < 64 or resolution % 2:
        raise ValueError(f"resolution must be an even number >= 64, got {resolution}")
    theta = np.linspace(0.0, np.pi, resolution + 1)
    w = _simpson_weights(resolution + 1, np.pi / resolution)
    values = np.asarray(h(np.cos(theta)), dtype=complex)
    return complex(total_measure(geometry.n - 1) * np.sum(w * values * np.sin(theta) ** (geometry.n - 1)))


def zonal_inner_product(h1, h2, geometry: SphereGeometry, resolution: int = 2048) -> complex:
    """<h1(x . e), h2(x . e)> on S^n, again via the 1-d reduction."""

    def product(t):
        return np.conj(h1(t)) * h2(t)

    return zonal_integral(product, geometry, resolution) / geometry.measure


def zonal_convolution(f, h, spec: IntegrationSpec):
    """Return x -> (1/Sigma_n) int f(y) h(x . y) dsigma(y).

    f follows the angle-array convention; h is a callable on [-1, 1].
    """

    def convolved(x: SphericalPoint) -> complex:
        coords = x.cartesian()

        def integrand(*angles):
            # y . x accumulated from the polar-coordinate factorization of y
            running = 1.0
            t = 0.0
            for nu, theta in enumerate(angles[:-1]):
                t = t + coords[nu] * running * np.cos(theta)
                running = running * np.sin(theta)
            phi = angles[-1]
            t = t + running * (coords[-2] * np.cos(phi) + coords[-1] * np.sin(phi))
            return f(*angles) * h(np.clip(t, -1.0, 1.0))

        return dense_integral(integrand, spec) / spec.geometry.measure

    return convolved


def brute_fourier(f, index: HarmonicIndex, spec: IntegrationSpec) -> complex:
    """Fourier coefficient <Y_index, f> by dense integration."""
    geometry = spec.geometry
    const = normalization_constant(geometry, index)

    def integrand(*angles):
        value = np.conj(azimuth_profile(index, angles[-1])) * f(*angles)
        for nu in range(1, geometry.n):
            value = value * axis_profile(geometry, index, nu, angles[nu - 1])
        return const * value

    return dense_integral(integrand, spec) / geometry.measure


def grid_basis(
    geometry: SphereGeometry, j_grid: int, max_degree: int
) -> tuple[list[HarmonicIndex], np.ndarray]:
    """Dense matrix B[i, node] = Y_i at the nodes of N_{j_grid} (grid order),
    for every index of degree <= max_degree in enumeration order.

    Each row is the product of the per-angle profiles times A_l^k, so the
    matrix holds dim Pi_max_degree x grid_size complex values: use it on
    small levels only.  The node-cap guard in grid_axes runs first.
    """
    thetas, phis = grid_axes(geometry, j_grid)
    indices = enumerate_indices(geometry, max_degree)
    n = geometry.n
    operands = []
    for nu in range(1, n):
        operands.append(
            np.vstack([axis_profile(geometry, ix, nu, thetas[nu - 1]) for ix in indices])
        )
    norms = np.array([normalization_constant(geometry, ix) for ix in indices])
    operands.append(norms[:, None] * np.vstack([azimuth_profile(ix, phis) for ix in indices]))
    letters = "abcdefgh"
    script = ",".join("i" + letters[ax] for ax in range(n))
    matrix = np.einsum(f"{script}->i{letters[:n]}", *operands)
    return indices, matrix.reshape(len(indices), -1)


def point_basis(
    geometry: SphereGeometry, indices: Sequence[HarmonicIndex], points: Sequence[SphericalPoint]
) -> np.ndarray:
    """Matrix B[i, p] = Y_i at points[p], built one harmonic at a time from
    A_l^k, the azimuthal profile and the per-angle profiles (in that order):
    the reference for the batched point evaluator in mra."""
    for p in points:
        if p.n != geometry.n:
            raise ValueError(f"point on S^{p.n} passed for S^{geometry.n}")
    thetas = [
        np.array([p.thetas[nu - 1] for p in points]) for nu in range(1, geometry.n)
    ]
    phis = np.array([p.phi for p in points])
    rows = np.empty((len(indices), len(points)), dtype=complex)
    for i, ix in enumerate(indices):
        row = normalization_constant(geometry, ix) * azimuth_profile(ix, phis)
        for nu in range(1, geometry.n):
            row = row * axis_profile(geometry, ix, nu, thetas[nu - 1])
        rows[i] = row
    return rows


def generating_function_gegenbauer(lam: float, degree: int, t: float, cap: int = 64) -> float:
    """C_degree^lam(t) from the binomial-series expansion of the generating
    function (1 - 2tr + r^2)^(-lam), evaluated in exact rational arithmetic.

    Collecting the r^l coefficient of sum_k (lam)_k (2tr - r^2)^k / k! gives

        C_l(t) = sum_{k=ceil(l/2)}^{l} (lam)_k / k! * binom(k, l-k)
                 * (-1)^(l-k) * (2t)^(2k-l),

    which is hopeless in floating point near |t| = 1 for l beyond ~40 but
    exact over the rationals.  lam and t are converted to their exact binary
    values, so results are directly comparable with float evaluations at the
    same points.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > cap:
        raise ValueError(f"degree {degree} beyond the expansion cap {cap}")
    lam_x = Fraction(lam)
    if lam_x <= 0:
        raise ValueError(f"order lambda must be positive, got {lam}")
    t_x = Fraction(t)
    if abs(t_x) > 1:
        raise ValueError(f"argument outside [-1, 1]: {t}")
    total = Fraction(0)
    rising = Fraction(1)  # carries (lam)_k / k! as k advances
    for k in range(0, degree + 1):
        if k:
            rising *= (lam_x + k - 1) / k
        if 2 * k < degree:
            continue
        term = rising * math.comb(k, degree - k) * (2 * t_x) ** (2 * k - degree)
        if (degree - k) % 2:
            term = -term
        total += term
    return float(total)
