"""Hyperspherical harmonics on S^n embedded in R^(n+1).

Points are polar angles (theta_1, ..., theta_{n-1}, phi) with theta_nu in
[0, pi] and phi in [0, 2 pi); the surface element carries the weight
sin^{n-1}(theta_1) ... sin(theta_{n-1}).  An orthonormal basis of the degree-l
harmonics is indexed by monotone chains l = k_0 >= k_1 >= ... >= k_{n-1} >= 0
plus a sign on the azimuthal frequency k_{n-1}:

    Y_l^k = A_l^k  prod_nu C_{k_{nu-1}-k_nu}^{(n-nu)/2 + k_nu}(cos theta_nu)
            sin^{k_nu}(theta_nu)  *  exp(+/- i k_{n-1} phi).

Inner products are normalized by the total measure Sigma_n of S^n, so
<Y, Y> = 1 with A_l^k fixed by the 1-d Gegenbauer norms.

This module alone owns the index order, lexicographic on (l, k_1, ...,
k_{n-1}) with sign +1 before -1.  index_table lists it; index_rank places a
row, since the degree-k chains on S^m with their signs number dim Pi_k(S^(m-1)):

    rank = sum_{nu=0}^{n-2} dim Pi_(k_nu - 1)(S^(n-nu))
           + [k_{n-1} > 0] (2 k_{n-1} - 1) + [sign = -1],  dim Pi_(-1) = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .specfun import GegenbauerParams, gegenbauer_norm_1d, gegenbauer_sequence, gegenbauer_table

__all__ = [
    "SphereGeometry",
    "HarmonicIndex",
    "SphericalPoint",
    "total_measure",
    "harmonic_count",
    "dim_pi",
    "enumerate_indices",
    "index_table",
    "index_rank",
    "normalization_constant",
    "harmonic_eval",
    "addition_kernel",
    "dot",
    "axis_profile",
    "azimuth_profile",
]


def total_measure(n: int) -> float:
    """Surface measure of S^n: Sigma_n = 2 pi^(lambda+1) / Gamma(lambda+1) with lambda=(n-1)/2."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    lam = (n - 1) / 2.0
    return 2.0 * math.pi ** (lam + 1.0) / math.gamma(lam + 1.0)


@dataclass(frozen=True)
class SphereGeometry:
    """The sphere S^n (n >= 2), with the derived Gegenbauer order and measure."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"sphere dimension n must be >= 2, got {self.n}")

    @property
    def lam(self) -> float:
        return (self.n - 1) / 2.0

    @property
    def measure(self) -> float:
        return total_measure(self.n)


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree l, monotone chain (k_1, ..., k_{n-1}), and azimuthal sign.

    The sign is +1 or -1 and is forced to +1 when k_{n-1} = 0 (the two
    exponentials coincide there).
    """

    l: int
    chain: tuple[int, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError(f"degree must be nonnegative, got {self.l}")
        if not self.chain:
            raise ValueError("chain must have at least one entry")
        ks = (self.l,) + self.chain
        for a, b in zip(ks, ks[1:]):
            if b < 0 or b > a:
                raise ValueError(f"chain {self.chain} not monotone below degree {self.l}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.chain[-1] == 0 and self.sign != 1:
            raise ValueError("sign must be +1 when the azimuthal frequency is zero")


@dataclass(frozen=True)
class SphericalPoint:
    """Polar coordinates (theta_1, ..., theta_{n-1}, phi) of a point on S^n."""

    thetas: tuple[float, ...]
    phi: float

    def __post_init__(self) -> None:
        if not self.thetas:
            raise ValueError("need at least one polar angle")
        for th in self.thetas:
            if not 0.0 <= th <= math.pi:
                raise ValueError(f"polar angle {th} outside [0, pi]")

    @property
    def n(self) -> int:
        return len(self.thetas) + 1

    def cartesian(self) -> np.ndarray:
        """Unit vector in R^(n+1): x_1 = cos theta_1, each later coordinate
        picks up the accumulated product of sines."""
        coords = []
        running = 1.0
        for th in self.thetas:
            coords.append(running * math.cos(th))
            running *= math.sin(th)
        coords.append(running * math.cos(self.phi))
        coords.append(running * math.sin(self.phi))
        return np.array(coords)


def dot(x: SphericalPoint, y: SphericalPoint) -> float:
    """Euclidean inner product of two points on the same sphere, clipped to [-1, 1]."""
    if x.n != y.n:
        raise ValueError(f"points live on different spheres: S^{x.n} vs S^{y.n}")
    return float(np.clip(np.dot(x.cartesian(), y.cartesian()), -1.0, 1.0))


def harmonic_count(geometry: SphereGeometry, l: int) -> int:
    """dim H_l(S^n) = (2l + n - 1)(l + n - 2)! / ((n-1)! l!)
    = dim Pi_l - dim Pi_(l-1), exactly."""
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got {l}")
    return dim_pi(geometry, l) - (dim_pi(geometry, l - 1) if l else 0)


def dim_pi(geometry: SphereGeometry, m: int) -> int:
    """dim Pi_m(S^n) = (n + 2m)(n + m - 1)! / (n! m!)
    = binom(n + m, n) + binom(n + m - 1, n), exactly, in O(n) products."""
    if m < 0:
        raise ValueError(f"max degree must be nonnegative, got {m}")
    n = geometry.n
    return math.comb(n + m, n) + math.comb(n + m - 1, n)


def index_table(n: int, max_degree: int) -> np.ndarray:
    """Rows (l, k_1, ..., k_{n-1}, sign) of the indices of degree <=
    max_degree on S^n, in order.  Per polar axis a ramp repeats row i k + 1
    times with 0..k appended; the sign ramp repeats it twice where k > 0.
    The columns are gathered through the repeats at the end: O(n) a row."""
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {max_degree}")
    columns, sources = [np.arange(max_degree + 1)], []
    for axis in range(n):
        counts = columns[-1] + 1 if axis < n - 1 else 1 + (columns[-1] > 0)
        sources.append(np.repeat(np.arange(len(counts)), counts))
        columns.append(np.arange(len(sources[-1])) - np.repeat(np.cumsum(counts) - counts, counts))
    columns[-1] = 1 - 2 * columns[-1]
    rows = np.arange(len(columns[-1]))
    for axis in range(n - 1, -1, -1):
        rows = sources[axis][rows]
        columns[axis] = columns[axis][rows]
    return np.stack(columns, axis=1)


def index_rank(n: int, rows) -> np.ndarray:
    """Enumeration position of each valid index row (l, k_1, ..., k_{n-1},
    sign) on S^n, by the module docstring's formula on exact dim_pi values."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n + 1)
    ranks = np.zeros(len(rows), dtype=np.int64)
    for nu in range(n - 1):
        sphere, ks = SphereGeometry(n - nu), rows[:, nu]
        below = [0] + [dim_pi(sphere, m) for m in range(int(ks.max(initial=0)))]
        ranks += np.array(below, dtype=np.int64)[ks]
    return ranks + np.maximum(2 * rows[:, n - 1] - 1, 0) + (rows[:, n] == -1)


def enumerate_indices(geometry: SphereGeometry, max_degree: int) -> list[HarmonicIndex]:
    """All harmonic indices with l <= max_degree, as the rows of
    index_table.  The length equals dim Pi_max_degree."""
    table = index_table(geometry.n, max_degree).tolist()
    return [HarmonicIndex(l, tuple(chain), sign) for l, *chain, sign in table]


def _axis_order(n: int, ks: Sequence[int], nu: int) -> tuple[int, float, int]:
    """(degree, order, sine power) of the nu-th polar factor, nu = 1..n-1,
    of the chain ks = (k_0 = l, k_1, ..., k_(n-1)) on S^n."""
    return ks[nu - 1] - ks[nu], (n - nu) / 2.0 + ks[nu], ks[nu]


def _check_index(n: int, index: HarmonicIndex) -> None:
    if len(index.chain) != n - 1:
        raise ValueError(f"index chain length {len(index.chain)} incompatible with S^{n}")


@lru_cache(maxsize=1024)
def _log_norm_1d(degree: int, lam: float) -> float:
    return math.log(gegenbauer_norm_1d(GegenbauerParams(lam, degree)))


def _chain_normalization(n: int, ks: Sequence[int]) -> float:
    """A_l^k from the chain (k_0 = l, k_1, ..., k_(n-1)) on S^n."""
    log_a2 = math.log(total_measure(n)) - math.log(2.0 * math.pi)
    for nu in range(1, n):
        log_a2 -= _log_norm_1d(ks[nu - 1] - ks[nu], (n - nu) / 2.0 + ks[nu])
    return math.exp(0.5 * log_a2)


# Pointwise traffic, every index of degree <= 8 on S^2, S^3 and S^4, is
# 81 + 285 + 825 = 1191 plans; the bound also holds S^5's 2079 besides them,
# since a sweep that cycles through more plans than the bound misses on
# every call.
@lru_cache(maxsize=4096)
def _plan(n: int, index: HarmonicIndex) -> tuple[float, tuple[tuple[int, float, int], ...], complex]:
    """What one harmonic's value needs from its index alone: A_l^k, the
    (degree, order, sine power) of each polar factor nu = 1..n-1 and the
    azimuthal rate 1j * sign * k_(n-1).  The rate is formed left to right
    as azimuth_profile forms it: 1j * (sign * k) would turn the sign of a
    zero at a pole.  An index of the wrong chain length raises and is not
    cached."""
    _check_index(n, index)
    ks = (index.l,) + index.chain
    axes = tuple(_axis_order(n, ks, nu) for nu in range(1, n))
    return _chain_normalization(n, ks), axes, 1j * index.sign * index.chain[-1]


def normalization_constant(geometry: SphereGeometry, index: HarmonicIndex) -> float:
    """A_l^k making Y_l^k a unit vector in the Sigma_n-normalized inner product.

    A^2 = Sigma_n / (2 pi prod_nu h(k_{nu-1} - k_nu, (n-nu)/2 + k_nu)).
    Computed in log space; the azimuthal factor contributes the bare 2 pi.
    """
    return _plan(geometry.n, index)[0]


def axis_profile(geometry: SphereGeometry, index: HarmonicIndex, nu: int, thetas) -> np.ndarray:
    """The nu-th polar factor C_d^{lam_nu}(cos theta) sin^{k_nu}(theta) on an
    array of angles (normalization not included)."""
    _check_index(geometry.n, index)
    thetas = np.asarray(thetas, dtype=float)
    d, lam_nu, k_nu = _axis_order(geometry.n, (index.l,) + index.chain, nu)
    values = gegenbauer_table(lam_nu, d, np.cos(thetas))[d]
    if k_nu:
        values = values * np.sin(thetas) ** k_nu
    return values


def azimuth_profile(index: HarmonicIndex, phis) -> np.ndarray:
    """exp(sign * i k_{n-1} phi) on an array of azimuths."""
    phis = np.asarray(phis, dtype=float)
    return np.exp(1j * index.sign * index.chain[-1] * phis)


def harmonic_eval(
    geometry: SphereGeometry, index: HarmonicIndex, point: SphericalPoint
) -> complex:
    """Value of Y_l^k at a point of S^n, on Python floats: one recurrence
    per polar angle, up to the degree that angle needs.  The index's
    constants come from its cached plan."""
    value, axes, rate = _plan(geometry.n, index)
    if point.n != geometry.n:
        raise ValueError(f"point on S^{point.n} passed for S^{geometry.n}")
    for (d, lam_nu, k_nu), theta in zip(axes, point.thetas):
        *_, factor = gegenbauer_sequence(lam_nu, d, math.cos(theta))
        value *= factor * math.sin(theta) ** k_nu
    return value * cmath.exp(rate * point.phi)


def addition_kernel(geometry: SphereGeometry, l: int, x: SphericalPoint, y: SphericalPoint) -> float:
    """C_l^lambda(x . y); equals (lambda/(l+lambda)) sum_k conj(Y_l^k(x)) Y_l^k(y)."""
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got {l}")
    *_, value = gegenbauer_sequence(geometry.lam, l, dot(x, y))
    return value
