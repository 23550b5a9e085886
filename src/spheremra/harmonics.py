"""Hyperspherical harmonics on S^n embedded in R^(n+1).

Points are polar angles (theta_1, ..., theta_{n-1}, phi) with theta_nu in
[0, pi] and phi in [0, 2 pi); the surface element carries the weight
sin^{n-1}(theta_1) ... sin(theta_{n-1}).  An orthonormal basis of the degree-l
harmonics is indexed by monotone chains l = k_0 >= k_1 >= ... >= k_{n-1} >= 0
plus a sign on the azimuthal frequency k_{n-1}:

    Y_l^k = A_l^k  prod_nu C_{k_{nu-1}-k_nu}^{(n-nu)/2 + k_nu}(cos theta_nu)
            sin^{k_nu}(theta_nu)  *  exp(+/- i k_{n-1} phi).

Inner products are normalized by the total measure Sigma_n of S^n, so
<Y, Y> = 1 with A_l^k fixed by the 1-d Gegenbauer norms.  Values come from
one normalised recurrence in two forms, with the constants of _axis_constants
and one order of operations: _axis_table on arrays (mra's grids and point
sets) and harmonic_eval on Python floats.  Neither forms A_l^k or C sin^k,
which overflow at the top of the ladder; normalization_constant serves the
unnormalised reference.

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


def _check_index(n: int, index: HarmonicIndex) -> None:
    if len(index.chain) != n - 1:
        raise ValueError(f"index chain length {len(index.chain)} incompatible with S^{n}")


def _chain_normalization(n: int, ks: Sequence[int]) -> float:
    """A_l^k from the chain (k_0 = l, k_1, ..., k_(n-1)) on S^n."""
    log_a2 = math.log(total_measure(n)) - math.log(2.0 * math.pi)
    for nu in range(1, n):
        log_a2 -= math.log(gegenbauer_norm_1d(GegenbauerParams((n - nu) / 2.0 + ks[nu], ks[nu - 1] - ks[nu])))
    return math.exp(0.5 * log_a2)


def normalization_constant(geometry: SphereGeometry, index: HarmonicIndex) -> float:
    """A_l^k making Y_l^k a unit vector in the Sigma_n-normalized inner product:
    A^2 = Sigma_n / (2 pi prod_nu h(k_{nu-1} - k_nu, (n-nu)/2 + k_nu)), in log space."""
    _check_index(geometry.n, index)
    return _chain_normalization(geometry.n, (index.l,) + index.chain)


# ---------------------------------------------------------------------------
# the normalised recurrence: its constants, the table form and the scalar form

def _harmonic_scale(geometry: SphereGeometry) -> float:
    """sqrt(Sigma_n / 2 pi): the part of A_l^k that no polar factor carries."""
    return math.sqrt(geometry.measure / (2.0 * math.pi))


def _step_up(d, lam, sqrt=np.sqrt):
    """up in the step P_(d+1) = up t P_d - down P_(d-1) at order lam; on floats pass math.sqrt."""
    return 2.0 * sqrt((d + lam) * (d + lam + 1.0) / ((d + 1.0) * (d + 2.0 * lam)))


def _step_down(d, lam, sqrt=np.sqrt):
    """down in that step, d >= 1."""
    return sqrt(d * (d + 2.0 * lam - 1.0) * (d + lam + 1.0) / ((d + 1.0) * (d + 2.0 * lam) * (d + lam - 1.0)))


# Pointwise traffic (S^2 to S^4, k_nu + degree <= 8) is 3 * 45 keys; a table adds one per axis.
@lru_cache(maxsize=1024)
def _axis_constants(base_order: float, order: int, degree: int) -> tuple:
    """_axis_table's constants for one polar factor, as Python floats: the
    diagonal's start 1/sqrt(h(0, base_order)) and its ratios sqrt((lam+1)/(lam+1/2))
    from order b-1 to b, lam = base_order + b - 1, b = 1..order; then (up, down)
    per degree step, down = 0 at the first (0 * 0 keeps the bits)."""
    start = 1.0 / math.sqrt(gegenbauer_norm_1d(GegenbauerParams(base_order, 0)))
    ratios = tuple(math.sqrt((base_order + b + 1.0) / (base_order + b + 0.5)) for b in range(order))
    lam = base_order + order
    return start, ratios, tuple(
        (_step_up(d, lam, math.sqrt), _step_down(d, lam, math.sqrt) if d else 0.0) for d in range(degree)
    )


def _axis_table(base_order: float, max_degree: int, thetas: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Normalised polar factors of one axis, T[i, a, s] for the ascending
    orders b = orders[i] (values of k_nu) and degrees a = k_(nu-1) up to
    max_degree:

        C_(a-b)^(base_order+b)(cos theta_s) sin^b(theta_s) / sqrt(h(a-b, base_order+b)),

    zero where a < b.  Both recurrences run on normalised values (the
    diagonal through h(0, lam) / h(0, lam+1) = (lam+1)/(lam+1/2) for every
    b up to the largest order, the degree through the normalised three-term
    recurrence for the given orders alone), so the unnormalised product
    C sin^b, which overflows and underflows at high degree, never appears.
    At step d the orders with room below max_degree are a prefix of `orders`.
    """
    size, count = max_degree + 1, len(orders)
    t, sine = np.cos(thetas), np.sin(thetas)
    start, ratios, _ = _axis_constants(base_order, int(orders[-1]), 0)
    diagonal = np.empty((orders[-1] + 1, len(thetas)))
    diagonal[0] = start
    for b, ratio in enumerate(ratios, start=1):
        diagonal[b] = diagonal[b - 1] * sine * ratio
    table = np.zeros((count, size, len(thetas)))
    # rows of the flat view: (i, a) sits at i * size + a, so (i, orders[i] + d) at starts + d
    flat = table.reshape(count * size, len(thetas))
    starts = np.arange(count) * size + orders
    flat[starts] = diagonal[orders]
    lams = base_order + orders
    room = np.searchsorted(orders, max_degree - np.arange(max_degree - orders[0]))
    for d, c in enumerate(room.tolist()):
        # degree d -> d+1 for the first c orders, the ones below max_degree - d
        at, lb = starts[:c] + d, lams[:c]
        flat[at + 1] = _step_up(d, lb)[:, None] * t * flat[at]
        if d:
            flat[at + 1] -= _step_down(d, lb)[:, None] * flat[at - 1]
    return table


# Pointwise traffic, degree <= 8 on S^2, S^3 and S^4, is 81 + 285 + 825 = 1191
# plans; the bound holds S^5's 2079 besides (a sweep past the bound always misses).
@lru_cache(maxsize=4096)
def _plan(n: int, index: HarmonicIndex) -> tuple[float, tuple, int]:
    """What one harmonic's value needs from its index alone: sqrt(Sigma_n /
    2 pi), the _axis_constants of each polar factor nu = 1..n-1 and the
    signed azimuthal frequency.  An index of the wrong chain length raises
    and is not cached."""
    _check_index(n, index)
    ks = (index.l,) + index.chain
    axes = tuple(_axis_constants((n - nu) / 2.0, ks[nu], ks[nu - 1] - ks[nu]) for nu in range(1, n))
    return _harmonic_scale(SphereGeometry(n)), axes, index.sign * index.chain[-1]


def harmonic_eval(geometry: SphereGeometry, index: HarmonicIndex, point: SphericalPoint) -> complex:
    """Value of Y_l^k at a point of S^n: _axis_table's recurrences on Python
    floats, per polar angle up to the degree that angle needs, in the order
    of operations of mra's batched point basis, whose values it gives."""
    scale, axes, frequency = _plan(geometry.n, index)
    if point.n != geometry.n:
        raise ValueError(f"point on S^{point.n} passed for S^{geometry.n}")
    value = scale * cmath.exp(1j * (frequency * point.phi))
    for (start, ratios, steps), theta in zip(axes, point.thetas):
        t, sine = math.cos(theta), math.sin(theta)
        prev, cur = 0.0, start
        for ratio in ratios:
            cur = cur * sine * ratio
        for up, down in steps:
            prev, cur = cur, up * t * cur - down * prev
        value *= cur
    return value


def axis_profile(geometry: SphereGeometry, index: HarmonicIndex, nu: int, thetas) -> np.ndarray:
    """The nu-th polar factor C_d^{lam_nu}(cos theta) sin^{k_nu}(theta) on an
    array of angles (normalization not included)."""
    _check_index(geometry.n, index)
    thetas = np.asarray(thetas, dtype=float)
    n, ks = geometry.n, (index.l,) + index.chain
    d, lam_nu, k_nu = ks[nu - 1] - ks[nu], (n - nu) / 2.0 + ks[nu], ks[nu]
    values = gegenbauer_table(lam_nu, d, np.cos(thetas))[d]
    if k_nu:
        values = values * np.sin(thetas) ** k_nu
    return values


def azimuth_profile(index: HarmonicIndex, phis) -> np.ndarray:
    """exp(sign * i k_{n-1} phi) on an array of azimuths."""
    phis = np.asarray(phis, dtype=float)
    return np.exp(1j * index.sign * index.chain[-1] * phis)


def addition_kernel(geometry: SphereGeometry, l: int, x: SphericalPoint, y: SphericalPoint) -> float:
    """C_l^lambda(x . y); equals (lambda/(l+lambda)) sum_k conj(Y_l^k(x)) Y_l^k(y)."""
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got {l}")
    *_, value = gegenbauer_sequence(geometry.lam, l, dot(x, y))
    return value
