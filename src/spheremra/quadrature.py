"""Exact trigonometric quadrature on equiangular spherical grids.

For integer alpha >= 1 the rule with nodes theta_u = u pi / M, u = 0..M,
integrates int_0^pi f(cos theta) sin^alpha(theta) dtheta exactly whenever f is
a polynomial of degree <= M.  Its weights are

    chi_u = eps_u omega_u,
    omega_u = (pi alpha! / (2^(alpha-1) M))
              sum_{mu=0}^{floor(M/2)} eps_{2mu} (-1)^mu cos(2 mu u pi / M)
              / (Gamma(alpha/2 - mu + 1) Gamma(alpha/2 + mu + 1)),

with eps_k = 1/2 at k in {0, M} and 1 otherwise; reciprocal-gamma factors at
pole arguments are zero, which silently drops those summands.  For odd alpha
the two reciprocal gammas overflow and underflow together once mu passes
about 170; those summands come from the reflection formula, with
x = mu - alpha/2,

    1 / (Gamma(alpha/2 - mu + 1) Gamma(alpha/2 + mu + 1))
        = (-1)^((alpha+1)/2 - mu) / (pi x (x+1) ... (x+alpha)),

which keeps every weight finite.  Tensor products
of these rules over the polar axes (alpha = n - nu on axis nu) together with
the uniform azimuthal sum make up the level-j grids N_j.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import rgamma

from .harmonics import SphereGeometry

__all__ = [
    "QuadratureRule",
    "make_rule",
    "integrate",
    "single_frequency_integral",
    "grid_shape",
    "grid_axes",
    "checked_grid_shape",
    "grid_size",
    "level_weights",
    "node_cap",
]

_NODE_CAP_ENV = "SPHEREMRA_NODE_CAP"
_DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes u pi / M and weights chi_u of the sin^alpha rule of order M."""

    order: int
    alpha: int
    nodes: np.ndarray
    weights: np.ndarray


def _reflected_tail(alpha: int, nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lost, tail): lost marks the nu where the plain product of reciprocal
    gammas fails, and tail holds (-1)^nu / (Gamma(alpha/2 - nu + 1)
    Gamma(alpha/2 + nu + 1)) at those nu.

    That happens only for odd alpha, once the second factor leaves the normal
    float range (the product then loses digits, or turns inf * 0); for even
    alpha the first factor sits on a pole there and the product is exactly
    zero.  For odd alpha and x = nu - alpha/2 > 0 the reflection formula
    turns the value into (-1)^((alpha+1)/2) Gamma(x) / (pi Gamma(x + alpha + 1))
    = (-1)^((alpha+1)/2) / (pi x (x+1) ... (x+alpha)), a product of alpha + 1
    factors that is accurate to a few ulps.
    """
    lost = bool(alpha % 2) & (np.abs(rgamma(alpha / 2.0 + nus + 1.0)) < np.finfo(float).tiny)
    sign = -1.0 if (alpha + 1) // 2 % 2 else 1.0
    x = nus[lost] - alpha / 2.0
    with np.errstate(over="ignore"):  # an overflowing product is a zero term
        rising = np.prod(x[:, None] + np.arange(alpha + 1), axis=1)
    return lost, sign / (math.pi * rising)


def _rule_series(order: int, alpha: int) -> np.ndarray:
    """eps_{2 mu} (-1)^mu / (Gamma(alpha/2 - mu + 1) Gamma(alpha/2 + mu + 1))
    for mu = 0..floor(M/2)."""
    m = order
    mus = np.arange(m // 2 + 1)
    eps = np.where((mus == 0) | (2 * mus == m), 0.5, 1.0)
    with np.errstate(invalid="ignore"):  # inf * 0 in the tail, replaced below
        series = eps * (-1.0) ** mus * rgamma(alpha / 2.0 - mus + 1.0) * rgamma(alpha / 2.0 + mus + 1.0)
    lost, tail = _reflected_tail(alpha, mus)
    series[lost] = eps[lost] * tail
    return series


@lru_cache(maxsize=32)
def _cached_rule(order: int, alpha: int) -> QuadratureRule:
    m = order
    u = np.arange(m + 1)
    mus = np.arange(m // 2 + 1)
    series = _rule_series(m, alpha)
    cosines = np.cos(2.0 * np.pi * np.outer(u, mus) / m)
    omega = (math.pi * math.factorial(alpha) / (2.0 ** (alpha - 1) * m)) * (cosines @ series)
    eps_u = np.where((u == 0) | (u == m), 0.5, 1.0)
    rule = QuadratureRule(m, alpha, u * np.pi / m, eps_u * omega)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def make_rule(order: int, alpha: int) -> QuadratureRule:
    """Quadrature rule of order M >= 1 for the weight sin^alpha, alpha >= 1."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if alpha < 1:
        raise ValueError(f"sine power alpha must be >= 1, got {alpha}")
    return _cached_rule(order, alpha)


def integrate(rule: QuadratureRule, samples) -> float | complex:
    """sum_u chi_u f(cos(u pi / M)) for samples f(cos theta_u) in node order."""
    samples = np.asarray(samples)
    if samples.shape != rule.nodes.shape:
        raise ValueError(
            f"expected {rule.nodes.shape[0]} samples for order {rule.order}, "
            f"got {samples.shape}"
        )
    value = np.dot(rule.weights, samples)
    return complex(value) if np.iscomplexobj(samples) else float(value)


def single_frequency_integral(mu: int, alpha: int) -> float:
    """int_0^pi cos(mu theta) sin^alpha(theta) dtheta for integers mu >= 0, alpha >= 1.

    Equals pi alpha! cos(mu pi / 2) / (2^alpha Gamma((alpha-mu+2)/2)
    Gamma((alpha+mu+2)/2)); zero for odd mu, and for even mu > alpha when
    alpha is even.  The parity factor cos(mu pi / 2) is applied exactly.
    """
    if mu < 0:
        raise ValueError(f"frequency must be nonnegative, got {mu}")
    if alpha < 1:
        raise ValueError(f"sine power alpha must be >= 1, got {alpha}")
    if mu % 2:
        return 0.0
    sign = -1.0 if (mu // 2) % 2 else 1.0
    lost, tail = _reflected_tail(alpha, np.array([mu // 2]))
    if lost[0]:
        return math.pi * math.factorial(alpha) / 2.0**alpha * float(tail[0])
    return (
        math.pi
        * math.factorial(alpha)
        * sign
        / 2.0**alpha
        * rgamma((alpha - mu + 2) / 2.0)
        * rgamma((alpha + mu + 2) / 2.0)
    )


def node_cap() -> int:
    """Grid-size guard; override with the SPHEREMRA_NODE_CAP variable."""
    raw = os.environ.get(_NODE_CAP_ENV)
    if raw is None:
        return _DEFAULT_NODE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_NODE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{_NODE_CAP_ENV} must be positive, got {cap}")
    return cap


def grid_shape(geometry: SphereGeometry, j: int) -> tuple[int, ...]:
    """(M+1, ..., M+1, 2M) with M = 2^j: polar axes then the azimuth.

    Grid order is the C order of this index box: polar indices vary slowest,
    the azimuth index fastest.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    m = 2**j
    return (m + 1,) * (geometry.n - 1) + (2 * m,)


def grid_size(geometry: SphereGeometry, j: int) -> int:
    return math.prod(grid_shape(geometry, j))


def checked_grid_shape(geometry: SphereGeometry, j: int) -> tuple[int, ...]:
    """grid_shape, after the node-cap guard.  Everything that allocates per
    node calls this first, outside any cache, so a result cached under a
    generous cap cannot dodge a later, tighter one.  N_j has over
    2^max(j, n) nodes, so a level or a dimension past the cap's bit length is
    refused before any integer of that size is formed."""
    cap = node_cap()
    if max(j, geometry.n) > cap.bit_length() or grid_size(geometry, j) > cap:
        raise ValueError(
            f"level-{j} grid on S^{geometry.n} has more nodes than the cap {cap}; "
            f"raise {_NODE_CAP_ENV} to override"
        )
    return grid_shape(geometry, j)


def grid_axes(geometry: SphereGeometry, j: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Polar node vectors (one per axis, all s pi / 2^j) and azimuth nodes t pi / 2^j."""
    m = 2**j
    checked_grid_shape(geometry, j)
    thetas = [np.arange(m + 1) * np.pi / m for _ in range(geometry.n - 1)]
    phis = np.arange(2 * m) * np.pi / m
    return thetas, phis


def level_weights(geometry: SphereGeometry, j: int) -> np.ndarray:
    """All chi products of N_j, flattened in grid order (read-only)."""
    checked_grid_shape(geometry, j)
    return _level_weights_cached(geometry, j)


@lru_cache(maxsize=32)
def _level_weights_cached(geometry: SphereGeometry, j: int) -> np.ndarray:
    shape = grid_shape(geometry, j)
    m = 2**j
    flat = np.ones(1)
    for nu in range(1, geometry.n):
        flat = np.outer(flat, make_rule(m, geometry.n - nu).weights).ravel()
    flat = np.repeat(flat, shape[-1])
    flat.setflags(write=False)
    return flat
