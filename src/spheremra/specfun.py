"""Gegenbauer (ultraspherical) polynomials and zonal expansions.

The polynomials C_l^lambda are generated by (1 - 2tr + r^2)^(-lambda) and are
orthogonal on [-1, 1] with respect to w(t) = (1 - t^2)^(lambda - 1/2).  This
module evaluates them by the three-term recurrence, provides the closed-form
endpoint values and 1-d norms, and evaluates zonal functions from their
Gegenbauer coefficient sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.special import gammaln

__all__ = [
    "GegenbauerParams",
    "ZonalSpectrum",
    "gegenbauer",
    "gegenbauer_sequence",
    "gegenbauer_table",
    "gegenbauer_at_one",
    "gegenbauer_norm_1d",
    "zonal_eval",
]

# Arguments a hair outside [-1, 1] (dot products of unit vectors) are clamped;
# anything beyond this slack is a caller error.
_DOMAIN_SLACK = 1e-10


@dataclass(frozen=True)
class GegenbauerParams:
    """Order lambda > 0 and degree l >= 0 of a single polynomial C_l^lambda."""

    lam: float
    degree: int

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"order lambda must be positive, got {self.lam}")
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")


@dataclass
class ZonalSpectrum:
    """Coefficient sequence of a zonal function sum_l f_l C_l^lambda.

    coeffs[l] multiplies C_l^lambda; missing trailing degrees are zero.
    """

    lam: float
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"order lambda must be positive, got {self.lam}")
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1


def _check_domain(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _DOMAIN_SLACK):
        worst = float(np.max(np.abs(t)))
        raise ValueError(f"argument outside [-1, 1]: |t| = {worst}")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_sequence(lam: float, max_degree: int, t) -> Iterator:
    """C_0^lambda(t), ..., C_max_degree^lambda(t), one at a time, by the
    three-term recurrence (l+1) C_{l+1} = 2(l+lambda) t C_l - (l+2lambda-1) C_{l-1}.

    t is a Python float or a float array, taken as given (no domain check).
    Every step is elementwise, so an array gives, entry by entry, the bits a
    float gives.
    """
    prev = 1.0
    yield prev
    if max_degree >= 1:
        cur = 2.0 * lam * t
        yield cur
        for l in range(1, max_degree):
            prev, cur = cur, (2.0 * (l + lam) * t * cur - (l + 2.0 * lam - 1.0) * prev) / (l + 1.0)
            yield cur


def gegenbauer_table(lam: float, max_degree: int, t) -> np.ndarray:
    """Values of C_l^lambda(t) for every l = 0..max_degree.

    Returns an array of shape (max_degree + 1,) + shape(t).  The recurrence of
    gegenbauer_sequence is stable on [-1, 1] and is used directly, including
    at the endpoints.  Row l does not depend on max_degree.
    """
    return _table_rows(lam, max_degree, _check_domain(t))


def _table_rows(lam: float, max_degree: int, t: np.ndarray) -> np.ndarray:
    """gegenbauer_table on t already checked and clamped to [-1, 1]."""
    if not lam > 0:
        raise ValueError(f"order lambda must be positive, got {lam}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    out = np.empty((max_degree + 1,) + t.shape, dtype=float)
    for l, value in enumerate(gegenbauer_sequence(lam, max_degree, t)):
        out[l] = value
    return out


def gegenbauer(params: GegenbauerParams, t):
    """Evaluate C_l^lambda at scalar or array t in [-1, 1]."""
    table = gegenbauer_table(params.lam, params.degree, np.asarray(t, dtype=float))
    value = table[params.degree]
    return float(value) if np.ndim(t) == 0 else value


def gegenbauer_at_one(params: GegenbauerParams) -> float:
    """C_l^lambda(1) = binom(l + 2 lambda - 1, l), valid for any real order."""
    l, lam = params.degree, params.lam
    if l == 0:
        return 1.0
    # Gamma(l + 2 lam) / (Gamma(2 lam) l!)
    return math.exp(gammaln(l + 2.0 * lam) - gammaln(2.0 * lam) - gammaln(l + 1.0))


def gegenbauer_norm_1d(params: GegenbauerParams) -> float:
    """Squared weighted L2 norm h(l, lambda) of C_l^lambda on [-1, 1].

    h(l, lambda) = pi 2^(1-2 lambda) Gamma(l + 2 lambda)
                   / (l! (l + lambda) Gamma(lambda)^2).
    """
    l, lam = params.degree, params.lam
    log_h = (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + gammaln(l + 2.0 * lam)
        - gammaln(l + 1.0)
        - math.log(l + lam)
        - 2.0 * gammaln(lam)
    )
    return math.exp(log_h)


def zonal_eval(spec: ZonalSpectrum, t):
    """Evaluate sum_l coeffs[l] C_l^lambda(t) at scalar or array t."""
    t_arr = _check_domain(t)
    table = _table_rows(spec.lam, spec.max_degree, t_arr)
    value = np.tensordot(spec.coeffs, table, axes=(0, 0))
    return complex(value) if np.ndim(t) == 0 else value
