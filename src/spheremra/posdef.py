"""Positive definiteness of zonal kernels via their Gegenbauer coefficients.

A kernel G(x . y) = sum_l a_l C_l^lambda(x . y) is positive semidefinite on
the sphere exactly when every a_l >= 0.  Positive coefficients a_0..a_{L-1}
make the kernel strictly positive definite for every point set of at most L
points; strict positive definiteness for arbitrary point sets requires
infinitely many positive coefficients of each parity, so no finite expansion
qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .harmonics import SphericalPoint
from .specfun import ZonalSpectrum, zonal_eval

__all__ = ["PdClassification", "classify", "gramian_min_eigenvalue"]

# coefficients within this of zero count as zero
_COEFF_TOL = 1e-14

_GRAMIAN_POINT_CAP = 500


@dataclass(frozen=True)
class PdClassification:
    semidefinite: bool
    strict_up_to_cardinality: int
    strictly_pd: bool
    reason: str = "finite expansion"


def classify(spec: ZonalSpectrum) -> PdClassification:
    """Classify a finite zonal expansion.

    strict_up_to_cardinality L is the run of strictly positive leading
    coefficients (L = 0 unless the kernel is semidefinite at all): point sets
    of at most L points always produce nonsingular Gramians.
    """
    coeffs = spec.coeffs
    real_ok = np.all(np.abs(coeffs.imag) <= _COEFF_TOL)
    semidefinite = bool(real_ok and np.all(coeffs.real >= -_COEFF_TOL))
    cardinality = 0
    if semidefinite:
        for value in coeffs.real:
            if value > _COEFF_TOL:
                cardinality += 1
            else:
                break
    return PdClassification(semidefinite, cardinality, strictly_pd=False)


def gramian_min_eigenvalue(spec: ZonalSpectrum, points: Sequence[SphericalPoint]) -> float:
    """Smallest eigenvalue of [G(x_i . x_j)]_{ij} for a point configuration.

    Nonnegative for semidefinite kernels; strictly positive when the number
    of points stays within the kernel's cardinality guarantee.
    """
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    if len(points) > _GRAMIAN_POINT_CAP:
        raise ValueError(
            f"{len(points)} points exceed the {_GRAMIAN_POINT_CAP}-point cap"
        )
    if np.max(np.abs(spec.coeffs.imag)) > _COEFF_TOL:
        raise ValueError("Gramian analysis needs a real zonal kernel")
    if any(p.n != points[0].n for p in points):
        raise ValueError("points live on different spheres")
    coords = np.array([p.cartesian() for p in points])
    dots = np.clip(coords @ coords.T, -1.0, 1.0)
    gram = np.real(zonal_eval(spec, dots))
    return float(np.linalg.eigvalsh(gram)[0])
