"""The separable grid transform (FFT over phi, one table per polar axis)
against the dense reference basis, at levels the dense basis cannot reach,
and behind the node-cap guard."""

import numpy as np
import pytest

from spheremra import harmonics, mra, quadrature
from spheremra.harmonics import HarmonicIndex, SphereGeometry
from spheremra.mra import (
    GridSignal,
    Spectrum,
    analysis_constant,
    analyze,
    analyze_coeffs,
    space_degree_bound,
    space_indices,
    synthesize_on_grid,
)
from spheremra.oracle import grid_basis
from spheremra.quadrature import _NODE_CAP_ENV, grid_size, level_weights

# every level the dense basis reaches on this scale of machine
LADDER = [(n, j) for n, top in [(2, 6), (3, 4), (4, 3), (5, 2)] for j in range(1, top + 1)]


def counted(fn, calls):
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)

    return wrapper


def random_coeffs(geometry, j, rng):
    size = len(space_indices(geometry, j))
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def max_rel_error(got, ref):
    return float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("n,j", LADDER)
def test_synthesis_matches_dense_basis(n, j):
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(100 * n + j)
    coeffs = random_coeffs(geometry, j, rng)
    spectrum = Spectrum(geometry, j, dict(zip(space_indices(geometry, j), coeffs.tolist())))
    # the coarsest grid folds azimuthal frequencies once j >= 3
    for j_grid in sorted({j, j + 1, max(1, j - 2)}):
        _, basis = grid_basis(geometry, j_grid, space_degree_bound(j))
        got = synthesize_on_grid(spectrum, j_grid).values
        assert max_rel_error(got, coeffs @ basis) <= 1e-12, j_grid


@pytest.mark.parametrize("n,j", LADDER)
def test_analysis_matches_dense_basis(n, j):
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(200 * n + j)
    size = grid_size(geometry, j)
    # arbitrary samples, not a V_j function, so the adjoint is tested in full
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    indices, basis = grid_basis(geometry, j, space_degree_bound(j))
    ref = analysis_constant(geometry, j) * (basis.conj() @ (level_weights(geometry, j) * values))
    got = analyze(GridSignal(geometry, j, values)).vector(indices)
    assert max_rel_error(got, ref) <= 1e-12


@pytest.mark.parametrize("n,j", [(2, 8), (3, 6)])
def test_round_trip_beyond_the_dense_basis(n, j):
    geometry = SphereGeometry(n)
    rng = np.random.default_rng(300 * n + j)
    coeffs = random_coeffs(geometry, j, rng)
    indices = space_indices(geometry, j)
    spectrum = Spectrum(geometry, j, dict(zip(indices, coeffs.tolist())))
    back = analyze(synthesize_on_grid(spectrum, j)).vector(indices)
    assert max_rel_error(back, coeffs) <= 1e-10


def test_node_cap_fires_before_any_table(monkeypatch):
    geometry = SphereGeometry(2)
    signal = GridSignal(geometry, 3, np.ones(grid_size(geometry, 3)))
    spectrum = Spectrum(geometry, 2, {space_indices(geometry, 2)[0]: 1.0})
    mra._plan_cached.cache_clear()
    before = mra._plan_cached.cache_info()
    monkeypatch.setenv(_NODE_CAP_ENV, "100")
    with pytest.raises(ValueError, match="cap"):
        analyze(signal)
    with pytest.raises(ValueError, match="cap"):
        synthesize_on_grid(spectrum, 3)
    assert mra._plan_cached.cache_info() == before


def test_warm_analysis_checks_the_cap_once(monkeypatch):
    geometry, j = SphereGeometry(3), 3
    signal = GridSignal(geometry, j, np.ones(grid_size(geometry, j)))
    analyze_coeffs(signal)
    calls = []
    monkeypatch.setattr(quadrature, "node_cap", counted(quadrature.node_cap, calls))
    analyze_coeffs(signal)
    assert calls == ["node_cap"]


def test_grid_transforms_never_enumerate_indices(monkeypatch):
    """analyze and synthesize_on_grid pass the coefficient vector straight
    through and take their positions from the integer index table: neither
    lists I_j, even with the plan cache cold."""
    geometry, j = SphereGeometry(3), 3
    coeffs = random_coeffs(geometry, j, np.random.default_rng(11))
    mra._plan_cached.cache_clear()
    calls = []
    for module, name in [(mra, "space_indices"), (mra, "enumerate_indices"),
                         (harmonics, "enumerate_indices")]:
        monkeypatch.setattr(module, name, counted(getattr(module, name), calls))
    back = analyze(synthesize_on_grid(Spectrum(geometry, j, coeffs), j))
    assert calls == []
    assert max_rel_error(back.coeffs, coeffs) <= 1e-10


def test_one_row_spectrum_ranks_only_its_row(monkeypatch):
    """A mapping with one entry sets exactly its position, l^2 + 2k on S^2
    (sign -1), and lists none of I_j: neither the HarmonicIndex enumeration
    nor the integer index table is called."""
    calls = []
    for module in (harmonics, mra):
        for name in ("enumerate_indices", "index_table"):
            monkeypatch.setattr(module, name, counted(getattr(module, name), calls))
    monkeypatch.setattr(mra, "space_indices", counted(mra.space_indices, calls))
    spectrum = Spectrum(SphereGeometry(2), 11, {HarmonicIndex(1000, (37,), -1): 2.5 - 1j})
    assert calls == []
    assert np.flatnonzero(spectrum.coeffs).tolist() == [1000**2 + 2 * 37]
    assert spectrum.coeffs[1000**2 + 2 * 37] == 2.5 - 1j
