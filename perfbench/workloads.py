"""The three workloads: their op kinds, the fixed count of each kind per
block, input generation from the seed, and the output checks.

Every op's check returns one of three statuses:

    ok      output within the tolerance the package's tests use;
    failed  the op raised, exited non-zero, or produced non-finite output;
    wrong   finite output outside tolerance (the run is then not correct).

Package functions are always called through their module (``mra.analyze``,
not a bound name), so the tracer's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import eval_gegenbauer, gammaln, roots_gegenbauer

from spheremra import formats, harmonics, mra, posdef, specfun, transform, uncertainty, verify

OK, FAILED, WRONG = "ok", "failed", "wrong"

# the largest level of each sphere that fits the dense basis on this scale
# of machine (S^2 j=7 would need about 4.4 GB)
LADDER_TOPS = [(2, 6), (3, 4), (4, 3)]


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, float | None]]  # (status, relative error)


@dataclass
class Kind:
    name: str
    count: int  # ops of this kind in one block
    make: Callable[[np.random.Generator], Op]


def _compare(got, want, tol: float) -> tuple[str, float | None]:
    """Max-norm error relative to max(1, max |want|)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return WRONG, None
    if not np.all(np.isfinite(got)):
        return FAILED, None
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want))) / scale
    return (OK if err <= tol else WRONG), err


def _status(finite: bool, passed: bool) -> str:
    return OK if finite and passed else (FAILED if not finite else WRONG)


# ---------------------------------------------------------------------------
# the spectrum representation, in one place

def make_spectrum(n: int, j: int, coeffs: np.ndarray):
    geometry = harmonics.SphereGeometry(n)
    return mra.Spectrum(geometry, j, dict(zip(mra.space_indices(geometry, j), coeffs.tolist())))


def spectrum_coeffs(spectrum, n: int, j: int) -> np.ndarray:
    return spectrum.vector(mra.space_indices(harmonics.SphereGeometry(n), j))


def random_coeffs(n: int, j: int, rng: np.random.Generator) -> np.ndarray:
    size = len(mra.space_indices(harmonics.SphereGeometry(n), j))
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def random_point(n: int, rng: np.random.Generator):
    thetas = tuple(rng.uniform(0.15, math.pi - 0.15, size=n - 1).tolist())
    return harmonics.SphericalPoint(thetas, float(rng.uniform(0.0, 2.0 * math.pi)))


def band_pyramid(n: int, j: int, coeffs: np.ndarray):
    """The pyramid of a level-j signal built band by band from its spectrum,
    without the pyramid code: base = degree 0 on N_1, detail i = the degrees
    (2^(i-1)-1, 2^i-1] on N_(i+1)."""
    geometry = harmonics.SphereGeometry(n)
    indices = mra.space_indices(geometry, j)
    degrees = np.array([ix.l for ix in indices])

    def band(lo: int, hi: int, level: int):
        keep = (degrees > lo) & (degrees <= hi)
        entries = {ix: c for ix, c, k in zip(indices, coeffs.tolist(), keep) if k}
        return mra.synthesize_on_grid(mra.Spectrum(geometry, level, entries), level)

    base = band(-1, 0, 1)
    details = [
        band(mra.space_degree_bound(i), mra.space_degree_bound(i + 1), i + 1)
        for i in range(1, j)
    ]
    return transform.Pyramid(base, details)


# ---------------------------------------------------------------------------
# grid_warm: round trips and pyramids on the ladder tops, in process

POOL = 3  # inputs per case, drawn from the seed before timing starts


def _roundtrip_kind(n: int, j: int, count: int, rng: np.random.Generator) -> Kind:
    pool = [random_coeffs(n, j, rng) for _ in range(POOL)]

    def make(op_rng):
        coeffs = pool[op_rng.integers(POOL)]
        spectrum = make_spectrum(n, j, coeffs)
        return Op(
            f"roundtrip_s{n}_j{j}",
            lambda: mra.analyze(mra.synthesize_on_grid(spectrum, j)),
            lambda out: _compare(spectrum_coeffs(out, n, j), coeffs, 1e-10),
        )

    return Kind(f"roundtrip_s{n}_j{j}", count, make)


def _pyramid_kind(n: int, j: int, count: int, rng: np.random.Generator) -> Kind:
    pool = [mra.synthesize_on_grid(make_spectrum(n, j, random_coeffs(n, j, rng)), j) for _ in range(POOL)]

    def make(op_rng):
        signal = pool[op_rng.integers(POOL)]
        return Op(
            f"pyramid_s{n}_j{j}",
            lambda: transform.pyramid_reconstruct(transform.pyramid_decompose(signal, j - 1)),
            lambda out: _compare(out.values, signal.values, 1e-8),
        )

    return Kind(f"pyramid_s{n}_j{j}", count, make)


# ops per block.  Cache state sets most of the latency: an S^2 pyramid that
# follows other spheres' ops rebuilds every S^2 basis, one that follows S^2
# ops does not.  With one S^2 pyramid in 14 ops nearly all of them run cold,
# so the tail percentile falls inside one mode; the six S^3 pyramids hold
# the median.  A simulation of the 8-entry LRU over shuffled blocks chose
# these counts as the ones whose median and tail depend least on the order.
GRID_WARM_MIX = {
    "roundtrip": {2: 1, 3: 2, 4: 2},
    "pyramid": {2: 1, 3: 6, 4: 2},
}


def grid_warm(rng: np.random.Generator) -> list[Kind]:
    kinds = []
    for n, j in LADDER_TOPS:
        kinds.append(_roundtrip_kind(n, j, GRID_WARM_MIX["roundtrip"][n], rng))
        kinds.append(_pyramid_kind(n, j, GRID_WARM_MIX["pyramid"][n], rng))
    return kinds


# ---------------------------------------------------------------------------
# pointwise: scattered points and scalar paths, in process

def _certify_kind(n: int, count: int) -> Kind:
    def make(rng):
        seed = int(rng.integers(2**31))

        def check(report):
            measured = [r.measured for r in report.records]
            finite = bool(np.all(np.isfinite(measured)))
            err = max(r.deviation for r in report.records)
            return _status(finite, report.passed), err if finite else None

        return Op(f"certify_s{n}", lambda: verify.certify(ns=(n,), max_j=3, seed=seed), check)

    return Kind(f"certify_s{n}", count, make)


def _addition_kind(n: int, count: int) -> Kind:
    geometry = harmonics.SphereGeometry(n)
    lam = geometry.lam
    by_degree = [[ix for ix in harmonics.enumerate_indices(geometry, l) if ix.l == l] for l in range(9)]

    def make(rng):
        x, y = random_point(n, rng), random_point(n, rng)

        def run():
            gaps = []
            for l, indices in enumerate(by_degree):
                summed = sum(
                    np.conj(harmonics.harmonic_eval(geometry, ix, x)) * harmonics.harmonic_eval(geometry, ix, y)
                    for ix in indices
                )
                direct = harmonics.addition_kernel(geometry, l, x, y)
                gaps.append(abs(direct - (lam / (l + lam)) * summed))
            return max(gaps)

        def check(gap):
            finite = math.isfinite(gap)
            return _status(finite, gap <= 1e-9), gap if finite else None

        return Op(f"addition_s{n}", run, check)

    return Kind(f"addition_s{n}", count, make)


GRAM_POINTS, GRAM_DEGREE = 100, 16


def _gramian_kind(count: int) -> Kind:
    lam = 0.5  # S^2

    def make(rng):
        coeffs = rng.uniform(0.1, 1.0, size=GRAM_DEGREE + 1)
        spec = specfun.ZonalSpectrum(lam, coeffs)
        points = [random_point(2, rng) for _ in range(GRAM_POINTS)]

        def check(value):
            # reference from scipy's Gegenbauer values on the dot matrix
            xyz = np.array([p.cartesian() for p in points])
            dots = np.clip(xyz @ xyz.T, -1.0, 1.0)
            gram = sum(c * eval_gegenbauer(l, lam, dots) for l, c in enumerate(coeffs))
            eigs = np.linalg.eigvalsh(gram)
            if not math.isfinite(value):
                return FAILED, None
            err = abs(value - eigs[0]) / eigs[-1]
            return (OK if err <= 1e-9 and value >= -1e-9 * eigs[-1] else WRONG), err

        return Op("gramian_s2", lambda: posdef.gramian_min_eigenvalue(spec, points), check)

    return Kind("gramian_s2", count, make)


SYNTH_CASE, SYNTH_POINTS = (3, 3), 300


def _synthesize_kind(count: int) -> Kind:
    n, j = SYNTH_CASE

    def make(rng):
        spectrum = make_spectrum(n, j, random_coeffs(n, j, rng))
        points = [random_point(n, rng) for _ in range(SYNTH_POINTS)]

        def check(values):
            rebuild = mra.interpolatory_synthesis(mra.synthesize_on_grid(spectrum, j))
            return _compare(values, np.array([rebuild(p) for p in points]), 1e-8)

        return Op(f"synthesize_s{n}_j{j}", lambda: mra.synthesize(spectrum, points), check)

    return Kind(f"synthesize_s{n}_j{j}", count, make)


ZONAL_LAM, ZONAL_DEGREE = 1.0, 12


def _zonal_reference(coeffs: np.ndarray, lam: float) -> float:
    """Uncertainty product from Gauss-Gegenbauer quadrature of the moments:
    var_S = (E/D)^2 - 1 with E = int |f|^2 w, D = int t |f|^2 w, and var_M the
    energy average of l(l + 2 lam)."""
    nodes, weights = roots_gegenbauer(2 * len(coeffs) + 4, lam)
    table = np.array([eval_gegenbauer(l, lam, nodes) for l in range(len(coeffs))])
    f = coeffs @ table
    energy = np.sum(weights * np.abs(f) ** 2)
    moment = np.sum(weights * nodes * np.abs(f) ** 2)
    norms = (table**2) @ weights
    ls = np.arange(len(coeffs))
    var_space = (energy / moment) ** 2 - 1.0
    var_momentum = np.sum(ls * (ls + 2 * lam) * norms * np.abs(coeffs) ** 2) / np.sum(norms * np.abs(coeffs) ** 2)
    return math.sqrt(var_space * var_momentum)


def _zonal_kind(count: int) -> Kind:
    def make(rng):
        coeffs = rng.uniform(0.1, 1.0, size=ZONAL_DEGREE + 1)
        flip = int(rng.integers(1, ZONAL_DEGREE + 1))
        signed = coeffs.copy()
        signed[flip] = -signed[flip]
        spec, signed_spec = specfun.ZonalSpectrum(ZONAL_LAM, coeffs), specfun.ZonalSpectrum(ZONAL_LAM, signed)

        def run():
            return (
                uncertainty.uncertainty_product(spec),
                posdef.classify(spec),
                posdef.classify(signed_spec),
            )

        def check(out):
            report, pd, not_pd = out
            if not math.isfinite(report.product):
                return FAILED, None
            truth = _zonal_reference(coeffs, ZONAL_LAM)
            err = abs(report.product - truth) / truth
            classified = (
                pd.semidefinite and pd.strict_up_to_cardinality == len(coeffs)
                and not not_pd.semidefinite and not_pd.strict_up_to_cardinality == 0
            )
            return (OK if err <= 1e-9 and classified else WRONG), err

        return Op("zonal_report", run, check)

    return Kind("zonal_report", count, make)


# ops per block: the S^3 additions (about 35 ms) are five of 18 ops and
# hold the median; the Gramians (about 0.4 s) are the slowest tenth and hold
# the tail percentile
POINTWISE_MIX = {
    "certify": {2: 2, 3: 1},
    "addition": {2: 2, 3: 5, 4: 2},
    "gramian": 2,
    "synthesize": 2,
    "zonal": 2,
}


def pointwise(rng: np.random.Generator) -> list[Kind]:
    kinds = [_certify_kind(n, c) for n, c in POINTWISE_MIX["certify"].items()]
    kinds += [_addition_kind(n, c) for n, c in POINTWISE_MIX["addition"].items()]
    kinds.append(_gramian_kind(POINTWISE_MIX["gramian"]))
    kinds.append(_synthesize_kind(POINTWISE_MIX["synthesize"]))
    kinds.append(_zonal_kind(POINTWISE_MIX["zonal"]))
    return kinds


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m spheremra.cli` per op


@dataclass
class Child:
    """What the spawner reports for one child process."""

    rc: int
    wall_s: float
    maxrss_kb: int
    spans: str | None  # span summary file of a traced child


def _read_signal(path: str) -> np.ndarray:
    with open(path) as handle:
        obj = json.load(handle)
    return np.array([complex(re, im) for re, im in obj["values"]])


def _read_pyramid(path: str) -> np.ndarray:
    with open(path) as handle:
        obj = json.load(handle)
    parts = [obj["base"]] + obj["details"]
    return np.concatenate([[complex(re, im) for re, im in part["values"]] for part in parts])


def _read_spectrum(path: str, n: int, j: int) -> np.ndarray:
    with open(path) as handle:
        obj = json.load(handle)
    got = {(row["l"], tuple(row["k"]), row["sign"]): complex(row["re"], row["im"]) for row in obj["entries"]}
    indices = mra.space_indices(harmonics.SphereGeometry(n), j)
    return np.array([got.get((ix.l, ix.chain, ix.sign), 0.0) for ix in indices])  # absent = zero


def _child_check(reader: Callable[[str], np.ndarray], out_path: str, want, tol: float = 1e-9):
    def check(child: Child):
        if child.rc != 0:
            return FAILED, None
        try:
            got = reader(out_path)
        except (OSError, ValueError, KeyError, TypeError):
            return FAILED, None
        return _compare(got, want, tol)

    return check


def _sine_power_integral(alpha: int) -> float:
    """int_0^pi sin^alpha = sqrt(pi) Gamma((alpha+1)/2) / Gamma(alpha/2 + 1)."""
    return math.exp(0.5 * math.log(math.pi) + gammaln((alpha + 1) / 2.0) - gammaln(alpha / 2.0 + 1.0))


def _weights_check(out_path: str, order: int, alpha: int):
    def check(child: Child):
        if child.rc != 0:
            return FAILED, None
        try:
            with open(out_path) as handle:
                rows = list(csv.DictReader(handle))
            nodes = np.array([float(r["node"]) for r in rows])
            chi = np.array([float(r["chi"]) for r in rows])
        except (OSError, ValueError, KeyError):
            return FAILED, None
        if len(rows) != order + 1:
            return WRONG, None
        if not (np.all(np.isfinite(chi)) and np.all(np.isfinite(nodes))):
            return FAILED, None
        truth = _sine_power_integral(alpha)
        err = max(
            abs(math.fsum(chi) - truth) / truth,
            float(np.max(np.abs(nodes - np.cos(np.arange(order + 1) * np.pi / order)))),
        )
        return (OK if err <= 1e-9 else WRONG), err

    return check


def _verify_check(child: Child):
    if child.rc == 2:
        return WRONG, None
    return (OK if child.rc == 0 else FAILED), None


# one op of every case per block: 21 ops, about 20 s, so a 30 s run holds
# two blocks and the tail is the 11th largest of 42 (about p76).  The
# latencies form a continuum from 0.6 to 1.4 s; the median falls among the
# S^3 and S^4 transforms and the tail among the M=4096 weights and the S^2
# synthesis, with the slower S^2 analyze, decompose and reconstruct above it.
CLI_WEIGHTS = [(order, alpha) for order in (1024, 4096) for alpha in (1, 2, 3, 4)]


def cli_cold(rng: np.random.Generator, workdir: str, launch: Callable[[list[str], str], Child]) -> list[Kind]:
    """`launch(cli_args, tag)` runs one child and returns its Child record."""
    kinds = []

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def fixed(name: str, argv: list[str], check) -> Kind:
        """A case whose every op runs the same command on the same input."""
        op = Op(name, lambda: launch(argv, name), check)
        return Kind(name, 1, lambda rng: op)

    for n, j in LADDER_TOPS:
        coeffs = random_coeffs(n, j, rng)
        spectrum = make_spectrum(n, j, coeffs)
        signal = mra.synthesize_on_grid(spectrum, j)
        pyramid = band_pyramid(n, j, coeffs)
        tag = f"s{n}_j{j}"
        inputs = {
            "signal": (formats.signal_to_json(signal), f"signal_{tag}.json"),
            "spectrum": (formats.spectrum_to_json(spectrum), f"spectrum_{tag}.json"),
            "pyramid": (formats.pyramid_to_json(pyramid), f"pyramid_{tag}.json"),
        }
        for text, name in inputs.values():
            with open(path(name), "w") as handle:
                handle.write(text)
        flat_pyramid = np.concatenate([pyramid.base.values] + [d.values for d in pyramid.details])
        cases = [
            ("analyze", ["--in", path(f"signal_{tag}.json")], f"spec_out_{tag}.json",
             lambda p, n=n, j=j: _read_spectrum(p, n, j), coeffs),
            ("synthesize", ["--in", path(f"spectrum_{tag}.json"), "--grid", str(j)], f"sig_out_{tag}.json",
             _read_signal, signal.values),
            ("decompose", ["--in", path(f"signal_{tag}.json"), "--levels", str(j - 1)], f"pyr_out_{tag}.json",
             _read_pyramid, flat_pyramid),
            ("reconstruct", ["--in", path(f"pyramid_{tag}.json")], f"rec_out_{tag}.json",
             _read_signal, signal.values),
        ]
        for command, args, out_name, reader, want in cases:
            argv = [command] + args + ["--out", path(out_name)]
            kinds.append(fixed(f"{command}_{tag}", argv, _child_check(reader, path(out_name), want)))

    for order, alpha in CLI_WEIGHTS:
        name = f"weights_M{order}_a{alpha}"
        argv = ["weights", "--M", str(order), "--alpha", str(alpha), "--out", path(f"{name}.csv")]
        kinds.append(fixed(name, argv, _weights_check(path(f"{name}.csv"), order, alpha)))

    def make_verify(rng):
        argv = ["verify", "--n", "2,3", "--max-j", "3", "--seed", str(int(rng.integers(2**31)))]
        return Op("verify", lambda: launch(argv, "verify"), _verify_check)

    kinds.append(Kind("verify", 1, make_verify))
    return kinds
