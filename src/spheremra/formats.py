"""JSON wire formats for signals, spectra, pyramids, and zonal expansions.

Writers are hand-rolled so every float is emitted with %.17g (negative zero
as -0.0; lossless round-trip, byte-identical reruns) and refuse a non-finite
value.  The spectrum writer emits one row for every index of I_j, in
enumeration order; the reader takes any subset, an absent index being zero.
Readers accept anything json.loads produces for those documents, except
non-finite numbers (NaN, Infinity and literals that overflow a float), pairs
that are not an (N, 2) array of numbers, spectrum rows whose l, k or sign is
not a JSON integer or whose re or im is not a JSON number, a header n or
j that is not a JSON integer, a lambda that is not a JSON number, a repeated
spectrum index and nesting too deep to parse; each raises ValueError.

    GridSignal    {"n": 2, "j": 3, "values": [[re, im], ...]}   grid order
    Spectrum      {"n": 2, "j": 3, "entries": [{"l": 0, "k": [0], "sign": 1,
                   "re": ..., "im": ...}, ...]}                 enumeration order
    Pyramid       {"base": <signal>, "details": [<signal>, ...]}
    ZonalSpectrum {"lambda": 0.5, "coeffs": [[re, im], ...]}    coeffs[l] ~ C_l
"""

from __future__ import annotations

import json
import math

import numpy as np

from .harmonics import HarmonicIndex, SphereGeometry, index_table
from .mra import GridSignal, Spectrum, space_degree_bound
from .specfun import ZonalSpectrum
from .transform import Pyramid

__all__ = [
    "format_float",
    "signal_to_json",
    "signal_from_json",
    "spectrum_to_json",
    "spectrum_from_json",
    "pyramid_to_json",
    "pyramid_from_json",
    "zonal_to_json",
    "zonal_from_json",
]


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value} in the output")
    # "-0" would read back as the integer 0 and lose the sign
    return "-0.0" if value == 0.0 and math.copysign(1.0, value) < 0 else format(value, ".17g")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} in input")
    return value


def _loads(text: str):
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except RecursionError as exc:
        raise ValueError("input nests too deeply to parse") from exc


def _complex_pairs(raw, name: str) -> np.ndarray:
    """[[re, im], ...] as a complex vector.  Anything but an (N, 2) array of
    numbers (number strings, null, ragged rows, integers too large for a
    float) raises ValueError."""
    try:
        pairs = np.asarray(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must be [re, im] pairs: {exc}") from exc
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{name} must be an (N, 2) array of numbers")
    return np.ascontiguousarray(pairs, dtype=float).view(complex).ravel()


def _pair_rows(values: np.ndarray, indent: str) -> str:
    rows = [
        f"{indent}[{format_float(v.real)}, {format_float(v.imag)}]" for v in values
    ]
    return ",\n".join(rows)


def signal_to_json(signal: GridSignal) -> str:
    body = _pair_rows(signal.values, "    ")
    return (
        "{\n"
        f'  "n": {signal.geometry.n},\n'
        f'  "j": {signal.j},\n'
        '  "values": [\n'
        f"{body}\n"
        "  ]\n"
        "}\n"
    )


def _signal_from_obj(obj: dict) -> GridSignal:
    try:
        n, j, raw = _json_int(obj["n"], "n"), _json_int(obj["j"], "j"), obj["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc
    return GridSignal(SphereGeometry(n), j, _complex_pairs(raw, "values"))


def signal_from_json(text: str) -> GridSignal:
    return _signal_from_obj(_loads(text))


def spectrum_to_json(spectrum: Spectrum) -> str:
    rows = []
    table = index_table(spectrum.geometry.n, space_degree_bound(spectrum.j))
    for (l, *chain, sign), value in zip(table.tolist(), spectrum.coeffs.tolist()):
        ks = ", ".join(str(k) for k in chain)
        rows.append(
            f'    {{"l": {l}, "k": [{ks}], "sign": {sign}, '
            f'"re": {format_float(value.real)}, "im": {format_float(value.imag)}}}'
        )
    body = ",\n".join(rows)
    return (
        "{\n"
        f'  "n": {spectrum.geometry.n},\n'
        f'  "j": {spectrum.j},\n'
        '  "entries": [\n'
        f"{body}\n"
        "  ]\n"
        "}\n"
    )


def _json_int(value, name: str) -> int:
    """A JSON integer; a bool, a float or a string is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def _json_number(value, name: str) -> float:
    """A JSON number, integer or float; a bool or a string is refused."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    return float(value)


def spectrum_from_json(text: str) -> Spectrum:
    obj = _loads(text)
    try:
        n, j = _json_int(obj["n"], "n"), _json_int(obj["j"], "j")
        entries: dict[HarmonicIndex, complex] = {}
        for row in obj["entries"]:
            chain = tuple(_json_int(k, "k") for k in row["k"])
            index = HarmonicIndex(_json_int(row["l"], "l"), chain, _json_int(row["sign"], "sign"))
            if index in entries:
                ks = list(index.chain)
                raise ValueError(f"index l={index.l} k={ks} sign={index.sign} listed twice")
            entries[index] = complex(_json_number(row["re"], "re"), _json_number(row["im"], "im"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed spectrum document: {exc}") from exc
    return Spectrum(SphereGeometry(n), j, entries)


def pyramid_to_json(pyramid: Pyramid) -> str:
    def indent_block(text: str, pad: str) -> str:
        return "\n".join(pad + line for line in text.strip().split("\n"))

    base = indent_block(signal_to_json(pyramid.base), "  ").lstrip()
    details = ",\n".join(
        indent_block(signal_to_json(w), "    ") for w in pyramid.details
    )
    return (
        "{\n"
        f'  "base": {base},\n'
        '  "details": [\n'
        f"{details}\n"
        "  ]\n"
        "}\n"
    )


def pyramid_from_json(text: str) -> Pyramid:
    obj = _loads(text)
    try:
        base = _signal_from_obj(obj["base"])
        details = [_signal_from_obj(item) for item in obj["details"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed pyramid document: {exc}") from exc
    return Pyramid(base, details)


def zonal_to_json(spec: ZonalSpectrum) -> str:
    body = _pair_rows(spec.coeffs, "    ")
    return (
        "{\n"
        f'  "lambda": {format_float(spec.lam)},\n'
        '  "coeffs": [\n'
        f"{body}\n"
        "  ]\n"
        "}\n"
    )


def zonal_from_json(text: str) -> ZonalSpectrum:
    obj = _loads(text)
    try:
        lam = _json_number(obj["lambda"], "lambda")
        coeffs = _complex_pairs(obj["coeffs"], "coeffs")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed zonal document: {exc}") from exc
    return ZonalSpectrum(lam, coeffs)
