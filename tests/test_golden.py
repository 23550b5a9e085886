"""Golden CLI corpus: every subcommand on small fixed inputs.

`tests/golden/` holds the inputs and the expected output of each case below.
Outputs whose floating-point order is fixed (analyze, on-level and finer
synthesize, weights, table, uncertainty, classify, verify) must match byte
for byte.  The pyramid commands and coarse-grid synthesize must agree within
1e-12 relative to the largest reference value, so their arithmetic may be
reordered.

Regenerate the corpus (inputs and outputs) from a trusted checkout with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from spheremra.cli import run
from spheremra.formats import signal_to_json, spectrum_to_json, zonal_to_json
from spheremra.harmonics import SphereGeometry
from spheremra.mra import Spectrum, space_indices, synthesize_on_grid
from spheremra.specfun import ZonalSpectrum

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

# name -> (argv with {in}/{out} placeholders, exact?)
CASES = {
    "analyze_s2_j3": (["analyze", "--in", "{in}/s2_j3.signal.json", "--out", "{out}"], True),
    "analyze_s3_j2": (["analyze", "--in", "{in}/s3_j2.signal.json", "--out", "{out}"], True),
    "synthesize_s2_j3_g3": (
        ["synthesize", "--in", "{in}/s2_j3.spectrum.json", "--grid", "3", "--out", "{out}"], True),
    "synthesize_s2_j3_g4": (
        ["synthesize", "--in", "{in}/s2_j3.spectrum.json", "--grid", "4", "--out", "{out}"], True),
    "synthesize_s3_j2_g2": (
        ["synthesize", "--in", "{in}/s3_j2.spectrum.json", "--grid", "2", "--out", "{out}"], True),
    "synthesize_s2_j3_g1": (
        ["synthesize", "--in", "{in}/s2_j3.spectrum.json", "--grid", "1", "--out", "{out}"], False),
    "synthesize_s3_j2_g1": (
        ["synthesize", "--in", "{in}/s3_j2.spectrum.json", "--grid", "1", "--out", "{out}"], False),
    "decompose_s2_j3": (
        ["decompose", "--in", "{in}/s2_j3.signal.json", "--levels", "2", "--out", "{out}"], False),
    "decompose_s3_j2": (
        ["decompose", "--in", "{in}/s3_j2.signal.json", "--levels", "1", "--out", "{out}"], False),
    "reconstruct_s2_j3": (["reconstruct", "--in", "{in}/s2_j3.pyramid.json", "--out", "{out}"], False),
    "reconstruct_s3_j2": (["reconstruct", "--in", "{in}/s3_j2.pyramid.json", "--out", "{out}"], False),
    "weights_M2_a1": (["weights", "--M", "2", "--alpha", "1", "--out", "{out}"], True),
    "weights_M16_a1": (["weights", "--M", "16", "--alpha", "1", "--out", "{out}"], True),
    "weights_M16_a2": (["weights", "--M", "16", "--alpha", "2", "--out", "{out}"], True),
    "weights_M16_a3": (["weights", "--M", "16", "--alpha", "3", "--out", "{out}"], True),
    "weights_M64_a4": (["weights", "--M", "64", "--alpha", "4", "--out", "{out}"], True),
    "table": (["table", "--m", "1,2,3,7", "--lambda", "0.5,1.5", "--out", "{out}"], True),
    "uncertainty_l05": (["uncertainty", "--in", "{in}/l05.zonal.json"], True),
    "uncertainty_l1": (["uncertainty", "--in", "{in}/l1.zonal.json"], True),
    "classify_l05": (["classify", "--in", "{in}/l05.zonal.json"], True),
    "classify_l1": (["classify", "--in", "{in}/l1.zonal.json"], True),
    "verify_n23_j2": (["verify", "--n", "2,3", "--max-j", "2", "--out", "{out}"], True),
}


def run_case(name: str, in_dir: Path, out_path: Path) -> int:
    """Run one case; output that goes to stdout only is written to out_path."""
    argv, _ = CASES[name]
    uses_out = "{out}" in argv
    argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_path)) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    if not uses_out:
        out_path.write_text(stdout.getvalue())
    return code


def _numbers(obj) -> list:
    """Every number of a JSON document in document order, with its path."""
    if isinstance(obj, dict):
        return [(f"{k}.{p}", v) for k in obj for p, v in _numbers(obj[k])]
    if isinstance(obj, list):
        return [(f"{i}.{p}", v) for i, item in enumerate(obj) for p, v in _numbers(item)]
    return [("", obj)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / "out"
    assert run_case(name, GOLDEN, out) == 0
    got, want = out.read_text(), (GOLDEN / f"{name}.out").read_text()
    if CASES[name][1]:
        assert got == want
        return
    got_rows, want_rows = _numbers(json.loads(got)), _numbers(json.loads(want))
    assert [p for p, _ in got_rows] == [p for p, _ in want_rows]
    got_values = np.array([v for _, v in got_rows], dtype=float)
    want_values = np.array([v for _, v in want_rows], dtype=float)
    scale = max(1.0, float(np.max(np.abs(want_values))))
    assert np.max(np.abs(got_values - want_values)) <= REL_TOL * scale


def _write_inputs() -> None:
    rng = np.random.default_rng(20260101)
    for n, j in [(2, 3), (3, 2)]:
        geometry = SphereGeometry(n)
        indices = space_indices(geometry, j)
        coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        spectrum = Spectrum(geometry, j, dict(zip(indices, coeffs.tolist())))
        (GOLDEN / f"s{n}_j{j}.spectrum.json").write_text(spectrum_to_json(spectrum))
        signal = synthesize_on_grid(spectrum, j)
        (GOLDEN / f"s{n}_j{j}.signal.json").write_text(signal_to_json(signal))
    for tag, lam in [("l05", 0.5), ("l1", 1.0)]:
        coeffs = np.abs(rng.normal(size=6))
        (GOLDEN / f"{tag}.zonal.json").write_text(zonal_to_json(ZonalSpectrum(lam, coeffs)))


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    for name in CASES:
        out = GOLDEN / f"{name}.out"
        if run_case(name, GOLDEN, out) != 0:
            sys.exit(f"case {name} failed")
        if name.startswith("decompose_"):
            # the reconstruct cases read the decompositions back
            pyramid = GOLDEN / f"{name.removeprefix('decompose_')}.pyramid.json"
            pyramid.write_text(out.read_text())


if __name__ == "__main__":
    main()
