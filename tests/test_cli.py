"""End-to-end checks of the batch command-line front end.

Everything goes through run(argv) so exit codes and output bytes are
asserted exactly as a shell user would see them.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from spheremra import cli
from spheremra.cli import run
from spheremra.formats import (
    signal_from_json,
    signal_to_json,
    spectrum_from_json,
    spectrum_to_json,
    zonal_to_json,
)
from spheremra.harmonics import SphereGeometry
from spheremra.mra import Spectrum, space_indices, synthesize_on_grid
from spheremra.quadrature import _NODE_CAP_ENV
from spheremra.specfun import ZonalSpectrum


def make_spectrum(n, j, seed):
    geo = SphereGeometry(n)
    rng = np.random.default_rng(seed)
    entries = {
        ix: complex(rng.standard_normal(), rng.standard_normal())
        for ix in space_indices(geo, j)
    }
    return Spectrum(geo, j, entries)


def test_weights_frozen_output(capsys):
    assert run(["weights", "--M", "2", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "u,node,chi\n"
        "0,1,0.33333333333333326\n"
        "1,6.123233995736766e-17,1.3333333333333333\n"
        "2,-1,0.33333333333333326\n"
    )


def test_weights_to_file_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["weights", "--M", "16", "--alpha", "3", "--out", str(a)]) == 0
    assert run(["weights", "--M", "16", "--alpha", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "u,node,chi"
    assert len(lines) == 18  # header plus the 17 nodes of an order-16 rule


def test_analyze_synthesize_round_trip(tmp_path):
    spectrum = make_spectrum(2, 2, 700)
    spec_in = tmp_path / "spec.json"
    sig_out = tmp_path / "sig.json"
    spec_back = tmp_path / "back.json"
    spec_in.write_text(spectrum_to_json(spectrum))
    assert run([
        "synthesize", "--in", str(spec_in), "--grid", "2", "--out", str(sig_out),
    ]) == 0
    assert run(["analyze", "--in", str(sig_out), "--out", str(spec_back)]) == 0
    recovered = spectrum_from_json(spec_back.read_text())
    for ix, want in spectrum.entries.items():
        assert abs(recovered.entries[ix] - want) <= 1e-9


def test_decompose_reconstruct_round_trip(tmp_path):
    signal = synthesize_on_grid(make_spectrum(2, 3, 701), 3)
    sig_in = tmp_path / "sig.json"
    pyr = tmp_path / "pyr.json"
    sig_back = tmp_path / "round.json"
    sig_in.write_text(signal_to_json(signal))
    assert run([
        "decompose", "--in", str(sig_in), "--levels", "2", "--out", str(pyr),
    ]) == 0
    assert run(["reconstruct", "--in", str(pyr), "--out", str(sig_back)]) == 0
    recovered = signal_from_json(sig_back.read_text())
    assert recovered.j == 3
    np.testing.assert_allclose(recovered.values, signal.values, atol=1e-9)


def test_table_single_cell(capsys):
    assert run(["table", "--m", "1", "--lambda", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "m,lambda,var_space,var_momentum,product,"
        "var_space_rounded,var_momentum_rounded,product_rounded\n"
        "1,0.5,3,1.5,2.1213203435596424,3,1.5,2.12\n"
    )


def test_table_default_grid_shape(tmp_path):
    path = tmp_path / "table.csv"
    assert run(["table", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 12 * 6
    # row-major: all lambdas for m=1 first
    assert lines[1].startswith("1,0.5,") and lines[6].startswith("1,3,")
    assert lines[7].startswith("2,0.5,")


def test_uncertainty_report(tmp_path, capsys):
    path = tmp_path / "zonal.json"
    path.write_text(zonal_to_json(ZonalSpectrum(0.5, [1.0, 2.0, 0.5])))
    assert run(["uncertainty", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == 0.5
    assert report["var_space"] == pytest.approx(1.2188585069444451, rel=1e-15)
    assert report["var_momentum"] == pytest.approx(1.2447552447552448, rel=1e-15)
    assert report["product"] == pytest.approx(1.231738819366202, rel=1e-15)
    assert report["lower_bound"] == 1.0
    assert report["product"] > report["lower_bound"]


def test_classify_report(tmp_path, capsys):
    path = tmp_path / "zonal.json"
    path.write_text(zonal_to_json(ZonalSpectrum(0.5, [1.0, 2.0, 0.5])))
    assert run(["classify", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "semidefinite": True,
        "strict_up_to_cardinality": 3,
        "strictly_pd": False,
        "reason": "finite expansion",
    }


def test_verify_passes(capsys):
    assert run(["verify", "--n", "2", "--max-j", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_report_file(tmp_path):
    path = tmp_path / "report.txt"
    assert run([
        "verify", "--n", "2", "--max-j", "1", "--out", str(path),
    ]) == 0
    assert "PASS" in path.read_text()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run(["frobnicate"]) == 1
    assert run(["weights", "--M", "four", "--alpha", "1"]) == 1
    assert run(["weights", "--M", "0", "--alpha", "1"]) == 1
    assert run(["analyze", "--in", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out.json")]) == 1
    capsys.readouterr()


def test_same_in_and_out_path_rejected(tmp_path, capsys):
    path = tmp_path / "sig.json"
    path.write_text(signal_to_json(synthesize_on_grid(make_spectrum(2, 1, 702), 1)))
    assert run(["analyze", "--in", str(path), "--out", str(path)]) == 1
    assert "differ" in capsys.readouterr().err
    # the input file is untouched on failure
    assert signal_from_json(path.read_text()).j == 1


def test_malformed_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "j": 1}')
    assert run(["analyze", "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_arithmetic_errors_exit_one_without_traceback(capsys):
    # alpha! overflows a float inside the rule's prefactor
    assert run(["weights", "--M", "16", "--alpha", "400"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_error_without_a_message_names_its_class(capsys, monkeypatch):
    def exhausted(order, alpha):
        raise MemoryError()

    monkeypatch.setattr(cli, "make_rule", exhausted)
    assert run(["weights", "--M", "4", "--alpha", "1"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_node_cap_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(_NODE_CAP_ENV, "10000000")
    spec = tmp_path / "spec.json"
    spec.write_text(spectrum_to_json(make_spectrum(2, 2, 703)))
    out = tmp_path / "sig.json"
    assert run(["--node-cap", "10", "synthesize", "--in", str(spec),
                "--grid", "2", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["--node-cap", "0", "weights", "--M", "2", "--alpha", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("before", [None, "10000000"])
def test_node_cap_flag_holds_for_one_run(tmp_path, capsys, monkeypatch, before):
    """A later run in the same process is not held to an earlier --node-cap,
    and the variable ends as it started."""
    if before is None:
        monkeypatch.delenv(_NODE_CAP_ENV, raising=False)
    else:
        monkeypatch.setenv(_NODE_CAP_ENV, before)
    signal = tmp_path / "sig.json"
    signal.write_text(signal_to_json(synthesize_on_grid(make_spectrum(2, 1, 704), 1)))
    assert run(["--node-cap", "10", "weights", "--M", "2", "--alpha", "1"]) == 0
    # the level-1 grid on S^2 has 12 nodes, over the earlier run's cap
    assert run(["analyze", "--in", str(signal), "--out", str(tmp_path / "spec.json")]) == 0
    assert os.environ.get(_NODE_CAP_ENV) == before
    capsys.readouterr()



def _documents(number):
    """One small document per reader, holding `number` as one of its values."""
    values = ", ".join([f"[{number}, 0]"] + ["[1, 0]"] * 11)  # the 12 nodes of N_1 on S^2
    signal = f'{{"n": 2, "j": 1, "values": [{values}]}}'
    return {
        "signal": signal,
        "spectrum": f'{{"n": 2, "j": 1, "entries": [{{"l": 0, "k": [0], "sign": 1, '
        f'"re": {number}, "im": 0}}]}}',
        "pyramid": f'{{"base": {signal}, "details": []}}',
        "zonal": f'{{"lambda": 0.5, "coeffs": [[1, 0], [{number}, 0]]}}',
    }


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "reader,argv",
    [
        ("signal", ["analyze", "--out", "{out}"]),
        ("spectrum", ["synthesize", "--grid", "1", "--out", "{out}"]),
        ("pyramid", ["reconstruct", "--out", "{out}"]),
        ("zonal", ["uncertainty"]),
    ],
)
def test_non_finite_input_exits_one(tmp_path, capsys, reader, argv, literal):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    argv = [argv[0], "--in", str(path)] + [a.replace("{out}", str(out)) for a in argv[1:]]
    path.write_text(_documents("0.5")[reader])
    assert run(argv) == 0
    capsys.readouterr()
    path.write_text(_documents(literal)[reader])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err
    assert err.count("\n") == 1


def _signal_values(values):
    return f'{{"n": 2, "j": 1, "values": {values}}}'


_SPECTRUM_ROW = '{"l": 0, "k": [0], "sign": 1, "re": 1.0, "im": 0.0}'


@pytest.mark.parametrize(
    "document,argv",
    [
        (_signal_values("5"), ["analyze"]),
        (_signal_values('[["a", 1]]'), ["analyze"]),
        (_signal_values("[null]"), ["analyze"]),
        (_signal_values('[["1.5", 0]]'), ["analyze"]),
        (_signal_values("[[1" + "0" * 400 + ", 0]]"), ["analyze"]),
        ("[" * 100_000, ["analyze"]),
        (_signal_values("[" + ", ".join(["[1e308, 1e308]"] * 12) + "]"), ["analyze"]),
        ('{"lambda": 0.5, "coeffs": [["a", 1]]}', ["uncertainty"]),
        ('{"lambda": 0.5, "coeffs": [[1e200, 0], [2e200, 0]]}', ["uncertainty"]),
        ('{"lambda": 1e300, "coeffs": [[1, 0], [0.5, 0]]}', ["uncertainty"]),
        ('{"n": 2, "j": 30, "entries": []}', ["synthesize", "--grid", "1"]),
        (f'{{"n": 2, "j": 1, "entries": [{_SPECTRUM_ROW}, {_SPECTRUM_ROW}]}}',
         ["synthesize", "--grid", "1"]),
    ],
    ids=[
        "values-scalar", "values-string", "values-null", "values-number-string",
        "values-huge-int", "deep-nesting", "analyze-overflows", "zonal-string",
        "uncertainty-overflows", "uncertainty-lambda-past-floats", "spectrum-level-30",
        "spectrum-repeated-index",
    ],
)
def test_exit_contract_holes_end_in_one_error_line(tmp_path, capsys, document, argv):
    """Each input ends with exit 1, one `error:` line in words (no
    traceback, no warning, no errno tuple), no output file, within 2 s.
    At lambda = 1e300 var_S is about 2.5e599, past every float."""
    assert not _one_error_line(tmp_path, capsys, document, argv).startswith("error: (")


def _one_error_line(tmp_path, capsys, document, argv):
    """Run argv on the document; assert the exit contract's failure branch
    and return the error line."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(document)
    argv = [argv[0], "--in", str(path)] + argv[1:]
    if argv[0] != "uncertainty":
        argv += ["--out", str(out)]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert time.perf_counter() - start < 2.0
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()
    return captured.err


def _signal_header(n, j):
    return f'{{"n": {n}, "j": {j}, "values": []}}'


@pytest.mark.parametrize(
    "document,argv",
    [
        (_signal_header(2, 3_000_000), ["analyze"]),
        (f'{{"base": {_signal_header(2, 3_000_000)}, "details": []}}', ["reconstruct"]),
        (f'{{"base": {_documents("1")["signal"]}, "details": [{_signal_header(2, 10**12)}]}}',
         ["reconstruct"]),
        (_signal_header(100_000, 1), ["analyze"]),
        ('{"n": 100000, "j": 1, "entries": []}', ["synthesize", "--grid", "1"]),
        ('{"n": 2, "j": 1, "entries": []}', ["synthesize", "--grid", "100000000"]),
    ],
    ids=[
        "signal-level", "pyramid-base-level", "pyramid-detail-level",
        "signal-dimension", "spectrum-dimension", "synthesize-grid-level",
    ],
)
def test_headers_past_the_node_cap_are_sized_first(tmp_path, capsys, document, argv):
    """A level or a sphere dimension past the cap's bit length is refused
    before the node count it implies is formed."""
    err = _one_error_line(tmp_path, capsys, document, argv)
    assert "cap" in err


def _spectrum_row(**fields):
    row = {"l": "0", "k": "[0]", "sign": "1", "re": "1.5", "im": "0"}
    row.update(fields)
    body = ", ".join(f'"{key}": {value}' for key, value in row.items())
    return f'{{"n": 2, "j": 1, "entries": [{{{body}}}]}}'


@pytest.mark.parametrize(
    "field,value",
    [
        ("l", "0.9"), ("l", "true"), ("l", '"0"'),
        ("k", "[0.0]"), ("k", "[false]"), ("k", '"0"'),
        ("sign", "1.0"), ("sign", "true"),
        ("re", '"1.5"'), ("re", "true"), ("re", "null"),
        ("im", "true"), ("im", '"0"'), ("im", "[0]"),
    ],
)
def test_spectrum_rows_are_strictly_typed(tmp_path, capsys, field, value):
    """l, each k and sign must be JSON integers; re and im JSON numbers."""
    err = _one_error_line(
        tmp_path, capsys, _spectrum_row(**{field: value}), ["synthesize", "--grid", "1"]
    )
    assert f"{field} must be" in err


@pytest.mark.parametrize("re,im", [("1", "0"), ("-2", "3"), ("1.5", "-0.0")])
def test_spectrum_rows_take_whole_numbers_as_integers(tmp_path, re, im):
    """%.17g writes a whole-number float as an integer, which reads back."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(_spectrum_row(re=re, im=im))
    assert run(["synthesize", "--in", str(path), "--grid", "1", "--out", str(out)]) == 0
    values = signal_from_json(out.read_text()).values
    assert np.all(values == complex(float(re), float(im)))


_ROW = '{"l": 0, "k": [0], "sign": 1, "re": 1.5, "im": 0}'


@pytest.mark.parametrize(
    "document,argv,field",
    [
        (f'{{"n": 2.7, "j": 1, "entries": [{_ROW}]}}', ["synthesize", "--grid", "1"], "n"),
        (f'{{"n": 2, "j": true, "entries": [{_ROW}]}}', ["synthesize", "--grid", "1"], "j"),
        (f'{{"n": 2, "j": "2", "entries": [{_ROW}]}}', ["synthesize", "--grid", "1"], "j"),
        (_signal_header(2, 3.9), ["analyze"], "j"),
        (f'{{"base": {_signal_header("2.0", 1)}, "details": []}}', ["reconstruct"], "n"),
        ('{"lambda": true, "coeffs": [[1, 0], [0.5, 0]]}', ["uncertainty"], "lambda"),
        ('{"lambda": "1.5", "coeffs": [[1, 0], [0.5, 0]]}', ["uncertainty"], "lambda"),
    ],
    ids=[
        "spectrum-n-float", "spectrum-j-bool", "spectrum-j-string", "signal-j-float",
        "pyramid-n-float", "zonal-lambda-bool", "zonal-lambda-string",
    ],
)
def test_headers_are_strictly_typed(tmp_path, capsys, document, argv, field):
    """n and j must be JSON integers and lambda a JSON number: a float, a
    bool or a numeric string is refused, not coerced."""
    err = _one_error_line(tmp_path, capsys, document, argv)
    assert f"{field} must be" in err
