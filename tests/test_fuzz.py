"""Hypothesis fuzzing of the four JSON readers through the command line.

Every document, a mutated golden input or random JSON, must end within 2 s
in one of two ways: exit 0 with finite output, or exit 1 with exactly one
`error:` line on stderr, no warning and no output.  Levels and sphere dimensions are
drawn from small values and from values past the node-cap guards, never from
the expensive middle between them.
"""

import contextlib
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from spheremra.cli import run

GOLDEN = Path(__file__).parent / "golden"

# reader -> (golden inputs, command reading it; {out} is the output path)
READERS = {
    "signal": (("s2_j3.signal.json", "s3_j2.signal.json"), ["analyze", "--out", "{out}"]),
    "spectrum": (
        ("s2_j3.spectrum.json", "s3_j2.spectrum.json"),
        ["synthesize", "--grid", "{grid}", "--out", "{out}"],
    ),
    "pyramid": (("s2_j3.pyramid.json", "s3_j2.pyramid.json"), ["reconstruct", "--out", "{out}"]),
    "zonal": (("l05.zonal.json", "l1.zonal.json"), ["uncertainty"]),
}

# small values and values past the guards of the default cap (bit length 24)
LEVELS = st.sampled_from([-1, 0, 1, 2, 3, 25, 64, 3_000_000, 10**12])
DIMENSIONS = st.sampled_from([-1, 0, 1, 2, 3, 4, 25, 100_000])
GRID_LEVELS = st.sampled_from([1, 1, 2, 3, 25, 10**8])
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.just(-0.0)
SCALARS = st.none() | st.booleans() | st.floats() | st.text(max_size=4) | NUMBERS | LEVELS
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _finite_float(token):
    value = float(token)
    assert math.isfinite(value), token
    return value


def _reject_constant(token):
    raise AssertionError(f"{token} in the output")


def check_contract(reader: str, document: str, grid: int) -> None:
    """Run the reader's command on the document and assert the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        path.write_text(document)
        command = READERS[reader][1]
        argv = [command[0], "--in", str(path)] + [
            a.replace("{out}", str(out)).replace("{grid}", str(grid)) for a in command[1:]
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(argv)
        elapsed = time.perf_counter() - start
        written = out.read_text() if out.exists() else None
    event(f"{reader} exit {code}")
    assert elapsed < 2.0
    assert not caught, [str(w.message) for w in caught]
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        output = written if written is not None else stdout.getvalue()
        json.loads(output, parse_float=_finite_float, parse_constant=_reject_constant)
    else:
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert written is None and stdout.getvalue() == ""


def _paths(node, prefix=()):
    """Every path from the root to a node, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    """Replace one node (or drop one key or list item) of the document."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["typed", "typed", "typed", "json", "delete"]))
    if action == "delete":
        del parent[key]
    elif action == "json":
        parent[key] = data.draw(JSON)
    elif key in ("n", "j", "l"):
        parent[key] = data.draw(DIMENSIONS if key == "n" else LEVELS)
    elif type(parent[key]) in (int, float):
        parent[key] = data.draw(NUMBERS)
    return doc


@settings(max_examples=150, deadline=None)
@given(reader=st.sampled_from(sorted(READERS)), data=st.data())
def test_mutated_golden_inputs_keep_the_exit_contract(reader, data):
    name = data.draw(st.sampled_from(READERS[reader][0]))
    doc = json.loads((GOLDEN / name).read_text())
    headers = [doc] if "n" in doc else [doc["base"], *doc["details"]] if "base" in doc else []
    if headers and data.draw(st.booleans()):
        header = data.draw(st.sampled_from(headers))
        header["n"] = data.draw(st.sampled_from([header["n"]]) | DIMENSIONS)
        header["j"] = data.draw(st.sampled_from([header["j"]]) | LEVELS)
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(doc, data)
    check_contract(reader, json.dumps(doc), data.draw(GRID_LEVELS))


PAIRS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), max_size=12) | st.lists(
    st.lists(NUMBERS, min_size=2, max_size=2), min_size=12, max_size=12
)
_ROW = st.fixed_dictionaries(
    {
        "l": LEVELS | JSON,
        "k": st.lists(st.integers(-1, 3), min_size=1, max_size=2) | JSON,
        "sign": st.sampled_from([1, -1]) | JSON,
        "re": NUMBERS | JSON,
        "im": NUMBERS | JSON,
    }
)
_SIGNAL = st.fixed_dictionaries(
    {"n": DIMENSIONS | JSON, "j": LEVELS | JSON, "values": PAIRS | JSON}
)
DOCUMENTS = {
    "signal": _SIGNAL,
    "spectrum": st.fixed_dictionaries(
        {"n": DIMENSIONS | JSON, "j": LEVELS | JSON, "entries": st.lists(_ROW, max_size=4) | JSON}
    ),
    "pyramid": st.fixed_dictionaries(
        {"base": _SIGNAL | JSON, "details": st.lists(_SIGNAL, max_size=2) | JSON}
    ),
    "zonal": st.fixed_dictionaries({"lambda": NUMBERS | JSON, "coeffs": PAIRS | JSON}),
}


@settings(max_examples=150, deadline=None)
@given(reader=st.sampled_from(sorted(READERS)), data=st.data())
def test_random_documents_keep_the_exit_contract(reader, data):
    doc = data.draw(DOCUMENTS[reader] | JSON)
    check_contract(reader, json.dumps(doc), data.draw(GRID_LEVELS))
