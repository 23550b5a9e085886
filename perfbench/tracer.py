"""Spans around the package's layer boundaries, recorded from outside `src/`.

`install` replaces every binding of a traced function in every loaded
``spheremra`` module (the defining module and each module that imported the
name) with a wrapper that opens a span.  Because the caller modules' own
bindings are replaced, a call such as ``transform.pyramid_decompose ->
analyze`` nests inside its caller's span, and a layer's self time is its
span's duration minus the time its child spans cover.  `uninstall` restores
the original bindings.

Aggregates (calls, self time, allocation peak) are kept for every span; the
raw spans (name, start, end, parent, op) are kept up to `SPAN_CAP` and can
be written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (module under spheremra, function) pairs that get a span.  Missing names
# are skipped, so the benchmark keeps running when a later version of the
# package removes one.
TARGETS = [
    ("formats", "signal_to_json"),
    ("formats", "signal_from_json"),
    ("formats", "spectrum_to_json"),
    ("formats", "spectrum_from_json"),
    ("formats", "pyramid_to_json"),
    ("formats", "pyramid_from_json"),
    ("transform", "pyramid_decompose"),
    ("transform", "pyramid_reconstruct"),
    ("mra", "analyze"),
    ("mra", "synthesize_on_grid"),
    ("mra", "synthesize"),
    ("mra", "_basis_on_grid"),
    ("quadrature", "make_rule"),
    ("quadrature", "level_weights"),
    ("harmonics", "harmonic_eval"),
    ("harmonics", "axis_profile"),
    ("specfun", "gegenbauer_table"),
    ("specfun", "zonal_eval"),
    ("posdef", "gramian_min_eigenvalue"),
    ("posdef", "classify"),
    ("oracle", "zonal_integral"),
    ("oracle", "zonal_inner_product"),
    ("verify", "certify"),
    ("uncertainty", "uncertainty_product"),
]

# spans whose tracemalloc peak a Tracer(alloc=True) records; tracemalloc runs
# only while one of them is open, and it slows everything inside them, so
# self times come from a tracer without it
LARGE = {
    "mra._basis_on_grid",
    "mra.analyze",
    "mra.synthesize_on_grid",
    "transform.pyramid_decompose",
    "transform.pyramid_reconstruct",
    "quadrature.make_rule",
}

# lru caches read through cache_info(): metric prefix -> (module, attribute)
CACHES = {
    "mra.basis_cache": ("mra", "_basis_on_grid_cached"),
    "quadrature.rule_cache": ("quadrature", "_cached_rule"),
}

SPAN_CAP = 50_000


class Tracer:
    """Span stack plus per-name aggregates."""

    def __init__(self, alloc: bool = False) -> None:
        self.alloc = alloc
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.nonfinite: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0  # summed duration of root spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.active = True
        self._stack: list[list] = []  # [id, name, start, child_s, large_frame]
        self._large: list[list] = []  # [base_bytes, peak_bytes, started_tracing]
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        large = None
        if self.alloc and name in LARGE:
            if tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                for frame in self._large:
                    frame[1] = max(frame[1], peak)
                tracemalloc.reset_peak()
                large = [tracemalloc.get_traced_memory()[0], 0, False]
            else:
                tracemalloc.start()
                large = [0, 0, True]
            large[1] = large[0]
            self._large.append(large)
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0, large]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, large = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.covered_s += duration
        else:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end, self.op))
        else:
            self.dropped += 1
        if large is not None:
            self._large.pop()
            large[1] = max(large[1], tracemalloc.get_traced_memory()[1])
            self.alloc_peak[name] = max(self.alloc_peak[name], large[1] - large[0])
            for outer in self._large:
                outer[1] = max(outer[1], large[1])
            if large[2]:
                tracemalloc.stop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one op."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextlib.contextmanager
    def paused(self):
        """No spans while the benchmark checks an output with package code."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit
        counts_nonfinite = name == "quadrature.make_rule"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if counts_nonfinite and not _all_finite(getattr(result, "weights", 0.0)):
                self.nonfinite[name] += 1
            return result

        return traced

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "alloc_peak": dict(self.alloc_peak),
            "nonfinite": dict(self.nonfinite),
            "covered_s": self.covered_s,
            "dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name,
                                "start": start, "end": end, "op": op}) + "\n"
                )


def _all_finite(values) -> bool:
    import numpy as np

    return bool(np.all(np.isfinite(values)))


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "spheremra" or name.startswith("spheremra."))
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of the TARGETS; returns the undo list for uninstall."""
    wrappers = {}  # id of the original -> wrapper
    for module_name, attr in TARGETS:
        module = sys.modules.get(f"spheremra.{module_name}")
        fn = getattr(module, attr, None)
        if fn is not None:
            wrappers[id(fn)] = tracer.wrap(f"{module_name}.{attr}", fn)
    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
                undo.append((module, attr, value))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each cache in CACHES; (0, 0) when it is gone."""
    out = {}
    for prefix, (module_name, attr) in CACHES.items():
        fn = getattr(sys.modules.get(f"spheremra.{module_name}"), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[prefix] = (info.hits, info.misses) if info else (0, 0)
    return out


def clear_caches() -> None:
    """Empty every lru cache the package holds, so the next calls run cold."""
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(value) and hasattr(value, "cache_clear"):
                value.cache_clear()
