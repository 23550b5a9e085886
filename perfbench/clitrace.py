"""One traced CLI run: ``python3 clitrace.py SPANS_OUT ALLOC <spheremra args...>``.

Behaves like ``python -m spheremra.cli <args>`` but wraps the package's layer
functions (see tracer.TARGETS) before running the command, and writes the
span summary plus the cache counts to SPANS_OUT when the command returns.
With ALLOC=1 the large spans also record their tracemalloc peak.
Time outside the spans (interpreter start, imports, argument parsing, file
I/O) is what the parent reports as ``cli.other_s``.
"""

import json
import sys

import spheremra.cli as cli

import tracer as tr


def main() -> int:
    out_path, alloc, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = tr.Tracer(alloc)
    tr.install(tracer)
    code = cli.run(argv)
    summary = tracer.summary()
    summary["caches"] = tr.cache_counts()
    with open(out_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
