"""Benchmark of the spheremra pipeline: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload grid_warm --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from its
`src/`).  The op sequence is a repetition of blocks; each block holds a fixed
count of every op kind of the workload, shuffled by the seed, and blocks run
until --seconds of wall time have passed.  Every op's output is checked.

--trace 0 prints the end-to-end metrics; --trace 1 records spans around the
package's layer boundaries and prints the per-layer metrics instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.  The
full record, with the run's context, goes to .perfbench/ at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tr  # standard library only, so numpy is not loaded yet

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("grid_warm", "cli_cold", "pointwise")
SETUP_REPEATS = 5
CLI_SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # samples beyond the tail percentile


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> int:
    """BLAS threads at no more than nproc; set before numpy is imported."""
    limit = _nproc()
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(current), limit) if current.isdigit() and int(current) > 0 else limit
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Spawner:
    """Client of spawner.py, which must start while this process is small."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: str, stderr: str) -> dict:
        request = {"argv": argv, "env": _child_env(), "stdout": stdout, "stderr": stderr,
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _source_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; source_sha256 names the code
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over src/, which names the code also where git is absent."""
    import hashlib

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                full = os.path.join(base, name)
                digest.update(os.path.relpath(full, SRC).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the op loop

def _blocks(kinds, rng):
    """Endless blocks: each holds every kind `count` times, shuffled."""
    while True:
        block = [kind for kind in kinds for _ in range(kind.count)]
        rng.shuffle(block)
        yield [kind.make(rng) for kind in block]


def _execute(op, child: bool, tracer=None, index: int = 0):
    """Run one op; returns (latency, output or None)."""
    if tracer is not None:
        tracer.op = index
    with tracer.span(f"op.{op.kind}") if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
            out = None
        latency = time.perf_counter() - start
    if child and out is not None:
        latency = out.wall_s
    return latency, out


def run_loop(kinds, rng, seconds: float, child: bool, tracer=None):
    """Whole blocks until `seconds` of wall time; returns op records."""
    records = []
    start = time.perf_counter()
    for block in _blocks(kinds, rng):
        for op in block:
            caches = tr.cache_counts() if tracer is not None else {}
            latency, out = _execute(op, child, tracer, len(records))
            record = {"op": op if tracer is not None or child else None, "kind": op.kind,
                      "latency": latency, "out": out if child else None,
                      "caches": _cache_delta(caches, tr.cache_counts()) if caches else {}}
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                record["status"], record["err"] = ("failed", None) if out is None else op.check(out)
            records.append(record)
        if time.perf_counter() - start >= seconds:
            return records


def replay(records, child: bool, budget_s: float) -> dict:
    """Rerun, untraced, the prefix of the traced ops whose traced latency fits
    in budget_s, and compare the two op rates on that prefix."""
    count, traced, untraced = 0, 0.0, 0.0
    for record in records:
        if traced >= budget_s:
            break
        latency, _ = _execute(record["op"], child)
        count += 1
        traced += record["latency"]
        untraced += latency
    return {"ops": count, "traced_ops_per_s": count / traced, "untraced_ops_per_s": count / untraced,
            "ratio": untraced / traced}


# ---------------------------------------------------------------------------
# metrics

def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def end_to_end(records, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    latencies = [r["latency"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    errors = [r["err"] for r in records if r["status"] == "ok" and r["err"] is not None]
    worst = max(max(errors, default=0.0), 2.0**-52)
    tail, percentile = _tail(latencies)
    metrics = {
        "ops_per_s": ok / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "success_rate": ok / len(records),
        "accuracy_digits": -math.log10(worst),
    }
    extra = {
        "error_rate": 1.0 - ok / len(records),
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "timed_wall_s": sum(latencies),
    }
    return metrics, extra


def per_kind(records) -> dict:
    out = {}
    for kind in sorted({r["kind"] for r in records}):
        mine = [r for r in records if r["kind"] == kind]
        lat = [r["latency"] for r in mine]
        out[kind] = {
            "ops": len(mine),
            "failed": sum(r["status"] == "failed" for r in mine),
            "wrong": sum(r["status"] == "wrong" for r in mine),
            "median_s": statistics.median(lat),
            "max_s": max(lat),
        }
        for prefix in sorted({p for r in mine for p in r["caches"]}):
            hits = sum(r["caches"][prefix][0] for r in mine)
            misses = sum(r["caches"][prefix][1] for r in mine)
            out[kind][f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else None
    return out


def per_layer(names: list[str], summary: dict, caches: dict, cli_other_s: float) -> dict:
    """Values of the per_layer metrics named in BENCHMARK.json."""
    values = {"cli.other_s": cli_other_s}
    for name in names:
        layer, _, stat = name.rpartition(".")
        hits, misses = caches.get(layer, (0, 0))
        if stat in ("hits", "misses", "hit_ratio"):
            values[name] = {"hits": hits, "misses": misses,
                            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0}[stat]
        elif stat == "calls":
            values[name] = summary["calls"].get(layer, 0)
        elif stat == "self_s":
            values[name] = summary["self_s"].get(layer, 0.0)
        elif stat == "alloc_peak_mb":
            values[name] = summary["alloc_peak"].get(layer, 0) / 2**20
        elif stat == "nonfinite":
            values[name] = summary["nonfinite"].get(layer, 0)
    return values


def merge_summaries(parts: list[dict]) -> dict:
    total = {"calls": {}, "self_s": {}, "alloc_peak": {}, "nonfinite": {}, "covered_s": 0.0, "dropped": 0}
    for part in parts:
        for key in ("calls", "self_s", "nonfinite"):
            for name, value in part[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, value in part["alloc_peak"].items():
            total["alloc_peak"][name] = max(total["alloc_peak"].get(name, 0), value)
        total["covered_s"] += part["covered_s"]
        total["dropped"] += part["dropped"]
    return total


# ---------------------------------------------------------------------------
# workloads

def _in_process_setup(kinds, rng) -> float:
    """Median over repeats of the first cold call of every case: all package
    caches emptied, then one op of each kind."""
    samples = []
    for _ in range(SETUP_REPEATS):
        tr.clear_caches()
        ops = [kind.make(rng) for kind in kinds]
        start = time.perf_counter()
        for op in ops:
            try:
                op.run()
            except Exception:  # noqa: BLE001 - the loop counts failures
                pass
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _one_block(kinds, rng, child: bool) -> list:
    return [_execute(op, child)[1] for op in next(_blocks(kinds, rng))]


def _cache_delta(before: dict, after: dict) -> dict:
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


def run_in_process(name: str, rng, seconds: float, trace: bool) -> dict:
    import workloads as wl

    kinds = wl.grid_warm(rng) if name == "grid_warm" else wl.pointwise(rng)
    setup_s = _in_process_setup(kinds, rng)
    before = tr.cache_counts()
    tracer = tr.Tracer() if trace else None
    undo = tr.install(tracer) if trace else []
    try:
        records = run_loop(kinds, rng, seconds, child=False, tracer=tracer)
    finally:
        tr.uninstall(undo)
    result = {"records": records, "setup_s": setup_s, "peak_rss_mb": _self_rss_mb(),
              "caches": _cache_delta(before, tr.cache_counts()), "cli_other_s": 0.0, "tracer": tracer}
    if trace:
        result["replay"] = replay(records, False, seconds / 2)
        # allocation peaks come from one more block under tracemalloc
        alloc = tr.Tracer(alloc=True)
        undo = tr.install(alloc)
        try:
            _one_block(kinds, rng, child=False)
        finally:
            tr.uninstall(undo)
        result["summary"] = {**tracer.summary(), "alloc_peak": dict(alloc.alloc_peak)}
    return result


def _child_summaries(children) -> list[dict]:
    parts = []
    for child in children:
        if child is not None and child.spans and os.path.exists(child.spans):
            with open(child.spans) as handle:
                parts.append({**json.load(handle), "wall_s": child.wall_s})
    return parts


def run_cli(rng, seconds: float, trace: bool, spawner: Spawner, workdir: str) -> dict:
    import workloads as wl

    py = sys.executable
    counter = [0]
    mode = {"trace": trace, "alloc": False}  # switched for the replay and the alloc block

    def launch(cli_args: list[str], tag: str) -> "wl.Child":
        counter[0] += 1
        stem = os.path.join(workdir, f"child{counter[0]}_{tag}")
        spans = stem + ".spans.json" if mode["trace"] else None
        if spans:
            argv = [py, os.path.join(HERE, "clitrace.py"), spans, "1" if mode["alloc"] else "0"]
        else:
            argv = [py, "-m", "spheremra.cli"]
        reply = spawner.run(argv + cli_args, stem + ".out", stem + ".err")
        return wl.Child(reply["rc"], reply["wall_s"], reply["maxrss_kb"], spans)

    kinds = wl.cli_cold(rng, workdir, launch)
    # a trivial child must read near a bare interpreter although this
    # process now holds the generated inputs and their bases
    trivial = spawner.run([py, "-c", "pass"], os.devnull, os.devnull)
    trivial_mb = trivial["maxrss_kb"] / 1024.0
    if trivial["rc"] != 0 or trivial_mb > 0.5 * _self_rss_mb():
        raise RuntimeError(
            f"child RSS leaks from the benchmark: trivial child {trivial_mb:.1f} MB, "
            f"benchmark {_self_rss_mb():.1f} MB"
        )

    samples = []
    for _ in range(CLI_SETUP_REPEATS):
        reply = spawner.run([py, "-c", "import spheremra.cli"], os.devnull, os.devnull)
        if reply["rc"] != 0:
            raise RuntimeError("import spheremra.cli failed")
        samples.append(reply["wall_s"])

    records = run_loop(kinds, rng, seconds, child=True)
    children = [r["out"] for r in records if r["out"] is not None]
    result = {
        "records": records,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": max(c.maxrss_kb for c in children) / 1024.0 if children else 0.0,
        "caches": {},
        "cli_other_s": 0.0,
        "tracer": None,
        "trivial_child_rss_mb": trivial_mb,
    }
    if trace:
        parts = _child_summaries(children)
        for part in parts:
            result["cli_other_s"] += part["wall_s"] - part["covered_s"]
            for prefix, (hits, misses) in part["caches"].items():
                h, m = result["caches"].get(prefix, (0, 0))
                result["caches"][prefix] = (h + hits, m + misses)
        mode["trace"] = False
        result["replay"] = replay(records, True, seconds / 2)
        mode["trace"] = mode["alloc"] = True
        alloc = merge_summaries(_child_summaries(_one_block(kinds, rng, child=True)))
        result["summary"] = {**merge_summaries(parts), "alloc_peak": alloc["alloc_peak"]}
    return result


# ---------------------------------------------------------------------------

def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spheremra", "__init__.py")):
        sys.stderr.write(f"error: no package source at {SRC}; run from a source checkout\n")
        return 2
    spec = _load_spec()
    blas_threads = _cap_blas_threads()
    spawner = Spawner() if args.workload == "cli_cold" else None
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        sys.path.insert(0, SRC)
        import numpy as np
        import scipy

        import spheremra

        if os.path.dirname(os.path.dirname(os.path.abspath(spheremra.__file__))) != SRC:
            raise RuntimeError(f"spheremra imported from {spheremra.__file__}, not {SRC}")
        rng = np.random.default_rng(args.seed)
        if spawner is not None:
            result = run_cli(rng, args.seconds, bool(args.trace), spawner, workdir)
        else:
            result = run_in_process(args.workload, rng, args.seconds, bool(args.trace))
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    e2e, extra = end_to_end(records, result["setup_s"], result["peak_rss_mb"])
    failed = sum(r["status"] != "ok" for r in records)
    wrong = sum(r["status"] == "wrong" for r in records)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _source_commit(),
        "source_sha256": _source_digest(),
        "nproc": _nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "clients": 1,
        "loop": "closed",
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        **extra,
        "per_kind": per_kind(records),
        "ops": [[r["kind"], r["latency"], r["status"]] for r in records],
    }
    if "trivial_child_rss_mb" in result:
        context["trivial_child_rss_mb"] = result["trivial_child_rss_mb"]
    if args.trace:
        # ratio = traced over untraced ops/s on the same op prefix
        context["tracing_overhead"] = result["replay"]
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(names, result["summary"], result["caches"], result["cli_other_s"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        context["spans_dropped"] = result["summary"]["dropped"]
    else:
        values = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    out_dir = os.path.join(ROOT, ".perfbench")
    stem = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}")
    if result["tracer"] is not None:
        result["tracer"].write_spans(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as handle:
        json.dump({"metrics": metrics, "context": context}, handle, indent=1)

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {extra['error_rate']:.6g} ratio; "
          f"tail percentile {extra['tail_percentile']:.1f} of {extra['latency_samples']} ops")
    print("context " + json.dumps({k: v for k, v in context.items() if k not in ("per_kind", "ops")}))
    print(json.dumps({"correct": wrong == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
