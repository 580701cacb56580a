#!/usr/bin/env python3
"""hhmon benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 15 --trace 0

The package is imported from `src/` beside this directory, the way
`PYTHONPATH=src` would, on whichever kernel backend `hhmon.backend.BACKEND`
selects.  With `--trace 0` the run sets the workload up SETUP_REPEATS
times, repeats the workload's unit for `--seconds` seconds, checks every
unit's outputs and prints the end-to-end metrics.  With `--trace 1` it runs
untraced units for half the time and traced units for the other half, and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is the JSON result; the lines before it name each metric
with its unit and record the run's provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_SAMPLES = 10  # samples a reported percentile must leave above it
LATENCY_QUANTILE = 0.95


def tail_count(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def min_samples(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Fewest samples that leave `tail` of them above the q-quantile."""
    n = tail
    while tail_count(n, q) < tail:
        n += 1
    return n


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_hhmon():
    """Import hhmon from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "hhmon", "cli.py")):
        print(f"perfbench: no hhmon sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import hhmon.cli  # noqa: F401
    from hhmon import backend
    if not os.path.abspath(backend.__file__).startswith(SRC + os.sep):
        print(f"perfbench: hhmon imported from {backend.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return backend


def fresh_import_seconds() -> float:
    """Median time to import hhmon.cli in a fresh interpreter.

    The benchmark process imports the package once; timing the import in
    IMPORT_REPEATS child interpreters gives the set-up its import share as
    a median, like the rest of the set-up.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hhmon.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def git_commit() -> str:
    """HEAD read from .git without starting a process; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_threads() -> int | None:
    """Threads the OpenBLAS loaded by numpy says it uses; None if not OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy wheels bundle scipy-openblas; a system OpenBLAS has the plain name
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def provenance(backend, seed: int) -> dict:
    import numpy as np

    pkg = os.path.join(SRC, "hhmon")
    lines, digest = {}, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            lines[name] = data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "backend": backend.BACKEND,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_seen": openblas_threads(),
        "loc_src_hhmon_py": {"total": sum(lines.values()), **lines},
        "seed": seed,
    }


def measure(run_unit, seconds: float, min_latencies: int = 0) -> list:
    """Repeat units until the next one would end after `seconds`.

    At least one unit runs, and units continue until `min_latencies`
    latency samples exist.
    """
    units = []
    t0 = perf_counter()
    while True:
        units.append(run_unit(len(units)))
        elapsed = perf_counter() - t0
        samples = sum(len(u.latencies_ms) for u in units)
        if samples >= min_latencies and elapsed * (len(units) + 1) / len(units) > seconds:
            return units


def _median(units, key) -> float:
    return statistics.median(key(u) for u in units)


def summarize(units) -> dict:
    """Workload-specific figures printed beside the metrics."""
    detail = {"units": len(units), "unit_wall_s": [round(u.wall_s, 4) for u in units]}
    for stage in units[0].stages:
        detail[stage] = _median(units, lambda u: u.stages[stage])
    latencies = [x for u in units for x in u.latencies_ms]
    if latencies:
        detail["infer_p50_ms"] = quantile(latencies, 0.5)
        detail["infer_samples"] = len(latencies)
        detail["infer_samples_above_p95"] = tail_count(len(latencies), LATENCY_QUANTILE)
        if detail["infer_samples_above_p95"] >= TAIL_SAMPLES:
            detail["infer_p95_ms"] = quantile(latencies, LATENCY_QUANTILE)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    detail["failed_ratio"] = failed / attempted
    problems = [p for u in units for p in u.problems]
    if problems:
        detail["problems"] = problems[:20]
    return detail


def traced_run(wl, seconds: float) -> tuple[dict, list, str]:
    """Untraced units for half the time, traced ones for the other half."""
    import tracing

    plain = measure(wl.unit, seconds / 2)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = measure(lambda k: wl.unit(k, tracer), seconds / 2)
    finally:
        restore()
    per_unit = [tracing.unit_metrics(tracer.spans_of(k)) for k in range(len(traced))]
    metrics = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    metrics["trace.overhead_ratio"] = (_median(traced, lambda u: u.wall_s)
                                       / _median(plain, lambda u: u.wall_s))
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    path = os.path.join(OUT, "traces", f"{wl.name}-seed{wl.seed}.jsonl.gz")
    tracing.write_spans(tracer.spans, path)
    return metrics, plain + traced, path


def run(args) -> dict:
    backend = import_hhmon()
    cls = workloads.WORKLOADS[args.workload]
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    wl = cls(base, args.seed)
    min_latencies = min_samples(LATENCY_QUANTILE) if cls is workloads.InferStream else 0
    try:
        setup_times = []
        for k in range(SETUP_REPEATS if not args.trace else 1):
            t0 = perf_counter()
            wl.setup(k)
            setup_times.append(perf_counter() - t0)
        if not args.trace:
            units = measure(wl.unit, args.seconds, min_latencies)
            import_s = fresh_import_seconds()
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "wall_s": _median(units, lambda u: u.wall_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units_all = units
        else:
            metrics, units_all, trace_path = traced_run(wl, args.seconds)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    detail = summarize(units_all)
    detail["setup_runs_s"] = [round(t, 4) for t in setup_times]
    if not args.trace:
        detail["import_s"] = import_s
    else:
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    unit_of = declared_units(args.trace)
    if sorted(unit_of) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json "
                           f"{sorted(unit_of)}")
    info = {"workload": args.workload, "golden": wl.golden is not None,
            "provenance": provenance(backend, args.seed), "detail": detail}
    return {
        "info": info,
        "correct": all(u.failed == 0 for u in units_all),
        "attempted": sum(u.attempted for u in units_all),
        "failed": sum(u.failed for u in units_all),
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except Exception:  # noqa: BLE001 - set-up failures end the run without a result
        traceback.print_exc()
        return 3
    info = result.pop("info")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
