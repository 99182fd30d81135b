#!/usr/bin/env python3
"""dstc benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate-qled2x2 --seed 20260814 --seconds 15 --trace 0

The workload runs in this process as a closed loop with one client: each
repetition starts when the previous one ends, and repetitions continue until
``--seconds`` have passed (at least two).  BLAS threading is left at the
process default and recorded, never set.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
processes of importing dstc and building the workload's configs and
scenarios), ``wall_s`` (median repetition time), ``ops_per_s`` (operations
per repetition over that median) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced repetitions and reports per-layer calls and
self time per repetition (see tracer.py), plus ``trace.overhead_frac``.

Every run checks its outputs: all repetitions must be identical, the
workload's invariants must hold, and the outputs at the default seed must
match ``reference.json`` (counts exactly, floats within 1e-9 relative).  When
``--seed`` is not the default, one extra unmeasured repetition at the default
seed is checked against the reference.  The last line of stdout is one JSON
object; the exit code is 0 only if every check passed.  A fuller record
(environment, repetition times, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import TRACED, Tracer
from workloads import DEFAULT_SEED, RECEIVERS, WORKLOADS, diff_rows

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

MIN_REPS = 2
SETUP_PROBES = 11
REFERENCE_RTOL = 1e-9
RECEIVER_FUNCTIONS = (
    "receivers.krf_detect",
    "receivers.zf_detect",
    "receivers.zf_estimate_channel",
    "receivers.plain_csk_baseline",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="stored outputs at the default seed")
    p.add_argument("--write-reference", action="store_true",
                   help="record this workload's default-seed outputs into --reference and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_revision": _git_revision(),
    }


def _setup_seconds(workload_name: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Checker:
    """Collects attempted and failed operations and the reasons for failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, result) -> None:
        self.attempted += result.pairs
        self.failed += result.failed_pairs

    def compare(self, expected: dict, actual, rel: float, what: str) -> None:
        bad = diff_rows(expected, actual.rows, rel)
        if bad:
            rows = actual.rows
            self.failed += sum(self.workload.weight(rows[k]) if k in rows else 1 for k in bad)
            self.problems.append(f"{what}: {len(bad)} rows differ, first {bad[0]}")

    def invariants(self, result, what: str) -> None:
        problems = self.workload.invariants(result)
        if problems:
            self.failed += len(problems)
            self.problems += [f"{what}: {p}" for p in problems]

    def crashed(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"raised {type(exc).__name__}: {exc}")


def _check(checker: Checker, results: list, args, reference_rows) -> None:
    """Rerun identity, invariants, and the stored default-seed reference."""
    first = results[0]
    for i, r in enumerate(results[1:], start=1):
        checker.compare(first.rows, r, 0.0, f"repetition {i} differs from repetition 0")
    checker.invariants(first, f"seed {args.seed}")
    if reference_rows is None:
        checker.problems.append(f"no stored reference for {args.workload}")
        checker.failed += 1
        return
    if args.seed == DEFAULT_SEED:
        at_default = first
    else:
        at_default = checker.workload.run(DEFAULT_SEED)
        checker.count(at_default)
        checker.invariants(at_default, f"seed {DEFAULT_SEED}")
    checker.compare(reference_rows, at_default, REFERENCE_RTOL, "reference mismatch")


def _measure(workload, args):
    times, results = [], []
    start = perf_counter()
    while len(times) < MIN_REPS or perf_counter() - start < args.seconds:
        t0 = perf_counter()
        results.append(workload.run(args.seed))
        times.append(perf_counter() - t0)
    return times, results


def _measure_traced(workload, args, tracer):
    plain, traced, results = [], [], []
    start = perf_counter()
    while len(traced) < MIN_REPS or perf_counter() - start < args.seconds:
        t0 = perf_counter()
        results.append(workload.run(args.seed))
        plain.append(perf_counter() - t0)
        with tracer:
            t0 = perf_counter()
            results.append(workload.run(args.seed))
            traced.append(perf_counter() - t0)
    return plain, traced, results


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def per_layer_metrics(tracer: Tracer, plain, traced, traced_results, checker) -> dict:
    reps = len(traced)
    totals = tracer.totals()
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in TRACED:
        t = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        put(f"{name}.calls", t["calls"] / reps, "count")
        put(f"{name}.self_ms", t["self_s"] * 1e3 / reps, "ms")
    trials = totals.get("experiments.run_trial", {}).get("calls", 0)
    for name in RECEIVER_FUNCTIONS:
        total = totals.get(name, {}).get("total_s", 0.0)
        put(f"{name}.ms_per_trial", total * 1e3 / trials if trials else 0.0, "ms")
    durations = tracer.durations("experiments.run_trial")
    put("experiments.run_trial.p50_ms", _percentile(durations, 0.50) * 1e3, "ms")
    put("experiments.run_trial.p99_ms", _percentile(durations, 0.99) * 1e3, "ms")
    put("experiments.run_trial.samples", len(durations), "count")
    for r in RECEIVERS:
        fails = sum(res.failures_by_receiver.get(r, 0) for res in traced_results)
        put(f"experiments.failures.{r}", fails / reps, "count")
    put("linalg.svd_calls", tracer.svd_calls / reps, "count")
    put("fail_frac", checker.failed / max(checker.attempted, 1), "ratio")
    put("trace.overhead_frac", statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "dstc" / "__init__.py").is_file():
        print(f"benchmark: no dstc sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload](ROOT, OUT / args.workload)

    if args.setup_probe:
        t0 = perf_counter()
        workload.setup()
        print(perf_counter() - t0)
        return 0

    OUT.mkdir(exist_ok=True)
    setup_times = _setup_seconds(args.workload) if args.trace == 0 else []
    workload.setup()
    import dstc

    if not Path(dstc.__file__).resolve().is_relative_to(src):
        print(f"benchmark: imported dstc from {dstc.__file__}, not {src}", file=sys.stderr)
        return 2
    env = environment()

    if args.write_reference:
        stored = json.loads(args.reference.read_text()) if args.reference.exists() else {}
        result = workload.run(DEFAULT_SEED)
        stored[args.workload] = {"seed": DEFAULT_SEED, "git_revision": env["git_revision"],
                                 "rows": result.rows}
        args.reference.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(result.rows)} rows for {args.workload} to {args.reference}")
        return 0

    reference = json.loads(args.reference.read_text()) if args.reference.exists() else {}
    reference_rows = reference.get(args.workload, {}).get("rows")
    checker = Checker(workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    metrics: dict = {}
    tracer = Tracer()
    try:
        workload.warmup()
        if args.trace == 0:
            times, results = _measure(workload, args)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["repetition_s"] = times
        else:
            plain, traced, results = _measure_traced(workload, args, tracer)
            record["repetition_s"] = {"untraced": plain, "traced": traced}
        for r in results:
            checker.count(r)
        _check(checker, results, args, reference_rows)
    except Exception as exc:  # a crash is a failed run, reported like any other
        traceback.print_exc()
        checker.crashed(exc)
    else:
        if args.trace == 0:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": statistics.median(times), "unit": "s"},
                "ops_per_s": {"value": results[0].ops / statistics.median(times), "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
            record["setup_probe_s"] = setup_times
        else:
            metrics = per_layer_metrics(tracer, plain, traced, results[1::2], checker)
            record["absent"] = tracer.absent
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            record["spans"] = str(spans.relative_to(ROOT))
            if tracer.absent:
                print(f"benchmark: traced names absent: {', '.join(tracer.absent)}",
                      file=sys.stderr)

    correct = not checker.problems
    for p in checker.problems:
        print(f"benchmark: {p}", file=sys.stderr)
    record.update(correct=correct, problems=checker.problems, metrics=metrics)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
