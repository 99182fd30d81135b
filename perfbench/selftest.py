#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json declares for that mode, each with its declared unit, and
   passes its output checks.
2. A deliberately corrupted copy of reference.json is caught: the run
   reports ``correct: false`` and failed operations, and exits nonzero.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def bench(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_metric_names(spec: dict) -> None:
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in spec["workloads"]:
        for trace, metrics in declared.items():
            code, result = bench("--workload", workload["name"], "--trace", str(trace))
            where = f"{workload['name']} --trace {trace}"
            assert code == 0 and result and result["correct"], f"{where}: failed run {result}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            assert got == want, f"{where}: metric names or units differ: {set(got) ^ set(want)}"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok   {where}: {len(got)} metrics with units")


# (workload, row, column) to bump by one: a k-rank and an n_errors count.
CORRUPTIONS = (
    ("identify", "qled2x2-k12|0", 1),
    ("simulate-qled2x2", "qled2x2/ber_nmse.csv|12|VLC-KRF", 1),
)


def check_corrupted_reference() -> None:
    OUT.mkdir(exist_ok=True)
    for workload, row, column in CORRUPTIONS:
        bad = json.loads((HERE / "reference.json").read_text())
        bad[workload]["rows"][row][column] += 1
        path = OUT / f"corrupted-reference-{workload}.json"
        path.write_text(json.dumps(bad))
        code, result = bench("--workload", workload, "--trace", "0", "--reference", str(path))
        assert code != 0, f"{workload}: corrupted reference not caught (exit 0)"
        assert result and result["correct"] is False and result["failed"] > 0, result
        print(f"ok   {workload}: corrupted reference caught, exit {code}, "
              f"{result['failed']} of {result['attempted']} operations failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_corrupted_reference()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
