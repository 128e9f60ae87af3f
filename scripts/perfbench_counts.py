#!/usr/bin/env python
"""Traced ``alg1_cold`` work counts against the committed baseline, as CI
checks them after its traced perfbench pass.

The traced pass (``python perfbench/run.py --workload alg1_cold --seed 1
--seconds 10 --trace 1``) writes its record to
``perfbench/results/alg1_cold-seed1-trace1.json``.  Its deterministic
metrics are every ``count`` metric and three ratios of counts
(:data:`RATIOS`): they count the steps of the search and of Algorithm 1,
so at a fixed seed they repeat exactly.  This script compares them with
``benchmarks/perfbench_alg1_counts.json`` and exits 1 naming every metric
that differs.  Timings (``*_s``) and ``trace.overhead_frac`` are left out.

A change meant to move a count rewrites the baseline from a traced pass's
record in the same commit, and says which count moved and why.

Run from the repo root: ``python scripts/perfbench_counts.py``.
"""

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(
    REPO_ROOT, "perfbench", "results", "alg1_cold-seed1-trace1.json"
)
BASELINE = os.path.join(REPO_ROOT, "benchmarks", "perfbench_alg1_counts.json")
RATIOS = (
    "privacy.row_option_hit_ratio",
    "containment.homomorphism_found_ratio",
    "optimizer.privacy_gate_ratio",
)


def deterministic(metrics: dict) -> dict:
    """The count metrics and :data:`RATIOS` of a record, name -> value."""
    return {
        name: entry["value"] for name, entry in metrics.items()
        if entry["unit"] == "count" or name in RATIOS
    }


def main() -> int:
    with open(RECORD) as handle:
        record = json.load(handle)
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    problems = []
    run = (record["workload"], record["seed"], record["trace"])
    if run != (baseline["workload"], baseline["seed"], 1):
        problems.append(f"record is of run {run}, baseline of "
                        f"{baseline['workload']} seed {baseline['seed']}")
    got, expected = deterministic(record["metrics"]), baseline["metrics"]
    for name in sorted(got.keys() | expected.keys()):
        if got.get(name) != expected.get(name):
            problems.append(f"{name}: {got.get(name)} != baseline "
                            f"{expected.get(name)}")
    for problem in problems:
        print(f"[perfbench-counts] FAIL: {problem}", flush=True)
    if not problems:
        print(f"[perfbench-counts] ok: {len(expected)} deterministic "
              f"metrics equal the baseline", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
