#!/usr/bin/env python
"""Traced perfbench work counts against a committed baseline, as CI
checks them after each traced perfbench pass.

A traced run (``python perfbench/run.py --workload W --seed 1 --seconds
10 --trace 1``) writes its record to
``perfbench/results/W-seed1-trace1.json``.  Its deterministic metrics are
every ``count`` metric and three ratios of counts (:data:`RATIOS`): they
count the steps of the search, of Algorithm 1 and of the service, so at a
fixed seed they repeat exactly.  This script compares them with the
workload's baseline (:data:`BASELINES`) and exits 1 naming every metric
that differs.  Timings (``*_s``) and ``trace.overhead_frac`` are left
out.

A change meant to move a count rewrites the baseline from a traced run's
record in the same commit, and says which count moved and why.

Run from the repo root: ``python scripts/perfbench_counts.py
[--workload alg1_cold|service_stream]`` (``alg1_cold`` by default).
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = {
    "alg1_cold": "perfbench_alg1_counts.json",
    "service_stream": "perfbench_stream_counts.json",
}
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


def compare(record: dict, baseline: dict) -> list[str]:
    """Every way ``record`` differs from ``baseline``, one line each."""
    problems = []
    run = (record["workload"], record["seed"], record["trace"])
    if run != (baseline["workload"], baseline["seed"], 1):
        problems.append(f"record is of run {run}, baseline of "
                        f"{baseline['workload']} seed {baseline['seed']}")
    got = deterministic(record["metrics"])
    expected = baseline["metrics"]
    for name in sorted(got.keys() | expected.keys()):
        if got.get(name) != expected.get(name):
            problems.append(f"{name}: {got.get(name)} != baseline "
                            f"{expected.get(name)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BASELINES),
                        default="alg1_cold")
    args = parser.parse_args(argv)
    record_path = os.path.join(
        REPO_ROOT, "perfbench", "results",
        f"{args.workload}-seed1-trace1.json",
    )
    baseline_path = os.path.join(
        REPO_ROOT, "benchmarks", BASELINES[args.workload]
    )
    with open(record_path) as handle:
        record = json.load(handle)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    problems = compare(record, baseline)
    for problem in problems:
        print(f"[perfbench-counts] FAIL: {problem}", flush=True)
    if not problems:
        print(f"[perfbench-counts] ok: {len(baseline['metrics'])} "
              f"deterministic {args.workload} metrics equal the baseline",
              flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
