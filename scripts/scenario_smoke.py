#!/usr/bin/env python
"""Scenario-matrix smoke, as CI runs it.

Replays the committed 12-cell smoke matrix (seed 7) through the
``repro scenarios`` CLI and asserts the reproducibility contract:

* **cross-tier identity** — the thread and process execution tiers,
  each run against its own fresh store, produce snapshots with
  identical per-cell content *and* result hashes (``scenarios diff``
  reports no drift and compares every cell: a cell whose content hash
  moved is not compared, so it fails the check),
* **no drift vs the committed baseline** — the fresh thread snapshot
  diffs clean against ``benchmarks/BENCH_scenarios.json`` (a result
  hash that moves on identical inputs fails the build),
* **cross-engine identity** — the SQLite evaluation engine, against
  its own fresh store, produces the same per-cell content and result
  hashes as the naive engine and the committed baseline,
* **cache dedup** — re-running the matrix against the thread tier's
  now-warm store answers >= 90% of cells from the persistent result
  cache, and the warm snapshot is bit-identical to the cold one once
  the volatile trajectory fields are stripped; the same holds when the
  warm re-run happens on a *different engine* (the engine is stripped
  from the content hash, so engines share the cache).

The fresh snapshots are left in the working directory
(``BENCH_scenarios.thread.json`` / ``.process.json`` / ``.sqlite.json``
/ ``.warm.json``) for CI to upload as the build's perf-trajectory
artifact.

Run from the repo root: ``python scripts/scenario_smoke.py``.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.scenarios import diff, load, normalize  # noqa: E402

BASELINE = os.path.join(REPO_ROOT, "benchmarks", "BENCH_scenarios.json")
SEED = "7"


def run_cli(*argv: str) -> int:
    command = [sys.executable, "-m", "repro.cli", *argv]
    print(f"$ {' '.join(command)}", flush=True)
    env = {**os.environ,
           "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    return subprocess.run(command, env=env, cwd=REPO_ROOT).returncode


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[scenario-smoke] {status}: {message}", flush=True)
    if not condition:
        sys.exit(1)


def check_diff(old: str, new: str, message: str) -> None:
    """``scenarios diff`` reports no drift, having compared every cell."""
    check(run_cli("scenarios", "diff", old, new) == 0, message)
    baseline = load(old)
    compared = diff(baseline, load(new)).compared
    cells = len(baseline["cells"])
    check(compared == cells, f"{message}: compared {compared}/{cells} cells")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="scenario-smoke-") as tmp:
        thread_store = os.path.join(tmp, "thread.sqlite")
        process_store = os.path.join(tmp, "process.sqlite")
        engine_store = os.path.join(tmp, "engine.sqlite")
        snaps = {
            name: os.path.join(REPO_ROOT, f"BENCH_scenarios.{name}.json")
            for name in ("thread", "process", "sqlite", "warm")
        }

        check(run_cli(
            "scenarios", "run", "--preset", "smoke", "--seed", SEED,
            "--executor", "thread", "--workers", "2",
            "--store", thread_store, "--output", snaps["thread"],
        ) == 0, "cold run on the thread tier")
        check(run_cli(
            "scenarios", "run", "--preset", "smoke", "--seed", SEED,
            "--executor", "process", "--workers", "2",
            "--store", process_store, "--output", snaps["process"],
        ) == 0, "cold run on the process tier")

        check(run_cli(
            "scenarios", "run", "--preset", "smoke", "--seed", SEED,
            "--executor", "thread", "--workers", "2", "--engine", "sqlite",
            "--store", engine_store, "--output", snaps["sqlite"],
        ) == 0, "cold run on the sqlite evaluation engine")

        check_diff(snaps["thread"], snaps["process"],
                   "thread and process tiers agree cell for cell")
        check_diff(snaps["thread"], snaps["sqlite"],
                   "naive and sqlite engines agree cell for cell")
        check_diff(BASELINE, snaps["thread"],
                   "no result-hash drift vs the committed baseline")
        check_diff(BASELINE, snaps["sqlite"],
                   "no sqlite-engine drift vs the committed baseline")

        check(run_cli(
            "scenarios", "run", "--preset", "smoke", "--seed", SEED,
            "--executor", "thread", "--workers", "2",
            "--store", thread_store, "--output", snaps["warm"],
        ) == 0, "warm re-run on the thread tier")

        with open(snaps["thread"]) as handle:
            cold = json.load(handle)
        with open(snaps["warm"]) as handle:
            warm = json.load(handle)
        hits = warm["summary"]["cache_hits"]
        cells = warm["summary"]["cells"]
        check(hits >= 0.9 * cells,
              f"warm run served from the result cache ({hits}/{cells})")
        check(normalize(cold) == normalize(warm),
              "warm snapshot identical modulo volatile fields")

        # Cross-engine cache reuse: the engine is stripped from the
        # content hash, so a sqlite-engine run against the naive-engine
        # store must be served from its cache.
        cross = os.path.join(tmp, "cross.json")
        check(run_cli(
            "scenarios", "run", "--preset", "smoke", "--seed", SEED,
            "--executor", "thread", "--workers", "2", "--engine", "sqlite",
            "--store", thread_store, "--output", cross,
        ) == 0, "sqlite-engine re-run against the naive-engine store")
        with open(cross) as handle:
            crossed = json.load(handle)
        cross_hits = crossed["summary"]["cache_hits"]
        check(cross_hits >= 0.9 * cells,
              f"cross-engine run served from the shared cache "
              f"({cross_hits}/{cells})")
    print("[scenario-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
