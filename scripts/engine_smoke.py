#!/usr/bin/env python
"""Engine-matrix smoke, as CI runs it (one engine per matrix cell).

Replays the committed 12-cell smoke matrix (seed 7) on the requested
evaluation engine and asserts the engine contract:

* the engine is listed by ``repro engines`` and importable — for
  ``duckdb`` on machines without the module, the leg *skips cleanly*
  (exit 0 with a skip notice) instead of failing, so the matrix can
  probe optional engines without making them a hard dependency,
* a cold run produces per-cell content and result hashes identical to
  the committed ``benchmarks/BENCH_scenarios.json`` baseline — the
  engine is an execution detail, and any hash it moves is a bug.  A
  cell whose content hash moved is not compared, so the diff must
  compare every cell of the baseline.

Run from the repo root: ``python scripts/engine_smoke.py --engine sqlite``.
"""

import argparse
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.engine import ENGINE_NAMES, available_engines  # noqa: E402
from repro.scenarios import diff, load  # noqa: E402

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
    print(f"[engine-smoke] {status}: {message}", flush=True)
    if not condition:
        sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", required=True, choices=ENGINE_NAMES,
                        help="evaluation engine to smoke-test")
    args = parser.parse_args()

    if not available_engines()[args.engine]:
        print(f"[engine-smoke] SKIP: engine {args.engine!r} is not "
              f"available in this environment", flush=True)
        return 0

    check(run_cli("engines") == 0, "repro engines lists the catalog")

    with tempfile.TemporaryDirectory(prefix="engine-smoke-") as tmp:
        store = os.path.join(tmp, "store.sqlite")
        snapshot = os.path.join(
            REPO_ROOT, f"BENCH_scenarios.engine-{args.engine}.json"
        )
        check(run_cli(
            "scenarios", "run", "--preset", "smoke", "--seed", SEED,
            "--executor", "thread", "--workers", "2",
            "--engine", args.engine,
            "--store", store, "--output", snapshot,
        ) == 0, f"cold smoke run on the {args.engine} engine")
        message = f"no {args.engine}-engine drift vs the committed baseline"
        check(run_cli("scenarios", "diff", BASELINE, snapshot) == 0, message)
        baseline = load(BASELINE)
        compared = diff(baseline, load(snapshot)).compared
        cells = len(baseline["cells"])
        check(compared == cells,
              f"{message}: compared {compared}/{cells} cells")
    print(f"[engine-smoke] all checks passed ({args.engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
