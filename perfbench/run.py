"""The repository benchmark: one seeded workload run, checked, then timed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload alg1_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work untraced and then under the layer wrappers (``layers.py``) and prints
the per-layer metrics, with the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (metrics, host
fingerprint, gate errors, run details) goes to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.

The exit code is 0 for a run whose outputs were all correct, 1 for a run
whose correctness gate failed, and 2 when the checkout holds no ``src/``
to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_commit(root: Path):
    """The checked-out commit read from ``.git``, or ``None`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def fingerprint(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through every ``finally``, so servers this run started stop.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} has no src/repro to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = HERE / "results"
    work = HERE / ".work" / f"{label}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    env = workloads.Env(root=ROOT, results=results, work=work, label=label)
    host = fingerprint(args.seed)
    print(f"perfbench {label} host {json.dumps(host)}", flush=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    correct = not outcome.errors
    for error in outcome.errors[:20]:
        print(f"GATE {error}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value in outcome.detail.items():
        print(f"  # {name}: {value}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "errors": outcome.errors,
        "detail": outcome.detail,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    with open(results / f"{label}.json", "w") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
