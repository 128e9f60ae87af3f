#!/usr/bin/env python
"""Smoke-test the observability layer end to end, as CI runs it.

Starts ``repro serve --trace --trace-file`` as a subprocess, scrapes
``GET /v1/metrics`` before and after a job stream, and asserts the
observability guarantees:

* ``/v1/metrics`` serves valid Prometheus text (content type, HELP/TYPE
  headers, parseable samples) on the chosen execution tier,
* running jobs moves the counters — submitted/completed totals, the
  per-phase latency histogram, and (on repeats) the cache-hit counter,
* the streamed ``repro-trace-v1`` file parses, covers every job, and
  ``repro trace summary`` renders per-phase totals from it, and
* tracing is bit-neutral: the traced service's result equals the
  direct, untraced search bit for bit.

Run from the repo root: ``python scripts/obs_smoke.py
[--executor thread|process]``.
"""

import argparse
import os
import socket
import subprocess
import sys
import tempfile
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.optimizer import find_optimal_abstraction  # noqa: E402
from repro.examples_data import (  # noqa: E402
    running_example_db,
    running_example_tree,
)
from repro.io.json_io import database_to_json, tree_to_json  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.obs.trace import read_trace, summarize  # noqa: E402
from repro.provenance.builder import build_kexample  # noqa: E402
from repro.query.parser import parse_cq  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

QUERY = (
    "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
    " Interests(id, 'Music', s2)"
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def scrape(port: int) -> dict:
    """GET /v1/metrics, validate the exposition format, return samples."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/metrics", timeout=10
    ) as response:
        assert response.status == 200
        content_type = response.headers.get("Content-Type")
        assert content_type == metrics.CONTENT_TYPE, content_type
        text = response.read().decode("utf-8")
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            assert not line or line.startswith(("# HELP ", "# TYPE ")), line
            continue
        name_part, _, value_part = line.rpartition(" ")
        assert name_part and value_part, f"unparseable sample: {line!r}"
        float(value_part)  # must parse (or be +Inf/NaN, float handles both)
        samples[name_part] = float(value_part)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread")
    args = parser.parse_args()

    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    workdir = tempfile.TemporaryDirectory(prefix="repro-obs-smoke-")
    trace_path = os.path.join(workdir.name, "trace.jsonl")
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", str(port), "--quiet",
        "--executor", args.executor, "--workers", "1",
        "--store", os.path.join(workdir.name, "jobs.db"),
        "--trace-file", trace_path,
    ]
    server = subprocess.Popen(command, env=env, cwd=REPO_ROOT)
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        client.wait_until_healthy(timeout=30)

        before = scrape(port)
        assert before["repro_service_jobs_submitted_total"] == 0, before
        info_keys = [k for k in before if k.startswith("repro_service_info")]
        assert info_keys and f'executor="{args.executor}"' in info_keys[0], (
            info_keys
        )

        spec = {
            "database": database_to_json(running_example_db()),
            "tree": tree_to_json(running_example_tree()),
            "query": QUERY,
            "threshold": 2,
        }
        ids = client.submit_many([spec, {**spec, "threshold": 3}])
        for job_id in ids:
            payload = client.wait(job_id, timeout=120)
            assert payload["state"] == "done", payload
        ids = client.submit_many([spec])  # identical job -> store cache hit
        client.wait(ids[0], timeout=120)

        after = scrape(port)
        assert after["repro_service_jobs_submitted_total"] == 3, after
        assert after['repro_service_jobs_completed_total{state="done"}'] == 3
        assert after["repro_service_cache_hits_total"] == 1, after
        assert after["repro_service_queue_wait_seconds_count"] == 3, after
        phase_counts = {
            key: value for key, value in after.items()
            if key.startswith("repro_service_phase_seconds_count")
        }
        assert 'repro_service_phase_seconds_count{phase="search"}' in \
            phase_counts, phase_counts

        # The streamed trace file covers every job and summarizes.
        records = read_trace(trace_path)
        assert len(records) == 3, len(records)
        summary = summarize(records)
        assert summary.phases["search"].jobs >= 2, summary.phases
        assert summary.root_seconds > 0, summary

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", "summary",
             trace_path],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "search" in proc.stdout, proc.stdout

        # Bit-neutrality: the traced service result equals the direct,
        # untraced search.
        example = build_kexample(
            parse_cq(QUERY), running_example_db(), n_rows=2
        )
        direct = find_optimal_abstraction(example, running_example_tree(), 2)
        payload = client.result(ids[0])
        assert payload["privacy"] == direct.privacy, payload
        assert payload["loi"] == direct.loi, payload

        print(
            f"obs smoke OK ({args.executor} executor): 3 jobs, "
            f"{len(after)} metric samples, {len(records)} trace records, "
            f"search {summary.phases['search'].seconds:.3f}s of "
            f"{summary.root_seconds:.3f}s root span time"
        )
        return 0
    finally:
        server.terminate()
        server.wait(timeout=10)
        workdir.cleanup()


if __name__ == "__main__":
    sys.exit(main())
