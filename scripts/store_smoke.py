#!/usr/bin/env python
"""Smoke-test service durability end to end, as CI runs it.

Starts ``repro serve --store``, submits a mid-stream of jobs, then
**kills the server without warning** (SIGKILL — no graceful shutdown)
and restarts it on the same store.  The restarted service must:

* recover every submitted job — completed ones served from the store,
  interrupted/queued ones re-enqueued and finished — with results equal
  to the direct ``find_optimal_abstraction`` answer, or, for the inline
  ``kexample`` spec with a ``max_candidates`` budget, to an in-process
  ``run_job`` of the same spec, and
* answer a content-identical resubmission from the result cache
  (``cache_hit`` set, payload bit-identical apart from that marker)
  without running the optimizer again.

Run from the repo root: ``python scripts/store_smoke.py``.
"""

import os
import shutil
import socket
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.batch import job_from_spec, run_job  # noqa: E402
from repro.core.optimizer import (  # noqa: E402
    OptimizerConfig,
    find_optimal_abstraction,
)
from repro.examples_data import (  # noqa: E402
    running_example_db,
    running_example_tree,
)
from repro.experiments.settings import DEFAULT_SETTINGS  # noqa: E402
from repro.io.json_io import (  # noqa: E402
    database_to_json,
    kexample_to_json,
    tree_to_json,
)
from repro.provenance.builder import build_kexample  # noqa: E402
from repro.query.parser import parse_cq  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

QUERY = (
    "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
    " Interests(id, 'Music', s2)"
)

THRESHOLDS = (2, 3, 4)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(store_path: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--quiet", "--store", store_path],
        env=env, cwd=REPO_ROOT,
    )


def payload_core(payload: dict) -> dict:
    """A result payload reduced to its content (no identity/audit fields)."""
    return {k: v for k, v in payload.items()
            if k not in ("id", "tag", "cache_hit")}


def payload_outcome(payload: dict) -> dict:
    """A payload without identity, audit and timing fields: what a run
    of the same spec anywhere else must reproduce."""
    out = {k: v for k, v in payload.items()
           if k not in ("id", "state", "tag", "cache_hit", "seconds",
                        "session_reused", "trace")}
    out["stats"] = {k: v for k, v in payload["stats"].items()
                    if k != "elapsed_seconds"}
    return out


def in_process_payload(spec: dict) -> dict:
    """``run_job`` of ``spec`` here, as ``repro serve`` would run it."""
    base = OptimizerConfig(max_candidates=DEFAULT_SETTINGS.max_candidates,
                           max_seconds=DEFAULT_SETTINGS.max_seconds)
    job = job_from_spec(spec, default_rows=DEFAULT_SETTINGS.kexample_rows,
                        base_config=base)
    return run_job(job, DEFAULT_SETTINGS).to_payload()


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-store-smoke-")
    store_path = os.path.join(workdir, "jobs.db")
    spec = {
        "database": database_to_json(running_example_db()),
        "tree": tree_to_json(running_example_tree()),
        "query": QUERY,
    }
    example = build_kexample(
        parse_cq(QUERY), running_example_db(), n_rows=2
    )
    # Every field the stored spec text carries: a K-example instead of a
    # query, and a per-job budget.
    kexample_spec = {
        "database": spec["database"], "tree": spec["tree"],
        "kexample": kexample_to_json(example), "threshold": THRESHOLDS[0],
        "max_candidates": 40, "tag": "kexample",
    }
    server = None
    try:
        # Life 1: submit a stream, then die mid-stream with no warning.
        # The client's connection retry absorbs the serve startup race —
        # no explicit wait_until_healthy needed before submitting.
        port = free_port()
        server = start_server(store_path, port)
        client = ServiceClient(f"http://127.0.0.1:{port}",
                               connect_retries=8, retry_backoff=0.25)
        ids = client.submit_many([
            {**spec, "threshold": k, "tag": f"k{k}"} for k in THRESHOLDS
        ] + [kexample_spec])
        assert len(ids) == len(THRESHOLDS) + 1, ids
        server.kill()  # SIGKILL: whatever was running dies mid-search
        server.wait(timeout=10)

        # Life 2: same store, fresh process — every job must finish.
        port = free_port()
        server = start_server(store_path, port)
        client = ServiceClient(f"http://127.0.0.1:{port}",
                               connect_retries=8, retry_backoff=0.25)
        payloads = client.wait_all(ids, timeout=120)
        for payload in payloads:
            assert payload["state"] == "done", payload
            assert payload["found"], payload

        for threshold, payload in zip(THRESHOLDS, payloads):
            direct = find_optimal_abstraction(
                example, running_example_tree(), threshold
            )
            assert payload["privacy"] == direct.privacy, payload
            assert payload["loi"] == direct.loi, payload
        assert payload_outcome(payloads[-1]) == payload_outcome(
            in_process_payload(kexample_spec)
        ), payloads[-1]

        # Dedup across restarts: a content-identical resubmission is a
        # cache hit with the same payload, optimizer untouched.
        stats_before = client.stats()
        resubmitted = client.submit_many([{**spec, "threshold": THRESHOLDS[0],
                                      "tag": "again"}])
        again = client.wait(resubmitted[0], timeout=60)
        assert again["cache_hit"] is True, again
        assert payload_core(again) == payload_core(payloads[0]), (
            again, payloads[0]
        )
        stats = client.stats()
        assert stats["cache_hits"] >= stats_before.get("cache_hits", 0) + 1
        assert stats["jobs_recovered"] >= len(THRESHOLDS), stats
        assert stats["results_stored"] >= len(THRESHOLDS), stats

        print(
            f"store smoke OK: {len(ids)} jobs survived a SIGKILL restart, "
            f"{stats['jobs_recovered']} recovered, "
            f"{stats['jobs_requeued']} requeued, "
            f"{stats['cache_hits']} cache hits, "
            f"{stats['results_stored']} results in {os.path.basename(store_path)}"
        )
        return 0
    finally:
        if server is not None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
