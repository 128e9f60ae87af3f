#!/usr/bin/env python
"""Smoke-test the job service end to end, as CI runs it.

Starts ``repro serve`` as a subprocess, submits an inline-context job
stream (the paper's running example) through :class:`ServiceClient`,
and asserts the service guarantees:

* an inline user-database job returns the same result as the
  ``optimize`` subcommand on the same inputs,
* a second job stream over the same context reports
  ``sessions_reused > 0`` in the stats endpoint (cache amortization is
  observable — for ``--executor process`` this proves each pool
  *process* warmed and reused its own privacy session), and
* with ``--executor process`` (which runs with a ``--store`` file), a
  resubmitted identical job is answered from the SQLite result cache —
  the search ran in a pool worker process and the service stored its
  result, then answered the repeat without dispatching it.

Run from the repo root: ``python scripts/service_smoke.py
[--executor thread|process]``.
"""

import argparse
import os
import socket
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.optimizer import find_optimal_abstraction  # noqa: E402
from repro.examples_data import (  # noqa: E402
    running_example_db,
    running_example_tree,
)
from repro.io.json_io import database_to_json, tree_to_json  # noqa: E402
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
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", str(port), "--quiet",
        "--executor", args.executor, "--workers", "1",
    ]
    store_dir = None
    if args.executor == "process":
        # A file-backed store: the service stores each pool worker's
        # result in it and answers repeats from it — the cross-process leg.
        store_dir = tempfile.TemporaryDirectory(prefix="repro-smoke-")
        command += ["--store", os.path.join(store_dir.name, "jobs.db")]
    server = subprocess.Popen(command, env=env, cwd=REPO_ROOT)
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        client.wait_until_healthy(timeout=30)
        stats = client.stats()
        assert stats["executor"] == args.executor, stats
        spec = {
            "database": database_to_json(running_example_db()),
            "tree": tree_to_json(running_example_tree()),
            "query": QUERY,
            "threshold": 2,
        }

        # Stream 1: one inline job; result must match the direct search.
        ids = client.submit_many([spec])
        payload = client.wait(ids[0], timeout=120)
        assert payload["state"] == "done", payload
        assert payload["found"], payload
        example = build_kexample(parse_cq(QUERY), running_example_db(), n_rows=2)
        direct = find_optimal_abstraction(example, running_example_tree(), 2)
        assert payload["privacy"] == direct.privacy, payload
        assert payload["loi"] == direct.loi, payload
        assert client.status(ids[0])["executor"] == args.executor

        # Stream 2: same context again; amortization must be observable.
        # Under the process executor the session lives in the pool
        # worker process, so sessions_reused > 0 asserts the per-process
        # warm-up actually happened there.
        ids = client.submit_many([{**spec, "threshold": 3}])
        client.wait(ids[0], timeout=120)
        stats = client.stats()
        assert stats["jobs_done"] == 2, stats
        assert stats["jobs_failed"] == 0, stats
        assert stats["sessions_reused"] > 0, stats

        cache_note = ""
        if args.executor == "process":
            # Stream 3: a bit-for-bit identical job must be served from
            # the shared store without re-running the search.
            ids = client.submit_many([spec])
            repeat = client.wait(ids[0], timeout=120)
            assert repeat["cache_hit"] is True, repeat
            assert repeat["privacy"] == direct.privacy, repeat
            stats = client.stats()
            assert stats["cache_hits"] > 0, stats
            assert stats["results_stored"] >= 2, stats
            cache_note = (
                f", {stats['cache_hits']} cross-process cache hits"
            )

        print(
            f"service smoke OK ({args.executor} executor): "
            f"{stats['jobs_done']} jobs, "
            f"{stats['sessions_reused']} warm-session{cache_note}, "
            f"privacy={payload['privacy']} loi={payload['loi']:.4f}"
        )
        return 0
    finally:
        server.terminate()
        server.wait(timeout=10)
        if store_dir is not None:
            store_dir.cleanup()


if __name__ == "__main__":
    sys.exit(main())
