"""Fan a scenario matrix through the job service and snapshot it.

:func:`run_matrix` is the whole harness: materialize the matrix into
seeded inline jobs, submit them to an in-process
:class:`~repro.service.server.JobService` on the chosen execution tier
(``thread``, ``process``, or ``remote``), wait for the stream to
drain, and fold the per-cell outcomes into one
``BENCH_scenarios.json``-shaped snapshot (see
:mod:`repro.scenarios.snapshot` for the schema and which fields are
identity vs. trajectory).

The ``remote`` tier needs a fleet to execute: ``fleet_port`` exposes
the in-process service over HTTP (a daemon serving thread) so that
``repro worker`` processes — on this host or others — can claim the
leased cells over the v1 wire protocol.  Everything else (snapshot
shape, hashes, cache behavior) is tier-independent by construction.

A store file is a result cache only: repeated cells — in this run, a
previous run, or a run on the *other* execution tier — come back as
``cache_hit`` cells whose payload (timing included) is the original
run's, while the run writes no job rows and recovers none, so it can
share the file with a live ``repro serve --store``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Optional

from repro.errors import ScenarioError
from repro.obs import clock
from repro.scenarios.matrix import ScenarioMatrix, materialize
from repro.scenarios.snapshot import SNAPSHOT_SCHEMA, result_hash
from repro.service.server import JobService, make_server
from repro.store import job_content_hash


def run_matrix(
    matrix: ScenarioMatrix,
    seed: int,
    executor: str = "thread",
    workers: int = 2,
    store_path: Optional[str] = None,
    settings=None,
    engine: str = "naive",
    trace: bool = False,
    trace_path: Optional[str] = None,
    fleet_host: str = "127.0.0.1",
    fleet_port: Optional[int] = None,
    lease_seconds: float = 15.0,
) -> dict:
    """Run every cell of ``matrix`` and return the snapshot dict.

    ``store_path`` names a result-cache file (shared across runs and
    execution tiers); ``None`` runs without caching.  Any cell that
    fails aborts the whole run with a :class:`ScenarioError` — a seeded,
    candidate-capped matrix has no legitimate per-cell failures, so one
    is a bug, not a data point.

    ``engine`` picks the relational evaluation backend, exactly like
    ``executor`` picks the concurrency tier: content hashes, result
    hashes, and payloads are identical across engines, so runs on
    different engines share the persistent cache.

    ``trace`` turns on per-job span tracing (``trace_path`` also streams
    one ``repro-trace-v1`` line per job); traces live in the VOLATILE
    tier, so result hashes are identical with tracing on or off.

    ``executor="remote"`` requires ``fleet_port``: the service is
    served over HTTP on ``fleet_host:fleet_port`` for the run's
    duration so fleet workers can claim the cells; ``lease_seconds``
    tunes how fast a dead worker's cells are requeued.
    """
    from repro.experiments.settings import DEFAULT_SETTINGS

    matrix.validate()
    if executor == "remote" and fleet_port is None:
        raise ScenarioError(
            "executor 'remote' needs fleet_port: the run must expose the "
            "service over HTTP for `repro worker` processes to claim from"
        )
    settings = settings or DEFAULT_SETTINGS
    jobs = materialize(matrix, seed, engine=engine)
    if trace or trace_path is not None:
        # The cells carry configs, which the service runs as given.
        jobs = [(cell, dataclasses.replace(job, config=dataclasses.replace(
            job.config, trace=True))) for cell, job in jobs]
    service = JobService(
        settings=settings,
        worker_threads=max(1, workers),
        max_queue=0,  # unbounded: the matrix is submitted all at once
        cache_path=store_path,
        executor=executor,
        engine=engine,
        trace=trace,
        trace_path=trace_path,
        lease_seconds=lease_seconds,
    )
    # Snapshot timestamp (wall, display-only) vs. run duration (perf).
    started = time.time()
    wall_t0 = clock.perf_counter()
    server = None
    try:
        service.start()
        if fleet_port is not None:
            http = make_server(service, fleet_host, fleet_port, quiet=True)
            serve_thread = threading.Thread(
                target=http.serve_forever,
                name="repro-scenarios-fleet-server",
                daemon=True,
            )
            serve_thread.start()
            server = http  # shut down only once it is serving
        records = service.run_all([job for _, job in jobs])
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
            serve_thread.join(timeout=5.0)
        service.shutdown()
    cells = [
        _cell_entry(cell, job, record, settings)
        for (cell, job), record in zip(jobs, records)
    ]
    wall = clock.perf_counter() - wall_t0
    failures = [c for c in cells if c.get("error")]
    if failures:
        first = failures[0]
        raise ScenarioError(
            f"{len(failures)} of {len(cells)} scenario cells failed; "
            f"first: {first['cell']}: {first['error']}"
        )
    return {
        "schema": SNAPSHOT_SCHEMA,
        "matrix": matrix.to_dict(),
        "seed": seed,
        "executor": executor,
        "engine": engine,
        "workers": max(1, workers),
        "generated_at": started,
        "wall_seconds": wall,
        "summary": {
            "cells": len(cells),
            "found": sum(1 for c in cells if c["found"]),
            "cache_hits": sum(1 for c in cells if c["cache_hit"]),
            "job_seconds": sum(c["seconds"] for c in cells),
            "candidates_scanned": sum(c["candidates_scanned"] for c in cells),
        },
        "cells": cells,
    }


def _cell_entry(cell, job, record, settings) -> dict:
    """One snapshot row: identity hashes + outcome + trajectory fields."""
    result = record.result
    if result is None:
        return {
            "cell": cell.cell_id, "axes": cell.axes(),
            "error": record.error or f"job ended {record.state!r} "
                                     f"with no result",
            "found": False, "cache_hit": False, "seconds": 0.0,
            "candidates_scanned": 0,
        }
    payload = result.to_payload()
    return {
        "cell": cell.cell_id,
        "axes": cell.axes(),
        "content_hash": job_content_hash(job, settings),
        "result_hash": result_hash(payload),
        "found": payload["found"],
        "privacy": payload["privacy"],
        "loi": payload["loi"],
        "edges_used": payload["edges_used"],
        "variable_targets": payload["variable_targets"],
        "candidates_scanned": result.stats.candidates_scanned,
        "privacy_computations": result.stats.privacy_computations,
        # Trajectory (volatile) fields — see snapshot.VOLATILE_FIELDS.
        "seconds": payload["seconds"],
        "cache_hit": payload["cache_hit"],
        "session_reused": payload["session_reused"],
        "executor": record.executor,
        "error": payload["error"],
    }
