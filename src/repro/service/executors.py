"""Pluggable execution backends for the job service.

The service's queue, cancellation, backpressure, timeout-clamping,
durability, and stats logic live in :class:`repro.service.server.JobService`
and are backend-independent; an :class:`ExecutorBackend` only decides
*where one job's search runs* once a service worker thread has claimed it:

:class:`ThreadBackend`
    In this process, on the claiming thread — the original design.  All
    worker threads share one ``_cached_context`` / ``_cached_session``
    cache (maximum warm-cache reuse), but the search is pure Python, so
    the GIL caps one service at roughly one core no matter how many
    worker threads are configured.

:class:`ProcessPoolBackend`
    On a ``concurrent.futures`` process pool sized to the worker-thread
    count — the one process pool in the package: ``repro serve
    --executor process`` and multi-worker batches
    (:func:`repro.batch.run_batch`) both run on it.  Each worker
    *process* owns its warm context/privacy-session caches (keyed by
    each job's context), so search parallelism scales to the cores.

No backend touches the result cache, and neither does a fleet worker:
the service consults it before ``run`` (so a hit never reaches a pool
or a lease) and fills it after, on every tier.

Results cross the pool as :meth:`BatchJobResult.to_payload` dictionaries
(the PR-4 lossless JSON round trip), never as pickled result objects:
the payload is the same representation the store and the HTTP result
endpoint use, so whatever survives transport is exactly what every other
consumer sees.  A job that raises in a pool worker comes back as an
error payload carrying the traceback summary.  A worker process that
*dies* (OOM kill, segfault) condemns the whole pool — ``concurrent
.futures`` fails every in-flight future, not just the dead worker's —
so the backend replaces the pool and retries each interrupted job once
on the fresh one: innocent siblings typically survive a neighbor's
death (their retry completes unless the culprit breaks the next pool
mid-flight too), while a job that breaks two pools in a row fails
visibly.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.batch.jobs import BatchJobResult
from repro.batch.optimizer import run_job, run_job_payload
from repro.errors import ServiceError
from repro.service.state import EXECUTOR_NAMES


class ExecutorBackend:
    """Where a service worker thread executes one claimed job.

    ``run`` is called from (possibly many) service worker threads and
    must be thread-safe; it returns a :class:`BatchJobResult` and never
    raises for job-level failures (those land in ``result.error``).
    ``job_id`` is the service's id for the job — local backends ignore
    it, the remote backend leases it to fleet workers under that id.
    ``is_remote`` gates the ``/v1/workers/*`` endpoints: only a
    fleet-facing backend serves claim/heartbeat/complete traffic.
    """

    name = "?"
    is_remote = False

    def start(self) -> "ExecutorBackend":
        """Bring up any execution resources (idempotent)."""
        return self

    def run(self, job, settings, job_id=None) -> BatchJobResult:
        raise NotImplementedError

    def shutdown(self, wait: bool = False) -> None:
        """Release execution resources; in-flight jobs may be abandoned
        (``wait``: none is in flight, so block until they are gone)."""


class ThreadBackend(ExecutorBackend):
    """Run the search in-process, on the claiming worker thread."""

    name = "thread"

    def run(self, job, settings, job_id=None) -> BatchJobResult:
        return run_job(job, settings)


def _default_mp_context():
    """The start method for service pools: ``fork`` where it exists.

    Forked workers inherit the parent's imported modules and any
    already-warm batch caches, so they are serving within milliseconds;
    ``spawn`` (the only portable fallback) pays a fresh interpreter and
    import per worker instead.  The service pre-spawns its workers
    before the HTTP and worker threads exist (see
    :meth:`ProcessPoolBackend.start`), which keeps the forks
    single-threaded — the condition Python 3.12+ warns about.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ProcessPoolBackend(ExecutorBackend):
    """Run searches on a process pool, one process per service worker."""

    name = "process"

    def __init__(self, workers: int = 1, mp_context=None):
        self._workers = max(1, int(workers))
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._pools_replaced = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def pools_replaced(self) -> int:
        """How many times a broken pool was swapped for a fresh one."""
        return self._pools_replaced

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=self._mp_context or _default_mp_context(),
                )
            return self._pool

    def start(self) -> "ProcessPoolBackend":
        """Create the pool and pre-spawn every worker process.

        Eager spawning matters under the ``fork`` start method: the
        service calls this before its worker/HTTP threads exist, so the
        forks happen while the parent is still single-threaded (forking
        a multi-threaded process risks inheriting locks mid-acquire).
        One trivial task per worker forces the executor to actually
        create the processes.
        """
        pool = self._ensure_pool()
        for future in [
            pool.submit(os.getpid) for _ in range(self._workers)
        ]:
            future.result()
        return self

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is pool:
                self._pool = None
                self._pools_replaced += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def run(self, job, settings, job_id=None) -> BatchJobResult:
        last_error = None
        for attempt in range(2):
            pool = self._ensure_pool()
            try:
                payload = pool.submit(run_job_payload, job, settings).result()
            except BrokenProcessPool as exc:
                # A worker died (OOM kill, segfault, an os._exit in
                # native code) and the executor condemned the *whole*
                # pool — this future fails whether or not its job was
                # the one on the dead worker.  Discard the pool and
                # retry once on a fresh one, so a neighbor's death does
                # not fail innocent in-flight jobs; a job that breaks
                # two pools in a row is the likely culprit and fails
                # visibly (the search is pure, so a retry is safe).
                self._discard_pool(pool)
                last_error = exc
                continue
            return BatchJobResult.from_payload(payload, job)
        return BatchJobResult(
            job=job,
            error=(
                f"a worker process died while this job was in flight, "
                f"twice — on the original pool and on a fresh retry pool "
                f"({type(last_error).__name__}: {last_error}); the job "
                f"itself likely kills its worker (out of memory?)"
            ),
        )

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


def make_backend(
    executor: str,
    workers: int = 1,
    *,
    lease_seconds: float = 15.0,
    lease_attempts: int = 3,
    store=None,
) -> ExecutorBackend:
    """Build the named backend; unknown names raise :class:`ServiceError`.

    ``workers`` sizes the process pool (thread execution is sized by the
    service's worker threads directly).  ``store`` is the service's own
    :class:`~repro.store.JobStore`; it and the lease knobs apply to the
    ``remote`` backend only (audit rows).
    """
    if executor == "thread":
        return ThreadBackend()
    if executor == "process":
        return ProcessPoolBackend(workers=workers)
    if executor == "remote":
        # Imported here, not at module top: fleet.py subclasses
        # ExecutorBackend from this module.
        from repro.service.fleet import RemoteBackend

        return RemoteBackend(
            lease_seconds=lease_seconds,
            max_attempts=lease_attempts,
            store=store,
        )
    raise ServiceError(
        f"unknown executor {executor!r} "
        f"(choose from: {', '.join(EXECUTOR_NAMES)})"
    )
