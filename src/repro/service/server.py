"""A long-lived job service over :mod:`repro.batch`.

The CLI's ``batch-optimize`` is one-shot: every invocation pays context
generation and privacy-session warmup again.  :class:`JobService` keeps
those caches alive instead — jobs arrive as a stream (HTTP+JSON) and run
on persistent workers whose context cache and
:class:`~repro.core.privacy.PrivacySession` cache in
``repro.batch.optimizer`` stay warm across requests.  The amortization
is observable: the ``/stats`` endpoint reports ``sessions_reused`` (jobs
that attached to a privacy session warmed by an earlier request) next to
the aggregate search counters.

*Where* a claimed job executes is pluggable
(:mod:`repro.service.executors`): the default ``thread`` backend runs it
on the worker thread itself (shared warm caches, GIL-capped at roughly
one core), while the ``process`` backend (``repro serve --executor
process --workers N``) dispatches it to a process pool whose workers
each own warm caches and share the file-backed result cache — the
pure-CPU search then scales to the cores while every service behavior
around it (queueing, cancellation, timeout clamps, backpressure,
durability, stats) is backend-independent.

The HTTP surface is the versioned v1 wire protocol defined (as data) in
:mod:`repro.service.protocol` — ``GET /v1/`` serves the machine-readable
route catalog, every error is one ``{"error": {"code", "message",
"detail"}}`` envelope, and any path outside ``/v1`` answers 404
``unknown_path``:

====================================  =========================================
``GET  /v1/``                         the route catalog (the whole contract)
``POST /v1/jobs``                     submit one spec or a list (named-workload
                                      or inline-context, ``job_from_spec``);
                                      returns ``{"ids": [...]}``;
                                      ``invalid_job_spec`` on a bad spec,
                                      ``queue_full`` when the queue is full
``GET  /v1/jobs``                     status summaries of every known job
``GET  /v1/jobs/<id>``                one job's status summary
``GET  /v1/jobs/<id>/result``         full result once terminal, else
                                      ``result_not_ready``
``POST /v1/jobs/<id>/cancel``         cancel a still-queued job
``GET  /v1/stats``                    queue depth + aggregate counters (and the
                                      ``fleet`` section on a remote service)
``GET  /v1/metrics``                  Prometheus text exposition
``GET  /v1/healthz``                  liveness probe
``POST /v1/workers/claim``            fleet worker claims a leased job
``POST /v1/workers/heartbeat``        fleet worker extends its lease
``POST /v1/workers/complete``         fleet worker delivers a result payload
====================================  =========================================

The ``/v1/workers/*`` endpoints exist only on a ``--executor remote``
service (``not_remote`` elsewhere).  See
:mod:`repro.service.fleet` for the lease state machine and
``docs/PROTOCOL.md`` for the full wire contract.

Per-job timeouts: a service-level ``job_timeout`` clamps every job's
``max_seconds`` budget (the search returns its best-so-far when it
trips), so one runaway job cannot starve the stream.  Backpressure: the
queue is bounded; submissions beyond it are rejected rather than queued
without limit.

Durability: with a :class:`repro.store.JobStore` attached (``repro serve
--store PATH``), every accepted job is persisted (spec, content hash,
lifecycle state) and every clean result payload is stored
content-addressed.  A restarted service recovers the store on startup —
completed results are served again, queued *and* interrupted running
jobs are re-enqueued — and the worker loop consults the result cache
before every search, so a job content-identical to any earlier one (this
process or a previous life) returns instantly with ``cache_hit`` set.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sqlite3
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from queue import Empty, Queue
from typing import Optional, Sequence

from repro.batch.jobs import BatchJobResult, job_from_spec, job_to_spec
from repro.core.optimizer import OptimizerConfig
from repro.engine import DEFAULT_ENGINE
from repro.errors import (
    JobNotFoundError,
    JobSpecError,
    NotRemoteError,
    QueueFullError,
    ReproError,
    RequestError,
    ResultNotReadyError,
    ServiceError,
)
from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings
from repro.obs import clock, metrics
from repro.obs.trace import TraceWriter, trace_record
from repro.service import protocol
from repro.service.executors import make_backend
from repro.service.state import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRecord,
)
from repro.store import (
    JobStore,
    ResultCache,
    job_content_hash,
    shareable_store_path,
)


class _UnparseableJob:
    """Stand-in for a recovered job whose stored spec no longer parses.

    Carries just the display fields the status payload needs, so the
    record stays listable while its failure explains itself.
    """

    def __init__(self, stored):
        self.query_name = stored.label
        self.threshold = stored.spec.get("threshold", -1)
        self.tag = str(stored.spec.get("tag", ""))


class JobService:
    """The queue + worker-thread pool behind the HTTP front-end.

    ``worker_threads=1`` (the default) runs jobs strictly in submission
    order — deterministic, and every job sees the caches its
    predecessors warmed.  More threads trade determinism for throughput;
    ``worker_threads=0`` starts no workers, leaving execution to explicit
    :meth:`run_next` calls (how the tests drive the queue).

    ``max_queue`` bounds pending jobs (submissions beyond it raise
    :class:`ServiceError` — HTTP 503); ``job_timeout`` caps any single
    job's ``max_seconds`` search budget.  ``store`` attaches a
    :class:`repro.store.JobStore` for durability and cross-restart result
    dedup (recovery runs synchronously in the constructor, before any
    worker starts).

    ``executor`` picks the execution tier (see
    :mod:`repro.service.executors`): ``"thread"`` runs searches on the
    worker threads themselves — shared warm caches, GIL-capped at about
    one core; ``"process"`` dispatches each claimed job to a process
    pool sized to the worker-thread count, scaling the pure-CPU search
    to the hardware while queueing, cancellation, timeouts,
    backpressure, recovery, and ``/stats`` behave identically.
    ``"remote"`` executes nothing locally: each claimed job is offered
    to the worker fleet (:mod:`repro.service.fleet`) under a
    ``lease_seconds`` lease, retried up to ``lease_attempts`` claims —
    so ``worker_threads`` bounds the number of *in-flight leases*, and
    should be at least the expected fleet size.
    """

    def __init__(
        self,
        settings: ExperimentSettings = DEFAULT_SETTINGS,
        worker_threads: int = 1,
        max_queue: int = 64,
        job_timeout: Optional[float] = None,
        store: Optional[JobStore] = None,
        executor: str = "thread",
        engine: str = "naive",
        trace: bool = False,
        trace_path: Optional[str] = None,
        lease_seconds: float = 15.0,
        lease_attempts: int = 3,
    ):
        from repro.engine import get_engine

        self._settings = settings
        self._worker_threads = max(0, worker_threads)
        self._job_timeout = job_timeout
        # Tracing is stamped onto every job like the engine (execution
        # detail, hash-neutral); a trace file implies tracing, and each
        # completed traced job streams one repro-trace-v1 line to it.
        self._trace = trace or trace_path is not None
        self._trace_writer = (
            TraceWriter(trace_path) if trace_path is not None else None
        )
        # The evaluation engine stamped onto every job this service runs
        # (an execution detail, like the executor tier: content hashes
        # and results are engine-independent).  Resolving it now fails
        # fast — `serve --engine duckdb` without duckdb importable must
        # die at startup, not on the first job.
        get_engine(engine)
        self._engine = engine
        # Capacity is enforced on the *queued-record count*, not the
        # Queue's maxsize: a cancelled job leaves a stale id in the Queue
        # (workers skip it) but frees its capacity slot immediately.
        self._max_queue = max_queue
        self._queue: "Queue[Optional[str]]" = Queue()
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        self._threads: list[threading.Thread] = []
        self._ids = itertools.count(1)
        self._started_monotonic = clock.monotonic()
        # Service-level metrics live in a private registry so concurrent
        # services in one process (tests) don't bleed into each other;
        # /metrics renders it alongside the process-wide library
        # registry (engine/store/cache instruments).
        self._smetrics = metrics.MetricsRegistry()
        self._m_submitted = self._smetrics.counter(
            "repro_service_jobs_submitted_total",
            "Jobs accepted into the queue.",
        )
        self._m_completed = self._smetrics.counter(
            "repro_service_jobs_completed_total",
            "Jobs reaching a terminal state, by state.",
            labelnames=("state",),
        )
        self._m_cache_hits = self._smetrics.counter(
            "repro_service_cache_hits_total",
            "Jobs answered from the content-addressed result cache.",
        )
        self._m_store_errors = self._smetrics.counter(
            "repro_service_store_errors_total",
            "Store operations that failed and were degraded (persistence "
            "skipped, stats fell back to defaults).",
        )
        self._m_queue_wait = self._smetrics.histogram(
            "repro_service_queue_wait_seconds",
            "Time from submission to execution start.",
        )
        self._m_job_seconds = self._smetrics.histogram(
            "repro_service_job_seconds",
            "Search seconds per executed (non-cache-hit) job.",
        )
        self._m_phase_seconds = self._smetrics.histogram(
            "repro_service_phase_seconds",
            "Per-job time inside each trace phase (traced jobs only).",
            labelnames=("phase",),
        )
        self._g_queue_depth = self._smetrics.gauge(
            "repro_service_queue_depth", "Jobs currently queued.",
        )
        self._g_jobs_running = self._smetrics.gauge(
            "repro_service_jobs_running", "Jobs currently executing.",
        )
        self._g_results_stored = self._smetrics.gauge(
            "repro_service_results_stored",
            "Result payloads in the attached store (0 without --store).",
        )
        self._g_uptime = self._smetrics.gauge(
            "repro_service_uptime_seconds", "Service uptime.",
        )
        self._g_info = self._smetrics.gauge(
            "repro_service_info",
            "Constant 1; the labels carry the service configuration.",
            labelnames=("executor", "engine", "workers"),
        )
        # Fleet instruments (flat until a remote backend feeds them; the
        # worker label stays bounded — one series per fleet worker id).
        self._m_worker_jobs = self._smetrics.counter(
            "repro_service_worker_jobs_total",
            "Jobs delivered by fleet workers, by worker id and outcome.",
            labelnames=("worker", "outcome"),
        )
        self._m_lease_requeues = self._smetrics.counter(
            "repro_service_lease_requeues_total",
            "Fleet leases that expired (worker went silent) and were "
            "requeued or, attempts exhausted, failed.",
        )
        self._m_claim_wait = self._smetrics.histogram(
            "repro_service_claim_wait_seconds",
            "Time a fleet job waited from offer to worker claim.",
        )
        self._g_fleet_workers = self._smetrics.gauge(
            "repro_service_fleet_workers_live",
            "Fleet workers seen within the liveness window.",
        )
        self._store = store
        self._cache = ResultCache(store) if store is not None else None
        # Pool workers can only share a store that lives in a file; an
        # in-memory store stays service-side (the backend then reports
        # manages_store=False and this process persists results itself).
        self._backend = make_backend(
            executor,
            workers=max(1, self._worker_threads),
            store_path=shareable_store_path(store),
            lease_seconds=lease_seconds,
            lease_attempts=lease_attempts,
            store=store,
        )
        if self._backend.is_remote:
            self._backend.bind_metrics(
                worker_jobs=self._m_worker_jobs,
                requeues=self._m_lease_requeues,
                claim_wait=self._m_claim_wait,
                store_errors=self._m_store_errors,
                workers_gauge=self._g_fleet_workers,
            )
        self._g_info.set(
            1,
            executor=self._backend.name,
            engine=engine,
            workers=str(max(1, self._worker_threads)),
        )
        self._recovered_jobs = 0
        self._requeued_jobs = 0
        if store is not None:
            self._recover()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobService":
        """Start the backend, then spawn the worker threads (idempotent).

        Order matters for the process backend under the ``fork`` start
        method: its pool workers are pre-spawned here, while this
        process is still single-threaded.
        """
        self._backend.start()
        with self._lock:
            while len(self._threads) < self._worker_threads:
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-job-worker-{len(self._threads)}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers after they finish their current job."""
        threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout)
        self._backend.shutdown()
        if self._trace_writer is not None:
            self._trace_writer.close()

    # -- durability --------------------------------------------------------

    def _content_hash(self, job) -> str:
        """The canonical hash of the *effective* job (timeout clamped).

        Hashing after the clamp keeps submit-time persistence and
        run-time cache lookups on the same key, and stops a cached
        result computed under one ``job_timeout`` from answering a job
        that would run under another.
        """
        return job_content_hash(self._effective_job(job), self._settings)

    def _persist_submit(self, job_id: str, seq: int, job) -> None:
        """Persist one accepted job (called *outside* the service lock).

        Hashing a large inline payload and committing to SQLite are the
        slow parts of a submission; doing them after the lock is
        released keeps status/stats/worker traffic flowing.  The record
        is inserted as queued, then re-checked: a cancel that raced the
        insert (possible once the id is listable) is re-applied so the
        store never resurrects a cancelled job on restart.
        """
        if self._store is None:
            return
        try:
            self._store.record_job(
                job_id, seq, self._content_hash(job), job_to_spec(job),
                JOB_QUEUED,
            )
            with self._lock:
                record = self._records[job_id]
                state, finished_at = record.state, record.finished_at
            if state != JOB_QUEUED:
                self._store.update_job(
                    job_id, state, finished_at=finished_at
                )
        except sqlite3.Error:
            # Durability is best-effort; serving continues — but the
            # degradation is counted, not invisible (stats + /metrics).
            self._m_store_errors.inc()

    def _persist_state(self, job_id: str, state: str, **times) -> None:
        if self._store is None:
            return
        try:
            self._store.update_job(job_id, state, **times)
        except sqlite3.Error:
            self._m_store_errors.inc()

    def _recover(self) -> None:
        """Rebuild records from the store; re-enqueue unfinished jobs.

        Completed jobs come back with their results attached (the
        content-addressed payload), so ``GET /jobs/<id>/result`` keeps
        answering across restarts; queued jobs — and running ones, whose
        previous process died mid-search — are re-enqueued in their
        original submission order, provided the rebuilt job still hashes
        to the submitted content hash (otherwise the job fails visibly
        rather than re-running as something else).  Job ids continue
        from the highest persisted sequence number, so recovered and new
        ids never clash.
        """
        stored_jobs = self._store.list_jobs()
        self._ids = itertools.count(self._store.max_seq() + 1)
        for stored in stored_jobs:
            try:
                job = job_from_spec(
                    stored.spec,
                    default_rows=self._settings.kexample_rows,
                    base_config=self._base_config(),
                )
            except JobSpecError as exc:
                # A spec this code version cannot parse (version drift)
                # becomes a visible failure, not a silent drop.
                record = JobRecord(
                    job_id=stored.job_id, job=_UnparseableJob(stored),
                    state=JOB_FAILED,
                    error=f"unrecoverable job spec: {exc}",
                    submitted_at=stored.submitted_at,
                    finished_at=stored.finished_at or stored.submitted_at,
                )
                self._records[stored.job_id] = record
                self._recovered_jobs += 1  # rebuilt, just not runnable
                # Persist the failure: leaving the row queued would make
                # it ungarbage-collectable and re-report it every boot.
                self._persist_state(
                    stored.job_id, JOB_FAILED,
                    error=record.error, finished_at=record.finished_at,
                )
                continue
            record = JobRecord(
                job_id=stored.job_id, job=job, state=stored.state,
                error=stored.error, submitted_at=stored.submitted_at,
                started_at=stored.started_at, finished_at=stored.finished_at,
            )
            if stored.state in (JOB_QUEUED, JOB_RUNNING):
                # Re-run only what re-hashes identically: a spec cannot
                # express every OptimizerConfig (budget fields only), and
                # the service may have restarted under different
                # settings — silently running *similar* work and filing
                # it under the submitted job's id would hand the poller
                # a result for inputs they never asked for.
                if self._content_hash(job) != stored.content_hash:
                    record.state = JOB_FAILED
                    record.started_at = None
                    record.finished_at = time.time()
                    record.error = (
                        "cannot re-run faithfully after restart: the "
                        "job's content hash changed (a config beyond "
                        "spec budgets, or different serve settings); "
                        "resubmit it"
                    )
                    self._persist_state(
                        stored.job_id, JOB_FAILED,
                        error=record.error,
                        finished_at=record.finished_at,
                        clear_started_at=True,
                    )
                else:
                    record.state = JOB_QUEUED
                    record.started_at = None
                    self._persist_state(
                        stored.job_id, JOB_QUEUED, clear_started_at=True
                    )
                    # A lease held when the previous service died is
                    # stale by definition — the new backend knows
                    # nothing of it; requeueing clears the audit row.
                    if stored.lease_worker is not None:
                        try:
                            self._store.clear_lease(stored.job_id)
                        except sqlite3.Error:
                            self._m_store_errors.inc()
                    self._queue.put(stored.job_id)
                    self._requeued_jobs += 1
            elif stored.state == JOB_DONE:
                # peek, not load: recovery is not cache usage, and must
                # not refresh gc's LRU clock for every old result.  A
                # damaged payload must not stop the service from coming
                # up — the record just loses its result.
                try:
                    payload = self._store.peek_result(stored.content_hash)
                    if payload is not None:
                        record.result = BatchJobResult.from_payload(
                            payload, job
                        )
                except sqlite3.Error:
                    self._m_store_errors.inc()
                    payload = None
                except (ValueError, TypeError, KeyError, AttributeError):
                    payload = None
                if record.result is None:
                    record.error = (
                        "result payload no longer readable from the store "
                        "(evicted by gc, or damaged)"
                    )
            self._records[stored.job_id] = record
            self._recovered_jobs += 1

    # -- submission --------------------------------------------------------

    def submit(self, job) -> str:
        """Enqueue one built job; raises :class:`QueueFullError` when full."""
        with self._lock:
            if 0 < self._max_queue <= self._queued_count():
                raise QueueFullError(
                    f"job queue is full ({self._max_queue} pending); "
                    f"poll for results and retry"
                )
            seq = next(self._ids)
            job_id = f"job-{seq:06d}"
            self._records[job_id] = JobRecord(job_id=job_id, job=job)
        self._m_submitted.inc()
        self._persist_submit(job_id, seq, job)
        self._queue.put(job_id)
        return job_id

    def _queued_count(self) -> int:
        return sum(
            1 for r in self._records.values() if r.state == JOB_QUEUED
        )

    def submit_specs(self, specs: Sequence[dict]) -> list[str]:
        """Validate all specs first, then enqueue them in order.

        Validation failures (:class:`JobSpecError`) reject the whole
        batch before anything is queued; a queue-full rejection mid-batch
        reports how many jobs were accepted.
        """
        jobs = [
            self._attach_spec_context(index, spec)
            for index, spec in enumerate(specs)
        ]
        ids: list[str] = []
        try:
            for job in jobs:
                ids.append(self.submit(job))
        except ServiceError as exc:
            # Re-raise as the same type: the wire error code (e.g.
            # queue_full) must survive the batch-context wrapping.
            raise type(exc)(
                f"{exc} (accepted {len(ids)} of {len(jobs)} jobs"
                f"{': ' + ', '.join(ids) if ids else ''})"
            ) from None
        return ids

    def _attach_spec_context(self, index: int, spec: dict):
        try:
            return job_from_spec(
                spec,
                default_rows=self._settings.kexample_rows,
                base_config=self._base_config(),
            )
        except JobSpecError as exc:
            raise JobSpecError(f"job {index}: {exc}") from None

    def _base_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            max_candidates=self._settings.max_candidates,
            max_seconds=self._settings.max_seconds,
            engine=self._engine,
            trace=self._trace,
        )

    # -- queries -----------------------------------------------------------

    def record(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._records[job_id]  # KeyError -> 404 upstream

    def status_payload(self, job_id: str) -> dict:
        with self._lock:
            return self._records[job_id].status_payload()

    def list_payload(self) -> list[dict]:
        with self._lock:
            return [r.status_payload() for r in self._records.values()]

    def result_payload(self, job_id: str) -> tuple[int, dict]:
        """(HTTP status, payload): 200 once terminal, else 409."""
        with self._lock:
            record = self._records[job_id]
            if record.state in (JOB_QUEUED, JOB_RUNNING):
                return 409, {"id": job_id, "state": record.state}
            return 200, record.result_payload()

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/terminal jobs are not preempted."""
        with self._lock:
            record = self._records[job_id]
            if record.state != JOB_QUEUED:
                return False
            record.state = JOB_CANCELLED
            record.finished_at = time.time()
            finished_at = record.finished_at
        # Store commit outside the lock: a contended SQLite file must
        # not freeze the other endpoints (same rule as stats/submit).
        self._m_completed.inc(state="cancelled")
        self._persist_state(job_id, JOB_CANCELLED, finished_at=finished_at)
        return True

    # -- fleet (remote executor only) --------------------------------------

    def _remote_backend(self):
        """The fleet backend, or :class:`NotRemoteError` — the worker
        endpoints only exist on a ``--executor remote`` service."""
        if not self._backend.is_remote:
            raise NotRemoteError(
                f"this service runs executor {self._backend.name!r}; "
                f"the worker endpoints need a service started with "
                f"--executor remote"
            )
        return self._backend

    def worker_claim(self, worker_id) -> dict:
        return self._remote_backend().claim(worker_id)

    def worker_heartbeat(self, worker_id, job_id) -> dict:
        return self._remote_backend().heartbeat(worker_id, job_id)

    def worker_complete(self, worker_id, job_id, payload) -> dict:
        return self._remote_backend().complete(worker_id, job_id, payload)

    def stats_payload(self) -> dict:
        # Fleet stats come from the backend's own lock, taken *before*
        # the service lock (never nested inside it).
        fleet = (
            self._backend.fleet_stats() if self._backend.is_remote else None
        )
        # The store read happens before taking the service lock: a
        # contended SQLite file (a concurrent batch-optimize writer) may
        # block up to its busy timeout, and that wait must not freeze
        # submit/status/worker traffic.  Best-effort like every other
        # store call — a broken store must not take /stats down with it.
        results_stored = 0
        if self._store is not None:
            try:
                results_stored = self._store.result_count()
            except sqlite3.Error:
                self._m_store_errors.inc()
        store_errors = int(self._m_store_errors.value())
        with self._lock:
            states = []
            searched = []
            cache_hits = 0
            for record in self._records.values():
                states.append(record.state)
                # Only the jobs this process ran have an executor; a
                # recovered record's result belongs to a previous life.
                if record.executor is None or record.result is None:
                    continue
                if record.result.cache_hit:
                    # Served from the store: count the dedup, not the
                    # effort — the payload's counters describe the
                    # original run.
                    cache_hits += 1
                elif record.result.ok:
                    searched.append(record.result)
            payload = {
                "uptime_seconds": clock.monotonic() - self._started_monotonic,
                "executor": self._backend.name,
                "engine": self._engine,
                "worker_threads": self._worker_threads,
                "queue_capacity": self._max_queue,
                "queue_depth": states.count(JOB_QUEUED),
                "jobs_submitted": len(states),
                "jobs_running": states.count(JOB_RUNNING),
                "jobs_done": states.count(JOB_DONE),
                "jobs_failed": states.count(JOB_FAILED),
                "jobs_cancelled": states.count(JOB_CANCELLED),
                "job_seconds": sum((r.seconds for r in searched), 0.0),
                "sessions_reused": sum(r.session_reused for r in searched),
                "candidates_scanned": sum(
                    r.stats.candidates_scanned for r in searched
                ),
                "privacy_computations": sum(
                    r.stats.privacy_computations for r in searched
                ),
                "row_option_cache_hits": sum(
                    r.stats.row_option_cache_hits for r in searched
                ),
                "row_option_cache_misses": sum(
                    r.stats.row_option_cache_misses for r in searched
                ),
                # Persistent-store durability & dedup (zeros/None when
                # the service runs without --store).
                "cache_hits": cache_hits,
                "store_path": (
                    self._store.path if self._store is not None else None
                ),
                "results_stored": results_stored,
                # Store operations that failed and were degraded; nonzero
                # means durability/dedup is impaired even though serving
                # continues (the silent-swallow bugfix, also a /metrics
                # counter).
                "store_errors": store_errors,
                "jobs_recovered": self._recovered_jobs,
                "jobs_requeued": self._requeued_jobs,
            }
        if fleet is not None:
            payload["fleet"] = fleet
        return payload

    def metrics_text(self) -> str:
        """The Prometheus exposition document behind ``GET /metrics``.

        Scrape-time gauges are refreshed here; the rest of the document
        is the live service registry plus the process-wide library
        registry (engine/store/cache instruments).
        """
        with self._lock:
            states = [r.state for r in self._records.values()]
        self._g_queue_depth.set(states.count(JOB_QUEUED))
        self._g_jobs_running.set(states.count(JOB_RUNNING))
        self._g_uptime.set(clock.monotonic() - self._started_monotonic)
        results_stored = 0
        if self._store is not None:
            try:
                results_stored = self._store.result_count()
            except sqlite3.Error:
                self._m_store_errors.inc()
        self._g_results_stored.set(results_stored)
        return metrics.render_many([self._smetrics, metrics.REGISTRY])

    # -- execution ---------------------------------------------------------

    def run_next(self) -> bool:
        """Pop and execute one queue entry synchronously (test hook).

        Returns ``False`` when the queue is empty.  A cancelled entry is
        consumed (and counts as processed) without running anything.
        """
        try:
            job_id = self._queue.get_nowait()
        except Empty:
            return False
        if job_id is None:
            return False
        self._run_one(job_id)
        return True

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                self._run_one(job_id)
            except Exception as exc:  # noqa: BLE001 - workers must survive
                failed = None
                with self._lock:
                    record = self._records.get(job_id)
                    if record is not None and record.state == JOB_RUNNING:
                        record.state = JOB_FAILED
                        record.error = f"{type(exc).__name__}: {exc}"
                        record.finished_at = time.time()
                        failed = (record.error, record.finished_at)
                if failed is not None:  # store commit outside the lock
                    self._persist_state(
                        job_id, JOB_FAILED,
                        error=failed[0], finished_at=failed[1],
                    )

    def _effective_job(self, job):
        """The job as it will actually run: ``max_seconds`` clamped to the
        service timeout, and the service's engine and trace flag stamped
        on the config.

        None of the adjustments move the content hash: the materialized
        base budgets equal :func:`repro.store.hashing.effective_config`'s
        fallback exactly, and the engine and trace fields are stripped
        from hashing.  A job that needs nothing is returned untouched — a
        config-less job on a default-engine, untraced service already
        runs exactly this config through
        :func:`repro.batch.optimizer.run_job`'s own fallback.
        """
        base = job.config or self._base_config()
        config = base
        if self._job_timeout is not None:
            max_seconds = (
                self._job_timeout if config.max_seconds is None
                else min(config.max_seconds, self._job_timeout)
            )
            config = dataclasses.replace(config, max_seconds=max_seconds)
        if config.engine != self._engine:
            config = dataclasses.replace(config, engine=self._engine)
        if config.trace != self._trace:
            config = dataclasses.replace(config, trace=self._trace)
        if config is job.config:
            return job
        if (config is base and job.config is None
                and self._engine == DEFAULT_ENGINE and not self._trace):
            return job
        return dataclasses.replace(job, config=config)

    def _run_one(self, job_id: str) -> None:
        with self._lock:
            record = self._records[job_id]
            if record.state != JOB_QUEUED:
                return  # cancelled while waiting
            record.state = JOB_RUNNING
            record.started_at = time.time()
            record.executor = self._backend.name
        self._persist_state(job_id, JOB_RUNNING, started_at=record.started_at)
        # Queue wait from the wall-clock record timestamps: both stamped
        # by this process, so the difference is a valid interval.
        self._m_queue_wait.observe(
            max(0.0, record.started_at - record.submitted_at)
        )
        effective = self._effective_job(record.job)
        # The service-side cache consult answers repeats without a pool
        # round trip; a process backend with a file store consults (and
        # persists into) the same SQLite file again inside the worker,
        # which also catches results a concurrent writer stored after
        # this lookup missed.
        result = None
        if self._cache is not None:
            result = self._cache.lookup(effective, self._settings)
        if result is None:
            result = self._backend.run(
                effective, self._settings, job_id=job_id
            )
            if self._cache is not None and not self._backend.manages_store:
                self._cache.store_result(effective, self._settings, result)
        # Which fleet worker delivered (remote only); fetched before the
        # service lock — worker_of takes the backend's own lock.
        worker = (
            self._backend.worker_of(job_id)
            if self._backend.is_remote else None
        )
        with self._lock:
            record.result = result
            record.worker = worker
            record.finished_at = time.time()
            record.state = JOB_DONE if result.ok else JOB_FAILED
        self._persist_state(
            job_id,
            JOB_DONE if result.ok else JOB_FAILED,
            finished_at=record.finished_at,
            error=result.error,
        )
        self._observe_completion(result)

    def _observe_completion(self, result: BatchJobResult) -> None:
        """Fold one finished job into the service metrics (and the trace
        file, when one is attached).  Runs outside the service lock."""
        self._m_completed.inc(state="done" if result.ok else "failed")
        if result.cache_hit:
            self._m_cache_hits.inc()
        elif result.ok:
            self._m_job_seconds.observe(result.seconds)
        if not result.trace:
            return
        # Per-phase totals for this job: spans grouped by name, one
        # histogram observation per phase per job.  Phase names are a
        # small fixed taxonomy, so label cardinality stays bounded.
        totals: dict[str, float] = {}
        for span in result.trace:
            name = str(span.get("name", ""))
            totals[name] = totals.get(name, 0.0) + float(
                span.get("seconds", 0.0)
            )
        for name, seconds in sorted(totals.items()):
            self._m_phase_seconds.observe(seconds, phase=name)
        if self._trace_writer is not None:
            job = result.job
            record = trace_record(
                result.trace,
                label=f"{job.query_name}@{job.threshold}",
                query=job.query_name,
                threshold=job.threshold,
                tag=job.tag or None,
                seconds=result.seconds,
            )
            try:
                self._trace_writer.write(record)
            except (OSError, ValueError):
                pass  # a full disk must not fail the job


class JobServiceHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` HTTP requests onto a bound :class:`JobService`.

    Any other path answers 404 ``unknown_path``.  Errors — library
    exceptions and unexpected ones alike — leave as the unified envelope
    via :func:`repro.service.protocol.error_response`.
    """

    service: JobService  # bound by make_server
    quiet = True
    server_version = "repro-service/1.0"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    def _parts(self) -> list[str]:
        return [p for p in self.path.split("?", 1)[0].split("/") if p]

    def _send_headers(self, code: int, length: int, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        self.end_headers()

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send_headers(code, len(body), "application/json")
        self.wfile.write(body)

    def _send_text(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self._send_headers(code, len(data), content_type)
        self.wfile.write(data)

    def _fail(self, exc: BaseException, detail: Optional[dict] = None) -> None:
        code, payload = protocol.error_response(exc, detail)
        self._send(code, payload)

    def _fail_path(self, method: str) -> None:
        code, _ = protocol.ERROR_CODES["unknown_path"]
        self._send(code, protocol.error_payload(
            "unknown_path", f"no route for {method} {self.path!r}"
        ))

    def _read_json(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # A negative length would read until the client hangs up.
            raise RequestError(
                f"Content-Length must be a non-negative integer, "
                f"got {header!r}"
            )
        raw = self.rfile.read(length) if length else b""
        return json.loads(raw) if raw else None

    def _read_object(self) -> dict:
        data = self._read_json()
        if not isinstance(data, dict):
            raise RequestError("this endpoint expects a JSON object body")
        return data

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        raw_parts = self._parts()
        parts = raw_parts[1:]
        try:
            if raw_parts[:1] != ["v1"] or not self._route(method, parts):
                self._fail_path(method)
        except KeyError:
            job_id = parts[1] if len(parts) > 1 else "?"
            self._fail(JobNotFoundError(f"unknown job {job_id!r}"))
        except json.JSONDecodeError as exc:
            self._fail(RequestError(f"malformed JSON body: {exc}"))
        except ReproError as exc:
            self._fail(exc)
        except (BrokenPipeError, ConnectionResetError):
            raise  # the client is gone; there is nobody to answer
        except Exception as exc:  # noqa: BLE001 - envelope over HTML 500
            self._fail(exc)

    def _route(self, method: str, parts: list[str]) -> bool:
        """Serve one ``/v1`` request; ``False`` means no route matched."""
        if method == "GET":
            if not parts:
                self._send(200, protocol.catalog_payload())
                return True
            if parts == ["healthz"]:
                self._send(200, {"ok": True})
                return True
            if parts == ["stats"]:
                self._send(200, self.service.stats_payload())
                return True
            if parts == ["metrics"]:
                self._send_text(
                    200, self.service.metrics_text(), metrics.CONTENT_TYPE
                )
                return True
            if parts == ["jobs"]:
                self._send(200, {"jobs": self.service.list_payload()})
                return True
            if len(parts) == 2 and parts[0] == "jobs":
                self._send(200, self.service.status_payload(parts[1]))
                return True
            if (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "result"):
                code, payload = self.service.result_payload(parts[1])
                if code != 200:
                    self._fail(
                        ResultNotReadyError(
                            f"job {parts[1]} is {payload['state']}; "
                            f"the result exists once it is terminal"
                        ),
                        detail=payload,
                    )
                else:
                    self._send(200, payload)
                return True
            return False
        if method == "POST":
            if parts == ["jobs"]:
                data = self._read_json()
                specs = [data] if isinstance(data, dict) else data
                if not isinstance(specs, list) or not specs:
                    raise RequestError(
                        "POST /v1/jobs expects a job spec object or a "
                        "non-empty list of specs"
                    )
                self._send(200, {"ids": self.service.submit_specs(specs)})
                return True
            if (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "cancel"):
                cancelled = self.service.cancel(parts[1])
                self._send(200, {"id": parts[1], "cancelled": cancelled})
                return True
            if len(parts) == 2 and parts[0] == "workers":
                return self._route_worker(parts[1])
            return False
        return False

    def _route_worker(self, action: str) -> bool:
        if action == "claim":
            data = self._read_object()
            self._send(200, self.service.worker_claim(data.get("worker")))
            return True
        if action == "heartbeat":
            data = self._read_object()
            self._send(200, self.service.worker_heartbeat(
                data.get("worker"), data.get("id")
            ))
            return True
        if action == "complete":
            data = self._read_object()
            self._send(200, self.service.worker_complete(
                data.get("worker"), data.get("id"), data.get("payload")
            ))
            return True
        return False


def make_server(
    service: JobService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``service`` (port 0 picks a free port).

    Bind failures (port in use, bad host) surface as
    :class:`ServiceError` so CLI callers report them as one-line errors.
    """
    handler = type(
        "BoundJobServiceHandler",
        (JobServiceHandler,),
        {"service": service, "quiet": quiet},
    )
    try:
        server = ThreadingHTTPServer((host, port), handler)
    except OSError as exc:
        raise ServiceError(f"cannot bind {host}:{port}: {exc}") from None
    server.daemon_threads = True
    return server
