"""The ``remote`` executor: lease-based job distribution to a worker fleet.

:class:`RemoteBackend` executes nothing itself.  A service worker
thread calling :meth:`RemoteBackend.run` *offers* the job to the fleet
and blocks; worker processes — ``repro worker``, usually on other
hosts — drive the other side over the v1 HTTP surface
(:mod:`repro.service.protocol`):

1. ``POST /v1/workers/claim`` -> :meth:`claim` hands out the job as a
   descriptor (spec + settings + full effective config + content hash
   — enough to rebuild and verify the exact job) under a *lease* of
   ``lease_seconds``.
2. ``POST /v1/workers/heartbeat`` -> :meth:`heartbeat` extends the
   lease while the search runs.
3. ``POST /v1/workers/complete`` -> :meth:`complete` delivers the
   result as the same lossless ``to_payload()`` JSON that crosses
   process pools and the store, and wakes the blocked ``run``.

Lease state machine (per job)::

    pending --claim--> claimed --complete--> done
       ^                  |
       '---lease expired--'   (attempts < max_attempts)
                          '--> failed       (attempts exhausted)

A worker that stops heartbeating — crashed, SIGKILLed, partitioned —
simply stops extending its deadline; the blocked ``run`` loop notices
the expiry, requeues the job (bounded by ``max_attempts``), and another
worker picks it up.  Expiry is judged on this process's monotonic
clock only, so fleet correctness never depends on cross-host clock
agreement.  A delivery racing the expiry stays atomic under the
backend lock: whichever side flips the state first wins, and the loser
(a late ``complete`` after a requeue) gets ``lease_lost``.

Routing shards by content hash: :meth:`claim` prefers the pending job
whose :func:`~repro.store.hashing.job_content_hash` rendezvous-hashes
to the claiming worker, so identical resubmissions land on the worker
whose context/privacy-session caches are already warm for that job.
Affinity never idles hardware, though — a worker with no preferred
pending job takes the oldest one instead.

Lease state is arbitrated entirely in memory; when the service has a
:class:`~repro.store.JobStore`, claims and requeues are mirrored into
its lease columns (wall-clock expiry) purely for audit — ``repro jobs
show`` and post-mortems can see who held what — never for arbitration.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.batch.jobs import BatchJobResult, config_to_payload, job_to_spec
from repro.errors import LeaseLostError, RequestError
from repro.obs import clock
from repro.obs.spans import Tracer
from repro.service.executors import ExecutorBackend
from repro.store.hashing import (
    effective_config,
    hash_parts,
    job_content_hash,
)

#: How often a blocked ``run`` re-checks completion/expiry.  Workers
#: set the completion event, so this only bounds expiry-detection
#: latency, not delivery latency.
_TICK_SECONDS = 0.05

_PENDING = "pending"
_CLAIMED = "claimed"
_DONE = "done"
_FAILED = "failed"


@dataclass
class _FleetJob:
    """One job offered to the fleet (the in-memory lease record)."""

    job_id: str
    job: Any  # BatchJob | InlineJob
    settings: Any  # ExperimentSettings
    spec: dict
    content_hash: str
    #: The *effective* config as a lossless wire dict
    #: (:func:`repro.batch.jobs.config_to_payload`): the spec grammar
    #: only carries budgets, but the worker must run every switch the
    #: service hashed — engine, trace, privacy sub-config included.
    config: dict = field(default_factory=dict)
    state: str = _PENDING
    worker: Optional[str] = None
    #: Monotonic lease deadline (None while pending).
    deadline: Optional[float] = None
    attempts: int = 0
    enqueued: float = 0.0  # monotonic
    claimed_at: Optional[float] = None
    payload: Optional[dict] = None
    error: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)


@dataclass
class _WorkerInfo:
    """Per-worker bookkeeping (keyed by the worker-chosen id)."""

    last_seen: float = 0.0  # monotonic
    claimed: int = 0
    completed: int = 0
    leases_lost: int = 0


class RemoteBackend(ExecutorBackend):
    """Distribute claimed jobs to remote workers under leases.

    ``lease_seconds`` is the heartbeat contract: a worker must extend
    its lease at least once per window (``repro worker`` heartbeats at
    a third of it) or the job is requeued.  ``max_attempts`` bounds how
    many claims one job may burn before it fails visibly.  ``store``
    (optional) mirrors lease changes into the job store's audit
    columns.
    """

    name = "remote"
    #: Marks the backend as fleet-facing; the service gates the
    #: ``/v1/workers/*`` endpoints on this (``not_remote`` otherwise).
    is_remote = True

    def __init__(
        self,
        lease_seconds: float = 15.0,
        max_attempts: int = 3,
        store=None,
    ):
        self._lease_seconds = max(0.2, float(lease_seconds))
        self._max_attempts = max(1, int(max_attempts))
        # A worker counts as live (for routing) within this window of
        # its last request; generous so a worker busy searching — it
        # still heartbeats — keeps its routing preference.
        self._worker_ttl = max(2.0 * self._lease_seconds, 5.0)
        self._store = store
        self._lock = threading.Lock()
        self._jobs: Dict[str, _FleetJob] = {}
        self._workers: Dict[str, _WorkerInfo] = {}
        self._completed_by: Dict[str, str] = {}
        self._requeues = 0
        self._closed = False
        self._ids = itertools.count(1)
        # Metric hooks, bound by the owning service (bind_metrics); the
        # backend works unmetered too (tests drive it directly).
        self._m_worker_jobs = None
        self._m_requeues = None
        self._m_claim_wait = None
        self._m_store_errors = None
        self._g_workers = None

    @property
    def lease_seconds(self) -> float:
        return self._lease_seconds

    @property
    def max_attempts(self) -> int:
        return self._max_attempts

    @property
    def lease_requeues(self) -> int:
        """How many leases have expired and been requeued (or failed)."""
        with self._lock:
            return self._requeues

    def bind_metrics(
        self,
        *,
        worker_jobs=None,
        requeues=None,
        claim_wait=None,
        store_errors=None,
        workers_gauge=None,
    ) -> None:
        """Attach the service's ``repro_service_*`` instruments."""
        self._m_worker_jobs = worker_jobs
        self._m_requeues = requeues
        self._m_claim_wait = claim_wait
        self._m_store_errors = store_errors
        self._g_workers = workers_gauge

    # -- the service side (one blocked run() per in-flight job) -----------

    def run(self, job, settings, job_id=None) -> BatchJobResult:
        entry = _FleetJob(
            job_id=job_id or f"fleet-{next(self._ids)}",
            job=job,
            settings=settings,
            spec=job_to_spec(job),
            content_hash=job_content_hash(job, settings),
            # effective_config is exactly what job_content_hash digests
            # (modulo the execution-only fields), so shipping it keeps
            # the worker's recomputed hash honest for *any* job —
            # including hand-built configs the spec grammar cannot carry.
            config=config_to_payload(effective_config(job, settings)),
            enqueued=clock.monotonic(),
        )
        with self._lock:
            if self._closed:
                return BatchJobResult(
                    job=job,
                    error="service shut down before the job could be "
                          "offered to the fleet",
                )
            self._jobs[entry.job_id] = entry
        try:
            return self._await_fleet(entry)
        finally:
            with self._lock:
                self._jobs.pop(entry.job_id, None)

    def _await_fleet(self, entry: _FleetJob) -> BatchJobResult:
        """Block until the fleet delivers, the lease chain exhausts, or
        the backend shuts down."""
        while True:
            entry.done.wait(_TICK_SECONDS)
            done_payload = None
            lost_worker = None
            with self._lock:
                if entry.state == _DONE:
                    done_payload = entry.payload
                elif self._closed:
                    entry.state = _FAILED
                    entry.error = (
                        "service shut down while the job was waiting on "
                        "the fleet"
                    )
                elif (
                    entry.state == _CLAIMED
                    and entry.deadline is not None
                    and clock.monotonic() > entry.deadline
                ):
                    # The worker went silent for a whole lease window.
                    lost_worker = entry.worker
                    self._requeues += 1
                    info = self._workers.get(lost_worker or "")
                    if info is not None:
                        info.leases_lost += 1
                    if entry.attempts >= self._max_attempts:
                        entry.state = _FAILED
                        entry.error = (
                            f"lease lost {entry.attempts} time(s) — "
                            f"workers claimed the job but never "
                            f"delivered (last: {lost_worker!r}); giving "
                            f"up after max_attempts={self._max_attempts}"
                        )
                    else:
                        entry.state = _PENDING
                        entry.worker = None
                        entry.deadline = None
                        entry.claimed_at = None
            # All I/O (metrics, store mirror) outside the lock.
            if lost_worker is not None:
                if self._m_requeues is not None:
                    self._m_requeues.inc()
                self._persist_lease_cleared(entry.job_id)
            if done_payload is not None:
                return BatchJobResult.from_payload(done_payload, entry.job)
            if entry.state == _FAILED:
                return BatchJobResult(job=entry.job, error=entry.error)

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            self._closed = True
            for entry in self._jobs.values():
                entry.done.set()

    # -- the worker side (driven by the /v1/workers/* endpoints) ----------

    def claim(self, worker_id) -> dict:
        """Lease the claiming worker its next job (or ``{"job": None}``).

        Preference order: the pending job (in submission order) whose
        content hash rendezvous-hashes to this worker, else the oldest
        pending job — affinity routes repeat content to warm caches,
        but an idle worker is never turned away while work is pending.
        """
        self._require_worker_id(worker_id)
        job_payload = None
        claim_wait = 0.0
        attempts = 0
        with self._lock:
            now = clock.monotonic()
            info = self._workers.setdefault(worker_id, _WorkerInfo())
            info.last_seen = now
            entry = None if self._closed else self._pick(worker_id, now)
            if entry is not None:
                entry.state = _CLAIMED
                entry.worker = worker_id
                entry.attempts += 1
                entry.claimed_at = now
                entry.deadline = now + self._lease_seconds
                info.claimed += 1
                attempts = entry.attempts
                claim_wait = max(0.0, now - entry.enqueued)
                job_payload = {
                    "id": entry.job_id,
                    "spec": entry.spec,
                    "content_hash": entry.content_hash,
                    "config": entry.config,
                    "settings": entry.settings.to_payload(),
                    "lease_seconds": self._lease_seconds,
                    "heartbeat_seconds": max(
                        0.05, self._lease_seconds / 3.0
                    ),
                    "attempt": attempts,
                    "max_attempts": self._max_attempts,
                }
        self._refresh_workers_gauge()
        if job_payload is None:
            return {"job": None}
        if self._m_claim_wait is not None:
            self._m_claim_wait.observe(claim_wait)
        self._persist_lease(job_payload["id"], worker_id, attempts)
        return {"job": job_payload}

    def heartbeat(self, worker_id, job_id) -> dict:
        """Extend a held lease by a full window; 409 when not held."""
        self._require_worker_id(worker_id)
        self._require_job_id(job_id)
        with self._lock:
            now = clock.monotonic()
            info = self._workers.setdefault(worker_id, _WorkerInfo())
            info.last_seen = now
            entry = self._live_lease(worker_id, job_id)
            entry.deadline = now + self._lease_seconds
            attempts = entry.attempts
        self._persist_lease(job_id, worker_id, attempts)
        return {"ok": True, "lease_seconds": self._lease_seconds}

    def complete(self, worker_id, job_id, payload) -> dict:
        """Accept a finished job's result payload; wake the blocked run.

        A delivery slightly *past* the deadline still lands as long as
        the run loop has not requeued the job yet (its state is still
        ``claimed`` by this worker) — the lease guards against silent
        death, not against finishing 100 ms late.
        """
        self._require_worker_id(worker_id)
        self._require_job_id(job_id)
        if not isinstance(payload, dict):
            raise RequestError(
                "complete needs a result payload object "
                "(BatchJobResult.to_payload())"
            )
        with self._lock:
            now = clock.monotonic()
            info = self._workers.setdefault(worker_id, _WorkerInfo())
            info.last_seen = now
            entry = self._live_lease(worker_id, job_id)
            self._append_fleet_spans(entry, payload, now)
            entry.payload = payload
            entry.state = _DONE
            self._completed_by[job_id] = worker_id
            info.completed += 1
            outcome = "error" if payload.get("error") else "ok"
            entry.done.set()
        if self._m_worker_jobs is not None:
            self._m_worker_jobs.inc(worker=worker_id, outcome=outcome)
        self._persist_lease_cleared(job_id)
        return {"ok": True}

    def worker_of(self, job_id) -> Optional[str]:
        """Which worker completed ``job_id`` (consumed on read)."""
        with self._lock:
            return self._completed_by.pop(job_id, None)

    def fleet_stats(self) -> dict:
        """The ``fleet`` section of ``GET /v1/stats``."""
        with self._lock:
            now = clock.monotonic()
            return {
                "lease_seconds": self._lease_seconds,
                "max_attempts": self._max_attempts,
                "jobs_pending": sum(
                    1 for e in self._jobs.values() if e.state == _PENDING
                ),
                "leases_active": sum(
                    1 for e in self._jobs.values() if e.state == _CLAIMED
                ),
                "leases": {
                    e.job_id: {
                        "worker": e.worker,
                        "attempt": e.attempts,
                        "expires_in_seconds": max(
                            0.0, (e.deadline or now) - now
                        ),
                    }
                    for e in self._jobs.values() if e.state == _CLAIMED
                },
                "lease_requeues": self._requeues,
                "workers": {
                    worker: {
                        "live": now - info.last_seen <= self._worker_ttl,
                        "last_seen_seconds": max(0.0, now - info.last_seen),
                        "claimed": info.claimed,
                        "completed": info.completed,
                        "leases_lost": info.leases_lost,
                    }
                    for worker, info in self._workers.items()
                },
            }

    # -- internals ---------------------------------------------------------

    def _require_worker_id(self, worker_id) -> None:
        if not isinstance(worker_id, str) or not worker_id:
            raise RequestError(
                "the request needs a non-empty string \"worker\" field"
            )

    def _require_job_id(self, job_id) -> None:
        if not isinstance(job_id, str) or not job_id:
            raise RequestError(
                "the request needs a non-empty string \"id\" field "
                "(the leased job id)"
            )

    def _live_lease(self, worker_id: str, job_id: str) -> _FleetJob:
        """The caller's claimed entry, or :class:`LeaseLostError`.

        Callers hold the lock.  Deliberately checks *state*, not the
        clock: an expired-but-not-yet-requeued lease may still
        heartbeat or deliver (the run loop simply has not noticed the
        expiry yet), and once it has, the state flip makes this raise.
        """
        entry = self._jobs.get(job_id)
        if (
            entry is None
            or entry.state != _CLAIMED
            or entry.worker != worker_id
        ):
            raise LeaseLostError(
                f"worker {worker_id!r} holds no live lease on job "
                f"{job_id!r} (expired and requeued, finished, or never "
                f"claimed); drop the job"
            )
        return entry

    def _pick(
        self, worker_id: str, now: float
    ) -> Optional[_FleetJob]:
        pending = [
            e for e in self._jobs.values() if e.state == _PENDING
        ]  # dict preserves submission order
        if not pending:
            return None
        live = sorted(
            worker
            for worker, info in self._workers.items()
            if now - info.last_seen <= self._worker_ttl
        )
        for entry in pending:
            if self._preferred_worker(entry.content_hash, live) == worker_id:
                return entry
        return pending[0]

    @staticmethod
    def _preferred_worker(content_hash: str, live: list) -> Optional[str]:
        """Rendezvous (highest-random-weight) owner of ``content_hash``.

        Deterministic given the live-worker set, stable under fleet
        membership churn (only jobs owned by a departed worker move),
        and needs no coordination — every claim recomputes it from
        scratch.
        """
        if not live:
            return None
        return max(
            live, key=lambda worker: hash_parts(content_hash, worker)
        )

    def _append_fleet_spans(
        self, entry: _FleetJob, payload: dict, now: float
    ) -> None:
        """Stamp queue-wait and lease-hold spans onto a traced result.

        Traces ride the VOLATILE tier, so mutating them never moves a
        result hash; untraced results (``trace`` null) stay untouched —
        tracing stays strictly opt-in.
        """
        trace = payload.get("trace")
        if not isinstance(trace, list):
            return
        claimed_at = entry.claimed_at if entry.claimed_at is not None else now
        tracer = Tracer.from_payload(trace)
        tracer.add(
            "fleet_claim_wait",
            max(0.0, claimed_at - entry.enqueued),
            worker=entry.worker,
        )
        tracer.add(
            "fleet_lease", max(0.0, now - claimed_at), worker=entry.worker
        )
        payload["trace"] = tracer.to_payload()

    def _refresh_workers_gauge(self) -> None:
        if self._g_workers is None:
            return
        with self._lock:
            now = clock.monotonic()
            live = sum(
                1 for info in self._workers.values()
                if now - info.last_seen <= self._worker_ttl
            )
        self._g_workers.set(live)

    def _persist_lease(
        self, job_id: str, worker_id: str, attempts: int
    ) -> None:
        """Mirror a claim/heartbeat into the store's audit columns.

        Wall-clock expiry (humans read these rows); arbitration stays
        on this process's monotonic deadlines.  Best-effort like every
        other store write — but counted when it degrades.
        """
        if self._store is None:
            return
        try:
            self._store.set_lease(
                job_id,
                worker_id,
                time.time() + self._lease_seconds,
                attempts,
            )
        except sqlite3.Error:
            if self._m_store_errors is not None:
                self._m_store_errors.inc()

    def _persist_lease_cleared(self, job_id: str) -> None:
        if self._store is None:
            return
        try:
            self._store.clear_lease(job_id)
        except sqlite3.Error:
            if self._m_store_errors is not None:
                self._m_store_errors.inc()


__all__ = ["RemoteBackend"]
