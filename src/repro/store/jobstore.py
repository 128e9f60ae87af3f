"""A SQLite-backed persistent job store.

One file (or ``:memory:``) holds two tables:

``jobs``
    Every job the service has accepted: its id, canonical JSON spec
    text (:func:`repro.batch.jobs.job_spec_text`, stored as given —
    enough to rebuild and re-run the job after a restart), content
    hash, lifecycle state with timestamps, and any service-level error.

``results``
    Full :meth:`repro.batch.jobs.BatchJobResult.to_payload` payloads,
    keyed by the job's :func:`~repro.store.hashing.job_content_hash` —
    *content-addressed*, so two jobs asking for the same work share one
    row and the second never runs the optimizer.  ``hits`` /
    ``last_used_at`` record cache traffic and drive ``gc`` retention.

The store is safe to share across the service's HTTP and worker threads
(one connection guarded by a lock) and across *processes* — a batch or
scenario run next to a live service, fleet workers — each with its own
connection (WAL journaling plus a busy timeout serialize the short
writes).  All values cross the boundary as canonical JSON text, so a
payload read back is byte-for-byte the payload written.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServiceError
from repro.obs import clock, metrics, spans

#: Process-local store-operation latency, by operation name.  The timer
#: wraps the lock acquisition too, so lock contention shows up here.
_OP_SECONDS = metrics.REGISTRY.histogram(
    "repro_store_op_seconds",
    "JobStore operation latency (lock wait included), by operation.",
    labelnames=("op",),
)


class _timed:
    """Times one store operation into the histogram and — when a job
    tracer is ambient — the job's aggregated ``store_io`` span."""

    __slots__ = ("_op", "_t0")

    def __init__(self, op: str) -> None:
        self._op = op

    def __enter__(self) -> "_timed":
        self._t0 = clock.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = clock.perf_counter() - self._t0
        _OP_SECONDS.observe(elapsed, op=self._op)
        tracer = spans.current()
        if tracer is not None:
            tracer.add("store_io", elapsed, op=self._op)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id           TEXT PRIMARY KEY,
    seq              INTEGER NOT NULL,
    content_hash     TEXT NOT NULL,
    spec             TEXT NOT NULL,
    state            TEXT NOT NULL,
    error            TEXT,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    lease_worker     TEXT,
    lease_expires_at REAL,
    attempts         INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state);
CREATE INDEX IF NOT EXISTS jobs_hash ON jobs (content_hash);
CREATE TABLE IF NOT EXISTS results (
    content_hash TEXT PRIMARY KEY,
    payload      TEXT NOT NULL,
    created_at   REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0,
    last_used_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class StoredJob:
    """One persisted job record, spec already parsed back to a dict."""

    job_id: str
    seq: int
    content_hash: str
    spec: dict
    state: str
    error: Optional[str]
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    #: Fleet lease bookkeeping (remote executor only): the worker id
    #: holding the lease, its wall-clock expiry, and how many times the
    #: job has been claimed (requeues after lost leases included).
    lease_worker: Optional[str] = None
    lease_expires_at: Optional[float] = None
    attempts: int = 0

    @property
    def label(self) -> str:
        """A short human label: the workload name or ``inline``."""
        return str(self.spec.get("query_name", "inline"))


class JobStore:
    """Thread-safe persistence for job records and result payloads."""

    def __init__(self, path: str = ":memory:"):
        self._path = str(path)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                self._path, check_same_thread=False, timeout=10.0
            )
            # WAL lets other processes append results while the service
            # reads; in-memory databases silently keep the
            # default journal, which is fine (they have one process).
            # Connecting is lazy — pointing at a non-SQLite file only
            # fails here, so the schema setup shares the error mapping.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._migrate()
            self._conn.commit()
        except sqlite3.Error as exc:
            conn = getattr(self, "_conn", None)
            if conn is not None:
                conn.close()
            raise ServiceError(
                f"cannot open job store {self._path!r}: {exc}"
            ) from None

    def _migrate(self) -> None:
        """Bring a pre-fleet store file up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves an existing ``jobs`` table
        untouched, so the lease columns (added for the remote-executor
        fleet) are retrofitted with ``ALTER TABLE`` — additive and
        nullable, so old code reading a migrated file keeps working.
        """
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(jobs)")
        }
        for name, declaration in (
            ("lease_worker", "TEXT"),
            ("lease_expires_at", "REAL"),
            ("attempts", "INTEGER NOT NULL DEFAULT 0"),
        ):
            if name not in columns:
                self._conn.execute(
                    f"ALTER TABLE jobs ADD COLUMN {name} {declaration}"
                )

    @property
    def path(self) -> str:
        return self._path

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- job records -------------------------------------------------------

    def record_job(
        self,
        job_id: str,
        seq: int,
        content_hash: str,
        spec_text: str,
        state: str,
        submitted_at: Optional[float] = None,
    ) -> None:
        """Insert (or overwrite) one job record.

        ``spec_text`` is the job's spec as JSON text, stored as given:
        the service passes :func:`repro.batch.jobs.job_spec_text`, which
        already holds an inline job's database as canonical text, so a
        submit neither parses nor re-serializes it.
        """
        with _timed("record_job"), self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO jobs "
                "(job_id, seq, content_hash, spec, state, submitted_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    job_id, seq, content_hash, spec_text, state,
                    # Operational submission timestamp — displayed and
                    # gc-compared, never part of a content hash.
                    time.time() if submitted_at is None else submitted_at,
                ),
            )
            self._conn.commit()

    def update_job(
        self,
        job_id: str,
        state: str,
        *,
        error: Optional[str] = None,
        started_at: Optional[float] = None,
        finished_at: Optional[float] = None,
        clear_started_at: bool = False,
    ) -> None:
        """Advance a job's lifecycle state.

        ``None`` fields keep their stored values (timestamps only move
        forward) — except under ``clear_started_at``, which nulls
        ``started_at``: restart recovery re-queues a job that was running
        in a dead process, and a queued row must not carry that process's
        start timestamp.
        """
        with _timed("update_job"), self._lock:
            if clear_started_at:
                started_sql, started_param = "?", None
            else:
                started_sql, started_param = (
                    "COALESCE(?, started_at)", started_at,
                )
            self._conn.execute(
                "UPDATE jobs SET state = ?, "
                "error = COALESCE(?, error), "
                f"started_at = {started_sql}, "
                "finished_at = COALESCE(?, finished_at) "
                "WHERE job_id = ?",
                (state, error, started_param, finished_at, job_id),
            )
            self._conn.commit()

    def set_lease(
        self,
        job_id: str,
        worker: str,
        expires_at: float,
        attempts: int,
    ) -> None:
        """Record a claimed (or re-heartbeated) fleet lease.

        The in-memory :class:`repro.service.fleet.RemoteBackend` is
        authoritative for lease arbitration (monotonic deadlines); these
        wall-clock rows exist so a restarted service — and offline
        ``repro jobs show`` — can see who held what and how many
        attempts a job has burned.
        """
        with _timed("set_lease"), self._lock:
            self._conn.execute(
                "UPDATE jobs SET lease_worker = ?, lease_expires_at = ?, "
                "attempts = ? WHERE job_id = ?",
                (worker, expires_at, attempts, job_id),
            )
            self._conn.commit()

    def clear_lease(self, job_id: str) -> None:
        """Drop the lease columns (job completed, requeued, or failed);
        ``attempts`` is kept — it is audit history, not lease state."""
        with _timed("clear_lease"), self._lock:
            self._conn.execute(
                "UPDATE jobs SET lease_worker = NULL, "
                "lease_expires_at = NULL WHERE job_id = ?",
                (job_id,),
            )
            self._conn.commit()

    def get_job(self, job_id: str) -> Optional[StoredJob]:
        with _timed("get_job"), self._lock:
            row = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return _stored_job(row) if row is not None else None

    def list_jobs(self, state: Optional[str] = None) -> list[StoredJob]:
        """Every job record (optionally one state), in submission order."""
        query = f"SELECT {_JOB_COLUMNS} FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY seq"
        with _timed("list_jobs"), self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [_stored_job(row) for row in rows]

    def max_seq(self) -> int:
        """The highest numeric job id ever issued (0 for a fresh store)."""
        with self._lock:
            row = self._conn.execute("SELECT MAX(seq) FROM jobs").fetchone()
        return int(row[0] or 0)

    # -- result payloads ---------------------------------------------------

    def save_result(self, content_hash: str, payload: dict) -> bool:
        """Store one result payload; ``False`` when the hash already has one.

        Content-addressing makes the first write authoritative: a racing
        second writer computed the same payload, so keeping the existing
        row preserves bit-identical reads.
        """
        # created_at/last_used_at are gc bookkeeping, not hash inputs.
        now = time.time()
        with _timed("save_result"), self._lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO results "
                "(content_hash, payload, created_at, last_used_at) "
                "VALUES (?, ?, ?, ?)",
                (
                    content_hash,
                    json.dumps(payload, sort_keys=True, separators=(",", ":")),
                    now, now,
                ),
            )
            self._conn.commit()
        return cursor.rowcount > 0

    def load_result(self, content_hash: str) -> Optional[dict]:
        """The stored payload for ``content_hash``, bumping the hit counters.

        This is the *cache-hit* path: ``hits``/``last_used_at`` drive gc
        retention, so only reads that stand in for a search should go
        through here.  Inspection and restart recovery use
        :meth:`peek_result`.
        """
        with _timed("load_result"), self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE content_hash = ?",
                (content_hash,),
            ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE results SET hits = hits + 1, last_used_at = ? "
                "WHERE content_hash = ?",
                # LRU clock for gc retention, never hashed.
                (time.time(), content_hash),
            )
            self._conn.commit()
        return json.loads(row[0])

    def peek_result(self, content_hash: str) -> Optional[dict]:
        """The stored payload without touching the usage counters."""
        with _timed("peek_result"), self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE content_hash = ?",
                (content_hash,),
            ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def result_count(self) -> int:
        with _timed("result_count"), self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    # -- maintenance -------------------------------------------------------

    def gc(
        self,
        *,
        keep_results: Optional[int] = None,
        max_age_days: Optional[float] = None,
        drop_terminal_jobs: bool = False,
        now: Optional[float] = None,
    ) -> dict:
        """Prune old rows; returns ``{"results_deleted", "jobs_deleted"}``.

        ``keep_results`` keeps only the N most-recently-used result rows;
        ``max_age_days`` drops results not used (and terminal job records
        not finished) within the window; ``drop_terminal_jobs`` also
        clears *all* done/failed/cancelled job records — their results
        stay unless evicted by the other knobs, so dedup survives.
        Queued/running records are never touched: they are the restart
        recovery set.
        """
        # Retention-window clock (injectable for tests), never hashed.
        now = time.time() if now is None else now
        results_deleted = jobs_deleted = 0
        terminal = ("done", "failed", "cancelled")
        marks = ",".join("?" * len(terminal))
        with self._lock:
            if max_age_days is not None:
                cutoff = now - max_age_days * 86400.0
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE last_used_at < ?", (cutoff,)
                )
                results_deleted += cursor.rowcount
                cursor = self._conn.execute(
                    f"DELETE FROM jobs WHERE state IN ({marks}) "
                    "AND COALESCE(finished_at, submitted_at) < ?",
                    (*terminal, cutoff),
                )
                jobs_deleted += cursor.rowcount
            if keep_results is not None:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE content_hash NOT IN ("
                    "SELECT content_hash FROM results "
                    "ORDER BY last_used_at DESC, content_hash LIMIT ?)",
                    (max(0, keep_results),),
                )
                results_deleted += cursor.rowcount
            if drop_terminal_jobs:
                cursor = self._conn.execute(
                    f"DELETE FROM jobs WHERE state IN ({marks})", terminal
                )
                jobs_deleted += cursor.rowcount
            self._conn.commit()
        return {
            "results_deleted": results_deleted,
            "jobs_deleted": jobs_deleted,
        }


_JOB_COLUMNS = (
    "job_id, seq, content_hash, spec, state, error, "
    "submitted_at, started_at, finished_at, "
    "lease_worker, lease_expires_at, attempts"
)


def _stored_job(row) -> StoredJob:
    (job_id, seq, content_hash, spec, state, error,
     submitted_at, started_at, finished_at,
     lease_worker, lease_expires_at, attempts) = row
    return StoredJob(
        job_id=job_id,
        seq=int(seq),
        content_hash=content_hash,
        spec=json.loads(spec),
        state=state,
        error=error,
        submitted_at=submitted_at,
        started_at=started_at,
        finished_at=finished_at,
        lease_worker=lease_worker,
        lease_expires_at=lease_expires_at,
        attempts=int(attempts or 0),
    )
