"""Job states and records shared by the service server and client.

Kept dependency-light so :mod:`repro.service.client` can import the state
vocabulary without pulling in the server (or the optimizer stack behind
it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})

#: Backends that execute jobs with resources of this process (threads
#: or a local process pool) — the tiers that need no external workers.
LOCAL_EXECUTOR_NAMES = ("thread", "process")

#: The execution backends ``repro serve --executor`` accepts, in the
#: order the CLI advertises them.  Lives here (not in
#: :mod:`repro.service.executors`) so the CLI parser can name the
#: choices without importing the optimizer stack behind the backends.
#: ``remote`` runs nothing locally: jobs wait for fleet workers
#: (``repro worker``) to claim them over HTTP.
EXECUTOR_NAMES = (*LOCAL_EXECUTOR_NAMES, "remote")


@dataclass
class JobRecord:
    """One submitted job's lifecycle inside the service.

    ``result`` is the :class:`repro.batch.BatchJobResult` once the job ran
    (its ``error`` field holds per-job search failures); ``error`` here is
    reserved for service-level failures around the run itself.
    ``done`` is set once the record's terminal state is persisted
    (:meth:`repro.service.server.JobService.wait` blocks on it).
    """

    job_id: str
    job: object  # BatchJob | InlineJob
    state: str = JOB_QUEUED
    result: Optional[object] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Which execution backend claimed the job
    #: ("thread"/"process"/"remote"); ``None`` until it leaves the
    #: queue.  Mixed deployments (a thread service and a process service
    #: sharing one store) stay auditable.
    executor: Optional[str] = None
    #: On the remote tier: the fleet worker id that completed the job
    #: (``None`` elsewhere, and until a worker delivers).
    worker: Optional[str] = None
    #: The effective job's content hash, computed once: at submit when a
    #: store is attached, else where the result cache first needs it.
    content_hash: Optional[str] = None
    done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def status_payload(self) -> dict:
        """The JSON-ready status summary (no heavy result fields)."""
        payload: dict = {
            "id": self.job_id,
            "state": self.state,
            "executor": self.executor,
            "worker": self.worker,
            "query_name": self.job.query_name,
            "threshold": self.job.threshold,
            "tag": self.job.tag,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload.update(
                found=self.result.found,
                privacy=self.result.privacy,
                seconds=self.result.seconds,
                session_reused=self.result.session_reused,
                cache_hit=self.result.cache_hit,
                error=self.result.error,
            )
        return payload

    def result_payload(self) -> dict:
        """The full JSON-ready outcome (terminal states only)."""
        payload = {"id": self.job_id, "state": self.state}
        if self.result is not None:
            payload.update(self.result.to_payload())
        elif self.error is not None:
            payload["error"] = self.error
        return payload
