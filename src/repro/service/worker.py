"""The fleet worker behind ``repro worker``.

A :class:`FleetWorker` is the *other host* side of the remote executor
(:mod:`repro.service.fleet`): a loop that claims leased jobs from a
``--executor remote`` service over the v1 protocol, rebuilds each job
from its claim descriptor, runs the search with
:func:`repro.batch.optimizer.run_job_payload`, and delivers the
lossless payload back with ``complete`` — exactly the representation
that crosses process pools and the store, so results are bit-identical
to the thread tier.  The worker keeps no result cache: the service
looked the job up in its own before offering the lease, and stores the
delivered result.

Faithfulness is verified, not assumed: the claim carries the service's
``job_content_hash`` and the worker recomputes it over the rebuilt
job + shipped settings.  A mismatch (version skew between service and
worker) is delivered as an error result instead of silently computing
an answer to a different question.

While the search runs, a daemon thread heartbeats at the cadence the
claim suggests; if a heartbeat comes back ``lease_lost`` (the worker
was presumed dead and the job requeued), the result is *dropped*, not
completed — the other claimant owns the job now.

The worker process keeps the same warm context/privacy-session caches
as a batch pool worker, which is what the service's content-hash
routing exploits: repeat content lands here warm.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
from typing import Optional

from repro.batch.jobs import (
    BatchJobResult,
    config_from_payload,
    job_from_spec,
)
from repro.batch.optimizer import run_job_payload
from repro.errors import (
    JobSpecError,
    LeaseLostError,
    NotRemoteError,
    ServiceError,
)
from repro.experiments.settings import ExperimentSettings
from repro.obs import clock
from repro.service.client import ServiceClient
from repro.store.hashing import job_content_hash


def default_worker_id() -> str:
    """``host-pid``: unique per process, stable for its lifetime, and
    readable in ``/v1/stats`` and per-worker metric labels."""
    return f"{socket.gethostname()}-{os.getpid()}"


class FleetWorker:
    """Claim/run/complete loop against one remote-executor service.

    ``poll_seconds`` paces claim attempts while idle; ``idle_exit``
    (optional) ends the loop after that many consecutive idle seconds,
    and ``max_jobs`` after that many completed jobs — both for bounded
    smoke runs and drain-then-exit deployments; a worker with neither
    runs until killed.
    """

    def __init__(
        self,
        server: str,
        worker_id: Optional[str] = None,
        poll_seconds: float = 0.5,
        idle_exit: Optional[float] = None,
        max_jobs: Optional[int] = None,
        startup_timeout: float = 30.0,
        quiet: bool = True,
    ):
        self._client = ServiceClient(server)
        self._worker_id = worker_id or default_worker_id()
        self._poll_seconds = max(0.05, float(poll_seconds))
        self._idle_exit = idle_exit
        self._max_jobs = max_jobs
        self._startup_timeout = startup_timeout
        self._quiet = quiet
        self._jobs_done = 0
        self._jobs_failed = 0
        self._leases_lost = 0

    @property
    def worker_id(self) -> str:
        return self._worker_id

    def _log(self, message: str) -> None:
        if not self._quiet:
            print(f"[worker {self._worker_id}] {message}", flush=True)

    def run(self) -> dict:
        """The claim loop; returns a summary dict when an exit
        condition (``max_jobs``/``idle_exit``) is reached.

        Raises :class:`NotRemoteError` immediately when the service is
        not running the remote executor — polling a service that will
        never hand out work is a deployment mistake, not an idle fleet.
        """
        self._client.wait_until_healthy(timeout=self._startup_timeout)
        self._log(f"joined fleet at {self._client.base_url}")
        last_activity = clock.monotonic()
        while True:
            try:
                descriptor = self._client.worker_claim(
                    self._worker_id
                ).get("job")
            except NotRemoteError:
                raise
            except ServiceError:
                # Unreachable service: treat as an idle poll, not a
                # crash — the service may be restarting, and a fleet
                # that dies with it must be rebuilt by hand.  A worker
                # with --idle-exit still drains out on its own.
                descriptor = None
            if descriptor is not None:
                self._run_claim(descriptor)
                last_activity = clock.monotonic()
                if (
                    self._max_jobs is not None
                    and self._jobs_done + self._jobs_failed >= self._max_jobs
                ):
                    break
                continue
            if (
                self._idle_exit is not None
                and clock.monotonic() - last_activity >= self._idle_exit
            ):
                break
            time.sleep(self._poll_seconds)
        summary = {
            "worker": self._worker_id,
            "jobs_done": self._jobs_done,
            "jobs_failed": self._jobs_failed,
            "leases_lost": self._leases_lost,
        }
        self._log(f"exiting: {summary}")
        return summary

    # -- one claimed job ---------------------------------------------------

    def _run_claim(self, descriptor: dict) -> None:
        job_id = descriptor["id"]
        self._log(
            f"claimed {job_id} (attempt {descriptor.get('attempt')}"
            f"/{descriptor.get('max_attempts')})"
        )
        payload = self._build_and_run(descriptor)
        if payload is None:
            return  # lease lost mid-run; the job belongs to someone else
        try:
            self._client.worker_complete(self._worker_id, job_id, payload)
        except LeaseLostError:
            # Finished too late: the service requeued the job while the
            # search ran.  Drop the result — another worker owns it.
            self._leases_lost += 1
            self._log(f"lease on {job_id} lost before delivery")
            return
        if payload.get("error"):
            self._jobs_failed += 1
        else:
            self._jobs_done += 1
        self._log(f"completed {job_id}")

    def _build_and_run(self, descriptor: dict) -> Optional[dict]:
        """The result payload for one claim; ``None`` means the lease
        was lost mid-run and nothing must be delivered."""
        job_id = descriptor["id"]
        try:
            settings = ExperimentSettings.from_payload(descriptor["settings"])
            job = self._rebuild_job(descriptor, settings)
        except (JobSpecError, TypeError, ValueError, KeyError) as exc:
            # Version skew (or a corrupted descriptor): deliver the
            # failure so the service surfaces it, instead of leaving the
            # lease to time out and be retried against the same skew.
            return {
                "error": (
                    f"worker {self._worker_id} cannot rebuild the job: "
                    f"{type(exc).__name__}: {exc}"
                ),
            }
        rebuilt_hash = job_content_hash(job, settings)
        if rebuilt_hash != descriptor["content_hash"]:
            return BatchJobResult(
                job=job,
                error=(
                    f"worker {self._worker_id} rebuilt a different job: "
                    f"content hash {rebuilt_hash[:16]}... != service's "
                    f"{descriptor['content_hash'][:16]}... (version skew "
                    f"between worker and service?)"
                ),
            ).to_payload()
        stop = threading.Event()
        lost = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(job_id, descriptor, stop, lost),
            name=f"repro-worker-heartbeat-{job_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            payload = run_job_payload(job, settings)
        finally:
            stop.set()
            heartbeat.join(timeout=5.0)
        if lost.is_set():
            self._leases_lost += 1
            self._log(f"lease on {job_id} lost mid-run; dropping result")
            return None
        return payload

    def _rebuild_job(self, descriptor: dict, settings: ExperimentSettings):
        """The exact job the service leased, from spec + effective config.

        The spec grammar only expresses budget config fields, so the
        claim ships the *whole* effective config as a separate dict
        (:func:`repro.batch.jobs.config_from_payload`) and it is
        stamped onto the rebuilt job verbatim — every switch the
        service hashed, including ones no spec could carry.
        """
        config = config_from_payload(descriptor["config"])
        job = job_from_spec(
            descriptor["spec"],
            default_rows=settings.kexample_rows,
            base_config=config,
        )
        if job.config is None:
            # A spec with no budget keys builds a config-less job;
            # stamp the shipped config so the job runs (and hashes)
            # exactly as the service's effective job did.
            job = dataclasses.replace(job, config=config)
        return job

    def _heartbeat_loop(
        self,
        job_id: str,
        descriptor: dict,
        stop: threading.Event,
        lost: threading.Event,
    ) -> None:
        interval = max(0.05, float(descriptor.get("heartbeat_seconds", 1.0)))
        while not stop.wait(interval):
            try:
                self._client.worker_heartbeat(self._worker_id, job_id)
            except LeaseLostError:
                lost.set()
                return
            except NotRemoteError:
                lost.set()
                return
            except ServiceError:
                # Transient unreachability: keep trying — the lease may
                # still be alive, and the next beat may get through.
                continue


__all__ = ["FleetWorker", "default_worker_id"]
