"""A small HTTP client for the job service's v1 wire protocol.

Used by the ``repro submit`` / ``repro poll`` / ``repro worker`` CLI
subcommands and the tests; stdlib-only (``urllib``).  The client speaks
only versioned ``/v1/...`` paths (:mod:`repro.service.protocol`).

Failures surface as *typed* exceptions: an error response's envelope
code is mapped through
:data:`repro.service.protocol.EXCEPTION_FOR_CODE`, so callers can catch
:class:`~repro.errors.JobNotFoundError`,
:class:`~repro.errors.QueueFullError`,
:class:`~repro.errors.LeaseLostError`, ... individually — all of them
subclasses of :class:`repro.errors.ServiceError`, which CLI callers
still map to exit code 2 like any other library error.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Sequence

from repro.errors import ServiceError
from repro.obs import clock
from repro.service.protocol import API_PREFIX, EXCEPTION_FOR_CODE
from repro.service.state import JOB_CANCELLED, TERMINAL_STATES


class ServiceClient:
    """Talks JSON to a running :class:`repro.service.JobService`.

    A refused connection (the request never left this process) is
    retried with exponential backoff (``connect_retries`` extra attempts
    starting at ``retry_backoff`` seconds): ``repro submit`` typically
    races the ``repro serve`` process it was started after, and
    retrying a connection that was never made is safe for any method,
    POSTs included.  Resets, read timeouts, and HTTP error statuses are
    never retried — the server may have accepted the request or made a
    decision.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        connect_retries: int = 4,
        retry_backoff: float = 0.1,
    ):
        self._base = base_url.rstrip("/")
        self._timeout = timeout
        self._connect_retries = max(0, connect_retries)
        self._retry_backoff = retry_backoff

    @property
    def base_url(self) -> str:
        return self._base

    def _raise_http_error(
        self, method: str, path: str, exc: urllib.error.HTTPError
    ) -> None:
        """Map an HTTP error onto a typed exception via the envelope.

        A non-envelope body (a proxy's HTML error page, a pre-v1
        server) degrades to plain :class:`ServiceError` with the raw
        text, so the failure is never swallowed.
        """
        raw = exc.read().decode(errors="replace")
        code = None
        message = raw or str(exc.reason)
        try:
            envelope = json.loads(raw)
            error = envelope.get("error")
            if isinstance(error, dict):
                code = error.get("code")
                message = error.get("message", message)
        except (json.JSONDecodeError, AttributeError):
            pass
        exc_type = EXCEPTION_FOR_CODE.get(code, ServiceError)
        label = f" {code}" if code else ""
        raise exc_type(
            f"{method} {path} failed ({exc.code}{label}): {message}"
        ) from None

    def _request(self, method: str, path: str, payload=None) -> dict:
        """One v1 request; ``path`` is relative to :data:`API_PREFIX`."""
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self._base + API_PREFIX + path,
            data=data, headers=headers, method=method,
        )
        for attempt in range(self._connect_retries + 1):
            try:
                with urllib.request.urlopen(
                    request, timeout=self._timeout
                ) as resp:
                    body = resp.read().decode()
                break
            except urllib.error.HTTPError as exc:
                self._raise_http_error(method, path, exc)
            except urllib.error.URLError as exc:
                # Retry only a refused connection: that alone guarantees
                # the request never reached the server.  A reset or
                # broken pipe can happen *after* the server accepted a
                # POST (died before answering), and a read timeout
                # (also a URLError) may mean it is still working —
                # retrying either could duplicate the job.
                refused = isinstance(exc.reason, ConnectionRefusedError)
                if refused and attempt < self._connect_retries:
                    time.sleep(self._retry_backoff * (2 ** attempt))
                    continue
                raise ServiceError(
                    f"cannot reach job service at {self._base}: {exc.reason}"
                ) from None
        try:
            return json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"malformed response from {method} {path}: {exc}"
            ) from None

    # -- endpoints ---------------------------------------------------------

    def catalog(self) -> dict:
        """The machine-readable route catalog (``GET /v1/``)."""
        return self._request("GET", "/")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit(self, spec: dict) -> str:
        """Submit one job spec (named or inline); returns its job id.

        Use :meth:`submit_many` for a batch: a list passed here is sent
        as one spec, and the server rejects it with
        :class:`~repro.errors.JobSpecError`.
        """
        return self.submit_many([spec])[0]

    def submit_many(self, specs: Sequence[dict]) -> list[str]:
        """Submit job specs; returns the job ids in submission order."""
        return self._request("POST", "/jobs", payload=list(specs))["ids"]

    def list_jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> bool:
        return self._request("POST", f"/jobs/{job_id}/cancel")["cancelled"]

    # -- fleet-worker endpoints (remote executor only) ---------------------

    def worker_claim(self, worker_id: str) -> dict:
        """Claim the next leased job; ``{"job": None}`` when idle."""
        return self._request(
            "POST", "/workers/claim", payload={"worker": worker_id}
        )

    def worker_heartbeat(self, worker_id: str, job_id: str) -> dict:
        """Extend the lease on ``job_id``; raises
        :class:`~repro.errors.LeaseLostError` once it is gone."""
        return self._request(
            "POST", "/workers/heartbeat",
            payload={"worker": worker_id, "id": job_id},
        )

    def worker_complete(
        self, worker_id: str, job_id: str, payload: dict
    ) -> dict:
        """Deliver a finished job's lossless result payload."""
        return self._request(
            "POST", "/workers/complete",
            payload={"worker": worker_id, "id": job_id, "payload": payload},
        )

    # -- polling helpers ---------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        interval: float = 0.2,
    ) -> dict:
        """Poll until ``job_id`` is terminal; return its result payload.

        A cancelled job returns its status payload (it has no result).
        Raises :class:`ServiceError` when ``timeout`` elapses first.
        """
        deadline = clock.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                if status["state"] == JOB_CANCELLED:
                    return status
                return self.result(job_id)
            if clock.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for {job_id} "
                    f"(state: {status['state']})"
                )
            time.sleep(interval)

    def wait_all(
        self,
        job_ids: Sequence[str],
        timeout: float = 300.0,
        interval: float = 0.2,
    ) -> list[dict]:
        """Wait for every id (shared deadline); payloads in input order."""
        deadline = clock.monotonic() + timeout
        payloads = []
        for job_id in job_ids:
            remaining = max(0.0, deadline - clock.monotonic())
            payloads.append(self.wait(job_id, timeout=remaining, interval=interval))
        return payloads

    def wait_until_healthy(
        self, timeout: float = 30.0, interval: float = 0.2
    ) -> None:
        """Block until ``/v1/healthz`` answers (server startup helper)."""
        deadline = clock.monotonic() + timeout
        while True:
            try:
                self.health()
                return
            except ServiceError:
                if clock.monotonic() >= deadline:
                    raise ServiceError(
                        f"job service at {self._base} did not become "
                        f"healthy within {timeout:.0f}s"
                    ) from None
                time.sleep(interval)
