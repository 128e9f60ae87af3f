"""The v1 wire protocol: route catalog, error envelope, schemas.

This module is the single source of truth for what the job service
speaks over HTTP.  Everything here is data plus pure functions — no
sockets, no service state — so the server handler, the client, the
fleet worker, and the conformance tests all import the *same* contract
instead of re-encoding it:

* :data:`ROUTES` — every endpoint, with its method, ``/v1/...`` path
  template, documented success schema, and the error codes it can
  answer with.  ``GET /v1/`` serves this catalog as JSON
  (:func:`catalog_payload`), so a client can discover the surface
  without reading the docs.
* :data:`ERROR_CODES` — the closed set of machine-readable error codes,
  each with its HTTP status.  Every error response on every route is
  one envelope shape: ``{"error": {"code", "message", "detail"}}``
  (:func:`error_payload`), built from the library's typed exceptions
  via :func:`error_response` and mapped back to typed exceptions
  client-side via :data:`EXCEPTION_FOR_CODE`.
* :func:`validate_payload` — a deliberately small schema checker (flat
  field -> type-union specs) used by the conformance suite to hold
  live responses to the catalog's documented shapes.

Versioning: all routes live under :data:`API_PREFIX`; any other path
answers 404 ``unknown_path``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    JobNotFoundError,
    JobSpecError,
    LeaseLostError,
    NotRemoteError,
    QueueFullError,
    RequestError,
    ResultNotReadyError,
    ServiceError,
)

#: The protocol identifier served by ``GET /v1/`` (bump together with
#: :data:`API_PREFIX` on the next incompatible revision).
PROTOCOL = "repro-service-v1"

#: Path prefix every current route lives under.
API_PREFIX = "/v1"

#: The one error-code namespace: ``code -> (http_status, description)``.
#: Codes are part of the wire contract — stable strings clients switch
#: on — while ``message``/``detail`` are free-form and may change.
ERROR_CODES: Dict[str, Tuple[int, str]] = {
    "invalid_request": (
        400, "The request body or parameters are malformed "
             "(bad JSON, wrong shape, missing fields).",
    ),
    "invalid_job_spec": (
        400, "A submitted job spec failed validation; nothing from the "
             "batch was enqueued.",
    ),
    "unknown_path": (404, "No route matches this method and path."),
    "unknown_job": (404, "The job id is not known to this service."),
    "result_not_ready": (
        409, "The job exists but has not reached a terminal state; "
             "detail carries its current state.",
    ),
    "lease_lost": (
        409, "The worker no longer holds the lease on this job (it "
             "expired and was requeued, or another worker owns it); "
             "the worker must drop the job.",
    ),
    "not_remote": (
        409, "Worker endpoints require a service running with "
             "--executor remote.",
    ),
    "queue_full": (
        503, "The bounded job queue is at capacity; poll for results "
             "and retry.",
    ),
    "service_unavailable": (
        503, "The service could not honor the request (generic "
             "service-level failure).",
    ),
    "internal": (500, "Unexpected server-side failure."),
}

#: Exception type -> error code, most specific first (the handler walks
#: this in order, so subclasses must precede their bases).
CODE_FOR_EXCEPTION: Tuple[Tuple[type, str], ...] = (
    (JobSpecError, "invalid_job_spec"),
    (RequestError, "invalid_request"),
    (JobNotFoundError, "unknown_job"),
    (ResultNotReadyError, "result_not_ready"),
    (LeaseLostError, "lease_lost"),
    (NotRemoteError, "not_remote"),
    (QueueFullError, "queue_full"),
    (ServiceError, "service_unavailable"),
)

#: Error code -> the typed exception :class:`ServiceClient` raises for
#: it.  Codes outside this table degrade to plain :class:`ServiceError`.
EXCEPTION_FOR_CODE: Dict[str, type] = {
    "invalid_job_spec": JobSpecError,
    "invalid_request": RequestError,
    "unknown_job": JobNotFoundError,
    "result_not_ready": ResultNotReadyError,
    "lease_lost": LeaseLostError,
    "not_remote": NotRemoteError,
    "queue_full": QueueFullError,
}

# -- schemas ---------------------------------------------------------------
#
# A schema is {"required": {field: typespec}, "optional": {field:
# typespec}}; a typespec is a "|"-joined union over "str", "int",
# "float", "bool", "list", "dict", "null".  Flat and closed on purpose:
# responses are shallow JSON objects, and the conformance suite flags
# any field the catalog does not document.

#: The envelope every error response carries, on every route.
ERROR_ENVELOPE_SCHEMA: Dict[str, Dict[str, str]] = {
    "required": {"error": "dict"},
}

#: The inner ``error`` object of the envelope.
ERROR_BODY_SCHEMA: Dict[str, Dict[str, str]] = {
    "required": {"code": "str", "message": "str", "detail": "dict|null"},
}

_CATALOG_SCHEMA = {
    "required": {
        "protocol": "str",
        "prefix": "str",
        "routes": "list",
        "error_codes": "dict",
        "error_envelope": "dict",
    },
}

_HEALTH_SCHEMA = {"required": {"ok": "bool"}}

_STATS_SCHEMA = {
    "required": {
        "uptime_seconds": "float",
        "executor": "str",
        "engine": "str",
        "worker_threads": "int",
        "queue_capacity": "int",
        "queue_depth": "int",
        "jobs_submitted": "int",
        "jobs_running": "int",
        "jobs_done": "int",
        "jobs_failed": "int",
        "jobs_cancelled": "int",
        "job_seconds": "float",
        "sessions_reused": "int",
        "candidates_scanned": "int",
        "privacy_computations": "int",
        "row_option_cache_hits": "int",
        "row_option_cache_misses": "int",
        "cache_hits": "int",
        "store_path": "str|null",
        "results_stored": "int",
        "store_errors": "int",
        "jobs_recovered": "int",
        "jobs_requeued": "int",
    },
    "optional": {"fleet": "dict"},
}

#: One job's status summary (``GET /v1/jobs`` rows and
#: ``GET /v1/jobs/{id}``).  The result fields appear once the job is
#: terminal with a result attached.
JOB_STATUS_SCHEMA: Dict[str, Dict[str, str]] = {
    "required": {
        "id": "str",
        "state": "str",
        "executor": "str|null",
        "worker": "str|null",
        "query_name": "str",
        "threshold": "int|float",
        "tag": "str",
        "submitted_at": "float",
        "started_at": "float|null",
        "finished_at": "float|null",
    },
    "optional": {
        "error": "str|null",
        "found": "bool",
        "privacy": "int|float",
        "seconds": "float",
        "session_reused": "bool",
        "cache_hit": "bool",
    },
}

#: The full result payload (``GET /v1/jobs/{id}/result``): the
#: ``BatchJobResult.to_payload()`` fields under the job's id/state.
JOB_RESULT_SCHEMA: Dict[str, Dict[str, str]] = {
    "required": {"id": "str", "state": "str"},
    "optional": {
        "query_name": "str",
        "threshold": "int|float",
        "tag": "str",
        "found": "bool",
        "privacy": "int|float",
        "loi": "float|null",
        "edges_used": "int",
        "seconds": "float",
        "variable_targets": "dict",
        "session_reused": "bool",
        "cache_hit": "bool",
        "stats": "dict",
        "trace": "list|null",
        "error": "str|null",
    },
}

#: The job descriptor inside a successful claim (``{"job": {...}}``).
#: ``spec`` rebuilds the job (``job_from_spec``), ``settings`` the
#: :class:`ExperimentSettings`, and ``config`` is the *full* effective
#: optimizer config (``config_from_payload``) — the spec grammar only
#: carries budgets, so the remaining switches ship separately, and
#: ``content_hash`` lets the worker verify it rebuilt the exact job
#: before running it.
CLAIM_JOB_SCHEMA: Dict[str, Dict[str, str]] = {
    "required": {
        "id": "str",
        "spec": "dict",
        "content_hash": "str",
        "config": "dict",
        "settings": "dict",
        "lease_seconds": "float",
        "heartbeat_seconds": "float",
        "attempt": "int",
        "max_attempts": "int",
    },
}


@dataclass(frozen=True)
class Route:
    """One documented endpoint of the v1 surface."""

    name: str
    method: str
    path: str  # template relative to API_PREFIX, "{id}" placeholders
    description: str
    #: Success-body schema; ``None`` for non-JSON bodies (``/metrics``).
    success: Optional[Dict[str, Dict[str, str]]]
    #: Error codes this route can answer with (beyond the universal
    #: ``unknown_path``/``internal``).
    errors: Tuple[str, ...] = ()
    content_type: str = "application/json"
    #: True for fleet endpoints (served by remote-executor services only).
    worker: bool = field(default=False)

    def to_payload(self) -> dict:
        payload: dict = {
            "name": self.name,
            "method": self.method,
            "path": API_PREFIX + self.path,
            "description": self.description,
            "content_type": self.content_type,
            "errors": list(self.errors),
            "worker": self.worker,
        }
        payload["success"] = (
            _schema_payload(self.success) if self.success is not None
            else None
        )
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Route":
        """Rebuild a route from its catalog entry (round-trips
        :meth:`to_payload`, so a client can re-materialize the server's
        contract from ``GET /v1/`` alone)."""
        success = payload["success"]
        schema: Optional[Dict[str, Dict[str, str]]] = None
        if success is not None:
            # Keep only the populated tiers so the rebuilt schema
            # compares equal to the hand-written literals above.
            schema = {
                tier: dict(success[tier])
                for tier in ("required", "optional")
                if success.get(tier)
            }
        return cls(
            name=payload["name"],
            method=payload["method"],
            path=payload["path"][len(API_PREFIX):],
            description=payload["description"],
            success=schema,
            errors=tuple(payload["errors"]),
            content_type=payload["content_type"],
            worker=payload["worker"],
        )


def _schema_payload(schema: Dict[str, Dict[str, str]]) -> dict:
    return {
        "required": dict(schema.get("required", {})),
        "optional": dict(schema.get("optional", {})),
    }


#: Every v1 route, in catalog order.
ROUTES: Tuple[Route, ...] = (
    Route(
        "catalog", "GET", "/",
        "This machine-readable route catalog.",
        success=_CATALOG_SCHEMA,
    ),
    Route(
        "health", "GET", "/healthz",
        "Liveness probe.",
        success=_HEALTH_SCHEMA,
    ),
    Route(
        "stats", "GET", "/stats",
        "Queue depth, aggregate counters, and (on a remote-executor "
        "service) the fleet section.",
        success=_STATS_SCHEMA,
    ),
    Route(
        "metrics", "GET", "/metrics",
        "Prometheus text exposition of the service and library "
        "registries.",
        success=None,
        content_type="text/plain; version=0.0.4; charset=utf-8",
    ),
    Route(
        "submit", "POST", "/jobs",
        "Submit one job spec object or a non-empty list of specs; "
        "returns {\"ids\": [...]} in submission order.",
        success={"required": {"ids": "list"}},
        errors=("invalid_request", "invalid_job_spec", "queue_full"),
    ),
    Route(
        "list_jobs", "GET", "/jobs",
        "Status summaries of every known job.",
        success={"required": {"jobs": "list"}},
    ),
    Route(
        "job_status", "GET", "/jobs/{id}",
        "One job's status summary.",
        success=JOB_STATUS_SCHEMA,
        errors=("unknown_job",),
    ),
    Route(
        "job_result", "GET", "/jobs/{id}/result",
        "The full result payload once the job is terminal.",
        success=JOB_RESULT_SCHEMA,
        errors=("unknown_job", "result_not_ready"),
    ),
    Route(
        "job_cancel", "POST", "/jobs/{id}/cancel",
        "Cancel a still-queued job; running/terminal jobs are not "
        "preempted (cancelled=false).",
        success={"required": {"id": "str", "cancelled": "bool"}},
        errors=("unknown_job",),
    ),
    Route(
        "worker_claim", "POST", "/workers/claim",
        "Fleet worker claims its next job: body {\"worker\": id}; "
        "answers {\"job\": null} (nothing pending) or {\"job\": "
        "descriptor} holding a lease the worker must heartbeat.",
        success={"required": {"job": "dict|null"}},
        errors=("invalid_request", "not_remote"),
        worker=True,
    ),
    Route(
        "worker_heartbeat", "POST", "/workers/heartbeat",
        "Extend a held lease: body {\"worker\": id, \"id\": job_id}.",
        success={"required": {"ok": "bool", "lease_seconds": "float"}},
        errors=("invalid_request", "not_remote", "lease_lost"),
        worker=True,
    ),
    Route(
        "worker_complete", "POST", "/workers/complete",
        "Deliver a finished job's lossless result payload: body "
        "{\"worker\": id, \"id\": job_id, \"payload\": "
        "to_payload() dict}.",
        success={"required": {"ok": "bool"}},
        errors=("invalid_request", "not_remote", "lease_lost"),
        worker=True,
    ),
)


def catalog_payload() -> dict:
    """The JSON body of ``GET /v1/`` — the whole contract, as data."""
    return {
        "protocol": PROTOCOL,
        "prefix": API_PREFIX,
        "routes": [route.to_payload() for route in ROUTES],
        "error_envelope": {
            "envelope": _schema_payload(ERROR_ENVELOPE_SCHEMA),
            "error": _schema_payload(ERROR_BODY_SCHEMA),
        },
        "error_codes": {
            code: {"status": status, "description": description}
            for code, (status, description) in ERROR_CODES.items()
        },
    }


def error_payload(
    code: str, message: str, detail: Optional[dict] = None
) -> dict:
    """One unified error envelope (used for every error on every route)."""
    return {"error": {"code": code, "message": message, "detail": detail}}


def error_response(
    exc: BaseException, detail: Optional[dict] = None
) -> Tuple[int, dict]:
    """Map a library exception to ``(http_status, envelope)``.

    Unmapped exception types (a bug escaping the handler) become the
    ``internal`` code rather than an opaque HTML 500.
    """
    for exc_type, code in CODE_FOR_EXCEPTION:
        if isinstance(exc, exc_type):
            status, _ = ERROR_CODES[code]
            return status, error_payload(code, str(exc), detail)
    status, _ = ERROR_CODES["internal"]
    return status, error_payload(
        "internal", f"{type(exc).__name__}: {exc}", detail
    )


# -- schema validation -----------------------------------------------------

def _type_ok(value: Any, spec: str) -> bool:
    for alt in spec.split("|"):
        if alt == "null" and value is None:
            return True
        if alt == "bool" and isinstance(value, bool):
            return True
        if isinstance(value, bool):  # bool is int; don't let it pass below
            continue
        if alt == "str" and isinstance(value, str):
            return True
        if alt == "int" and isinstance(value, int):
            return True
        if alt == "float" and isinstance(value, (int, float)):
            return True
        if alt == "list" and isinstance(value, list):
            return True
        if alt == "dict" and isinstance(value, dict):
            return True
    return False


def validate_payload(
    payload: Any,
    schema: Dict[str, Dict[str, str]],
    where: str = "payload",
) -> List[str]:
    """Hold ``payload`` to ``schema``; returns the problems (empty = ok).

    Checks presence and type of every required field, types of present
    optional fields, and flags undocumented fields — the catalog must
    describe everything the service actually sends.
    """
    if not isinstance(payload, dict):
        return [f"{where}: expected an object, got {type(payload).__name__}"]
    problems: List[str] = []
    required = schema.get("required", {})
    optional = schema.get("optional", {})
    for name, spec in required.items():
        if name not in payload:
            problems.append(f"{where}: missing required field {name!r}")
        elif not _type_ok(payload[name], spec):
            problems.append(
                f"{where}.{name}: expected {spec}, "
                f"got {type(payload[name]).__name__}"
            )
    for name, spec in optional.items():
        if name in payload and not _type_ok(payload[name], spec):
            problems.append(
                f"{where}.{name}: expected {spec}, "
                f"got {type(payload[name]).__name__}"
            )
    for name in payload:
        if name not in required and name not in optional:
            problems.append(f"{where}: undocumented field {name!r}")
    return problems


def validate_error_envelope(payload: Any, where: str = "error") -> List[str]:
    """Validate a full error response body against the envelope."""
    problems = validate_payload(payload, ERROR_ENVELOPE_SCHEMA, where)
    if not problems:
        problems = validate_payload(
            payload["error"], ERROR_BODY_SCHEMA, where + ".error"
        )
        if not problems and payload["error"]["code"] not in ERROR_CODES:
            problems = [
                f"{where}.error.code: {payload['error']['code']!r} is not "
                f"a documented error code"
            ]
    return problems


def find_route(name: str) -> Route:
    """Look a route up by catalog name (conformance-suite helper)."""
    for route in ROUTES:
        if route.name == name:
            return route
    raise KeyError(name)


__all__ = [
    "API_PREFIX",
    "CLAIM_JOB_SCHEMA",
    "CODE_FOR_EXCEPTION",
    "ERROR_BODY_SCHEMA",
    "ERROR_CODES",
    "ERROR_ENVELOPE_SCHEMA",
    "EXCEPTION_FOR_CODE",
    "JOB_RESULT_SCHEMA",
    "JOB_STATUS_SCHEMA",
    "PROTOCOL",
    "ROUTES",
    "Route",
    "catalog_payload",
    "error_payload",
    "error_response",
    "find_route",
    "validate_error_envelope",
    "validate_payload",
]
