"""Protocol-conformance suite for the v1 wire surface.

Walks the machine-readable route catalog (``GET /v1/``) against a live
server and holds every response — success bodies *and* error envelopes —
to the schemas the catalog documents (:mod:`repro.service.protocol`).
Runs over both local executor tiers, so the contract is asserted
independent of how jobs execute; the remote tier's worker endpoints are
exercised for their *error* contract here (``not_remote`` on local
tiers) and end-to-end in tests/test_fleet.py.

Also pins that only ``/v1`` is routed: the unversioned paths deprecated
when v1 shipped, the root, and unversioned fleet paths all answer 404
``unknown_path``.
"""

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.errors import (
    JobNotFoundError,
    LeaseLostError,
    NotRemoteError,
    RequestError,
    ResultNotReadyError,
    ServiceError,
)
from repro.examples_data import running_example_db, running_example_tree
from repro.io.json_io import database_to_json, tree_to_json
from repro.service import (
    LOCAL_EXECUTOR_NAMES,
    JobService,
    ServiceClient,
    make_server,
)
from repro.service import protocol

QUERY = (
    "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
    " Interests(id, 'Music', s2)"
)


def inline_spec(threshold=2, n_rows=2, **extra) -> dict:
    spec = {
        "database": database_to_json(running_example_db()),
        "tree": tree_to_json(running_example_tree()),
        "query": QUERY,
        "threshold": threshold,
        "n_rows": n_rows,
    }
    spec.update(extra)
    return spec


@pytest.fixture(params=LOCAL_EXECUTOR_NAMES)
def live(request):
    """(client, base_url) against a served JobService per local tier."""
    service = JobService(
        worker_threads=1, max_queue=8, executor=request.param
    ).start()
    server = make_server(service, "127.0.0.1", 0, quiet=True)
    import threading

    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    yield ServiceClient(base), base
    server.shutdown()
    server.server_close()
    service.shutdown()


def fetch(base: str, method: str, path: str, payload=None):
    """Raw request: (status, headers, parsed-or-text body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            status, headers, raw = resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        status, headers, raw = exc.code, exc.headers, exc.read()
    text = raw.decode()
    try:
        return status, headers, json.loads(text)
    except json.JSONDecodeError:
        return status, headers, text


def assert_valid(payload, schema, where):
    problems = protocol.validate_payload(payload, schema, where)
    assert not problems, "\n".join(problems)


def assert_error(body, code, where="error"):
    problems = protocol.validate_error_envelope(body, where)
    assert not problems, "\n".join(problems)
    assert body["error"]["code"] == code


class TestCatalog:
    """``GET /v1/`` must describe the surface completely and honestly."""

    def test_catalog_matches_module_contract(self, live):
        client, _ = live
        catalog = client.catalog()
        assert_valid(catalog, protocol.find_route("catalog").success, "catalog")
        assert catalog["protocol"] == protocol.PROTOCOL
        assert catalog["prefix"] == protocol.API_PREFIX
        assert catalog == protocol.catalog_payload()

    def test_every_route_is_catalogued_once(self, live):
        client, _ = live
        routes = client.catalog()["routes"]
        names = [r["name"] for r in routes]
        assert names == [r.name for r in protocol.ROUTES]
        assert len(set(names)) == len(names)
        for route in routes:
            assert route["path"].startswith(protocol.API_PREFIX)
            for code in route["errors"]:
                assert code in protocol.ERROR_CODES

    def test_routes_round_trip_through_the_catalog(self, live):
        # A client can re-materialize the server's exact contract from
        # GET /v1/ alone: every catalog entry rebuilds the Route it
        # came from, bit for bit.
        client, _ = live
        rebuilt = [
            protocol.Route.from_payload(entry)
            for entry in client.catalog()["routes"]
        ]
        assert rebuilt == list(protocol.ROUTES)

    def test_error_code_tables_are_consistent(self):
        # Every code the handler can emit is documented, and every code
        # the client maps back exists.
        for _, code in protocol.CODE_FOR_EXCEPTION:
            assert code in protocol.ERROR_CODES
        for code, exc_type in protocol.EXCEPTION_FOR_CODE.items():
            assert code in protocol.ERROR_CODES
            assert issubclass(exc_type, ServiceError) or issubclass(
                exc_type, Exception
            )


class TestSuccessBodies:
    """Live success responses validate against their documented schema."""

    def test_get_routes_validate(self, live):
        client, base = live
        for name in ("health", "stats"):
            route = protocol.find_route(name)
            status, _, body = fetch(
                base, "GET", protocol.API_PREFIX + route.path
            )
            assert status == 200
            assert_valid(body, route.success, name)

    def test_metrics_is_prometheus_text(self, live):
        _, base = live
        status, headers, body = fetch(base, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_service" in body

    def test_job_lifecycle_bodies_validate(self, live):
        client, base = live
        job_id = client.submit(inline_spec(tag="conform"))
        payload = client.wait(job_id, timeout=60)
        assert_valid(
            payload, protocol.find_route("job_result").success, "result"
        )
        status_body = client.status(job_id)
        assert_valid(
            status_body,
            protocol.find_route("job_status").success,
            "status",
        )
        listing = fetch(base, "GET", "/v1/jobs")[2]
        assert_valid(
            listing, protocol.find_route("list_jobs").success, "jobs"
        )
        for row in listing["jobs"]:
            assert_valid(
                row, protocol.find_route("job_status").success, "jobs[]"
            )
        cancel = fetch(base, "POST", f"/v1/jobs/{job_id}/cancel", {})[2]
        assert_valid(
            cancel, protocol.find_route("job_cancel").success, "cancel"
        )


class TestErrorEnvelopes:
    """Every failure, on every route, is one envelope shape."""

    def test_unknown_job_404(self, live):
        _, base = live
        status, _, body = fetch(base, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert_error(body, "unknown_job")

    def test_result_not_ready_409_carries_state(self, live):
        client, base = live
        # worker_threads=1 and a queue lets us catch a queued job: pause
        # nothing, just submit two and read the second immediately.
        ids = [client.submit(inline_spec(tag=f"nr{i}")) for i in (1, 2)]
        status, _, body = fetch(
            base, "GET", f"/v1/jobs/{ids[1]}/result"
        )
        if status == 200:  # it can legitimately finish first
            client.wait_all(ids, timeout=60)
            return
        assert status == 409
        assert_error(body, "result_not_ready")
        assert body["error"]["detail"]["state"] in (
            "queued", "running"
        )
        client.wait_all(ids, timeout=60)

    @pytest.mark.parametrize("data", [
        b"{not json",
        b'{"threshold": 2, "tag": "\xff"}',
    ], ids=["not-json", "not-utf8"])
    def test_malformed_json_body_400(self, live, data):
        _, base = live
        request = urllib.request.Request(
            base + "/v1/jobs", data=data,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert_error(json.loads(excinfo.value.read()), "invalid_request")

    def test_bad_submit_shape_400(self, live):
        _, base = live
        status, _, body = fetch(base, "POST", "/v1/jobs", "not a list")
        assert status == 400
        assert_error(body, "invalid_request")

    def test_bad_spec_400_names_the_key(self, live):
        _, base = live
        # A {"jobs": [...]} wrapper is not a submit shape: it is read as
        # one spec whose only key, "jobs", is unknown.
        for payload, key in (
            ([{"treshold": 2}], "treshold"),
            ({"jobs": [inline_spec()]}, "jobs"),
            (inline_spec(query=["not", "a", "string"]), "query"),
            # JSON's "\ud800" escape is a lone surrogate, which no
            # content hash can digest.
            (inline_spec(query="Q(x) :- R(x)\ud800"), "query"),
            (inline_spec(n_rows=-1), "n_rows"),
            ({"query_name": "TPCH-Q3", "threshold": 2, "n_leaves": "many"},
             "n_leaves"),
            ({"query_name": "TPCH-Q3", "threshold": 2, "height": [1]},
             "height"),
            ({"query_name": "TPCH-Q3", "threshold": 2, "n_leaves": -3},
             "n_leaves"),
            ({"query_name": "TPCH-Q3", "threshold": 2, "height": -2},
             "height"),
            ({"query_name": "TPCH-Q3", "threshold": 2, "n_rows": 0},
             "n_rows"),
            # 1e400 reads back as inf, which int() cannot convert.
            ({"query_name": "TPCH-Q3", "threshold": 2, "n_leaves": 1e400},
             "n_leaves"),
            ({"query_name": "TPCH-Q3", "threshold": 1e400}, "threshold"),
            # A NaN budget would never trip, --job-timeout or not.
            ({"query_name": "TPCH-Q3", "threshold": 2,
              "max_seconds": float("nan")}, "max_seconds"),
            (inline_spec(max_seconds="nan"), "max_seconds"),
        ):
            status, _, body = fetch(base, "POST", "/v1/jobs", payload)
            assert status == 400, key
            assert_error(body, "invalid_job_spec", key)
            assert repr(key) in body["error"]["message"]
        assert fetch(base, "GET", "/v1/jobs")[2] == {"jobs": []}

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_malformed_content_length_400(self, live, length):
        # No body follows: a server that trusted -1 would read until the
        # client hangs up, and answer nothing before the timeout.
        _, base = live
        url = urllib.parse.urlsplit(base)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            conn.close()
        assert status == 400
        assert_error(body, "invalid_request")

    def test_unknown_path_404(self, live):
        _, base = live
        status, _, body = fetch(base, "GET", "/v1/nonsense")
        assert status == 404
        assert_error(body, "unknown_path")

    def test_worker_endpoints_answer_not_remote_on_local_tiers(self, live):
        _, base = live
        for path, payload in (
            ("/v1/workers/claim", {"worker": "w1"}),
            ("/v1/workers/heartbeat", {"worker": "w1", "id": "job-1"}),
            (
                "/v1/workers/complete",
                {"worker": "w1", "id": "job-1", "payload": {}},
            ),
        ):
            status, _, body = fetch(base, "POST", path, payload)
            assert status == 409, path
            assert_error(body, "not_remote", path)

    def test_client_raises_typed_exceptions(self, live):
        client, _ = live
        with pytest.raises(JobNotFoundError):
            client.status("job-999999")
        from repro.errors import JobSpecError

        with pytest.raises(JobSpecError):
            client.submit_many(["not", "specs"])
        with pytest.raises(NotRemoteError):
            client.worker_claim("w1")
        with pytest.raises(NotRemoteError):
            client.worker_heartbeat("w1", "job-1")
        with pytest.raises(NotRemoteError):
            client.worker_complete("w1", "job-1", {})

    def test_every_documented_route_error_is_typed_clientside(self):
        # Any error a route documents must map to a typed exception (or
        # at least an HTTP-status-bearing ServiceError via the generic
        # codes) so no documented failure is unlabeled in Python.
        generic = {"unknown_path", "service_unavailable", "internal"}
        for route in protocol.ROUTES:
            for code in route.errors:
                assert (
                    code in protocol.EXCEPTION_FOR_CODE or code in generic
                ), f"{route.name}: {code}"


class TestDeprecatedLegacyPaths:
    """The unversioned paths deprecated when v1 shipped are gone."""

    LEGACY = (
        ("GET", "/healthz", None),
        ("GET", "/stats", None),
        ("GET", "/jobs", None),
        ("GET", "/metrics", None),
        ("GET", "/jobs/job-999999", None),
        ("GET", "/jobs/job-999999/result", None),
        ("POST", "/jobs", [inline_spec()]),
        ("POST", "/jobs/job-999999/cancel", {}),
    )

    def test_legacy_paths_answer_unknown_path(self, live):
        _, base = live
        for method, path, payload in self.LEGACY:
            status, headers, body = fetch(base, method, path, payload)
            assert status == 404, path
            assert headers.get("Deprecation") is None, path
            assert_error(body, "unknown_path", path)
        assert fetch(base, "GET", "/v1/jobs")[2] == {"jobs": []}

    def test_legacy_errors_carry_the_envelope_too(self, live):
        # A legacy job path is not routed to the job lookup: it gets the
        # unknown_path envelope naming the request, where its /v1 twin
        # answers unknown_job.
        _, base = live
        status, headers, body = fetch(base, "GET", "/jobs/job-999999")
        assert status == 404
        assert headers.get("Deprecation") is None
        assert headers.get("Content-Type") == "application/json"
        assert_error(body, "unknown_path")
        assert "GET '/jobs/job-999999'" in body["error"]["message"]
        status, _, body = fetch(base, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert_error(body, "unknown_job")

    def test_worker_endpoints_are_v1_only(self, live):
        _, base = live
        status, _, body = fetch(
            base, "POST", "/workers/claim", {"worker": "w1"}
        )
        assert status == 404
        assert_error(body, "unknown_path")

    def test_legacy_root_is_not_the_catalog(self, live):
        _, base = live
        status, _, _ = fetch(base, "GET", "/")
        assert status == 404
