"""The remote executor: lease arbitration, the fleet worker, bit-identity.

Three layers, cheapest first:

* :class:`RemoteBackend` in-process (no HTTP): the lease state machine —
  claim/heartbeat/complete, expiry -> requeue with bounded attempts,
  stale deliveries refused, rendezvous routing, typed request errors.
* The wire codecs the claim descriptor rides on:
  ``ExperimentSettings.to_payload``/``from_payload`` and
  ``config_to_payload``/``config_from_payload`` (strict inverses).
* ``FleetWorker`` against a live ``--executor remote`` service over
  localhost HTTP: results bit-identical to the thread tier, the
  ``worker`` field in job status, the ``fleet`` stats section, and a
  claimant that goes silent (a SIGKILLed worker, simulated by claiming
  and never heartbeating) losing its lease to a real worker.
"""

import threading
import time

import pytest

from repro.batch.jobs import (
    config_from_payload,
    config_to_payload,
    job_from_spec,
)
from repro.batch.optimizer import run_job_payload
from repro.core.optimizer import OptimizerConfig
from repro.errors import LeaseLostError, RequestError
from repro.examples_data import running_example_db, running_example_tree
from repro.experiments.settings import FAST_SETTINGS, ExperimentSettings
from repro.io.json_io import database_to_json, tree_to_json
from repro.service import JobService, ServiceClient, make_server
from repro.service.fleet import RemoteBackend
from repro.service.protocol import CLAIM_JOB_SCHEMA, validate_payload
from repro.service.worker import FleetWorker, default_worker_id
from repro.store.hashing import job_content_hash

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


def example_job(threshold=2, **extra):
    return job_from_spec(
        inline_spec(threshold, **extra),
        default_rows=FAST_SETTINGS.kexample_rows,
    )


def run_in_thread(backend, job, job_id):
    """Drive backend.run on a thread; returns a result box + the thread."""
    box = {}

    def target():
        box["result"] = backend.run(job, FAST_SETTINGS, job_id=job_id)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return box, thread


def claim_until(backend, worker_id, timeout=5.0):
    """Poll claim until a descriptor arrives (run() registers async)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        descriptor = backend.claim(worker_id)["job"]
        if descriptor is not None:
            return descriptor
        time.sleep(0.01)
    raise AssertionError(f"no claimable job within {timeout}s")


def rebuild_as_worker(descriptor):
    """Exactly FleetWorker's rebuild path, minus the HTTP."""
    import dataclasses

    settings = ExperimentSettings.from_payload(descriptor["settings"])
    config = config_from_payload(descriptor["config"])
    job = job_from_spec(
        descriptor["spec"],
        default_rows=settings.kexample_rows,
        base_config=config,
    )
    if job.config is None:
        job = dataclasses.replace(job, config=config)
    return job, settings


class TestLeaseStateMachine:
    """RemoteBackend in-process: the claim/heartbeat/complete contract."""

    def test_claim_run_complete_round_trip(self):
        backend = RemoteBackend(lease_seconds=5.0)
        box, thread = run_in_thread(backend, example_job(), "job-000001")
        try:
            descriptor = claim_until(backend, "w1")
            problems = validate_payload(
                descriptor, CLAIM_JOB_SCHEMA, "claim.job"
            )
            assert not problems, "\n".join(problems)
            assert descriptor["id"] == "job-000001"
            assert descriptor["attempt"] == 1
            job, settings = rebuild_as_worker(descriptor)
            assert job_content_hash(job, settings) == (
                descriptor["content_hash"]
            )
            beat = backend.heartbeat("w1", "job-000001")
            assert beat["ok"] is True
            payload = run_job_payload(job, settings)
            assert backend.complete("w1", "job-000001", payload) == {
                "ok": True
            }
            thread.join(timeout=10)
            assert box["result"].error is None
            assert box["result"].found
            assert backend.worker_of("job-000001") == "w1"
            stats = backend.fleet_stats()
            assert stats["workers"]["w1"]["completed"] == 1
            assert stats["lease_requeues"] == 0
        finally:
            backend.shutdown()
            thread.join(timeout=5)

    def test_idle_claim_and_request_validation(self):
        backend = RemoteBackend(lease_seconds=5.0)
        try:
            assert backend.claim("w1") == {"job": None}
            with pytest.raises(RequestError):
                backend.claim("")
            with pytest.raises(RequestError):
                backend.claim(None)
            with pytest.raises(RequestError):
                backend.heartbeat("w1", "")
            with pytest.raises(RequestError):
                backend.complete("w1", "job-1", "not a dict")
        finally:
            backend.shutdown()

    def test_unclaimed_job_rejects_heartbeat_and_complete(self):
        backend = RemoteBackend(lease_seconds=5.0)
        try:
            with pytest.raises(LeaseLostError):
                backend.heartbeat("w1", "job-000001")
            with pytest.raises(LeaseLostError):
                backend.complete("w1", "job-000001", {"error": "x"})
        finally:
            backend.shutdown()

    def test_expired_lease_requeues_and_stale_delivery_is_refused(self):
        backend = RemoteBackend(lease_seconds=0.2, max_attempts=3)
        box, thread = run_in_thread(backend, example_job(), "job-000001")
        try:
            first = claim_until(backend, "w1")
            assert first["attempt"] == 1
            # w1 goes silent; the run loop requeues after the lease
            # window and w2 claims the second attempt.
            second = claim_until(backend, "w2", timeout=5.0)
            assert second["id"] == first["id"]
            assert second["attempt"] == 2
            with pytest.raises(LeaseLostError):
                backend.complete("w1", "job-000001", {"error": "late"})
            job, settings = rebuild_as_worker(second)
            payload = run_job_payload(job, settings)
            # w2's lease may also have expired while the search ran
            # (0.2 s window): heartbeat-or-requeue is timing, but the
            # terminal result must come from *some* live claimant.
            try:
                backend.complete("w2", "job-000001", payload)
            except LeaseLostError:
                third = claim_until(backend, "w2", timeout=5.0)
                backend.complete("w2", "job-000001", payload)
                assert third["attempt"] == 3
            thread.join(timeout=10)
            assert box["result"].error is None
            stats = backend.fleet_stats()
            assert stats["lease_requeues"] >= 1
            assert stats["workers"]["w1"]["leases_lost"] == 1
        finally:
            backend.shutdown()
            thread.join(timeout=5)

    def test_attempts_exhausted_fails_visibly(self):
        backend = RemoteBackend(lease_seconds=0.15, max_attempts=2)
        box, thread = run_in_thread(backend, example_job(), "job-000001")
        try:
            claim_until(backend, "w1")
            # Both attempts burn out with no delivery.
            claim_until(backend, "w1", timeout=5.0)
            thread.join(timeout=10)
            result = box["result"]
            assert result.error is not None
            assert "lease lost 2 time(s)" in result.error
            assert "max_attempts=2" in result.error
            assert backend.fleet_stats()["lease_requeues"] == 2
        finally:
            backend.shutdown()
            thread.join(timeout=5)

    def test_shutdown_fails_waiting_jobs(self):
        backend = RemoteBackend(lease_seconds=5.0)
        box, thread = run_in_thread(backend, example_job(), "job-000001")
        time.sleep(0.1)  # let run() register the entry
        backend.shutdown()
        thread.join(timeout=10)
        assert "shut down" in box["result"].error

    def test_rendezvous_routing_is_deterministic_and_conserving(self):
        backend = RemoteBackend(lease_seconds=30.0)
        try:
            live = ["w1", "w2", "w3"]
            owner = backend._preferred_worker("some-content-hash", live)
            assert owner in live
            for _ in range(3):
                assert backend._preferred_worker(
                    "some-content-hash", live
                ) == owner
            # Different hashes spread across the fleet (not all one
            # worker for any plausible hash set).
            owners = {
                backend._preferred_worker(f"hash-{i}", live)
                for i in range(32)
            }
            assert len(owners) > 1
            # Work conservation: with one pending job, whichever worker
            # asks first gets it, preferred or not.
            box, thread = run_in_thread(
                backend, example_job(), "job-000001"
            )
            descriptor = claim_until(backend, "unpreferred-worker")
            assert descriptor["id"] == "job-000001"
            backend.complete(
                "unpreferred-worker", "job-000001",
                {"error": "synthetic"},
            )
            thread.join(timeout=10)
        finally:
            backend.shutdown()


class TestWireCodecs:
    """The claim descriptor's settings/config payloads are strict inverses."""

    def test_settings_round_trip(self):
        payload = FAST_SETTINGS.to_payload()
        assert ExperimentSettings.from_payload(payload) == FAST_SETTINGS
        with pytest.raises(TypeError):
            ExperimentSettings.from_payload({**payload, "bogus": 1})

    def test_config_round_trip_covers_every_switch(self):
        config = OptimizerConfig(
            sort_abstractions=False,
            loi_first=False,
            max_candidates=7,
            max_seconds=1.5,
            engine="sqlite",
            trace=True,
        )
        assert config_from_payload(config_to_payload(config)) == config

    def test_config_payload_rejects_unknown_fields(self):
        payload = config_to_payload(OptimizerConfig())
        with pytest.raises(TypeError, match="bogus"):
            config_from_payload({**payload, "bogus": 1})
        # A payload from a version that still had the switch.
        with pytest.raises(TypeError, match="unknown .* incremental"):
            config_from_payload({**payload, "incremental": False})
        bad_nested = config_to_payload(OptimizerConfig())
        bad_nested["privacy"] = {**bad_nested["privacy"], "bogus": 1}
        with pytest.raises(TypeError, match="PrivacyConfig"):
            config_from_payload(bad_nested)

    def test_descriptor_hash_survives_hand_built_configs(self):
        # A config the spec grammar cannot express must still round
        # trip: the descriptor ships it whole.
        import dataclasses

        job = dataclasses.replace(
            example_job(),
            config=OptimizerConfig(loi_first=False, engine="sqlite"),
        )
        backend = RemoteBackend(lease_seconds=5.0)
        box, thread = run_in_thread(backend, job, "job-000001")
        try:
            descriptor = claim_until(backend, "w1")
            rebuilt, settings = rebuild_as_worker(descriptor)
            assert rebuilt.config.loi_first is False
            assert rebuilt.config.engine == "sqlite"
            assert job_content_hash(rebuilt, settings) == (
                descriptor["content_hash"]
            )
            backend.complete(
                "w1", "job-000001",
                run_job_payload(rebuilt, settings),
            )
            thread.join(timeout=10)
            assert box["result"].error is None
        finally:
            backend.shutdown()
            thread.join(timeout=5)


@pytest.fixture
def remote_http_service():
    """A remote-executor JobService served over localhost HTTP."""

    def factory(lease_seconds=10.0, lease_attempts=3, worker_threads=2):
        service = JobService(
            worker_threads=worker_threads,
            max_queue=16,
            executor="remote",
            lease_seconds=lease_seconds,
            lease_attempts=lease_attempts,
        ).start()
        server = make_server(service, "127.0.0.1", 0, quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        made.append((service, server))
        return ServiceClient(f"http://{host}:{port}")

    made = []
    yield factory
    for service, server in made:
        server.shutdown()
        server.server_close()
        service.shutdown()


def start_fleet_worker(base_url, worker_id, **kwargs):
    """A FleetWorker on a daemon thread; returns (worker, thread, box)."""
    kwargs.setdefault("poll_seconds", 0.05)
    kwargs.setdefault("idle_exit", 3.0)
    worker = FleetWorker(base_url, worker_id=worker_id, **kwargs)
    box = {}

    def target():
        box["summary"] = worker.run()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return worker, thread, box


class TestFleetEndToEnd:
    """FleetWorker against a live remote-executor service."""

    def test_fleet_matches_thread_tier_bit_for_bit(
        self, remote_http_service
    ):
        specs = [inline_spec(threshold=t, tag=f"t{t}") for t in (2, 3, 4)]

        # Thread-tier baseline first (fresh caches per service either way).
        baseline_service = JobService(
            worker_threads=2, max_queue=16, executor="thread"
        ).start()
        baseline_server = make_server(
            baseline_service, "127.0.0.1", 0, quiet=True
        )
        threading.Thread(
            target=baseline_server.serve_forever, daemon=True
        ).start()
        host, port = baseline_server.server_address[:2]
        baseline_client = ServiceClient(f"http://{host}:{port}")
        try:
            baseline = baseline_client.wait_all(
                baseline_client.submit_many(specs), timeout=120
            )
        finally:
            baseline_server.shutdown()
            baseline_server.server_close()
            baseline_service.shutdown()

        client = remote_http_service()
        workers = [
            start_fleet_worker(client.base_url, f"fleet-w{i}")
            for i in (1, 2)
        ]
        payloads = client.wait_all(client.submit_many(specs), timeout=120)
        for _, thread, _ in workers:
            thread.join(timeout=30)

        def normalized(payload):
            # The volatile tier (timing, cache/session reuse, traces)
            # legitimately differs by which worker a job landed on;
            # everything else must be bit-identical.
            clean = {
                k: v for k, v in payload.items()
                if k not in ("id", "seconds", "trace", "session_reused",
                             "cache_hit")
            }
            # Likewise the stats that just count cache warmth: a job's
            # row-option hits/misses depend on whether its session was
            # already warm on the worker it landed on, not on the answer.
            clean["stats"] = {
                k: v for k, v in payload["stats"].items()
                if k not in ("elapsed_seconds", "row_option_cache_hits",
                             "row_option_cache_misses")
            }
            return clean

        for via_fleet, via_thread in zip(payloads, baseline):
            assert via_fleet["error"] is None
            assert normalized(via_fleet) == normalized(via_thread)

        # The status rows name the completing worker; stats carry the
        # fleet section with both workers seen.
        jobs = client.list_jobs()
        assert all(
            j["worker"] in ("fleet-w1", "fleet-w2") for j in jobs
        )
        fleet = client.stats()["fleet"]
        assert set(fleet["workers"]) >= {"fleet-w1", "fleet-w2"}
        assert fleet["lease_requeues"] == 0
        done = [box["summary"]["jobs_done"] for _, _, box in workers]
        assert sum(done) == len(specs)

    def test_silent_claimant_loses_lease_to_live_worker(
        self, remote_http_service
    ):
        client = remote_http_service(lease_seconds=0.5, worker_threads=1)
        job_id = client.submit(inline_spec(tag="requeue"))

        # A zombie claims the job and never heartbeats (a SIGKILLed
        # worker looks exactly like this from the service's side).
        deadline = time.monotonic() + 10
        descriptor = None
        while descriptor is None and time.monotonic() < deadline:
            descriptor = client.worker_claim("zombie").get("job")
            if descriptor is None:
                time.sleep(0.02)
        assert descriptor is not None
        assert descriptor["id"] == job_id

        worker, thread, box = start_fleet_worker(
            client.base_url, "survivor", idle_exit=2.0
        )
        payload = client.wait(job_id, timeout=60)
        thread.join(timeout=30)
        assert payload["error"] is None
        assert payload["found"]
        assert client.status(job_id)["worker"] == "survivor"
        fleet = client.stats()["fleet"]
        assert fleet["lease_requeues"] >= 1
        assert fleet["workers"]["zombie"]["leases_lost"] >= 1
        # The zombie's late delivery is refused, typed.
        with pytest.raises(LeaseLostError):
            client.worker_complete("zombie", job_id, {"error": "late"})

    def test_worker_reports_version_skew_instead_of_wrong_results(
        self, remote_http_service
    ):
        client = remote_http_service(lease_seconds=5.0, worker_threads=1)
        job_id = client.submit(inline_spec(tag="skew"))
        deadline = time.monotonic() + 10
        descriptor = None
        while descriptor is None and time.monotonic() < deadline:
            descriptor = client.worker_claim("skewed").get("job")
            if descriptor is None:
                time.sleep(0.02)
        # Corrupt the claim the way a mismatched code version would:
        # the rebuilt job no longer hashes to the service's hash.
        descriptor["content_hash"] = "0" * 64
        worker = FleetWorker(client.base_url, worker_id="skewed")
        payload = worker._build_and_run(descriptor)
        assert payload is not None
        assert "rebuilt a different job" in payload["error"]
        client.worker_complete("skewed", job_id, payload)
        status = client.wait(job_id, timeout=30)
        assert "rebuilt a different job" in status["error"]

    def test_default_worker_id_is_host_and_pid(self):
        import os
        import socket

        assert default_worker_id() == (
            f"{socket.gethostname()}-{os.getpid()}"
        )
