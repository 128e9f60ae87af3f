"""Tests for the long-lived job service (repro.service).

The execution-behavior tests run parameterized over both executor
backends (``thread`` and ``process``): queueing, cancellation, timeout
clamps, backpressure, failure reporting, and the stats counters must be
indistinguishable across the tier.
"""

import threading

import pytest

from repro.batch import InlineContext, InlineJob, job_from_spec
from repro.core.optimizer import OptimizerConfig, find_optimal_abstraction
from repro.errors import JobSpecError, ServiceError
from repro.examples_data import running_example_db, running_example_tree
from repro.io.json_io import database_to_json, tree_to_json
from repro.provenance.builder import build_kexample
from repro.query.parser import parse_cq
from repro.service import (
    LOCAL_EXECUTOR_NAMES,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JobService,
    ProcessPoolBackend,
    ServiceClient,
    make_server,
)
from repro.store import JobStore


@pytest.fixture(params=LOCAL_EXECUTOR_NAMES)
def executor(request):
    """Every execution-behavior test runs once per local backend.

    The ``remote`` tier needs fleet workers on the other side and is
    exercised by tests/test_fleet.py instead.
    """
    return request.param


@pytest.fixture
def make_service(executor):
    """A ``JobService`` factory bound to the parameterized backend.

    Shuts every created service down at teardown so process pools never
    leak across tests.
    """
    services = []

    def factory(**kwargs):
        kwargs.setdefault("worker_threads", 0)
        service = JobService(executor=executor, **kwargs)
        services.append(service)
        return service

    yield factory
    for service in services:
        service.shutdown()

QUERY = (
    "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
    " Interests(id, 'Music', s2)"
)


#: Parses, so its job is queued, and fails at run time: the running
#: example's database has no such relation.
FAILING_QUERY = "Q(id) :- NoSuchRelation(id)"


def inline_spec(threshold=2, n_rows=2, **extra):
    """An inline-context job spec over the paper's running example."""
    spec = {
        "database": database_to_json(running_example_db()),
        "tree": tree_to_json(running_example_tree()),
        "query": QUERY,
        "threshold": threshold,
        "n_rows": n_rows,
    }
    spec.update(extra)
    return spec


def direct_result(threshold=2, n_rows=2):
    """The same search run directly, as ``repro optimize`` would."""
    database = running_example_db()
    tree = running_example_tree()
    example = build_kexample(parse_cq(QUERY), database, n_rows=n_rows)
    return find_optimal_abstraction(example, tree, threshold), tree, example


class TestJobService:
    """The queue/worker core, driven synchronously (no worker threads).

    Parameterized over both executor backends via ``make_service``.
    """

    def test_submit_run_result_roundtrip(self, make_service):
        service = make_service(max_queue=8)
        ids = service.submit_specs([inline_spec(tag="r1")])
        assert service.status_payload(ids[0])["state"] == JOB_QUEUED
        assert service.run_next()
        assert not service.run_next()  # queue drained

        code, payload = service.result_payload(ids[0])
        assert code == 200
        assert payload["state"] == JOB_DONE
        assert payload["tag"] == "r1"
        assert payload["found"]

        direct, tree, example = direct_result()
        assert payload["privacy"] == direct.privacy
        assert payload["loi"] == direct.loi
        assert payload["edges_used"] == direct.edges_used
        # The inline path must rebuild the exact same optimal function.
        job = job_from_spec(inline_spec())
        from repro.batch.optimizer import run_job
        from repro.experiments.settings import DEFAULT_SETTINGS

        result = run_job(job, DEFAULT_SETTINGS)
        assert result.function(tree, example).assignment == \
            direct.function.assignment

    def test_result_conflict_while_queued(self, make_service):
        service = make_service(max_queue=8)
        ids = service.submit_specs([inline_spec()])
        code, payload = service.result_payload(ids[0])
        assert code == 409
        assert payload["state"] == JOB_QUEUED

    def test_queue_backpressure(self, make_service):
        service = make_service(max_queue=1)
        ids = service.submit_specs([inline_spec()])
        with pytest.raises(ServiceError, match="full"):
            service.submit_specs([inline_spec(threshold=3)])
        stats = service.stats_payload()
        assert stats["queue_depth"] == 1
        assert stats["jobs_submitted"] == 1  # the rejected job left no record
        # Cancelling a queued job frees its capacity slot immediately.
        assert service.cancel(ids[0]) is True
        replacement = service.submit_specs([inline_spec(threshold=4)])
        assert service.status_payload(replacement[0])["state"] == JOB_QUEUED

    def test_cancel_queued_job(self, make_service):
        service = make_service(max_queue=8)
        ids = service.submit_specs([inline_spec()])
        assert service.cancel(ids[0]) is True
        assert service.status_payload(ids[0])["state"] == JOB_CANCELLED
        assert service.cancel(ids[0]) is False  # already terminal
        # The stale queue entry is consumed without running anything.
        assert service.run_next()
        assert service.status_payload(ids[0])["state"] == JOB_CANCELLED
        code, payload = service.result_payload(ids[0])
        assert code == 200
        assert payload["state"] == JOB_CANCELLED
        assert "found" not in payload

    def test_sessions_reused_across_job_stream(self, make_service, executor):
        # A renamed query variable (unique per backend leg — fork-started
        # pool workers inherit this process's warm caches, so the legs
        # must not share a context) keeps the context cold: the first
        # job warms the session and the rest attach to it.
        query = QUERY.replace("name", f"nm_{executor}")
        service = make_service(max_queue=8)
        service.submit_specs([
            inline_spec(threshold=2, query=query),
            inline_spec(threshold=3, query=query),
        ])
        while service.run_next():
            pass
        stats = service.stats_payload()
        assert stats["jobs_done"] == 2
        assert stats["sessions_reused"] >= 1
        assert stats["candidates_scanned"] > 0

    def test_job_timeout_clamps_max_seconds(self):
        service = JobService(worker_threads=0, job_timeout=5.0)
        unbounded = job_from_spec(inline_spec())
        clamped = service._effective_job(unbounded)
        assert clamped.config.max_seconds == 5.0

        tighter = job_from_spec(inline_spec(max_seconds=1.0))
        assert service._effective_job(tighter).config.max_seconds == 1.0

        looser = job_from_spec(inline_spec(max_seconds=60.0))
        assert service._effective_job(looser).config.max_seconds == 5.0

        no_timeout = JobService(worker_threads=0)
        assert no_timeout._effective_job(unbounded) is unbounded

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -3.0])
    def test_job_timeout_must_clamp(self, timeout):
        # min(60.0, nan) is 60.0 and a NaN budget never trips, so a NaN
        # timeout would clamp nothing; inf and non-positive ones are no
        # per-job cap either.
        with pytest.raises(ServiceError, match="job_timeout"):
            JobService(worker_threads=0, job_timeout=timeout)

    def test_bad_spec_rejects_whole_batch(self, make_service):
        service = make_service(max_queue=8)
        with pytest.raises(JobSpecError, match="job 1.*treshold"):
            service.submit_specs([inline_spec(), {"treshold": 2}])
        assert service.stats_payload()["jobs_submitted"] == 0


class TestSpecValidation:
    def test_unknown_named_key(self):
        with pytest.raises(JobSpecError, match="treshold"):
            job_from_spec({"query_name": "TPCH-Q3", "treshold": 2})

    def test_unknown_inline_key(self):
        with pytest.raises(JobSpecError, match="databse"):
            job_from_spec({"databse": {}, "tree": {}, "threshold": 2,
                           "query": "Q(x) :- R(x)"})

    def test_missing_threshold(self):
        with pytest.raises(JobSpecError, match="threshold"):
            job_from_spec({"query_name": "TPCH-Q3"})

    def test_inline_needs_query_xor_kexample(self):
        base = {"database": {}, "tree": {}, "threshold": 2}
        with pytest.raises(JobSpecError, match="exactly one"):
            job_from_spec(base)
        with pytest.raises(JobSpecError, match="exactly one"):
            job_from_spec({**base, "query": "q", "kexample": {}})

    def test_spec_budgets_build_per_job_config(self):
        base = OptimizerConfig(max_candidates=1000, max_seconds=30.0)
        job = job_from_spec(
            {"query_name": "TPCH-Q3", "threshold": 2, "max_candidates": 5},
            base_config=base,
        )
        assert job.config.max_candidates == 5
        assert job.config.max_seconds == 30.0  # inherited from base

    def test_no_budget_keys_means_no_config(self):
        job = job_from_spec({"query_name": "TPCH-Q3", "threshold": 2})
        assert job.config is None

    @pytest.mark.parametrize("value", [float("nan"), "nan"],
                             ids=["number", "string"])
    def test_nan_budget_is_rejected(self, value):
        # A NaN budget never trips (elapsed > nan is false), and the
        # service's job_timeout clamp keeps it: min(nan, t) is nan.
        for spec in ({"query_name": "TPCH-Q3", "threshold": 2},
                     inline_spec()):
            with pytest.raises(JobSpecError, match="'max_seconds'"):
                job_from_spec({**spec, "max_seconds": value})

    def test_mistyped_threshold(self):
        # JSON's 1e400 reads as inf, which int() cannot convert; int()
        # would run 2.7 as k = 2 and true as k = 1, and hash and cache
        # them so.
        for value in ("high", 1e400, 2.7, True, "2"):
            for spec in ({"query_name": "TPCH-Q3"}, inline_spec()):
                with pytest.raises(JobSpecError,
                                   match="'threshold' must be an integer"):
                    job_from_spec({**spec, "threshold": value})

    def test_integral_floats_are_the_same_job(self):
        """``2.0`` is 2: the same job under the same content hash."""
        from repro.experiments.settings import DEFAULT_SETTINGS
        from repro.store.hashing import job_content_hash

        keys = {"threshold": 2, "n_leaves": 12, "height": 3,
                "max_candidates": 40}
        exact = job_from_spec({"query_name": "TPCH-Q3", **keys})
        floats = job_from_spec({
            "query_name": "TPCH-Q3",
            **{key: float(value) for key, value in keys.items()},
        })
        assert floats == exact and type(floats.threshold) is int
        assert job_content_hash(floats, DEFAULT_SETTINGS) == (
            job_content_hash(exact, DEFAULT_SETTINGS)
        )

    @pytest.mark.parametrize("key,value", [
        ("max_candidates", 12.9), ("max_candidates", 0),
        ("max_candidates", -5), ("max_candidates", True),
        ("max_candidates", None), ("max_seconds", 0), ("max_seconds", -1),
        ("max_seconds", True), ("max_seconds", "5"),
    ])
    def test_budget_keys_must_be_positive(self, key, value):
        """A budget of zero or less would stop the search before its
        first candidate; ``max_candidates`` must be an exact integer."""
        for spec in ({"query_name": "TPCH-Q3", "threshold": 2},
                     inline_spec()):
            with pytest.raises(JobSpecError, match=f"{key!r} must be"):
                job_from_spec({**spec, key: value})

    @pytest.mark.parametrize("key,value", [
        ("n_leaves", "many"), ("height", [1]), ("n_leaves", -3),
        ("n_rows", -1), ("height", -2), ("n_leaves", 0), ("height", 0),
        ("n_rows", 0), ("n_leaves", 1e400), ("n_leaves", 2.5),
        ("height", True), ("n_rows", 2.5), ("n_leaves", "12"),
    ])
    def test_shape_keys_must_be_positive_integers(self, key, value):
        named = {"query_name": "TPCH-Q3", "threshold": 2, key: value}
        with pytest.raises(JobSpecError, match=f"{key!r} must be a positive"):
            job_from_spec(named)
        if key == "n_rows":
            with pytest.raises(JobSpecError, match="'n_rows'"):
                job_from_spec(inline_spec(n_rows=value))

    @pytest.mark.parametrize("key,value", [
        ("query_name", "NOPE"), ("query_name", 5), ("query_name", None),
        ("query_name", ["TPCH-Q3"]), ("tag", None), ("tag", 5),
    ])
    def test_named_keys_must_be_strings_naming_a_query(self, key, value):
        """An unknown or non-string query name would be queued and fail
        at run time, and ``"tag": null`` would run as the tag ``"None"``."""
        named = {"query_name": "TPCH-Q3", "threshold": 2, key: value}
        with pytest.raises(JobSpecError, match=f"{key!r} must"):
            job_from_spec(named)
        if key == "tag":
            with pytest.raises(JobSpecError, match="'tag' must"):
                job_from_spec(inline_spec(tag=value))

    def test_inline_content_hash_is_canonical(self):
        job_a = job_from_spec(inline_spec())
        job_b = job_from_spec(inline_spec())
        assert job_a.context.content_hash() == job_b.context.content_hash()
        other = job_from_spec(inline_spec(n_rows=3))
        assert other.context.content_hash() != job_a.context.content_hash()


def wait_or_fail(service, job_id, timeout=60.0):
    """``service.wait(job_id)``, failing the test instead of hanging."""
    box = {}
    waiter = threading.Thread(
        target=lambda: box.update(record=service.wait(job_id)), daemon=True
    )
    waiter.start()
    waiter.join(timeout)
    assert not waiter.is_alive(), f"wait({job_id}) never returned"
    return box["record"]


class TestWait:
    """``JobService.wait`` returns once the terminal state is persisted."""

    def test_done_and_failed(self, tmp_path):
        store = JobStore(str(tmp_path / "store.db"))
        service = JobService(worker_threads=1, store=store).start()
        try:
            done, failed = service.submit_specs([
                inline_spec(), inline_spec(query=FAILING_QUERY),
            ])
            assert wait_or_fail(service, done).state == JOB_DONE
            assert wait_or_fail(service, failed).state == JOB_FAILED
            states = {job.job_id: job.state for job in store.list_jobs()}
            assert states == {done: JOB_DONE, failed: JOB_FAILED}
        finally:
            service.shutdown()
            store.close()

    def test_cancelled(self):
        service = JobService(worker_threads=0)
        job_id = service.submit_specs([inline_spec()])[0]
        assert service.cancel(job_id)
        assert wait_or_fail(service, job_id).state == JOB_CANCELLED

    def test_recovered_terminal(self, tmp_path):
        store = JobStore(str(tmp_path / "store.db"))
        first = JobService(worker_threads=0, store=store)
        done, cancelled = first.submit_specs(
            [inline_spec(), inline_spec(threshold=3)]
        )
        first.cancel(cancelled)
        while first.run_next():
            pass
        first.shutdown()
        store.close()
        store = JobStore(store.path)
        try:
            again = JobService(worker_threads=0, store=store)
            assert wait_or_fail(again, done).state == JOB_DONE
            assert wait_or_fail(again, cancelled).state == JOB_CANCELLED
        finally:
            store.close()

    def test_a_failure_around_the_run(self, monkeypatch):
        service = JobService(worker_threads=1)

        def broken(*args, **kwargs):
            raise RuntimeError("backend broke")

        monkeypatch.setattr(service._backend, "run", broken)
        service.start()
        try:
            job_id = service.submit_specs([inline_spec()])[0]
            record = wait_or_fail(service, job_id)
            assert record.state == JOB_FAILED
            assert "backend broke" in record.error
        finally:
            service.shutdown()

    def test_an_error_after_the_result_is_recorded(self, monkeypatch):
        service = JobService(worker_threads=1)

        def broken(result):
            raise RuntimeError("observer broke")

        monkeypatch.setattr(service, "_observe_completion", broken)
        service.start()
        try:
            job_id = service.submit_specs([inline_spec()])[0]
            assert wait_or_fail(service, job_id).state == JOB_DONE
        finally:
            service.shutdown()


@pytest.fixture
def http_service(executor):
    service = JobService(
        worker_threads=1, max_queue=16, executor=executor
    ).start()
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


class TestHTTPService:
    """The HTTP layer end to end, over a live localhost server.

    The ``http_service`` fixture is parameterized over both executor
    backends, so every behavior here is asserted for each tier.
    """

    def test_submit_poll_result_roundtrip(self, http_service):
        client, _ = http_service
        ids = client.submit_many([inline_spec(tag="h1")])
        payload = client.wait(ids[0], timeout=60)
        assert payload["state"] == JOB_DONE
        assert payload["found"]
        direct, _, _ = direct_result()
        assert payload["privacy"] == direct.privacy
        assert payload["loi"] == direct.loi

    def test_second_stream_reports_sessions_reused(self, http_service):
        client, _ = http_service
        first = client.submit_many([inline_spec(threshold=2)])
        client.wait(first[0], timeout=60)
        second = client.submit_many([inline_spec(threshold=3)])
        payload = client.wait(second[0], timeout=60)
        assert payload["session_reused"] is True
        stats = client.stats()
        assert stats["sessions_reused"] >= 1
        assert stats["jobs_done"] == 2

    def test_submits_over_one_database_decode_it_once(self, http_service):
        import urllib.request

        from repro.batch import clear_worker_caches
        from repro.obs import metrics

        client, service = http_service
        decodes = metrics.REGISTRY.get("repro_inline_database_decodes_total")
        clear_worker_caches()
        before = [decodes.value(outcome=o) for o in ("parsed", "reused")]
        spec = inline_spec(tag="decoded")
        ids = client.submit_many([spec, {**spec, "threshold": 3}])
        ids.append(client.submit(spec))
        after = [decodes.value(outcome=o) for o in ("parsed", "reused")]
        assert after == [before[0] + 1, before[1] + 2]
        # The jobs are the ones json.loads would have built.
        expected = job_from_spec(spec)
        assert service.record(ids[0]).job == expected
        assert service.record(ids[2]).job == expected
        with urllib.request.urlopen(client.base_url + "/v1/metrics") as resp:
            text = resp.read().decode()
        assert 'repro_inline_database_decodes_total{outcome="reused"}' in text
        for job_id in ids:
            assert client.wait(job_id, timeout=60)["state"] == JOB_DONE

    def test_named_workload_job_over_http(self, http_service):
        client, _ = http_service
        ids = client.submit_many([{
            "query_name": "TPCH-Q3", "threshold": 2,
            "max_candidates": 300, "max_seconds": 10, "tag": "named",
        }])
        payload = client.wait(ids[0], timeout=120)
        assert payload["state"] == JOB_DONE
        assert payload["error"] is None
        assert payload["stats"]["candidates_scanned"] > 0

    def test_unknown_job_is_404(self, http_service):
        client, _ = http_service
        with pytest.raises(ServiceError, match="404"):
            client.status("job-999999")
        with pytest.raises(ServiceError, match="404"):
            client.cancel("job-999999")

    def test_bad_spec_is_400_naming_the_key(self, http_service):
        # The wire error comes back as the same typed exception the
        # in-process submit raises, not a generic ServiceError.
        client, service = http_service
        with pytest.raises(JobSpecError, match="treshold"):
            client.submit_many([{"query_name": "TPCH-Q3", "treshold": 2}])
        named = {"query_name": "TPCH-Q3", "threshold": 2}
        for key, value in (("threshold", 2.7), ("max_candidates", 0),
                           ("n_leaves", 2.5), ("max_seconds", -1),
                           ("max_seconds", True), ("max_seconds", "5"),
                           ("query_name", "NOPE"), ("query_name", 5),
                           ("tag", None)):
            with pytest.raises(JobSpecError,
                               match=f"400 invalid_job_spec.*{key!r}"):
                client.submit_many([named, {**named, key: value}])
        assert service.stats_payload()["jobs_submitted"] == 0

    def test_cancel_endpoint_on_finished_job(self, http_service):
        client, _ = http_service
        ids = client.submit_many([inline_spec()])
        client.wait(ids[0], timeout=60)
        assert client.cancel(ids[0]) is False

    def test_health_stats_and_listing(self, http_service):
        client, _ = http_service
        assert client.health() == {"ok": True}
        ids = client.submit_many([inline_spec(tag="listed")])
        client.wait(ids[0], timeout=60)
        stats = client.stats()
        for key in ("uptime_seconds", "queue_depth", "queue_capacity",
                    "jobs_submitted", "jobs_done", "sessions_reused",
                    "candidates_scanned", "privacy_computations"):
            assert key in stats
        jobs = client.list_jobs()
        assert any(j["tag"] == "listed" for j in jobs)

    def test_multi_worker_same_context_stream(self, executor):
        """Concurrent workers racing on one cold context must not fail."""
        service = JobService(
            worker_threads=2, max_queue=16, executor=executor
        ).start()
        try:
            # A context unique to this backend leg (workers of either
            # tier must see it cold).
            query = QUERY.replace("name", f"label_{executor}")
            ids = service.submit_specs([
                inline_spec(threshold=k, query=query) for k in (2, 2, 3, 3)
            ])
            deadline = 60
            import time as _time
            start = _time.monotonic()
            while _time.monotonic() - start < deadline:
                states = {service.status_payload(i)["state"] for i in ids}
                if states <= {JOB_DONE, "failed"}:
                    break
                _time.sleep(0.05)
            payloads = [service.result_payload(i)[1] for i in ids]
            assert [p["state"] for p in payloads] == [JOB_DONE] * 4, payloads
            assert len({(p["privacy"], p["loi"]) for p in payloads
                        if p["threshold"] == 2}) == 1
        finally:
            service.shutdown()

    def test_failed_job_reported_not_crashing_service(self, http_service):
        client, _ = http_service
        ids = client.submit_many([inline_spec(query=FAILING_QUERY)])
        payload = client.wait(ids[0], timeout=60)
        assert payload["state"] == "failed"
        assert "NoSuchRelation" in payload["error"]
        assert client.stats()["jobs_failed"] == 1
        # The service keeps serving after a failure.
        ids = client.submit_many([inline_spec()])
        assert client.wait(ids[0], timeout=60)["state"] == JOB_DONE


class _WorkerKiller:
    """Unpickling this in a pool worker hard-exits the worker process."""

    def __reduce__(self):
        import os

        return (os._exit, (13,))


class TestExecutorTier:
    """Behaviors specific to the pluggable execution tier."""

    def test_unknown_executor_raises_named_error(self):
        with pytest.raises(ServiceError, match="unknown executor 'mpi'"):
            JobService(worker_threads=0, executor="mpi")

    def test_executor_surfaces_in_stats_and_status(self, make_service,
                                                   executor):
        service = make_service(max_queue=4)
        assert service.stats_payload()["executor"] == executor
        ids = service.submit_specs([inline_spec()])
        assert service.status_payload(ids[0])["executor"] is None  # queued
        service.run_next()
        assert service.status_payload(ids[0])["executor"] == executor

    def test_pool_failure_keeps_traceback_and_is_never_cached(self, tmp_path):
        """A job that raises in a pool worker crosses back as data.

        The error must reach ``/status`` with the traceback summary
        intact, and the result store must never learn about it — an
        errored search may be environmental and has to be retryable.
        """
        store = JobStore(str(tmp_path / "jobs.db"))
        service = JobService(worker_threads=0, executor="process",
                             store=store)
        try:
            ids = service.submit_specs([inline_spec(query=FAILING_QUERY)])
            service.run_next()
            payload = service.status_payload(ids[0])
            assert payload["state"] == "failed"
            assert "NoSuchRelation" in payload["error"]
            # The traceback summary: "[file.py:123 in func <- ...]".
            assert " in " in payload["error"]
            assert ".py:" in payload["error"]
            assert store.result_count() == 0
        finally:
            service.shutdown()

    def test_cross_process_cache_hits_through_shared_store(self, tmp_path):
        """The service stores a pool worker's result; repeats never
        re-search."""
        store = JobStore(str(tmp_path / "jobs.db"))
        service = JobService(worker_threads=0, executor="process",
                             store=store)
        try:
            spec = inline_spec(query=QUERY.replace("name", "xproc"))
            first = service.submit_specs([spec])
            service.run_next()
            _, fresh = service.result_payload(first[0])
            assert fresh["state"] == JOB_DONE and not fresh["cache_hit"]
            # The service wrote the *worker process*'s result into the
            # SQLite file.
            assert store.result_count() == 1
            second = service.submit_specs([spec])
            service.run_next()
            _, hit = service.result_payload(second[0])
            assert hit["cache_hit"] is True
            assert service.stats_payload()["cache_hits"] == 1
            # Bit-identical payload, the audit flag aside.
            for key, value in fresh.items():
                if key not in ("id", "cache_hit"):
                    assert hit[key] == value, key
        finally:
            service.shutdown()

    def test_in_memory_store_still_caches_with_process_backend(self):
        """``:memory:`` cannot cross processes; the service covers it."""
        service = JobService(worker_threads=0, executor="process",
                             store=JobStore(":memory:"))
        try:
            spec = inline_spec(query=QUERY.replace("name", "xmem"))
            ids = service.submit_specs([spec, spec])
            while service.run_next():
                pass
            _, first = service.result_payload(ids[0])
            _, second = service.result_payload(ids[1])
            assert not first["cache_hit"]
            assert second["cache_hit"] is True
        finally:
            service.shutdown()

    def test_broken_pool_is_replaced_and_keeps_serving(self):
        """A worker-killing job fails after one retry; the pool self-heals.

        The job is retried once on a fresh pool (a pool breakage fails
        every in-flight future, so the retry is what keeps a neighbor's
        death from failing innocent jobs); a job that breaks two pools
        in a row fails visibly, and later jobs run on a healthy pool.
        """
        from repro.experiments.settings import DEFAULT_SETTINGS

        backend = ProcessPoolBackend(workers=1)
        try:
            dead = backend.run(_WorkerKiller(), DEFAULT_SETTINGS)
            assert not dead.ok
            assert "worker process died" in dead.error
            assert "twice" in dead.error
            assert backend.pools_replaced == 2  # original + retry pool
            alive = backend.run(job_from_spec(inline_spec()),
                                DEFAULT_SETTINGS)
            assert alive.ok and alive.found
        finally:
            backend.shutdown()

    def test_thread_and_process_outcomes_are_bit_identical(self):
        """Same spec stream, both tiers: payloads equal modulo timing.

        The process leg runs first so neither tier has seen the context
        before (fork-started workers inherit this process's caches —
        running the thread leg first would hand the pool a warm
        session and skew the effort counters).
        """
        specs = [
            inline_spec(threshold=k, query=QUERY.replace("name", "xsame"))
            for k in (2, 3)
        ]
        payloads = {}
        for executor in ("process", "thread"):
            service = JobService(worker_threads=0, executor=executor)
            try:
                ids = service.submit_specs(specs)
                while service.run_next():
                    pass
                payloads[executor] = [
                    service.result_payload(i)[1] for i in ids
                ]
            finally:
                service.shutdown()
        def normalized(payload):
            # Timing is the only legitimate difference between tiers:
            # the job-level seconds and the optimizer's elapsed_seconds
            # counter.  Everything else must match bit for bit.
            clean = {k: v for k, v in payload.items()
                     if k not in ("id", "seconds")}
            clean["stats"] = {k: v for k, v in payload["stats"].items()
                              if k != "elapsed_seconds"}
            return clean

        for via_process, via_thread in zip(payloads["process"],
                                           payloads["thread"]):
            assert normalized(via_process) == normalized(via_thread)

    def test_client_submit_takes_one_spec(self, http_service):
        client, _ = http_service
        job_id = client.submit(inline_spec(tag="single"))
        assert isinstance(job_id, str)
        assert client.wait(job_id, timeout=60)["state"] == JOB_DONE

    def test_client_submit_sends_a_list_as_one_spec(self, http_service):
        """Batches go through submit_many; submit() sends one spec."""
        client, _ = http_service
        with pytest.raises(JobSpecError, match="got list"):
            client.submit([inline_spec(tag="list")])
        assert client.list_jobs() == []


class TestClientStartupRetry:
    """`repro submit` right after `serve` must not lose the race."""

    def test_request_retries_until_server_is_up(self):
        # Reserve a port, then start listening only after a delay longer
        # than the first couple of backoff steps: without the retry the
        # first request dies on connection-refused.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        service = JobService(worker_threads=0)
        started = {}

        def bind_late():
            started["server"] = make_server(service, "127.0.0.1", port)
            threading.Thread(
                target=started["server"].serve_forever, daemon=True
            ).start()

        timer = threading.Timer(0.4, bind_late)
        timer.start()
        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            connect_retries=8, retry_backoff=0.1,
        )
        try:
            assert client.health() == {"ok": True}
        finally:
            timer.cancel()
            server = started.get("server")
            if server is not None:
                server.shutdown()
                server.server_close()

    def test_exhausted_retries_still_raise(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            connect_retries=1, retry_backoff=0.01,
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    @pytest.mark.parametrize("reset", [False, True], ids=["close", "reset"])
    def test_dropped_connection_is_a_service_error(self, reset):
        # The server reads the request, then hangs up without answering:
        # urllib raises RemoteDisconnected (a clean close) or
        # ConnectionResetError (an RST) outside any URLError.
        import re
        import socket
        import struct

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)

        def hang_up():
            conn, _ = listener.accept()
            # Read the whole request, so the client is already waiting
            # for the answer when the connection goes.
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            head, _, body = data.partition(b"\r\n\r\n")
            length = int(re.search(
                rb"(?i)content-length: *(\d+)", head
            ).group(1))
            while len(body) < length:
                body += conn.recv(65536)
            if reset:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            conn.close()

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        # One connection only: a retry would wait in the backlog and
        # time out instead of failing with this message.
        client = ServiceClient(
            f"http://127.0.0.1:{listener.getsockname()[1]}",
            timeout=5.0, connect_retries=3, retry_backoff=0.01,
        )
        try:
            with pytest.raises(ServiceError, match="dropped the connection"):
                client.worker_claim("w1")
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            listener.close()

    def test_reset_while_the_body_is_sent_is_a_dropped_connection(self):
        # The server reads 64 KiB of a large POST, then resets: the
        # reset reaches the client while urllib still sends the body,
        # and urllib wraps it in a URLError.
        import socket
        import struct

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)

        def reset_early():
            conn, _ = listener.accept()
            received = 0
            while received < 65536:
                chunk = conn.recv(65536 - received)
                if not chunk:
                    break
                received += len(chunk)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            conn.close()

        thread = threading.Thread(target=reset_early, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{listener.getsockname()[1]}",
            timeout=5.0, connect_retries=3, retry_backoff=0.01,
        )
        try:
            with pytest.raises(ServiceError, match=(
                "dropped the connection during POST /jobs"
            )):
                client.submit_many([{"blob": "x" * (16 << 20)}])
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            listener.close()

    def test_http_errors_are_never_retried(self, http_service):
        import time as _time

        client, _ = http_service
        # A 404 is a server decision: it must surface on the first
        # attempt.  With this backoff, even one retry would sleep 10s.
        impatient = ServiceClient(
            client.base_url, connect_retries=5, retry_backoff=10.0,
        )
        start = _time.monotonic()
        with pytest.raises(ServiceError, match="404"):
            impatient.status("job-999999")
        assert _time.monotonic() - start < 5.0


class TestInlineEquivalence:
    """Inline jobs must match the optimize subcommand bit for bit."""

    def test_inline_job_matches_optimize_subcommand(self, tmp_path, capsys):
        import json as _json

        from repro.cli import main

        (tmp_path / "db.json").write_text(
            _json.dumps(database_to_json(running_example_db()))
        )
        (tmp_path / "tree.json").write_text(
            _json.dumps(tree_to_json(running_example_tree()))
        )
        code = main([
            "optimize",
            "--database", str(tmp_path / "db.json"),
            "--tree", str(tmp_path / "tree.json"),
            "--query", QUERY,
            "--threshold", "2",
            "--output", str(tmp_path / "direct.json"),
        ])
        assert code == 0
        capsys.readouterr()
        direct = _json.loads((tmp_path / "direct.json").read_text())

        service = JobService(worker_threads=0, max_queue=4)
        ids = service.submit_specs([inline_spec()])
        service.run_next()
        _, payload = service.result_payload(ids[0])
        assert payload["found"] == direct["found"]
        assert payload["privacy"] == direct["privacy"]
        assert payload["loi"] == direct["loss_of_information"]
        assert payload["edges_used"] == direct["edges_used"]

    def test_inline_from_objects_roundtrip(self):
        database = running_example_db()
        tree = running_example_tree()
        context = InlineContext.from_objects(
            database, tree, query=QUERY, n_rows=2
        )
        job = InlineJob(context=context, threshold=2)
        assert job.query_name.startswith("inline:")
        spec_job = job_from_spec(inline_spec())
        assert spec_job.context.content_hash() == context.content_hash()
