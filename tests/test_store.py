"""Tests for the persistent job store and content-addressed result cache.

Covers the store subsystem's contracts end to end: canonical content
hashing (including stability across processes), the SQLite
:class:`JobStore` (records, results, gc retention, reopen), the
:class:`ResultCache` (hit/miss, error skipping, payload fidelity), the
lossless :meth:`BatchJobResult.to_payload`/``from_payload`` round trip,
and service durability — cache hits within one process, restart recovery
of queued/running jobs, and bit-identical results across restarts.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.batch import (
    BatchJobResult,
    job_from_spec,
    job_spec_text,
    job_to_spec,
    run_batch,
    run_job,
)
from repro.core.optimizer import OptimizerConfig, OptimizerStats
from repro.examples_data import running_example_db, running_example_tree
from repro.experiments.settings import DEFAULT_SETTINGS, FAST_SETTINGS
from repro.io.json_io import database_to_json, tree_to_json
from repro.service.server import JobService
from repro.service.state import JOB_DONE, JOB_FAILED, JOB_QUEUED, JOB_RUNNING
from repro.store import (
    JobStore,
    ResultCache,
    job_content_hash,
    spec_content_hash,
)

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


def payload_modulo_cache_hit(payload: dict) -> dict:
    """A result payload with the (expected) cache_hit marker removed.

    A cached answer must be bit-identical to the fresh one in every
    field *except* the ``cache_hit`` audit flag itself.
    """
    return {k: v for k, v in payload.items() if k != "cache_hit"}


class TestHashing:
    def test_equal_specs_hash_equally(self):
        job_a = job_from_spec(inline_spec())
        job_b = job_from_spec(inline_spec())
        assert job_content_hash(job_a, FAST_SETTINGS) == \
            job_content_hash(job_b, FAST_SETTINGS)

    @pytest.mark.parametrize("variant", [
        {"threshold": 3},
        {"n_rows": 3},
        {"max_candidates": 7},
        {"max_seconds": 1.5},
        {"query": QUERY.replace("name", "nm")},
    ])
    def test_changed_inputs_change_the_hash(self, variant):
        base = job_content_hash(job_from_spec(inline_spec()), FAST_SETTINGS)
        other = job_content_hash(
            job_from_spec(inline_spec(**variant)), FAST_SETTINGS
        )
        assert other != base, variant

    def test_tag_does_not_change_the_hash(self):
        base = job_content_hash(job_from_spec(inline_spec()), FAST_SETTINGS)
        tagged = job_content_hash(
            job_from_spec(inline_spec(tag="x")), FAST_SETTINGS
        )
        assert tagged == base

    def test_named_job_hash_depends_on_settings(self):
        # The settings shape a named workload's generated database, so
        # they are part of the named-context identity...
        spec = {"query_name": "TPCH-Q3", "threshold": 2,
                "max_candidates": 100, "max_seconds": 10.0}
        job = job_from_spec(spec)
        assert job_content_hash(job, FAST_SETTINGS) != \
            job_content_hash(job, DEFAULT_SETTINGS)

    def test_result_irrelevant_settings_do_not_change_named_hash(self):
        # Pool sizes and sweep lists cannot change one job's result, so
        # flipping them must not invalidate the persistent cache.
        import dataclasses

        spec = {"query_name": "TPCH-Q3", "threshold": 2,
                "max_candidates": 100, "max_seconds": 10.0}
        job = job_from_spec(spec)
        tweaked = dataclasses.replace(
            FAST_SETTINGS, batch_workers=8, thresholds=(9, 10),
            plotted_queries=("TPCH-Q3",),
        )
        assert job_content_hash(job, tweaked) == \
            job_content_hash(job, FAST_SETTINGS)

    def test_inline_job_hash_ignores_settings(self):
        # ...while an inline context is self-describing: with an explicit
        # per-job config, the profile cannot change the result.
        job = job_from_spec(inline_spec(max_candidates=100, max_seconds=10.0))
        assert job_content_hash(job, FAST_SETTINGS) == \
            job_content_hash(job, DEFAULT_SETTINGS)

    def test_default_config_resolves_through_settings(self):
        # job.config=None means the settings budgets: hash like a job
        # that spells those budgets out, unlike one with other budgets.
        implicit = job_from_spec(inline_spec())
        explicit = job_from_spec(inline_spec(
            max_candidates=FAST_SETTINGS.max_candidates,
            max_seconds=FAST_SETTINGS.max_seconds,
        ))
        assert job_content_hash(implicit, FAST_SETTINGS) == \
            job_content_hash(explicit, FAST_SETTINGS)
        assert job_content_hash(implicit, FAST_SETTINGS) != \
            job_content_hash(implicit, DEFAULT_SETTINGS)

    def test_inline_content_hash_is_memoized_and_pickle_safe(self):
        import pickle

        job = job_from_spec(inline_spec())
        first = job.context.content_hash()
        assert job.context.__dict__["_content_hash"] == first
        assert job.context.content_hash() is first  # served from the memo
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.context.content_hash() == first

    def test_spec_content_hash_matches_job_hash(self):
        spec = inline_spec()
        job = job_from_spec(spec, base_config=OptimizerConfig(
            max_candidates=FAST_SETTINGS.max_candidates,
            max_seconds=FAST_SETTINGS.max_seconds,
        ))
        assert spec_content_hash(spec, FAST_SETTINGS) == \
            job_content_hash(job, FAST_SETTINGS)

    def test_canonical_json_fast_and_slow_paths_agree(self):
        # The one-pass serializer must emit the same text as the deep
        # jsonable() rebuild for every input the fast path accepts.
        import json as _json

        from repro.core.optimizer import OptimizerConfig as OC
        from repro.store import canonical_json
        from repro.store.hashing import jsonable

        for value in (
            {"b": [1, 2.5, None, "x"], "a": {"nested": [True, False]}},
            OC(max_candidates=5, max_seconds=1.0),
            FAST_SETTINGS,
            {"s": frozenset({3, 1, 2})},
        ):
            assert canonical_json(value) == _json.dumps(
                jsonable(value), sort_keys=True, separators=(",", ":")
            )

    def test_hash_is_stable_across_processes(self, tmp_path):
        """The same spec must hash identically in a fresh interpreter."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(inline_spec()))
        script = (
            "import json, sys\n"
            "from repro.store import spec_content_hash\n"
            "from repro.experiments.settings import FAST_SETTINGS\n"
            f"spec = json.load(open({str(spec_path)!r}))\n"
            "print(spec_content_hash(spec, FAST_SETTINGS))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={**os.environ, "PYTHONPATH": str(
                Path(__file__).resolve().parent.parent / "src"
            )},
        )
        assert out.stdout.strip() == \
            spec_content_hash(inline_spec(), FAST_SETTINGS)


class TestJobToSpec:
    def test_round_trips_named_and_inline(self):
        base = OptimizerConfig(max_candidates=500, max_seconds=12.0)
        for spec in (
            {"query_name": "TPCH-Q3", "threshold": 2, "n_leaves": 40,
             "tag": "named", "max_candidates": 9},
            inline_spec(tag="inl", max_seconds=3.0),
        ):
            job = job_from_spec(spec, base_config=base)
            rebuilt = job_from_spec(job_to_spec(job), base_config=base)
            assert rebuilt == job

    def test_kexample_spec_round_trips(self):
        spec = kexample_spec()
        job = job_from_spec(spec)
        assert job_from_spec(job_to_spec(job)) == job


def kexample_spec(**extra):
    """An inline spec carrying the running example's K-example, not a query."""
    from repro.io.json_io import kexample_to_json
    from repro.provenance.builder import build_kexample
    from repro.query.parser import parse_cq

    example = build_kexample(parse_cq(QUERY), running_example_db(), n_rows=2)
    spec = inline_spec(**extra)
    del spec["query"], spec["n_rows"]
    spec["kexample"] = kexample_to_json(example)
    return spec


def stored_text_specs():
    """A named and two inline specs, each with a tag and both budgets."""
    budgets = {"max_candidates": 9, "max_seconds": 3.5}
    return [
        {"query_name": "TPCH-Q3", "threshold": 2, "n_leaves": 40,
         "tag": "named", **budgets},
        inline_spec(tag="query", **budgets),
        kexample_spec(tag="kexample", **budgets),
    ]


class TestJobSpecText:
    """The stored spec is the submitted spec's canonical text.

    The oracle dumps the submitted dict (``n_rows`` filled in, as
    ``job_from_spec`` resolves it) and never goes through
    ``job_to_spec``, so it checks the composed text independently.
    """

    ROWS = 3

    def expected(self, spec) -> str:
        normalized = {"n_rows": self.ROWS, **spec}
        return json.dumps(normalized, sort_keys=True, separators=(",", ":"))

    def test_text_equals_the_dumped_spec(self):
        for spec in stored_text_specs():
            job = job_from_spec(spec, default_rows=self.ROWS)
            assert job_spec_text(job) == self.expected(spec), spec["tag"]

    def test_file_store_keeps_that_text(self, tmp_path):
        import dataclasses
        import sqlite3

        path = str(tmp_path / "store.db")
        settings = dataclasses.replace(FAST_SETTINGS, kexample_rows=self.ROWS)
        service = JobService(
            settings=settings, store=JobStore(path), worker_threads=0
        )
        specs = stored_text_specs()
        service.submit_specs(specs)
        service.shutdown()
        conn = sqlite3.connect(path)
        try:
            stored = [row[0] for row in conn.execute(
                "SELECT spec FROM jobs ORDER BY seq"
            )]
        finally:
            conn.close()
        assert stored == [self.expected(spec) for spec in specs]


class TestBatchJobResultRoundTrip:
    def test_real_result_round_trips_bit_identically(self):
        result = run_job(job_from_spec(inline_spec(tag="rt")), FAST_SETTINGS)
        assert result.ok and result.found
        assert result.stats.candidates_scanned > 0  # counters present
        payload = result.to_payload()
        rebuilt = BatchJobResult.from_payload(payload, result.job)
        assert rebuilt.to_payload() == payload
        assert rebuilt.stats == result.stats
        assert rebuilt.session_reused == result.session_reused
        assert rebuilt.cache_hit == result.cache_hit

    def test_payload_survives_json_text(self):
        result = run_job(job_from_spec(inline_spec()), FAST_SETTINGS)
        payload = json.loads(json.dumps(result.to_payload()))
        assert BatchJobResult.from_payload(
            payload, result.job
        ).to_payload() == payload

    def test_unbounded_loi_round_trips_through_null(self):
        job = job_from_spec(inline_spec())
        result = BatchJobResult(job=job, found=False)
        payload = result.to_payload()
        assert payload["loi"] is None  # JSON has no Infinity
        rebuilt = BatchJobResult.from_payload(payload, job)
        assert rebuilt.loi == float("inf")
        assert rebuilt.to_payload() == payload

    def test_counters_survive_explicitly(self):
        job = job_from_spec(inline_spec())
        stats = OptimizerStats(
            candidates_scanned=7, privacy_computations=3,
            delta_evaluations=5, row_option_cache_hits=11,
        )
        result = BatchJobResult(
            job=job, found=True, loi=1.5, privacy=2, stats=stats,
            session_reused=True, cache_hit=True,
        )
        rebuilt = BatchJobResult.from_payload(result.to_payload(), job)
        assert rebuilt.stats == stats
        assert rebuilt.session_reused is True
        assert rebuilt.cache_hit is True

    def test_unknown_stats_counters_are_ignored(self):
        # A payload written by a newer code version must still load.
        job = job_from_spec(inline_spec())
        payload = BatchJobResult(job=job).to_payload()
        payload["stats"]["counter_from_the_future"] = 9
        rebuilt = BatchJobResult.from_payload(payload, job)
        assert rebuilt.stats == OptimizerStats()


class TestJobStore:
    def test_non_sqlite_file_is_a_clean_error(self, tmp_path):
        from repro.errors import ServiceError

        path = tmp_path / "not-a-db.txt"
        path.write_text("this is not a sqlite file, not even close")
        with pytest.raises(ServiceError, match="cannot open job store"):
            JobStore(str(path))

    def test_records_round_trip_and_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = JobStore(path)
        spec = {"query_name": "TPCH-Q3", "threshold": 2}
        store.record_job("job-000001", 1, "hash-a", json.dumps(spec),
                         JOB_QUEUED, submitted_at=100.0)
        store.update_job("job-000001", JOB_RUNNING, started_at=101.0)
        store.close()

        store = JobStore(path)
        stored = store.get_job("job-000001")
        assert stored.spec == spec
        assert stored.state == JOB_RUNNING
        assert stored.submitted_at == 100.0
        assert stored.started_at == 101.0
        assert store.max_seq() == 1
        assert store.get_job("job-999999") is None

    def test_list_jobs_orders_and_filters(self):
        store = JobStore(":memory:")
        for seq in (2, 1, 3):
            store.record_job(f"job-{seq:06d}", seq, "h", "{}", JOB_QUEUED)
        store.update_job("job-000002", JOB_DONE)
        assert [j.seq for j in store.list_jobs()] == [1, 2, 3]
        assert [j.seq for j in store.list_jobs(state=JOB_QUEUED)] == [1, 3]

    def test_lease_columns_round_trip_and_survive_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = JobStore(path)
        store.record_job("job-000001", 1, "h", "{}", JOB_QUEUED)
        store.set_lease("job-000001", "worker-a", 1234.5, 2)
        stored = store.get_job("job-000001")
        assert stored.lease_worker == "worker-a"
        assert stored.lease_expires_at == 1234.5
        assert stored.attempts == 2
        store.close()

        store = JobStore(path)
        stored = store.get_job("job-000001")
        assert stored.lease_worker == "worker-a"
        assert stored.attempts == 2
        # Clearing drops the live lease but keeps the attempt history
        # (audit: how many claims this job burned).
        store.clear_lease("job-000001")
        stored = store.get_job("job-000001")
        assert stored.lease_worker is None
        assert stored.lease_expires_at is None
        assert stored.attempts == 2

    def test_pre_lease_schema_is_migrated_on_open(self, tmp_path):
        # A store created before the fleet columns existed must gain
        # them transparently on open (ALTER TABLE migration).
        import sqlite3

        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE jobs (
                job_id TEXT PRIMARY KEY,
                seq INTEGER NOT NULL,
                content_hash TEXT NOT NULL,
                spec TEXT NOT NULL,
                state TEXT NOT NULL,
                error TEXT,
                submitted_at REAL NOT NULL,
                started_at REAL,
                finished_at REAL
            );
            CREATE TABLE results (
                content_hash TEXT PRIMARY KEY,
                payload TEXT NOT NULL,
                created_at REAL NOT NULL,
                last_used_at REAL NOT NULL,
                hits INTEGER NOT NULL DEFAULT 0
            );
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
            INSERT INTO jobs VALUES
                ('job-000001', 1, 'h', '{}', 'queued', NULL, 1.0,
                 NULL, NULL);
            """
        )
        conn.commit()
        conn.close()

        store = JobStore(path)
        stored = store.get_job("job-000001")
        assert stored.lease_worker is None
        assert stored.attempts == 0
        store.set_lease("job-000001", "w", 9.0, 1)
        assert store.get_job("job-000001").lease_worker == "w"
        store.close()

    def test_first_result_write_wins(self):
        store = JobStore(":memory:")
        assert store.save_result("h", {"value": 1}) is True
        assert store.save_result("h", {"value": 2}) is False
        assert store.load_result("h") == {"value": 1}
        assert store.result_count() == 1

    def test_load_result_bumps_hit_counters(self):
        store = JobStore(":memory:")
        store.save_result("h", {"value": 1})
        store.load_result("h")
        store.load_result("h")
        row = store._conn.execute(
            "SELECT hits FROM results WHERE content_hash='h'"
        ).fetchone()
        assert row[0] == 2

    def test_peek_result_leaves_usage_counters_alone(self):
        store = JobStore(":memory:")
        store.save_result("h", {"value": 1})
        assert store.peek_result("h") == {"value": 1}
        assert store.peek_result("missing") is None
        row = store._conn.execute(
            "SELECT hits FROM results WHERE content_hash='h'"
        ).fetchone()
        assert row[0] == 0

    def test_gc_keep_results_retains_most_recently_used(self):
        store = JobStore(":memory:")
        for name in ("a", "b", "c"):
            store.save_result(name, {"name": name})
        store.load_result("a")  # refresh a's last_used_at
        counts = store.gc(keep_results=2)
        assert counts["results_deleted"] == 1
        assert store.load_result("a") is not None
        assert store.load_result("b") is None  # the oldest fell out

    def test_gc_age_window_and_terminal_jobs(self):
        store = JobStore(":memory:")
        store.save_result("old", {"v": 1})
        store._conn.execute(
            "UPDATE results SET last_used_at = 0 WHERE content_hash='old'"
        )
        store.record_job("job-000001", 1, "old", "{}", JOB_DONE)
        store.update_job("job-000001", JOB_DONE, finished_at=0.0)
        store.record_job("job-000002", 2, "h2", "{}", JOB_QUEUED,
                         submitted_at=0.0)
        counts = store.gc(max_age_days=1.0)
        assert counts == {"results_deleted": 1, "jobs_deleted": 1}
        # Queued records are the recovery set: age never deletes them.
        assert store.get_job("job-000002") is not None
        assert store.get_job("job-000001") is None

    def test_gc_drop_terminal_jobs_spares_pending(self):
        store = JobStore(":memory:")
        store.record_job("job-000001", 1, "h", "{}", JOB_DONE)
        store.record_job("job-000002", 2, "h", "{}", JOB_QUEUED)
        store.record_job("job-000003", 3, "h", "{}", JOB_FAILED)
        counts = store.gc(drop_terminal_jobs=True)
        assert counts["jobs_deleted"] == 2
        assert [j.job_id for j in store.list_jobs()] == ["job-000002"]


class TestResultCache:
    def test_miss_then_hit_is_payload_identical(self):
        cache = ResultCache(JobStore(":memory:"))
        job = job_from_spec(inline_spec())
        assert cache.lookup(job, FAST_SETTINGS) is None
        fresh = run_job(job, FAST_SETTINGS)
        assert cache.store_result(job, FAST_SETTINGS, fresh)
        hit = cache.lookup(job, FAST_SETTINGS)
        assert hit.cache_hit is True
        assert payload_modulo_cache_hit(hit.to_payload()) == \
            payload_modulo_cache_hit(fresh.to_payload())

    def test_errors_and_cache_hits_are_not_stored(self):
        cache = ResultCache(JobStore(":memory:"))
        job = job_from_spec(inline_spec())
        errored = BatchJobResult(job=job, error="boom")
        assert cache.store_result(job, FAST_SETTINGS, errored) is None
        already_cached = BatchJobResult(job=job, found=True, cache_hit=True)
        assert cache.store_result(job, FAST_SETTINGS, already_cached) is None
        assert cache.store.result_count() == 0

    def test_wall_clock_tripped_results_are_not_stored(self):
        # How far a search gets in max_seconds depends on the machine;
        # caching a cut-short run would freeze a slow host's best-so-far
        # as the canonical answer for every reader of the store.  The
        # optimizer reports the cut exactly via stopped_by_wall_clock.
        cache = ResultCache(JobStore(":memory:"))
        job = job_from_spec(inline_spec(max_seconds=2.0))
        tripped = BatchJobResult(
            job=job, found=False,
            stats=OptimizerStats(
                elapsed_seconds=2.5, stopped_by_wall_clock=True,
            ),
        )
        assert cache.store_result(job, FAST_SETTINGS, tripped) is None
        assert cache.store.result_count() == 0
        # ...while a search that *completed* — even one that brushed the
        # budget without the break firing — is cached, as is a
        # max_candidates-limited not-found (both deterministic).
        finished = BatchJobResult(
            job=job, found=True, loi=1.0, privacy=2,
            stats=OptimizerStats(elapsed_seconds=2.1),
        )
        assert cache.store_result(job, FAST_SETTINGS, finished)
        capped = job_from_spec(inline_spec(max_candidates=1))
        not_found = BatchJobResult(
            job=capped, found=False,
            stats=OptimizerStats(candidates_scanned=1, elapsed_seconds=0.1),
        )
        assert cache.store_result(capped, FAST_SETTINGS, not_found)
        assert cache.store.result_count() == 2

    def test_wall_clock_flag_is_set_by_a_real_tripped_search(self):
        from repro.core.optimizer import find_optimal_abstraction
        from repro.examples_data import Q_REAL
        from repro.provenance.builder import build_kexample

        example = build_kexample(Q_REAL, running_example_db(), n_rows=2)
        tripped = find_optimal_abstraction(
            example, running_example_tree(), 2,
            config=OptimizerConfig(max_seconds=0.0),
        )
        assert tripped.stats.stopped_by_wall_clock is True
        complete = find_optimal_abstraction(
            example, running_example_tree(), 2,
        )
        assert complete.stats.stopped_by_wall_clock is False

    def test_corrupt_stored_payload_degrades_to_a_miss(self, tmp_path):
        # The service runs a job whose lookup misses: a damaged row must
        # read as a miss, not crash the run loop.
        job = job_from_spec(inline_spec())
        cache = ResultCache(JobStore(str(tmp_path / "store.db")))
        try:
            assert cache.store_result(
                job, FAST_SETTINGS, run_job(job, FAST_SETTINGS)
            )
            assert cache.lookup(job, FAST_SETTINGS).cache_hit
            cache.store._conn.execute(
                "UPDATE results SET payload = '{truncated'"
            )
            assert cache.lookup(job, FAST_SETTINGS) is None
        finally:
            cache.store.close()

    def test_batch_optimizer_rejects_bad_store_path_up_front(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="cannot open job store"):
            run_batch([job_from_spec(inline_spec())], FAST_SETTINGS,
                      max_workers=1, store_path="/nonexistent-dir/x.db")

    def test_batch_optimizer_counts_cache_hits(self, tmp_path):
        path = str(tmp_path / "store.db")
        jobs = [job_from_spec(inline_spec(tag="x")),
                job_from_spec(inline_spec(tag="y"))]
        first = run_batch(jobs, FAST_SETTINGS, max_workers=1,
                          store_path=path)
        # Tags differ but content does not: the second job of the *same*
        # batch already hits the store.
        assert first.stats.cache_hits == 1
        second = run_batch(jobs, FAST_SETTINGS, max_workers=1,
                           store_path=path)
        assert second.stats.cache_hits == 2
        assert second.stats.candidates_scanned == 0  # no search ran
        for a, b in zip(first.results, second.results):
            assert payload_modulo_cache_hit(a.to_payload()) == \
                payload_modulo_cache_hit(b.to_payload())
        # The batch uses the store as a result cache only.
        store = JobStore(path)
        try:
            assert store.list_jobs() == []
            assert store.result_count() == 1
        finally:
            store.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_shares_a_store_with_a_live_service(self, tmp_path,
                                                      workers):
        # A service's queued row must survive a batch on the same file
        # untouched (a batch that recovered it would run it, and one
        # that numbered its own jobs from the file would reuse its id),
        # while the batch's results still land in the shared cache.
        path = str(tmp_path / "store.db")
        store = JobStore(path)
        service = JobService(FAST_SETTINGS, worker_threads=0, store=store)
        try:
            served = service.submit(job_from_spec(inline_spec(tag="served")))
            batch = run_batch(
                [job_from_spec(inline_spec(tag=f"b{k}", threshold=k))
                 for k in (2, 3)],
                FAST_SETTINGS, max_workers=workers, store_path=path,
            )
            assert batch.stats.jobs_failed == 0
            rows = store.list_jobs()
            assert [(r.job_id, r.state, r.spec["tag"]) for r in rows] == [
                (served, JOB_QUEUED, "served")
            ]
            assert store.result_count() == 2
            # The served job has the content of the batch's first job.
            assert service.run_next()
            assert service.record(served).result.cache_hit
        finally:
            service.shutdown()
            store.close()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scenario_run_shares_a_store_with_a_live_service(self, tmp_path,
                                                             executor):
        # The twin of the batch case: a scenario run uses its store as a
        # result cache only, so it neither recovers nor renumbers the
        # live service's rows.
        from repro.scenarios import ScenarioMatrix, run_matrix

        matrix = ScenarioMatrix(
            queries=("TPCH-Q3",), scales=("xs",), tree_leaves=(16,),
            tree_heights=(3,), rows=(2,), thresholds=(2, 3),
            max_candidates=120,
        )
        path = str(tmp_path / "store.db")
        store = JobStore(path)
        service = JobService(FAST_SETTINGS, worker_threads=0, store=store)
        try:
            served = service.submit(job_from_spec(inline_spec(tag="served")))
            snapshot = run_matrix(matrix, seed=7, executor=executor,
                                  workers=1, store_path=path)
            assert snapshot["summary"]["cells"] == 2
            rows = store.list_jobs()
            assert [(r.job_id, r.state, r.spec["tag"], r.lease_worker)
                    for r in rows] == [(served, JOB_QUEUED, "served", None)]
            assert store.result_count() == 2
        finally:
            service.shutdown()
            store.close()

    def test_batch_hits_never_reach_the_pool(self, tmp_path, monkeypatch):
        # The service answers a hit before dispatching: a batch served
        # wholly from its store sends nothing to the process pool.
        from repro.service import ProcessPoolBackend

        path = str(tmp_path / "store.db")
        jobs = [job_from_spec(inline_spec(tag=f"k{k}", threshold=k))
                for k in (2, 3)]
        run_batch(jobs, FAST_SETTINGS, max_workers=2, store_path=path)
        dispatched = []
        run = ProcessPoolBackend.run

        def counting_run(backend, job, settings, job_id=None):
            dispatched.append(job_id)
            return run(backend, job, settings, job_id)

        monkeypatch.setattr(ProcessPoolBackend, "run", counting_run)
        again = run_batch(jobs, FAST_SETTINGS, max_workers=2,
                          store_path=path)
        assert again.stats.workers == 2
        assert again.stats.cache_hits == 2
        assert dispatched == []

    def test_remote_hits_never_offer_a_lease(self, tmp_path):
        # A fleet caches only through its coordinator: the service
        # answers a hit before it offers the job, so no worker is needed
        # and none ever holds a lease on it.
        path = str(tmp_path / "store.db")
        job = job_from_spec(inline_spec())
        cache = ResultCache(JobStore(path))
        try:
            cache.store_result(job, FAST_SETTINGS, run_job(job, FAST_SETTINGS))
        finally:
            cache.store.close()
        service = JobService(FAST_SETTINGS, worker_threads=0,
                             executor="remote", cache_path=path)
        # A miss would wait on the fleet for ever: run it on a thread.
        runner = threading.Thread(target=service.run_next, daemon=True)
        try:
            job_id = service.submit(job)
            runner.start()
            runner.join(timeout=30)
            fleet = service.stats_payload()["fleet"]
            assert not runner.is_alive(), f"offered to the fleet: {fleet}"
            assert service.record(job_id).result.cache_hit
            assert fleet["jobs_pending"] == 0
            assert fleet["leases_active"] == 0
            assert fleet["workers"] == {}
        finally:
            service.shutdown()
            runner.join(timeout=5)


@pytest.fixture(params=("thread", "process"))
def make_service(request):
    """A store-backed ``JobService`` factory, parameterized by executor.

    Durability must be indistinguishable across the execution tiers, so
    every test below runs once per backend.  Created services are shut
    down at teardown (the process backend owns a worker pool).
    """
    services = []

    def factory(path, **kwargs):
        kwargs.setdefault("worker_threads", 0)
        kwargs.setdefault("max_queue", 16)
        kwargs.setdefault("executor", request.param)
        service = JobService(store=JobStore(path), **kwargs)
        services.append(service)
        return service

    yield factory
    for service in services:
        service.shutdown()


def drain(service):
    while service.run_next():
        pass


class TestServiceDurability:
    """The acceptance loop: dedup within a process and across restarts.

    ``make_service`` is parameterized over both executor backends.
    """

    def test_same_job_twice_runs_the_optimizer_once(self, tmp_path, make_service):
        service = make_service(str(tmp_path / "store.db"))
        ids = service.submit_specs([inline_spec(), inline_spec()])
        drain(service)
        _, first = service.result_payload(ids[0])
        _, second = service.result_payload(ids[1])
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        # Bit-identical payload (the cache_hit marker aside) — including
        # `seconds`, which proves no second search produced it.
        assert payload_modulo_cache_hit({**first, "id": ""}) == \
            payload_modulo_cache_hit({**second, "id": ""})
        stats = service.stats_payload()
        assert stats["cache_hits"] == 1
        assert stats["results_stored"] == 1

    def test_results_survive_a_restart(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        service = make_service(path)
        ids = service.submit_specs([inline_spec(tag="persist")])
        drain(service)
        _, before = service.result_payload(ids[0])

        revived = make_service(path)
        assert revived.stats_payload()["jobs_recovered"] == 1
        code, after = revived.result_payload(ids[0])
        assert code == 200
        assert after == before  # bit-identical across the restart

        # ...and a content-identical resubmission is a cache hit.
        new_ids = revived.submit_specs([inline_spec(tag="resubmit")])
        drain(revived)
        _, resubmitted = revived.result_payload(new_ids[0])
        assert resubmitted["cache_hit"] is True
        assert payload_modulo_cache_hit({**before, "id": "", "tag": ""}) == \
            payload_modulo_cache_hit({**resubmitted, "id": "", "tag": ""})

    def test_stats_count_this_process_runs_only(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        service = make_service(path)
        service.submit_specs([inline_spec()])
        drain(service)
        assert service.stats_payload()["candidates_scanned"] > 0

        # A recovered record's result was computed by a previous life.
        revived = make_service(path)
        stats = revived.stats_payload()
        assert stats["jobs_recovered"] == 1
        for key in ("sessions_reused", "candidates_scanned",
                    "privacy_computations", "row_option_cache_hits",
                    "row_option_cache_misses", "cache_hits"):
            assert stats[key] == 0, key
        assert stats["job_seconds"] == 0.0
        assert isinstance(stats["job_seconds"], float)

        revived.submit_specs([inline_spec(tag="repeat")])
        drain(revived)
        stats = revived.stats_payload()
        assert stats["cache_hits"] == 1
        assert stats["candidates_scanned"] == 0

    def test_queued_and_running_jobs_requeue_on_restart(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        service = make_service(path)
        ids = service.submit_specs([inline_spec(), inline_spec(threshold=3)])
        # Simulate dying mid-run: first job marked running, never finished.
        service._store.update_job(ids[0], JOB_RUNNING, started_at=1.0)

        revived = make_service(path)
        stats = revived.stats_payload()
        assert stats["jobs_requeued"] == 2
        assert stats["queue_depth"] == 2
        assert revived.status_payload(ids[0])["state"] == JOB_QUEUED
        # The dead process's start timestamp is cleared in the store too.
        assert revived._store.get_job(ids[0]).started_at is None
        drain(revived)
        for job_id in ids:
            code, payload = revived.result_payload(job_id)
            assert code == 200
            assert payload["state"] == JOB_DONE
            assert payload["found"]

    def test_unfaithful_requeue_fails_visibly(self, tmp_path, make_service):
        # A queued job whose rebuilt form no longer hashes to the
        # submitted content hash (config beyond spec budgets, or the
        # service restarted under different settings) must fail loudly,
        # not silently re-run as different work.
        import dataclasses

        from repro.core.privacy import PrivacyConfig

        path = str(tmp_path / "store.db")
        service = make_service(path)
        job = job_from_spec(inline_spec())
        custom = dataclasses.replace(
            job, config=OptimizerConfig(
                max_candidates=50, max_seconds=5.0,
                privacy=PrivacyConfig(connectivity_filter=False),
            ),
        )
        job_id = service.submit(custom)

        revived = make_service(path)
        payload = revived.status_payload(job_id)
        assert payload["state"] == JOB_FAILED
        assert "cannot re-run faithfully" in payload["error"]
        assert revived.stats_payload()["jobs_requeued"] == 0
        # Durable: the store row is terminal, not forever-queued.
        assert revived._store.get_job(job_id).state == JOB_FAILED

    def test_job_ids_continue_after_restart(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        service = make_service(path)
        ids = service.submit_specs([inline_spec()])
        assert ids == ["job-000001"]
        revived = make_service(path)
        assert revived.submit_specs([inline_spec(threshold=3)]) == \
            ["job-000002"]

    def test_rejected_spec_leaves_nothing_queued(self, tmp_path, make_service):
        # A non-string query used to pass validation, fail while being
        # hashed for the store, and leave its record queued forever.
        from repro.errors import JobSpecError

        service = make_service(str(tmp_path / "store.db"))
        with pytest.raises(JobSpecError, match="'query'"):
            service.submit_specs([inline_spec(query=["not", "a", "string"])])
        assert service.stats_payload()["queue_depth"] == 0
        assert service.list_payload() == []
        assert service._store.list_jobs() == []

    def test_cancellation_is_durable(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        service = make_service(path)
        ids = service.submit_specs([inline_spec()])
        assert service.cancel(ids[0]) is True
        revived = make_service(path)
        assert revived.status_payload(ids[0])["state"] == "cancelled"
        assert revived.stats_payload()["jobs_requeued"] == 0

    def test_unparseable_stored_spec_becomes_visible_failure(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        store = JobStore(path)
        store.record_job(
            "job-000001", 1, "h", '{"nonsense":true}', JOB_QUEUED
        )
        store.close()
        revived = make_service(path)
        payload = revived.status_payload("job-000001")
        assert payload["state"] == JOB_FAILED
        assert "unrecoverable" in payload["error"]
        stats = revived.stats_payload()
        assert stats["jobs_requeued"] == 0
        # Rebuilt (listable, just not runnable) still counts as recovered.
        assert stats["jobs_recovered"] == 1
        # The failure is pushed back to the store: the row must not stay
        # 'queued' forever (ungarbage-collectable, re-reported per boot).
        assert revived._store.get_job("job-000001").state == JOB_FAILED
        assert revived._store.gc(drop_terminal_jobs=True)["jobs_deleted"] == 1

    def test_failed_jobs_keep_their_error_across_restart(self, tmp_path, make_service):
        path = str(tmp_path / "store.db")
        service = make_service(path)
        ids = service.submit_specs([inline_spec(query=FAILING_QUERY)])
        drain(service)
        assert service.status_payload(ids[0])["state"] == JOB_FAILED

        revived = make_service(path)
        code, payload = revived.result_payload(ids[0])
        assert code == 200
        assert payload["state"] == JOB_FAILED
        assert "NoSuchRelation" in payload["error"]
        # Errored searches are never cached: a resubmission retries.
        assert revived.stats_payload()["results_stored"] == 0
