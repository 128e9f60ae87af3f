"""Tests for the batch optimizer (repro.batch)."""

import dataclasses
import threading

import pytest

from repro.batch import BatchJob, InlineContext, InlineJob, run_batch
from repro.core.optimizer import OptimizerConfig, find_optimal_abstraction
from repro.errors import OptimizationError
from repro.experiments.figures import run_sweep
from repro.experiments.runner import prepare_context
from repro.experiments.settings import ExperimentSettings

TINY = ExperimentSettings(
    tree_leaves=40,
    tpch_scale=0.015,
    imdb_people=60,
    imdb_movies=40,
    max_candidates=300,
    max_seconds=10.0,
)


@dataclasses.dataclass(frozen=True)
class _PoolKillerJob(BatchJob):
    """A job whose unpickling hard-exits the pool worker that receives it."""

    def __reduce__(self):
        import os

        return (os._exit, (13,))


class TestSerial:
    def test_results_in_job_order(self):
        jobs = [
            BatchJob("TPCH-Q3", 2, tag="a"),
            BatchJob("TPCH-Q3", 3, tag="b"),
        ]
        batch = run_batch(jobs, TINY, max_workers=1)
        assert [r.job.tag for r in batch.results] == ["a", "b"]
        assert batch.stats.jobs_total == 2
        assert batch.stats.jobs_failed == 0
        assert batch.stats.workers == 1
        assert batch.stats.candidates_scanned > 0
        assert batch.stats.job_seconds > 0
        assert set(batch.by_tag()) == {"a", "b"}

    def test_matches_direct_search(self):
        batch = run_batch([BatchJob("TPCH-Q3", 2)], TINY, max_workers=1)
        result = batch.results[0]
        assert result.ok

        context = prepare_context("TPCH-Q3", TINY)
        direct = find_optimal_abstraction(
            context.example, context.tree, 2,
            config=OptimizerConfig(
                max_candidates=TINY.max_candidates,
                max_seconds=TINY.max_seconds,
            ),
        )
        assert result.found == direct.found
        assert result.loi == direct.loi
        assert result.privacy == direct.privacy
        assert result.edges_used == direct.edges_used

    def test_function_reconstruction(self):
        batch = run_batch([BatchJob("TPCH-Q3", 2)], TINY, max_workers=1)
        result = batch.results[0]
        assert result.found
        context = prepare_context("TPCH-Q3", TINY)
        function = result.function(context.tree, context.example)
        direct = find_optimal_abstraction(
            context.example, context.tree, 2,
            config=OptimizerConfig(
                max_candidates=TINY.max_candidates,
                max_seconds=TINY.max_seconds,
            ),
        )
        assert function.assignment == direct.function.assignment

    def test_per_job_config_override(self):
        job = BatchJob("TPCH-Q3", 2, config=OptimizerConfig(max_candidates=1))
        batch = run_batch([job], TINY, max_workers=1)
        result = batch.results[0]
        assert result.ok
        assert result.stats.candidates_scanned <= 2

    def test_run_sweep_raises_on_failed_job(self):
        """The figure sweeps must not plot errored jobs as data points."""
        with pytest.raises(OptimizationError, match="NO-SUCH-QUERY"):
            run_sweep([BatchJob("NO-SUCH-QUERY", 2)], TINY)

    def test_failed_job_reported_not_raised(self):
        jobs = [BatchJob("NO-SUCH-QUERY", 2), BatchJob("TPCH-Q3", 2)]
        batch = run_batch(jobs, TINY, max_workers=1)
        failed, ok = batch.results
        assert not failed.ok
        assert "NO-SUCH-QUERY" in failed.error
        assert not failed.found
        assert ok.ok
        assert batch.stats.jobs_failed == 1
        assert batch.stats.jobs_total == 2


class TestParallel:
    def test_parallel_matches_serial(self):
        jobs = [BatchJob("TPCH-Q3", 2), BatchJob("TPCH-Q3", 3)]
        serial = run_batch(jobs, TINY, max_workers=1)
        parallel = run_batch(jobs, TINY, max_workers=2)
        assert parallel.stats.workers == 2
        assert parallel.stats.jobs_failed == 0
        for s, p in zip(serial.results, parallel.results):
            assert (s.found, s.loi, s.privacy, s.edges_used) == (
                p.found, p.loi, p.privacy, p.edges_used
            )
            assert s.variable_targets == p.variable_targets

    def test_pool_capped_by_job_count(self):
        batch = run_batch([BatchJob("TPCH-Q3", 2)], TINY, max_workers=8)
        assert batch.stats.workers == 1  # no pool spawned for one job

    def test_dead_pool_workers_fail_their_jobs_not_the_batch(self):
        # The process tier replaces a broken pool and retries each job
        # once; a job that kills its worker twice comes back failed.
        jobs = [_PoolKillerJob("TPCH-Q3", 2, tag="a"),
                _PoolKillerJob("TPCH-Q3", 3, tag="b")]
        batch = run_batch(jobs, TINY, max_workers=2)
        assert [r.job.tag for r in batch.results] == ["a", "b"]
        assert batch.stats.jobs_failed == 2
        for result in batch.results:
            assert "worker process died" in result.error

    def test_pool_is_gone_when_the_batch_returns(self):
        # A pool still winding down when the interpreter exits can print
        # a traceback from concurrent.futures' exit hook.
        before = set(threading.enumerate())
        run_batch([BatchJob("TPCH-Q3", 2), BatchJob("TPCH-Q3", 3)], TINY,
                  max_workers=2)
        assert set(threading.enumerate()) <= before

    def test_interrupted_batch_cancels_its_queued_jobs(self, monkeypatch):
        from repro.service.server import JobService

        services = []

        def interrupted_wait(service, job_id):
            services.append(service)
            raise KeyboardInterrupt

        monkeypatch.setattr(JobService, "wait", interrupted_wait)
        jobs = [BatchJob("TPCH-Q3", k) for k in (2, 3, 4, 5)]
        with pytest.raises(KeyboardInterrupt):
            run_batch(jobs, TINY, max_workers=1)
        (service,) = services
        states = [job["state"] for job in service.list_payload()]
        # The first job may have started before the interrupt; none of
        # the others may run after it.
        assert states[1:] == ["cancelled"] * 3


class TestJobConfig:
    def test_jobs_keep_their_engine_and_trace(self):
        config = OptimizerConfig(max_candidates=50, engine="sqlite",
                                 trace=True)
        for workers in (1, 2):
            jobs = [BatchJob("TPCH-Q3", k, config=config) for k in (2, 3)]
            batch = run_batch(jobs, TINY, max_workers=workers)
            for result in batch.results:
                assert result.ok
                builds = [s for s in result.trace
                          if s["name"] == "context_build"]
                assert [s["attrs"]["engine"] for s in builds] == ["sqlite"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_cache_hits_carry_their_lookup(self, tmp_path, workers):
        # Each job consults the store where it runs, under its tracer:
        # a hit's trace is its lookup, not the stored run's spans.
        config = OptimizerConfig(max_candidates=50, trace=True)
        jobs = [BatchJob("TPCH-Q3", k, config=config) for k in (2, 3)]
        path = str(tmp_path / "store.db")
        run_batch(jobs, TINY, max_workers=workers, store_path=path)
        again = run_batch(jobs, TINY, max_workers=workers, store_path=path)
        for result in again.results:
            assert result.cache_hit
            assert {s["name"] for s in result.trace} == {
                "cache_lookup", "store_io"
            }


class TestSessionSharing:
    """Jobs over one context share a privacy session across thresholds."""

    def test_same_context_jobs_share_session(self):
        # A distinct n_leaves keeps this context cold within the process,
        # so the reuse pattern is deterministic: first job warms, rest hit.
        jobs = [BatchJob("TPCH-Q3", k, n_leaves=37) for k in (2, 3, 4)]
        batch = run_batch(jobs, TINY, max_workers=1)
        assert all(r.ok for r in batch.results)
        assert [r.session_reused for r in batch.results] == [False, True, True]
        assert batch.stats.sessions_reused == 2
        assert batch.stats.row_option_cache_hits > 0

    def test_different_contexts_get_separate_sessions(self):
        jobs = [
            BatchJob("TPCH-Q3", 2, n_leaves=38),
            BatchJob("TPCH-Q10", 2, n_leaves=38),
        ]
        batch = run_batch(jobs, TINY, max_workers=1)
        assert all(r.ok for r in batch.results)
        assert [r.session_reused for r in batch.results] == [False, False]
        assert batch.stats.sessions_reused == 0

    def test_warm_session_results_match_direct_search(self):
        """Cross-threshold sharing must be invisible in the results."""
        thresholds = (2, 3)
        jobs = [BatchJob("TPCH-Q3", k) for k in thresholds]
        batch = run_batch(jobs, TINY, max_workers=1)
        context = prepare_context("TPCH-Q3", TINY)
        for result, threshold in zip(batch.results, thresholds):
            assert result.ok
            direct = find_optimal_abstraction(
                context.example, context.tree, threshold,
                config=OptimizerConfig(
                    max_candidates=TINY.max_candidates,
                    max_seconds=TINY.max_seconds,
                ),
            )
            assert result.found == direct.found
            assert result.loi == direct.loi
            assert result.privacy == direct.privacy
            if direct.found:
                function = result.function(context.tree, context.example)
                assert function.assignment == direct.function.assignment


class TestInlineJobs:
    """User-supplied contexts run through the same workers and caches."""

    QUERY = (
        "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
        " Interests(id, 'Music', s2)"
    )

    def _context(self):
        from repro.examples_data import running_example_db, running_example_tree

        return InlineContext.from_objects(
            running_example_db(), running_example_tree(),
            query=self.QUERY, n_rows=2,
        )

    def test_inline_matches_direct_search(self):
        context = self._context()
        batch = run_batch([InlineJob(context, 2)], TINY, max_workers=1)
        result = batch.results[0]
        assert result.ok and result.found

        built = context.build(TINY)
        direct = find_optimal_abstraction(built.example, built.tree, 2)
        assert result.loi == direct.loi
        assert result.privacy == direct.privacy
        function = result.function(built.tree, built.example)
        assert function.assignment == direct.function.assignment

    def test_inline_jobs_cross_process_boundaries(self):
        """The payload travels with the job, so pools can run it."""
        context = self._context()
        jobs = [InlineJob(context, 2), InlineJob(context, 3)]
        serial = run_batch(jobs, TINY, max_workers=1)
        parallel = run_batch(jobs, TINY, max_workers=2)
        assert parallel.stats.jobs_failed == 0
        for s, p in zip(serial.results, parallel.results):
            assert (s.found, s.loi, s.privacy) == (p.found, p.loi, p.privacy)
            assert s.variable_targets == p.variable_targets

    def test_inline_jobs_share_a_session(self):
        from repro.examples_data import running_example_db, running_example_tree

        # A renamed variable gives the context a process-unique hash, so
        # the warm/cold pattern is deterministic (see TestSessionSharing).
        context = InlineContext.from_objects(
            running_example_db(), running_example_tree(),
            query=self.QUERY.replace("age", "yrs"),
        )
        jobs = [InlineJob(context, k) for k in (2, 3)]
        batch = run_batch(jobs, TINY, max_workers=1)
        assert all(r.ok for r in batch.results)
        assert [r.session_reused for r in batch.results] == [False, True]
        assert batch.stats.sessions_reused == 1

    def test_contexts_over_one_database_share_one_build(self):
        from repro.abstraction.builders import balanced_tree
        from repro.batch import clear_worker_caches
        from repro.examples_data import running_example_db, running_example_tree
        from repro.obs import metrics

        builds = metrics.REGISTRY.get("repro_inline_database_builds_total")
        database = running_example_db()
        other = running_example_db()
        other.insert("Person", (3, "Ann K", 40), "p3")
        first = InlineContext.from_objects(
            database, running_example_tree(), query=self.QUERY,
        )
        second = InlineContext.from_objects(
            database, balanced_tree(sorted(database.annotations()), 2),
            query=self.QUERY,
        )
        third = InlineContext.from_objects(
            other, running_example_tree(), query=self.QUERY,
        )
        assert first.tree_json != second.tree_json

        clear_worker_caches()
        before = builds.value()
        built = first.build(TINY)
        assert second.build(TINY).database is built.database
        assert builds.value() == before + 1
        assert third.build(TINY).database is not built.database
        assert builds.value() == before + 2
        clear_worker_caches()
        assert first.build(TINY).database is not built.database
        assert builds.value() == before + 3


class TestStats:
    def test_aggregation_sums_job_stats(self):
        jobs = [BatchJob("TPCH-Q3", 2), BatchJob("TPCH-Q3", 3)]
        batch = run_batch(jobs, TINY, max_workers=1)
        assert batch.stats.candidates_scanned == sum(
            r.stats.candidates_scanned for r in batch.results
        )
        assert batch.stats.privacy_computations == sum(
            r.stats.privacy_computations for r in batch.results
        )
        assert batch.stats.delta_evaluations == sum(
            r.stats.delta_evaluations for r in batch.results
        )
        assert batch.stats.jobs_found == sum(
            1 for r in batch.results if r.found
        )

    def test_summary_mentions_jobs_and_workers(self):
        batch = run_batch([BatchJob("TPCH-Q3", 2)], TINY, max_workers=1)
        text = batch.stats.summary()
        assert "1 jobs" in text
        assert "1 worker" in text
        assert batch.stats.parallel_speedup > 0
