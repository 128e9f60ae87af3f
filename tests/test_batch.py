"""Tests for the batch optimizer (repro.batch)."""

import dataclasses
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # The service consults the store under the job's tracer on
        # either tier: a hit's trace is its lookup, not the stored run's
        # spans.
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

    def test_service_hits_carry_only_their_own_lookup(self, tmp_path):
        # The service consults its store before the backend runs a job:
        # a hit must not carry the spans of the run that stored it.
        from repro.service import JobService
        from repro.store import JobStore, job_content_hash

        def run(path, trace):
            job = BatchJob("TPCH-Q3", 2, config=OptimizerConfig(
                max_candidates=50, trace=trace,
            ))
            store = JobStore(str(path))
            service = JobService(TINY, worker_threads=0, store=store)
            try:
                job_id = service.submit(job)
                assert service.run_next()
                return job, service.record(job_id).result
            finally:
                service.shutdown()
                store.close()

        path = tmp_path / "store.db"
        job, stored = run(path, trace=True)
        assert not stored.cache_hit
        assert "search" in {s["name"] for s in stored.trace}
        key = job_content_hash(job, TINY)
        store = JobStore(str(path))
        try:
            payload = store.peek_result(key)
        finally:
            store.close()
        assert payload["trace"] is None
        for trace, names in ((True, {"cache_lookup", "store_io"}),
                             (False, None)):
            _, hit = run(path, trace)
            assert hit.cache_hit
            assert (hit.trace and {s["name"] for s in hit.trace}) == names

        # A row an older store wrote holds the storing run's spans; an
        # untraced hit on it carries none.
        older = tmp_path / "older.db"
        store = JobStore(str(older))
        try:
            store.save_result(key, dict(payload, trace=stored.trace))
        finally:
            store.close()
        _, hit = run(older, trace=False)
        assert hit.cache_hit
        assert hit.trace is None


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

    @staticmethod
    def _tree_jobs(database, trees, threshold=2):
        return [
            InlineJob(InlineContext.from_objects(
                database, tree, query=TestInlineJobs.QUERY,
            ), threshold)
            for tree in trees
        ]

    @staticmethod
    def _trees(database):
        from repro.abstraction.builders import balanced_tree
        from repro.examples_data import running_example_tree

        return [running_example_tree(),
                balanced_tree(sorted(database.annotations()), 2)]

    def test_a_new_tree_reuses_the_query_facts_of_its_database(
        self, monkeypatch
    ):
        """A job over a new tree of a database the process has served
        generates fewer consistent queries than in a fresh process, with
        an equal payload."""
        from repro.batch import clear_worker_caches
        from repro.batch.optimizer import run_job
        from repro.core import privacy
        from repro.examples_data import running_example_db

        calls = []
        original = privacy.consistent_queries

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def comparable(result):
            payload = result.to_payload()
            del payload["seconds"], payload["stats"]["elapsed_seconds"]
            return payload

        monkeypatch.setattr(privacy, "consistent_queries", counting)
        database = running_example_db()
        first, second = self._tree_jobs(database, self._trees(database))
        try:
            clear_worker_caches()
            alone = run_job(second, TINY)
            fresh_calls = len(calls)
            clear_worker_caches()
            assert run_job(first, TINY).ok
            calls.clear()
            after = run_job(second, TINY)
            assert alone.ok and after.ok
            assert 0 < len(calls) < fresh_calls
            assert comparable(after) == comparable(alone)
        finally:
            clear_worker_caches()

    def test_holders_are_built_once_per_database(self):
        from repro.batch import clear_worker_caches
        from repro.examples_data import running_example_db
        from repro.obs import metrics

        builds = metrics.REGISTRY.get("repro_query_facts_builds_total")
        database = running_example_db()
        other = running_example_db()
        other.insert("Person", (3, "Ann K", 40), "p3")
        jobs = [
            job for db in (database, other)
            for job in self._tree_jobs(db, self._trees(db))
        ]
        clear_worker_caches()
        try:
            before = builds.value()
            batch = run_batch(jobs, TINY, max_workers=1)
            assert all(result.ok for result in batch.results)
            assert builds.value() == before + 2
        finally:
            clear_worker_caches()


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


def _spec_body(database, threshold=2):
    """A ``POST /v1/jobs`` body over ``database``, as a client sends it."""
    from repro.examples_data import running_example_tree
    from repro.io.json_io import tree_to_json

    return json.dumps({
        "database": database,
        "tree": tree_to_json(running_example_tree()),
        "query": TestInlineJobs.QUERY,
        "threshold": threshold,
    }).encode()


def _decoded_jobs(decode, body):
    """What submitting ``body`` yields: a decode error, or per spec the
    stored spec text and content hash of its job, or its error."""
    from repro.batch import job_from_spec, job_spec_text
    from repro.store import job_content_hash

    try:
        data = decode(body)
    except json.JSONDecodeError as exc:
        return ("malformed", exc.msg, exc.pos)
    outcome = []
    for spec in data if isinstance(data, list) else [data]:
        try:
            job = job_from_spec(spec)
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            outcome.append((type(exc).__name__, str(exc)))
        else:
            outcome.append((job_spec_text(job), job_content_hash(job, TINY)))
    return outcome


_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-10**6, 10**6),
        st.floats(), st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_SPEC_KEYS = st.one_of(
    st.sampled_from(["database", "tree", "query", "kexample", "threshold",
                     "n_rows", "tag", "max_candidates"]),
    st.text(max_size=4),
)


@st.composite
def _spec_texts(draw):
    """Spec bodies with duplicate keys, escapes and varied whitespace,
    which ``json.dumps`` of a dict never writes."""
    space = st.text(" \t\n\r", max_size=2)
    ascii_only = draw(st.booleans())

    def dump(value):
        return json.dumps(value, ensure_ascii=ascii_only,
                          indent=draw(st.sampled_from([None, 1])))

    def spec():
        pairs = [
            ("database", draw(st.one_of(
                st.dictionaries(st.text(max_size=4), _JSON_VALUES,
                                max_size=4),
                _JSON_VALUES,
            ))),
            ("tree", draw(_JSON_VALUES)),
            ("query", draw(st.text(min_size=1, max_size=6))),
            ("threshold", draw(st.integers(0, 4))),
        ]
        pairs += draw(st.lists(st.tuples(_SPEC_KEYS, _JSON_VALUES),
                               max_size=2))
        items = [
            draw(space) + dump(key) + draw(space) + ":" + draw(space)
            + dump(value) + draw(space)
            for key, value in draw(st.permutations(pairs))
        ]
        return "{" + ",".join(items) + "}"

    if draw(st.booleans()):
        body = spec()
    else:
        items = [spec() for _ in range(draw(st.integers(0, 3)))]
        items += [dump(v) for v in draw(st.lists(_JSON_VALUES, max_size=1))]
        body = "[" + ",".join(draw(space) + s + draw(space)
                              for s in items) + "]"
    return draw(space) + body + draw(space)


class TestJobSpecDecoder:
    """``decode_job_specs`` stands in for ``json.loads`` on the submit path."""

    @staticmethod
    def _decodes():
        from repro.obs import metrics

        return metrics.REGISTRY.get("repro_inline_database_decodes_total")

    @settings(max_examples=100, deadline=None)
    @given(text=_spec_texts(),
           encoding=st.sampled_from([None, "utf-8", "utf-16", "utf-32"]))
    def test_same_jobs_as_json_loads(self, text, encoding):
        from repro.batch.jobs import decode_job_specs

        body = text if encoding is None else text.encode(encoding)
        expected = _decoded_jobs(json.loads, body)
        assert _decoded_jobs(decode_job_specs, body) == expected
        # The second decode reads every database object from the memo.
        assert _decoded_jobs(decode_job_specs, body) == expected

    @settings(max_examples=100, deadline=None)
    @given(text=_spec_texts(), at=st.integers(min_value=0),
           char=st.sampled_from(list('{}[],:"\\x0 ')))
    def test_malformed_bodies_fail_as_json_loads_does(self, text, at, char):
        from repro.batch.jobs import decode_job_specs

        at %= len(text) + 1
        for broken in (text[:at], text[:at] + char + text[at:],
                       text[:at] + text[at + 1:]):
            for body in (broken, broken.encode()):
                assert (_decoded_jobs(decode_job_specs, body)
                        == _decoded_jobs(json.loads, body))

    def test_a_body_that_is_not_utf8_fails_as_json_loads_does(self):
        from repro.batch.jobs import decode_job_specs

        body = b'{"database": {"caf\xe9": 1}, "threshold": 2}'
        with pytest.raises(UnicodeDecodeError):
            json.loads(body)
        with pytest.raises(UnicodeDecodeError):
            decode_job_specs(body)

    def test_a_second_spec_over_one_database_reuses_its_text(self):
        from repro.batch import clear_worker_caches, job_from_spec
        from repro.batch.jobs import decode_job_specs
        from repro.examples_data import running_example_db
        from repro.io.json_io import database_to_json

        database = database_to_json(running_example_db())
        decodes = self._decodes()
        clear_worker_caches()
        parsed = decodes.value(outcome="parsed")
        reused = decodes.value(outcome="reused")
        first = decode_job_specs(_spec_body(database, 2))
        second = decode_job_specs(_spec_body(database, 3))
        assert decodes.value(outcome="parsed") == parsed + 1
        assert decodes.value(outcome="reused") == reused + 1
        assert second["database"].text is first["database"].text
        for threshold, spec in ((2, first), (3, second)):
            plain = json.loads(_spec_body(database, threshold))
            assert job_from_spec(spec) == job_from_spec(plain)

    def test_remembered_database_then_garbage_fails_as_json_loads(self):
        from repro.batch.jobs import decode_job_specs

        database = {"relations": [], "garbage": True}
        decode_job_specs(_spec_body(database))
        raw = json.dumps(database)
        assert raw in _spec_body(database).decode()
        for body in ('{"database": ' + raw + "}}",
                     '{"database": ' + raw + ' "tree": 1}',
                     '[{"database": ' + raw + "]",
                     '{"database": ' + raw + ', "tree": }',
                     '{"database": ' + raw[:-1]):
            with pytest.raises(json.JSONDecodeError) as expected:
                json.loads(body)
            with pytest.raises(json.JSONDecodeError) as got:
                decode_job_specs(body.encode())
            assert (got.value.msg, got.value.pos) == (
                expected.value.msg, expected.value.pos
            )

    @pytest.mark.parametrize("second", [
        {"n": 12}, {"n": 1, "m": 2}, {"n": 1.0}, {"n": True},
    ])
    def test_only_a_whole_remembered_text_is_reused(self, second):
        # Each second database starts like the first or equals it in
        # Python, and canonicalizes differently.
        from repro.batch.jobs import decode_job_specs

        for database in ({"n": 1}, second):
            body = _spec_body(database)
            assert (_decoded_jobs(decode_job_specs, body)
                    == _decoded_jobs(json.loads, body))

    @pytest.mark.parametrize("value", [[1, {"a": 2}], "db", 7, None])
    def test_a_non_object_database_passes_through(self, value):
        from repro.batch.jobs import decode_job_specs

        decodes = self._decodes()
        before = (decodes.value(outcome="parsed"),
                  decodes.value(outcome="reused"))
        body = json.dumps({"database": value, "threshold": 2})
        assert decode_job_specs(body) == {"database": value, "threshold": 2}
        assert (decodes.value(outcome="parsed"),
                decodes.value(outcome="reused")) == before

    def test_a_ninth_database_evicts_the_oldest(self):
        from repro.batch import clear_worker_caches
        from repro.batch.jobs import _DATABASE_TEXTS, decode_job_specs

        bodies = [_spec_body({"relations": [], "n": n}) for n in range(9)]
        decodes = self._decodes()
        clear_worker_caches()
        for body in bodies:
            decode_job_specs(body)
        assert len(_DATABASE_TEXTS) == 8
        reused = decodes.value(outcome="reused")
        decode_job_specs(bodies[8])
        assert decodes.value(outcome="reused") == reused + 1
        parsed = decodes.value(outcome="parsed")
        decode_job_specs(bodies[0])
        assert decodes.value(outcome="parsed") == parsed + 1

    def test_clear_worker_caches_empties_the_memo(self):
        from repro.batch import clear_worker_caches
        from repro.batch.jobs import _DATABASE_TEXTS, decode_job_specs

        decode_job_specs(_spec_body({"relations": [], "cleared": True}))
        assert len(_DATABASE_TEXTS) > 0
        clear_worker_caches()
        assert len(_DATABASE_TEXTS) == 0

    def test_concurrent_decodes_match_json_loads(self, monkeypatch):
        # More threads than cores decode specs over three databases with
        # a memo bounded at two, so lookups race insertions and evictions.
        import random
        import sys
        import time

        from repro.batch import jobs as jobs_module
        from repro.batch import job_from_spec

        memo = jobs_module._DatabaseTexts(maxsize=2)
        monkeypatch.setattr(jobs_module, "_DATABASE_TEXTS", memo)
        bodies = [_spec_body({"relations": [], "n": n}, threshold)
                  for n in range(3) for threshold in (2, 3)]
        expected = {body: job_from_spec(json.loads(body)) for body in bodies}
        failures: list = []
        deadline = time.monotonic() + 1.0

        def decode(seed):
            pick = random.Random(seed).choice
            while time.monotonic() < deadline and not failures:
                body = pick(bodies)
                try:
                    job = job_from_spec(jobs_module.decode_job_specs(body))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                    return
                if job != expected[body]:
                    failures.append(body)
                if len(memo) > 2:
                    failures.append(f"memo grew to {len(memo)}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode, args=(seed,))
                       for seed in range((os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
