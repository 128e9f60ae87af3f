"""The observability layer: spans, metrics, trace files, and the two
hard constraints on top of them — bit-neutrality (tracing must never
move a content or result hash) and a true no-op when disabled."""

from __future__ import annotations

import json
import threading

import pytest

from repro.batch import BatchJob, run_job
from repro.core.optimizer import OptimizerConfig
from repro.experiments.settings import FAST_SETTINGS
from repro.obs import metrics, spans
from repro.obs.trace import (
    TraceError,
    TraceWriter,
    format_record,
    format_summary,
    read_trace,
    summarize,
    trace_record,
)
from repro.scenarios.snapshot import result_hash
from repro.store.hashing import job_content_hash


# -- spans -----------------------------------------------------------------


class TestTracer:
    def test_nesting_is_recorded_via_parent_indices(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        names = [(r["name"], r["parent"]) for r in tracer.records]
        assert names == [("outer", -1), ("inner", 0), ("sibling", 0)]

    def test_records_are_in_start_order_with_relative_times(self):
        tracer = spans.Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        starts = [r["start"] for r in tracer.records]
        assert starts == sorted(starts)
        assert all(s >= 0.0 for s in starts)
        assert all(r["seconds"] >= 0.0 for r in tracer.records)

    def test_span_attrs_and_exception_exit_still_record(self):
        tracer = spans.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("phase", engine="naive"):
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record["attrs"] == {"engine": "naive"}
        assert record["seconds"] >= 0.0

    def test_aggregate_accumulates_count_and_seconds(self):
        tracer = spans.Tracer()
        timer = tracer.aggregate("hot", op="x")
        for _ in range(5):
            with timer:
                pass
        (record,) = tracer.records
        assert record["count"] == 5
        assert record["attrs"] == {"op": "x"}

    def test_aggregates_with_distinct_attrs_get_distinct_records(self):
        tracer = spans.Tracer()
        tracer.add("io", 0.25, op="read")
        tracer.add("io", 0.5, op="write")
        tracer.add("io", 0.25, op="read")
        by_op = {r["attrs"]["op"]: r for r in tracer.records}
        assert by_op["read"]["count"] == 2
        assert by_op["read"]["seconds"] == pytest.approx(0.5)
        assert by_op["write"]["count"] == 1

    def test_payload_round_trips_through_json(self):
        tracer = spans.Tracer()
        with tracer.span("outer", k=2):
            tracer.add("inner", 0.125)
        payload = tracer.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert spans.Tracer.from_payload(payload).to_payload() == payload

    def test_module_helpers_are_noops_without_an_active_tracer(self):
        assert spans.current() is None
        assert spans.span("anything") is spans.NO_SPAN
        assert spans.aggregate("anything") is spans.NO_SPAN
        assert spans.timed("anything", len) is len

    def test_activate_installs_and_restores_the_ambient_tracer(self):
        tracer = spans.Tracer()
        with spans.activate(tracer):
            assert spans.current() is tracer
            with spans.span("seen"):
                pass
            timed_len = spans.timed("timed", len)
            assert [timed_len("ab"), timed_len("abc")] == [2, 3]
            with spans.activate(None):
                assert spans.current() is None
                assert spans.span("shielded") is spans.NO_SPAN
        assert spans.current() is None
        assert [r["name"] for r in tracer.records] == ["seen", "timed"]
        assert tracer.records[1]["count"] == 2


# -- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_render_prometheus_text(self):
        registry = metrics.MetricsRegistry()
        jobs = registry.counter("jobs_total", "Jobs.", labelnames=("state",))
        depth = registry.gauge("queue_depth", "Depth.")
        lat = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        jobs.inc(state="done")
        jobs.inc(2, state="failed")
        depth.set(3)
        lat.observe(0.05)
        lat.observe(5.0)
        text = registry.render()
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{state="done"} 1' in text
        assert 'jobs_total{state="failed"} 2' in text
        assert 'queue_depth 3' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert 'latency_seconds_count 2' in text

    def test_every_exposition_line_is_well_formed(self):
        registry = metrics.MetricsRegistry()
        c = registry.counter("c_total", 'Help with "quotes" and \\ slash.',
                             labelnames=("k",))
        c.inc(k='va"l\nue\\')
        for line in registry.render().splitlines():
            assert line.startswith(("# HELP", "# TYPE")) or (
                " " in line and not line.endswith(" ")
            )

    def test_conflicting_reregistration_raises_idempotent_passes(self):
        registry = metrics.MetricsRegistry()
        first = registry.counter("x_total", "X.")
        assert registry.counter("x_total", "X.") is first
        with pytest.raises(metrics.MetricsError):
            registry.counter("x_total", "X.", labelnames=("state",))
        with pytest.raises(metrics.MetricsError):
            registry.gauge("x_total", "X.")
        with pytest.raises(metrics.MetricsError):
            registry.counter("bad name", "X.")

    def test_render_many_concatenates_disjoint_registries(self):
        a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        a.counter("a_total", "A.").inc()
        b.gauge("b_now", "B.").set(1)
        text = metrics.render_many([a, b])
        assert "a_total 1" in text and "b_now 1" in text


# -- trace files -----------------------------------------------------------


class TestTraceFiles:
    def _write(self, path, n=2):
        with TraceWriter(path) as writer:
            for i in range(n):
                tracer = spans.Tracer()
                with tracer.span("search", threshold=i):
                    tracer.add("scoring", 0.25)
                writer.write(trace_record(
                    tracer.to_payload(), label=f"job-{i}",
                    query="IMDB-Q1", threshold=i, seconds=0.5,
                ))
        return path

    def test_writer_reader_round_trip(self, tmp_path):
        path = self._write(tmp_path / "t.jsonl")
        records = read_trace(path)
        assert len(records) == 2
        assert records[0]["label"] == "job-0"
        assert [s["name"] for s in records[0]["spans"]] == [
            "search", "scoring",
        ]

    def test_summary_folds_phases_across_records(self, tmp_path):
        records = read_trace(self._write(tmp_path / "t.jsonl", n=3))
        summary = summarize(records)
        assert summary.records == 3
        assert summary.phases["scoring"].jobs == 3
        assert summary.phases["scoring"].seconds == pytest.approx(0.75)
        text = format_summary(summary)
        assert "scoring" in text and "search" in text

    def test_format_record_shows_the_span_tree(self, tmp_path):
        record = read_trace(self._write(tmp_path / "t.jsonl"))[0]
        text = format_record(record)
        assert "job-0" in text
        assert "search" in text and "scoring" in text

    def test_invalid_schema_and_empty_file_raise(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "something-else", "spans": []}\n')
        with pytest.raises(TraceError):
            read_trace(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError):
            read_trace(empty)

    def test_forward_parent_reference_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "schema": "repro-trace-v1", "label": "x",
            "spans": [{"name": "a", "start": 0.0, "seconds": 0.0,
                       "parent": 1, "count": 1}],
        }) + "\n")
        with pytest.raises(TraceError):
            read_trace(bad)

    def test_writer_is_thread_safe(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = trace_record([], label="x")
        with TraceWriter(path) as writer:
            threads = [
                threading.Thread(
                    target=lambda: [writer.write(record) for _ in range(20)]
                )
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(read_trace(path)) == 80


# -- traced jobs end to end ------------------------------------------------


def _job(trace: bool) -> BatchJob:
    return BatchJob(
        "IMDB-Q1", 2,
        config=OptimizerConfig(
            max_candidates=FAST_SETTINGS.max_candidates,
            max_seconds=FAST_SETTINGS.max_seconds,
            trace=trace,
        ),
    )


class TestTracedJobs:
    def test_traced_run_attaches_spans_and_round_trips(self):
        result = run_job(_job(trace=True), FAST_SETTINGS)
        assert result.ok
        assert result.trace, "traced run must carry span records"
        names = {r["name"] for r in result.trace}
        assert {"context_build", "session_build", "search"} <= names
        payload = result.to_payload()
        rebuilt = type(result).from_payload(
            json.loads(json.dumps(payload)), result.job
        )
        assert rebuilt.trace == result.trace

    def test_untraced_run_has_no_trace(self):
        result = run_job(_job(trace=False), FAST_SETTINGS)
        assert result.ok
        assert result.trace is None

    def test_tracing_is_bit_neutral(self):
        traced = run_job(_job(trace=True), FAST_SETTINGS)
        plain = run_job(_job(trace=False), FAST_SETTINGS)
        assert job_content_hash(_job(True), FAST_SETTINGS) == \
            job_content_hash(_job(False), FAST_SETTINGS)
        assert result_hash(traced.to_payload()) == \
            result_hash(plain.to_payload())


# -- the service's /metrics and the store_errors counter -------------------


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_service_metrics_and_traces_on_both_tiers(executor, tmp_path):
    from repro.service.server import JobService
    from repro.store import JobStore

    trace_path = tmp_path / "trace.jsonl"
    service = JobService(
        settings=FAST_SETTINGS,
        worker_threads=0,
        store=JobStore(str(tmp_path / "store.sqlite")),
        executor=executor,
        trace=True,
        trace_path=str(trace_path),
    )
    try:
        service.submit(BatchJob("IMDB-Q1", 2))
        assert service.run_next()
        text = service.metrics_text()
        # Validity: every non-comment line is `name{labels} value`.
        for line in text.splitlines():
            assert line.startswith("# ") or " " in line
        assert 'repro_service_jobs_completed_total{state="done"} 1' in text
        assert f'executor="{executor}"' in text
        assert "repro_service_phase_seconds_bucket" in text
        # Cardinality: phase labels are the fixed span taxonomy, not
        # per-job values.
        phases = {
            line.split('phase="')[1].split('"')[0]
            for line in text.splitlines() if 'phase="' in line
        }
        assert phases <= {
            "context_build", "session_build", "search", "store_io",
            "candidate_scoring", "privacy_check", "materialize",
            "cache_lookup", "engine_evaluate",
        }
    finally:
        service.shutdown()
    records = read_trace(trace_path)
    assert len(records) == 1
    assert records[0]["query"] == "IMDB-Q1"


def test_store_errors_are_counted_and_stats_stay_up(tmp_path):
    from repro.service.server import JobService
    from repro.store import JobStore

    store = JobStore(str(tmp_path / "store.sqlite"))
    service = JobService(
        settings=FAST_SETTINGS, worker_threads=0, store=store,
    )
    try:
        before = service.stats_payload()
        assert before["store_errors"] == 0
        # Break the store out from under the service: every persistence
        # call now fails, and each must degrade-and-count, not raise.
        store.close()
        service.submit(BatchJob("IMDB-Q1", 2))
        stats = service.stats_payload()
        assert stats["store_errors"] > 0
        assert stats["jobs_submitted"] == 1
        assert 'repro_service_store_errors_total' in service.metrics_text()
    finally:
        service.shutdown()
