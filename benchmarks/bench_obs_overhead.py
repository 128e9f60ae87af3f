"""Disabled-tracing overhead guard for the observability layer.

The promise: instrumentation that nobody turned on is effectively free.
With no ambient tracer, every ``spans.span(...)`` /
``spans.aggregate(...)`` call site collapses to a contextvar read plus
the shared :data:`repro.obs.spans.NO_SPAN` context manager — no
allocation, no clock read, no record — and a hot loop wrapped with
``spans.timed`` calls its bare functions, entering no span at all.

Two assertions:

* **overhead** — the no-op fast path, charged once per no-op span entry
  that one *untraced* run of the guard job makes (counted with a
  stand-in for ``NO_SPAN``), must cost < 5% of the untraced job's
  runtime.  Measuring the per-event cost directly (instead of diffing
  two noisy end-to-end runs) keeps the guard stable on loaded CI
  machines while still scaling with exactly the event volume the
  disabled instrumentation produces.
* **fidelity** — the traced run's payload must be bit-identical to the
  untraced run's outside the volatile ``trace``/``seconds`` fields
  (tracing may only add a trace, never change results).
"""

from _common import BENCH_SETTINGS, perf_counter
from repro.batch import BatchJob, run_job
from repro.core.optimizer import OptimizerConfig
from repro.obs import spans
from repro.scenarios.snapshot import result_hash

#: Disabled instrumentation may cost at most this fraction of runtime.
MAX_DISABLED_OVERHEAD = 0.05

TIMING_ROUNDS = 3

FAST_PATH_ITERATIONS = 200_000


def _job(trace: bool) -> BatchJob:
    return BatchJob(
        "TPCH-Q3", 2,
        config=OptimizerConfig(
            max_candidates=1_500,
            max_seconds=BENCH_SETTINGS.max_seconds,
            trace=trace,
        ),
    )


def _noop_event_seconds() -> float:
    """Best-of-rounds cost of one disabled span entry+exit."""
    assert spans.current() is None, "fast path needs tracing disabled"
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = perf_counter()
        for _ in range(FAST_PATH_ITERATIONS):
            with spans.span("guard", threshold=2):
                pass
        best = min(best, perf_counter() - start)
    return best / FAST_PATH_ITERATIONS


class _CountingNoSpan:
    """Stand-in for :data:`repro.obs.spans.NO_SPAN` counting its entries."""

    def __init__(self) -> None:
        self.entries = 0

    def __enter__(self) -> "_CountingNoSpan":
        self.entries += 1
        return self

    def __exit__(self, *exc: object) -> None:
        return None


def test_disabled_tracing_overhead_under_guard(benchmark, monkeypatch):
    # Warm the context/session caches so the timed runs measure search.
    warm = run_job(_job(trace=False), BENCH_SETTINGS)
    assert warm.ok, warm.error

    untraced_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = perf_counter()
        untraced = run_job(_job(trace=False), BENCH_SETTINGS)
        untraced_seconds = min(untraced_seconds, perf_counter() - start)
    assert untraced.ok and untraced.trace is None

    traced = run_job(_job(trace=True), BENCH_SETTINGS)
    assert traced.ok and traced.trace

    counter = _CountingNoSpan()
    with monkeypatch.context() as patch:
        patch.setattr(spans, "NO_SPAN", counter)
        counted = run_job(_job(trace=False), BENCH_SETTINGS)
    assert counted.ok, counted.error
    events = counter.entries

    per_event = _noop_event_seconds()
    disabled_cost = per_event * events
    overhead = disabled_cost / untraced_seconds

    # Fidelity: the deterministic result slice is identical traced vs
    # untraced (trace and timing are volatile by design).
    assert result_hash(traced.to_payload()) == \
        result_hash(untraced.to_payload())

    benchmark.extra_info["events"] = events
    benchmark.extra_info["noop_ns_per_event"] = per_event * 1e9
    benchmark.extra_info["overhead"] = overhead
    print(f"\n{events} span events/job, no-op path "
          f"{per_event * 1e9:.0f}ns/event -> {disabled_cost * 1e3:.2f}ms "
          f"per {untraced_seconds * 1e3:.0f}ms job "
          f"({overhead * 100:.2f}% disabled overhead)")
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled tracing costs {overhead * 100:.2f}% of runtime "
        f"(guard: {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )

    def run_untraced():
        return run_job(_job(trace=False), BENCH_SETTINGS)

    result = benchmark(run_untraced)
    assert result.ok
