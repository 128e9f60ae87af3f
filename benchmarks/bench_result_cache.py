"""Warm-hit latency of the persistent result cache vs recomputing.

The optimizer is pure, so a content-addressed store (:mod:`repro.store`)
can answer a repeated job without running Algorithm 2 at all.  This
guard measures exactly that economy, stacked *on top of* the in-process
context and privacy-session caches: the recompute baseline runs
``run_job`` with those caches already warm, and the cached side runs
:meth:`ResultCache.lookup`, the call the job service makes before it
dispatches a job, so the measured ratio is pure search-vs-lookup, not
data-generation noise.

Two assertions:

* **latency** — answering the workload stream from a warm store must be
  >= 5x faster (aggregate) than recomputing each job, and
* **fidelity** — every cached payload must equal the freshly computed
  one bit for bit, ``cache_hit`` marker aside (the cache may only change
  speed, never results).
"""

from _common import BENCH_SETTINGS, perf_counter
from repro.batch import job_from_spec, run_job
from repro.examples_data import running_example_db, running_example_tree
from repro.io.json_io import database_to_json, tree_to_json
from repro.store import JobStore, ResultCache

QUERY = (
    "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
    " Interests(id, 'Music', s2)"
)

#: The guard ratio: aggregate recompute seconds / warm-lookup seconds.
MIN_SPEEDUP = 5.0

#: Rounds per side.  A round takes milliseconds, so a slow stretch of
#: the host can swallow several in a row.
TIMING_ROUNDS = 10


def _jobs():
    inline = {
        "database": database_to_json(running_example_db()),
        "tree": tree_to_json(running_example_tree()),
        "query": QUERY,
    }
    specs = [
        {**inline, "threshold": 2},
        {**inline, "threshold": 3},
        {"query_name": "TPCH-Q3", "threshold": 2,
         "max_candidates": 300, "max_seconds": 10.0},
    ]
    return [job_from_spec(spec) for spec in specs]


def _run_all(jobs):
    start = perf_counter()
    results = [run_job(job, BENCH_SETTINGS) for job in jobs]
    return results, perf_counter() - start


def _lookup_all(cache, jobs):
    start = perf_counter()
    results = [cache.lookup(job, BENCH_SETTINGS) for job in jobs]
    return results, perf_counter() - start


def _payload(result):
    payload = result.to_payload()
    payload.pop("cache_hit")
    return payload


def test_result_cache_warm_hit_latency(benchmark, tmp_path):
    cache = ResultCache(JobStore(str(tmp_path / "results.db")))
    jobs = _jobs()

    # Warm the in-process context/session caches AND populate the store,
    # so both sides of the comparison start from the same warm state.
    fresh, _ = _run_all(jobs)
    assert all(r.ok for r in fresh), [r.error for r in fresh]
    for job, result in zip(jobs, fresh):
        assert cache.store_result(job, BENCH_SETTINGS, result)

    # The sides alternate round by round, so a slow stretch hits both,
    # and each keeps its best round.  A round times its side's second
    # pass: the first warms the CPU caches the other side's round left
    # cold, which slows a lookup pass by a quarter or more.
    recompute_seconds = cached_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        _run_all(jobs)  # full search
        recompute_seconds = min(recompute_seconds, _run_all(jobs)[1])
        _lookup_all(cache, jobs)
        cached, seconds = _lookup_all(cache, jobs)
        cached_seconds = min(cached_seconds, seconds)
    cache.store.close()

    assert all(r is not None and r.cache_hit for r in cached), (
        "store should answer every job"
    )
    for fresh_result, cached_result in zip(fresh, cached):
        assert _payload(cached_result) == _payload(fresh_result), (
            "cached payload differs from the freshly computed one"
        )

    speedup = recompute_seconds / cached_seconds
    print(f"\n{len(jobs)} jobs: recompute {recompute_seconds:.4f}s vs "
          f"warm store {cached_seconds:.4f}s -> {speedup:.1f}x")
    benchmark.extra_info["recompute_seconds"] = recompute_seconds
    benchmark.extra_info["cached_seconds"] = cached_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= MIN_SPEEDUP, (
        f"warm result-cache hits only {speedup:.2f}x faster than "
        f"recomputing (expected >= {MIN_SPEEDUP}x)"
    )
