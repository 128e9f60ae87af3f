"""Aggregate job-service throughput: process tier vs thread tier.

PR 5's tentpole: the optimizer search is pure CPU-bound Python, so a
service running its searches on worker *threads* is GIL-capped at about
one core no matter how many workers are configured.  The process
executor (``repro serve --executor process --workers N``) dispatches
each claimed job to a process pool instead, scaling the search to the
hardware while every service behavior around it stays identical.

Two assertions:

* **throughput** — the same job stream through a 4-process-worker
  service must finish >= 2x faster (wall clock) than through a
  1-process-worker service.  Enforced only on hosts with >= 4 CPUs (the
  CI runner); on smaller hosts the phases still run and the measured
  ratio is reported.
* **fidelity** — every result payload must be bit-identical across the
  thread tier, the 1-process tier, and the 4-process tier (timing
  fields aside): the executor may only change speed, never results.

Every job uses a distinct ``n_leaves``, so every context is cold in
every phase and per-job effort is deterministic — no cross-job session
sharing whose worker-placement luck could skew either the clock or the
effort counters.
"""

import os
import time

from _common import BENCH_SETTINGS, monotonic, perf_counter
from repro.batch import BatchJob
from repro.core.optimizer import OptimizerConfig
from repro.service import JobService

#: The guard ratio: 1-process-worker wall seconds / 4-process-worker.
MIN_SPEEDUP = 2.0

POOL_WORKERS = 4

#: One TPCH-Q3 job per tree size — distinct contexts, ~0.5-2s of pure
#: search each at the bench profile.
N_LEAVES = (28, 31, 34, 37, 40, 43, 46, 49)


def _jobs():
    # Candidate-capped, *not* wall-clock-capped: a max_seconds budget
    # tripping under 4-way CPU contention would truncate those searches
    # differently than the serial phases and break the fidelity check
    # (exactly why the result cache refuses wall-clock-cut results).
    config = OptimizerConfig(
        max_candidates=BENCH_SETTINGS.max_candidates, max_seconds=None
    )
    return [
        BatchJob("TPCH-Q3", 2, n_leaves=n, tag=f"nl{n}", config=config)
        for n in N_LEAVES
    ]


def _run_stream(executor: str, workers: int):
    """One service lifetime: submit every job, wait, return (payloads, wall)."""
    service = JobService(
        settings=BENCH_SETTINGS,
        worker_threads=workers,
        max_queue=len(N_LEAVES) + 4,
        executor=executor,
    ).start()
    try:
        start = perf_counter()
        ids = [service.submit(job) for job in _jobs()]
        deadline = monotonic() + 600
        while True:
            states = [service.status_payload(i)["state"] for i in ids]
            if all(s not in ("queued", "running") for s in states):
                break
            assert monotonic() < deadline, f"jobs stuck: {states}"
            time.sleep(0.05)
        wall = perf_counter() - start
        return [service.result_payload(i)[1] for i in ids], wall
    finally:
        service.shutdown()


def _normalized(payload: dict) -> dict:
    """Strip the only legitimately tier-dependent fields: timings."""
    clean = {k: v for k, v in payload.items() if k not in ("id", "seconds")}
    clean["stats"] = {
        k: v for k, v in payload["stats"].items() if k != "elapsed_seconds"
    }
    return clean


def test_service_scaleout_throughput(benchmark):
    # Every phase starts cold: the pools fork their workers before this
    # process ever builds a context, and the thread phase (which *does*
    # warm this process) runs last — warm caches would otherwise shift
    # the effort counters and defeat the payload comparison.
    pool4, pool4_seconds = _run_stream("process", POOL_WORKERS)
    pool1, pool1_seconds = _run_stream("process", 1)
    thread1, thread1_seconds = _run_stream("thread", 1)

    for payloads in (pool4, pool1, thread1):
        assert [p["state"] for p in payloads] == ["done"] * len(N_LEAVES), (
            payloads
        )

    # Fidelity: the executor tier may never change what a job returns.
    for other in (pool1, thread1):
        for via_pool, via_other in zip(pool4, other):
            assert _normalized(via_pool) == _normalized(via_other), (
                "result payloads differ across executor tiers"
            )

    cores = os.cpu_count() or 1
    speedup = pool1_seconds / pool4_seconds
    print(
        f"\n{len(N_LEAVES)} jobs: thread x1 {thread1_seconds:.2f}s, "
        f"process x1 {pool1_seconds:.2f}s, "
        f"process x{POOL_WORKERS} {pool4_seconds:.2f}s "
        f"-> {speedup:.1f}x scale-out on {cores} cores"
    )
    benchmark.extra_info["thread1_seconds"] = thread1_seconds
    benchmark.extra_info["pool1_seconds"] = pool1_seconds
    benchmark.extra_info["pool4_seconds"] = pool4_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cores"] = cores
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    if cores >= POOL_WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"{POOL_WORKERS} process workers only {speedup:.2f}x faster "
            f"than 1 (expected >= {MIN_SPEEDUP}x on {cores} cores)"
        )
    else:
        print(
            f"(host has {cores} < {POOL_WORKERS} cores: the >= "
            f"{MIN_SPEEDUP}x guard is enforced on the CI runner)"
        )
