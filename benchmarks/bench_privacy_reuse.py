"""Cross-search privacy-session reuse on a Fig 9-style threshold sweep.

PR 2's tentpole: every cache of Algorithm 1 — row-option sets, prefix
queries, connectivity verdicts, pairwise containments, minimal sets — is
threshold-independent, so a :class:`PrivacySession` warmed by one search
serves every other threshold over the same (tree, registry) context.
Two measurements per workload of the Fig 9-style sweep:

* *privacy-computation throughput* — the same sorted candidate stream
  (the prefix of Algorithm 2's scan order) evaluated by Algorithm 1 at
  every threshold of the sweep, with one shared session vs a fresh
  computer per threshold (the status quo before sessions).  The returned
  privacy values must be identical and the aggregate throughput across
  the workloads must be >= 2x.  On the shared session every threshold
  after the first must answer some computes from the session's
  per-example counts, so the guard fails if that memo stops being used.
* *end-to-end sweep equality* — ``find_optimal_abstraction`` per
  threshold with and without a shared session; found/privacy/LOI and the
  chosen abstraction's assignment must be bit-identical (session caching
  may only change speed, never results).  On the shared session each
  search must score and build abstracted rows only for candidates the
  session's lattice did not hold (its ``delta_evaluations`` and
  ``functions_materialized`` equal the growth of the session's
  ``candidate_lois`` and ``candidate_rows``), and every threshold after
  the first must read some candidates from it, so the guard fails if
  the lattice's memos stop being read or written.
"""

import pytest

from _common import BENCH_SETTINGS, perf_counter
from repro.core.loi import UniformDistribution
from repro.core.optimizer import (
    IncrementalEvaluator,
    Lattice,
    OptimizerConfig,
    _SortedFrontier,
    find_optimal_abstraction,
)
from repro.core.privacy import PrivacyComputer, PrivacySession
from repro.experiments.runner import prepare_context
from repro.provenance.kexample import AbstractedKExample

#: Fig 9-style threshold sweep (the paper sweeps k = 2..20; these points
#: keep one CI smoke run in seconds while spanning the same shape).
THRESHOLDS = (2, 3, 4, 6)

#: Per-workload prefix of the sorted candidate stream to evaluate.  The
#: TPC-H Q3 candidates carry far larger concretization sets per step, so
#: fewer of them saturate the measurement.
WORKLOADS = (("TPCH-Q3", 40), ("TPCH-Q10", 120), ("IMDB-Q1", 120))

TIMING_ROUNDS = 3

#: The guard: total cold seconds / total warm seconds across workloads.
#: Per-workload ratios are printed and recorded but not asserted — the
#: small workloads' absolute times are jitter-prone on shared CI runners.
MIN_AGGREGATE_SPEEDUP = 2.0


def _sorted_abstracted(context, limit):
    """The first ``limit`` abstracted examples in Algorithm 2's scan order."""
    example, tree = context.example, context.tree
    lattice = Lattice(example, tree)
    frontier = _SortedFrontier(lattice)
    evaluator = IncrementalEvaluator(lattice, UniformDistribution())
    candidates = []
    while len(candidates) < limit:
        code = frontier.pop()
        if code is None:
            break
        levels = lattice.levels(code)
        candidates.append(AbstractedKExample(
            evaluator.rows(levels), example, lattice.mapping(levels)
        ))
        frontier.expand(code)
    return candidates


def _sweep_computations(context, candidates, shared):
    """Evaluate every candidate at every threshold; one session or none.
    Returns the values, the seconds and each threshold's computes served
    from the session's per-example counts."""
    tree, registry = context.tree, context.example.registry
    session = PrivacySession(tree, registry) if shared else None
    values, memo_hits = [], []
    start = perf_counter()
    for threshold in THRESHOLDS:
        computer = PrivacyComputer(tree, registry, session=session)
        for abstracted in candidates:
            values.append(computer.compute(abstracted, threshold))
        memo_hits.append(computer.stats.privacy_cache_hits)
    return values, perf_counter() - start, memo_hits


def _best_of(rounds, run):
    best_seconds, values, memo_hits = float("inf"), None, None
    for _ in range(rounds):
        values, seconds, memo_hits = run()
        best_seconds = min(best_seconds, seconds)
    return values, best_seconds, memo_hits


def test_privacy_session_throughput(benchmark):
    total_cold = total_warm = 0.0
    total_computations = 0
    per_workload = {}
    for query_name, n_candidates in WORKLOADS:
        context = prepare_context(query_name, BENCH_SETTINGS)
        candidates = _sorted_abstracted(context, n_candidates)
        cold_values, cold_seconds, _ = _best_of(
            TIMING_ROUNDS, lambda: _sweep_computations(context, candidates, False)
        )
        warm_values, warm_seconds, memo_hits = _best_of(
            TIMING_ROUNDS, lambda: _sweep_computations(context, candidates, True)
        )
        assert cold_values == warm_values, (
            f"{query_name}: session caching changed privacy values"
        )
        # Every threshold after the first re-checks candidates the session
        # has counted, so some of its computes must come from the memo.
        assert all(memo_hits[1:]), (
            f"{query_name}: per-threshold memo hits {memo_hits}"
        )
        speedup = cold_seconds / warm_seconds
        computations = len(THRESHOLDS) * len(candidates)
        per_workload[query_name] = {
            "computations": computations,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "memo_hits": memo_hits,
        }
        total_cold += cold_seconds
        total_warm += warm_seconds
        total_computations += computations
        print(f"\n{query_name}: {computations} privacy computations over "
              f"k={THRESHOLDS}, cold {cold_seconds:.3f}s vs shared-session "
              f"{warm_seconds:.3f}s -> {speedup:.1f}x")

    aggregate = total_cold / total_warm
    print(f"aggregate: {total_computations} computations, "
          f"cold {total_cold:.2f}s vs warm {total_warm:.2f}s "
          f"-> {aggregate:.1f}x")
    benchmark.extra_info["per_workload"] = per_workload
    benchmark.extra_info["aggregate_speedup"] = aggregate
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"privacy-computation throughput only {aggregate:.2f}x with "
        f"session caching on vs off (expected >= {MIN_AGGREGATE_SPEEDUP}x)"
    )


#: Budget for the end-to-end equality sweeps (full BENCH_SETTINGS budgets
#: would make the cold TPCH-Q3 sweep dominate the smoke run).
SWEEP_BUDGET = dict(max_candidates=600, max_seconds=20.0)


@pytest.mark.parametrize("query_name", [w[0] for w in WORKLOADS])
def test_threshold_sweep_results_bit_identical(benchmark, query_name):
    context = prepare_context(query_name, BENCH_SETTINGS)
    config = OptimizerConfig(**SWEEP_BUDGET)
    session = PrivacySession(context.tree, context.example.registry)

    def run_shared():
        """Each threshold's result with the session's sizes around it."""
        out = []
        for threshold in THRESHOLDS:
            before = session.cache_sizes()
            result = find_optimal_abstraction(
                context.example, context.tree, threshold,
                config=config, session=session,
            )
            out.append((result, before, session.cache_sizes()))
        return out

    runs = benchmark.pedantic(run_shared, rounds=1, iterations=1)
    shared = [result for result, _, _ in runs]
    for index, (result, before, after) in enumerate(runs):
        # A candidate is scored, or its abstracted rows built, only where
        # the session's lattice lacked it; later thresholds read some.
        stats = result.stats
        assert stats.delta_evaluations == (
            after["candidate_lois"] - before["candidate_lois"]
        ), f"{query_name} k={THRESHOLDS[index]}: re-scored held candidates"
        assert stats.functions_materialized == (
            after["candidate_rows"] - before["candidate_rows"]
        ), f"{query_name} k={THRESHOLDS[index]}: rebuilt held rows"
        if index:
            assert stats.delta_evaluations < stats.candidates_scanned, (
                f"{query_name} k={THRESHOLDS[index]}: read no held LOI"
            )
    reused = 0
    for threshold, with_session in zip(THRESHOLDS, shared):
        cold = find_optimal_abstraction(
            context.example, context.tree, threshold, config=config
        )
        assert with_session.found == cold.found
        assert with_session.privacy == cold.privacy
        assert with_session.loi == cold.loi
        assert with_session.edges_used == cold.edges_used
        assert with_session.stats.candidates_scanned == (
            cold.stats.candidates_scanned
        )
        if cold.found:
            assert with_session.function.assignment == cold.function.assignment
            assert with_session.abstracted.rows == cold.abstracted.rows
        reused += with_session.stats.row_option_cache_hits
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["row_option_cache_hits"] = reused
    assert session.computers_attached == len(THRESHOLDS)
