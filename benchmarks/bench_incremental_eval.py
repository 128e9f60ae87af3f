"""Incremental candidate evaluation vs from-scratch, on the Figure 12 sweep.

Two measurements per (query, tree size) point of the Fig. 12 tree-size
sweep:

* *candidate throughput* — the same sorted candidate stream Algorithm 2
  scans, scored by the :class:`IncrementalEvaluator` (each row's
  contributions memoized by the levels of the row's variables) vs the
  seed's from-scratch path (build an ``AbstractionFunction``, apply it to
  every row, recompute LOI).  The incremental path must be >= 2x faster
  and bit-identical.
* *end-to-end search* — ``find_optimal_abstraction`` under the uniform
  distribution vs under :class:`FromScratchUniform`, which scores every
  candidate from scratch; results must be bit-identical.  The end-to-end
  gain is smaller because privacy computation dominates once candidates
  pass the LOI gate; the recorded split shows both.
"""

import pytest

from _common import BENCH_QUERIES, BENCH_SETTINGS, perf_counter
from repro.core.loi import UniformDistribution, loss_of_information
from repro.core.optimizer import (
    IncrementalEvaluator,
    OptimizerConfig,
    _SortedFrontier,
    _function_for_levels,
    _occurrence_counts,
    find_optimal_abstraction,
    search_space,
)
from repro.experiments.runner import prepare_context

#: Candidates scored per throughput measurement (the Fig. 12 searches scan
#: hundreds to thousands; this keeps one measurement under a second).
N_CANDIDATES = 4_000
TIMING_ROUNDS = 3


class FromScratchUniform(UniformDistribution):
    """Uniform LOI scored from scratch for every candidate."""

    supports_incremental = False


def _search_inputs(context):
    example, tree = context.example, context.tree
    variables, chains = search_space(example, tree)
    return example, tree, variables, chains


def _sorted_candidates(example, tree, variables, chains, limit):
    """The first ``limit`` level-vectors in Algorithm 2's scan order."""
    frontier = _SortedFrontier(
        variables, chains, tree, _occurrence_counts(example, variables)
    )
    candidates = []
    while len(candidates) < limit:
        levels = frontier.pop()
        if levels is None:
            break
        candidates.append(levels)
        frontier.expand(levels)
    return candidates


def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return best


@pytest.mark.parametrize("query_name", BENCH_QUERIES)
@pytest.mark.parametrize("n_leaves", BENCH_SETTINGS.tree_sizes)
def test_incremental_candidate_throughput(benchmark, query_name, n_leaves):
    context = prepare_context(query_name, BENCH_SETTINGS, n_leaves=n_leaves)
    example, tree, variables, chains = _search_inputs(context)
    candidates = _sorted_candidates(
        example, tree, variables, chains, N_CANDIDATES
    )
    dist = UniformDistribution()

    def score_full():
        return [
            loss_of_information(
                _function_for_levels(
                    tree, example, variables, chains, levels
                ).apply(example),
                tree, dist,
            )
            for levels in candidates
        ]

    def score_incremental():
        evaluator = IncrementalEvaluator(example, tree, variables, chains, dist)
        return [evaluator.loi(levels) for levels in candidates]

    assert score_full() == score_incremental()  # bit-identical, not isclose

    full_seconds = _best_of(TIMING_ROUNDS, score_full)
    benchmark.pedantic(score_incremental, rounds=TIMING_ROUNDS, iterations=1)
    incremental_seconds = benchmark.stats.stats.min
    speedup = full_seconds / incremental_seconds

    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["tree_leaves"] = n_leaves
    benchmark.extra_info["candidates"] = len(candidates)
    benchmark.extra_info["full_seconds"] = full_seconds
    benchmark.extra_info["throughput_speedup"] = speedup
    print(f"\n{query_name} leaves={n_leaves}: {len(candidates)} candidates, "
          f"full {full_seconds:.4f}s vs incremental {incremental_seconds:.4f}s "
          f"-> {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"incremental candidate throughput only {speedup:.2f}x "
        f"({query_name}, {n_leaves} leaves)"
    )


@pytest.mark.parametrize("query_name", BENCH_QUERIES)
def test_end_to_end_bit_identical(benchmark, query_name):
    context = prepare_context(query_name, BENCH_SETTINGS)
    threshold = BENCH_SETTINGS.privacy_threshold
    budget = dict(
        max_candidates=BENCH_SETTINGS.max_candidates,
        max_seconds=BENCH_SETTINGS.max_seconds,
    )

    def run_incremental():
        return find_optimal_abstraction(
            context.example, context.tree, threshold,
            config=OptimizerConfig(**budget),
        )

    incremental = benchmark.pedantic(run_incremental, rounds=1, iterations=1)
    start = perf_counter()
    full = find_optimal_abstraction(
        context.example, context.tree, threshold,
        config=OptimizerConfig(**budget), distribution=FromScratchUniform(),
    )
    full_seconds = perf_counter() - start

    assert (incremental.loi, incremental.privacy, incremental.edges_used) == (
        full.loi, full.privacy, full.edges_used
    )
    if incremental.function is not None:
        assert incremental.function.assignment == full.function.assignment
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["full_seconds"] = full_seconds
    benchmark.extra_info["delta_evaluations"] = (
        incremental.stats.delta_evaluations
    )
    benchmark.extra_info["functions_materialized"] = (
        incremental.stats.functions_materialized
    )
