"""The dual problem (Section 4.2): maximize privacy subject to an LOI cap.

Algorithm 2 is adjusted exactly as the paper prescribes: track the best
privacy instead of the best LOI, only scan abstractions whose LOI does not
exceed ``max_loi``, and — because LOI is monotone under abstracting any
variable higher (for the uniform distribution) — terminate branches whose
LOI exceeds the cap.  The cap makes the dual "more efficiently solvable"
than the primal, which the E-DUAL benchmark verifies.

Candidate evaluation mirrors the primal search: with
``OptimizerConfig(incremental=True)`` (the default) candidates are scored
by the :class:`IncrementalEvaluator` from cached per-(variable, level)
contributions, and the (function, abstracted) pair is materialized only
for candidates under the cap — the only ones whose privacy is computed.
Privacy work is pooled through a :class:`PrivacySession` (pass one in to
share it across calls, e.g. over an LOI-cap sweep).  Both switches are
bit-identical to the from-scratch path.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.abstraction.function import AbstractionFunction
from repro.abstraction.tree import AbstractionTree
from repro.core.loi import UniformDistribution, loss_of_information
from repro.core.optimizer import (
    IncrementalEvaluator,
    OptimalAbstractionResult,
    OptimizerConfig,
    OptimizerStats,
    _function_for_levels,
    _occurrence_counts,
    _SortedFrontier,
    search_space,
)
from repro.core.privacy import PrivacyComputer, PrivacySession
from repro.errors import OptimizationError
from repro.obs import clock
from repro.provenance.kexample import AbstractedKExample, KExample


def find_dual_optimal_abstraction(
    example: KExample,
    tree: AbstractionTree,
    max_loi: float,
    config: OptimizerConfig | None = None,
    distribution=None,
    session: PrivacySession | None = None,
) -> OptimalAbstractionResult:
    """The maximum-privacy abstraction with ``LOI <= max_loi``."""
    config = config or OptimizerConfig()
    if not tree.is_compatible_with_annotations(example.registry):
        raise OptimizationError(
            "abstraction tree is incompatible with the K-example"
        )

    computer = PrivacyComputer(
        tree, example.registry, config.privacy, session=session
    )
    dist = distribution or UniformDistribution()
    prune = config.prune_dominated and isinstance(dist, UniformDistribution)

    variables, chains = search_space(example, tree)
    occurrence_count = _occurrence_counts(example, variables)

    stats = OptimizerStats()
    start_time = clock.perf_counter()

    best: Optional[AbstractionFunction] = None
    best_abstracted: Optional[AbstractedKExample] = None
    best_privacy = 0
    best_loi = math.inf

    evaluator: Optional[IncrementalEvaluator] = None
    if config.incremental and getattr(dist, "supports_incremental", False):
        evaluator = IncrementalEvaluator(example, tree, variables, chains, dist)

    frontier = _SortedFrontier(variables, chains, tree, occurrence_count)
    while True:
        levels = frontier.pop()
        if levels is None:
            break
        # Budgets are checked before the candidate is counted, so
        # ``candidates_scanned`` is exactly the number evaluated (the
        # popped-but-unevaluated candidate is not reported as effort).
        if (
            config.max_candidates is not None
            and stats.candidates_scanned >= config.max_candidates
        ):
            break
        if (
            config.max_seconds is not None
            and clock.perf_counter() - start_time > config.max_seconds
        ):
            stats.stopped_by_wall_clock = True
            break
        stats.candidates_scanned += 1

        function: Optional[AbstractionFunction]
        abstracted: Optional[AbstractedKExample]
        if evaluator is not None:
            # Incremental path: score from cached contributions; the
            # function/abstracted pair is materialized only if needed.
            loi = evaluator.loi(levels)
            function = abstracted = None
            stats.delta_evaluations += 1
        else:
            function = _function_for_levels(tree, example, variables, chains, levels)
            abstracted = function.apply(example)
            loi = loss_of_information(abstracted, tree, dist)
            stats.full_evaluations += 1

        if loi > max_loi:
            if not prune:
                frontier.expand(levels)
            continue  # over the cap; with monotone LOI the cone is too

        stats.privacy_computations += 1
        if function is None:
            assert evaluator is not None
            function, abstracted = evaluator.materialize(levels)
            stats.functions_materialized += 1
        try:
            privacy = computer.privacy(abstracted)
        except OptimizationError:
            stats.privacy_budget_exhausted += 1
            frontier.expand(levels)
            continue
        if privacy > best_privacy or (
            privacy == best_privacy and loi < best_loi and best is not None
        ) or best is None:
            best, best_abstracted = function, abstracted
            best_privacy, best_loi = privacy, loi
        frontier.expand(levels)

    stats.elapsed_seconds = clock.perf_counter() - start_time
    if evaluator is not None:
        stats.contribution_cache_hits = evaluator.cache_hits
        stats.contribution_cache_misses = evaluator.cache_misses
    stats.row_option_cache_hits = computer.stats.row_option_cache_hits
    stats.row_option_cache_misses = computer.stats.row_option_cache_misses
    edges = best.edges_used(example) if best is not None else 0
    return OptimalAbstractionResult(
        function=best,
        abstracted=best_abstracted,
        privacy=best_privacy,
        loi=best_loi if best is not None else math.inf,
        edges_used=edges,
        stats=stats,
    )
