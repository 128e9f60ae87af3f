"""The brute-force baseline used by the Figure 19 ablation.

Scans every abstraction in arbitrary order, computes privacy for each
(monolithically, without any of the Section 4.1 optimizations), and keeps
the minimum-LOI one meeting the threshold.  Exists so the effect of each
optimization component can be measured against a common reference.  LOI
is scored as in every other search (incrementally for additive
distributions), so the Figure 19 arms differ only in those components.
"""

from __future__ import annotations

from repro.abstraction.tree import AbstractionTree
from repro.core.optimizer import (
    OptimalAbstractionResult,
    OptimizerConfig,
    find_optimal_abstraction,
)
from repro.core.privacy import PrivacyConfig
from repro.provenance.kexample import KExample


def brute_force_config(max_candidates: "int | None" = None) -> OptimizerConfig:
    """An optimizer configuration with every optimization disabled."""
    return OptimizerConfig(
        sort_abstractions=False,
        loi_first=False,
        max_candidates=max_candidates,
        privacy=PrivacyConfig(
            row_by_row=False,
            connectivity_filter=False,
            cache_queries=False,
        ),
    )


def brute_force_optimal_abstraction(
    example: KExample,
    tree: AbstractionTree,
    threshold: int,
    max_candidates: "int | None" = None,
) -> OptimalAbstractionResult:
    """Find the optimal abstraction the slow way."""
    return find_optimal_abstraction(
        example, tree, threshold, config=brute_force_config(max_candidates)
    )
