"""The paper's contribution: LOI, privacy, and optimal abstraction search."""

from repro.core.loi import (
    ExplicitDistribution,
    LeafWeightDistribution,
    UniformDistribution,
    loss_of_information,
)
from repro.core.consistency import ConsistencyConfig, consistent_queries
from repro.core.privacy import PrivacyComputer, PrivacyConfig, PrivacySession
from repro.core.optimizer import (
    IncrementalEvaluator,
    OptimalAbstractionResult,
    OptimizerConfig,
    OptimizerStats,
    find_dual_optimal_abstraction,
    find_optimal_abstraction,
)
from repro.core.brute_force import brute_force_optimal_abstraction
from repro.core.compression import compression_baseline

__all__ = [
    "ConsistencyConfig",
    "ExplicitDistribution",
    "IncrementalEvaluator",
    "LeafWeightDistribution",
    "OptimalAbstractionResult",
    "OptimizerConfig",
    "OptimizerStats",
    "PrivacyComputer",
    "PrivacyConfig",
    "PrivacySession",
    "UniformDistribution",
    "brute_force_optimal_abstraction",
    "compression_baseline",
    "consistent_queries",
    "find_dual_optimal_abstraction",
    "find_optimal_abstraction",
    "loss_of_information",
]
