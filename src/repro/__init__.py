"""repro — provenance abstraction for query privacy.

A from-scratch reproduction of "On Optimizing the Trade-off between Privacy
and Utility in Data Provenance" (Deutch, Frankenthal, Gilad, Moskovitch,
SIGMOD 2021): provenance semirings, K-examples, abstraction trees, the
privacy/LOI trade-off model, and the optimal-abstraction algorithms,
together with TPC-H / IMDB-style workloads and the paper's experiment
suite.

Quickstart::

    from repro import (
        KDatabase, Schema, parse_cq, build_kexample,
        tree_from_categories, find_optimal_abstraction,
    )
"""

from repro.abstraction import (
    AbstractionFunction,
    AbstractionTree,
    ConcretizationEngine,
    balanced_tree,
    tree_by_attributes,
    tree_from_categories,
    tree_over_annotations,
)
from repro.batch import (
    BatchJob,
    BatchJobResult,
    BatchResult,
    BatchStats,
    run_batch,
)
from repro.core import (
    ConsistencyConfig,
    ExplicitDistribution,
    IncrementalEvaluator,
    LeafWeightDistribution,
    OptimalAbstractionResult,
    OptimizerConfig,
    OptimizerStats,
    PrivacyComputer,
    PrivacyConfig,
    UniformDistribution,
    brute_force_optimal_abstraction,
    compression_baseline,
    consistent_queries,
    find_dual_optimal_abstraction,
    find_optimal_abstraction,
    loss_of_information,
)
from repro.core.lineage import complete_lineage, kexamples_from_lineage
from repro.core.refine import RefinementResult, refine_per_occurrence
from repro.db import AnnotationRegistry, KDatabase, KRelation, RelationSchema, Schema, Tuple
from repro.errors import (
    AbstractionError,
    EvaluationError,
    OptimizationError,
    ParseError,
    ReproError,
    SchemaError,
    SemiringError,
)
from repro.provenance import (
    AbstractedKExample,
    KExample,
    KExampleRow,
    build_aggregate_example,
    build_kexample,
)
from repro.query import (
    CQ,
    UCQ,
    Atom,
    Constant,
    Variable,
    evaluate,
    is_connected,
    is_contained_in,
    is_equivalent,
    minimize_cq,
    parse_cq,
    parse_ucq,
)
from repro.render import render_kexample, render_query, render_result, render_tree
from repro.semirings import (
    AggregateExpression,
    AggregateOp,
    AggregateTerm,
    Monomial,
    Polynomial,
    SemiringName,
    coarsen,
    get_semiring,
)

__version__ = "1.0.0"

__all__ = [
    "AbstractedKExample",
    "AbstractionError",
    "AbstractionFunction",
    "AbstractionTree",
    "AggregateExpression",
    "AggregateOp",
    "AggregateTerm",
    "AnnotationRegistry",
    "Atom",
    "BatchJob",
    "BatchJobResult",
    "BatchResult",
    "BatchStats",
    "CQ",
    "ConcretizationEngine",
    "Constant",
    "ConsistencyConfig",
    "EvaluationError",
    "ExplicitDistribution",
    "IncrementalEvaluator",
    "KDatabase",
    "KExample",
    "KExampleRow",
    "KRelation",
    "LeafWeightDistribution",
    "Monomial",
    "OptimalAbstractionResult",
    "OptimizationError",
    "OptimizerConfig",
    "OptimizerStats",
    "ParseError",
    "Polynomial",
    "PrivacyComputer",
    "PrivacyConfig",
    "RelationSchema",
    "ReproError",
    "Schema",
    "SchemaError",
    "SemiringError",
    "SemiringName",
    "Tuple",
    "UCQ",
    "UniformDistribution",
    "Variable",
    "RefinementResult",
    "balanced_tree",
    "brute_force_optimal_abstraction",
    "build_aggregate_example",
    "build_kexample",
    "coarsen",
    "complete_lineage",
    "compression_baseline",
    "consistent_queries",
    "evaluate",
    "find_dual_optimal_abstraction",
    "find_optimal_abstraction",
    "get_semiring",
    "is_connected",
    "is_contained_in",
    "is_equivalent",
    "kexamples_from_lineage",
    "loss_of_information",
    "minimize_cq",
    "parse_cq",
    "parse_ucq",
    "refine_per_occurrence",
    "run_batch",
    "render_kexample",
    "render_query",
    "render_result",
    "render_tree",
    "tree_by_attributes",
    "tree_from_categories",
    "tree_over_annotations",
]
