"""Shared machinery for the experiment suite.

``prepare_context`` assembles everything one experiment run needs — the
right database (TPC-H or IMDB by query name), the query, a K-example of the
requested size, and a paper-style abstraction tree over it — with caching so
sweeps do not regenerate data per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.abstraction.tree import AbstractionTree
from repro.core.optimizer import (
    OptimalAbstractionResult,
    OptimizerConfig,
    find_optimal_abstraction,
)
from repro.core.privacy import PrivacySession
from repro.datasets.imdb import generate_imdb
from repro.datasets.queries import get_query
from repro.datasets.tpch import generate_tpch
from repro.db.database import KDatabase
from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings
from repro.obs import clock
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample
from repro.query.ast import CQ


@dataclass
class ExperimentContext:
    """One experiment's inputs: database, query, K-example, tree."""

    query_name: str
    query: CQ
    database: KDatabase
    example: KExample
    tree: AbstractionTree
    settings: ExperimentSettings


@lru_cache(maxsize=8)
def _tpch(scale: float, seed: int) -> KDatabase:
    return generate_tpch(scale=scale, seed=seed)


@lru_cache(maxsize=8)
def _imdb(people: int, movies: int, seed: int) -> KDatabase:
    return generate_imdb(n_people=people, n_movies=movies, seed=seed)


def database_for(query_name: str, settings: ExperimentSettings) -> KDatabase:
    """The dataset a workload query runs over."""
    if query_name.startswith("TPCH"):
        return _tpch(settings.tpch_scale, settings.seed)
    return _imdb(settings.imdb_people, settings.imdb_movies, settings.seed)


def tree_for(
    database: KDatabase,
    example: KExample,
    settings: ExperimentSettings,
    n_leaves: Optional[int] = None,
    height: Optional[int] = None,
) -> AbstractionTree:
    """A paper-style abstraction tree covering the example's variables.

    A balanced random tree over all annotations (the mixed-relation style
    of the paper's Figure 3), divided evenly into subcategories like the
    paper's TPC-H tree.  The paper's TPC-H tree samples only ``lineitem``
    annotations; at our reduced data scale a lineitem-only leaf pool
    starves the concretization sets of the single-lineitem queries
    (Q3/Q4/Q10), so the default pool is all relations — the purist variant
    is :func:`repro.datasets.trees.tpch_lineitem_tree` (see EXPERIMENTS.md).
    """
    from repro.abstraction.builders import tree_over_annotations

    pool = [t.annotation for t in database.tuples()]
    return tree_over_annotations(
        pool,
        n_leaves=n_leaves or settings.tree_leaves,
        height=height or settings.tree_height,
        seed=settings.seed,
        must_include=sorted(example.variables()),
    )


def prepare_context(
    query_name: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    n_rows: Optional[int] = None,
    n_leaves: Optional[int] = None,
    height: Optional[int] = None,
    query: Optional[CQ] = None,
    engine: Optional[str] = None,
) -> ExperimentContext:
    """Assemble database + query + K-example + tree for one run.

    ``engine`` picks the evaluation backend for the K-example build (an
    execution detail: the context is bit-identical for every engine).
    """
    database = database_for(query_name, settings)
    query = query or get_query(query_name)
    example = build_kexample(
        query, database, n_rows=n_rows or settings.kexample_rows,
        engine=engine,
    )
    tree = tree_for(database, example, settings, n_leaves=n_leaves, height=height)
    return ExperimentContext(
        query_name=query_name,
        query=query,
        database=database,
        example=example,
        tree=tree,
        settings=settings,
    )


def timed_optimal(
    context: ExperimentContext,
    threshold: int,
    config: Optional[OptimizerConfig] = None,
    session: Optional[PrivacySession] = None,
) -> tuple[OptimalAbstractionResult, float]:
    """Run the optimizer and return (result, wall seconds)."""
    config = config or context.settings.search_config()
    start = clock.perf_counter()
    result = find_optimal_abstraction(
        context.example, context.tree, threshold, config=config,
        session=session,
    )
    return result, clock.perf_counter() - start

