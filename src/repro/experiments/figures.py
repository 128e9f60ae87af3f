"""Runners for every figure and table of the paper's evaluation (Section 5).

Each function sweeps the parameter its figure varies and returns
``{series_name: [(x, y), ...]}``.  Figures 9-11 share one threshold sweep,
12-13 one tree-size sweep, and 14-15 one height sweep; the shared sweeps
are memoized per (settings, queries) so regenerating both figures costs one
run.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from repro.batch import BatchJob
from repro.core.brute_force import brute_force_config
from repro.core.compression import compression_baseline
from repro.core.loi import LeafWeightDistribution
from repro.core.optimizer import (
    OptimizerConfig,
    find_dual_optimal_abstraction,
    find_optimal_abstraction,
)
from repro.core.privacy import PrivacyComputer, PrivacyConfig
from repro.datasets.queries import join_variants, query_stats
from repro.errors import OptimizationError
from repro.experiments.runner import prepare_context, timed_optimal
from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings
from repro.obs import clock

Series = dict[str, list[tuple[float, float]]]

_SWEEP_CACHE: dict[tuple, dict] = {}


def run_sweep(jobs, settings: ExperimentSettings = DEFAULT_SETTINGS):
    """Run sweep jobs through the batch optimizer; results in job order.

    ``settings.batch_workers`` sets the pool size: 1 runs serially
    in-process (deterministic, the test/CI default), 0 or negative uses
    every core.  Each worker shares one context cache across its jobs, so
    a sweep over many points of one workload generates the dataset once
    per worker, as the sequential harness did.

    A failed job raises (as the sequential harness did): a sweep point
    that errored must not be plotted as a 0-second data point.
    """
    # Imported here: repro.batch imports this package while it loads.
    from repro.batch import run_batch

    workers = settings.batch_workers if settings.batch_workers > 0 else None
    batch = run_batch(jobs, settings, max_workers=workers)
    for result in batch.results:
        if result.error is not None:
            raise OptimizationError(
                f"sweep job {result.job.query_name} "
                f"(k={result.job.threshold}) failed: {result.error}"
            )
    return batch


def _queries(settings: ExperimentSettings, queries: Optional[Sequence[str]]):
    return tuple(queries) if queries is not None else settings.plotted_queries


# --------------------------------------------------------------------------
# Figures 9, 10, 11 — privacy-threshold sweep
# --------------------------------------------------------------------------

def _threshold_sweep(
    settings: ExperimentSettings, queries: tuple[str, ...]
) -> dict[str, list[tuple[int, float, int, float]]]:
    """Per query: ``[(k, seconds, edges_used, loi), ...]``."""
    key = ("threshold", settings, queries)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    jobs = [
        BatchJob(name, k)
        for name in queries
        for k in settings.thresholds
    ]
    batch = run_sweep(jobs, settings)
    out: dict[str, list[tuple[int, float, int, float]]] = {n: [] for n in queries}
    for result in batch.results:
        loi = result.loi if result.found else math.nan
        edges = result.edges_used if result.found else -1
        out[result.job.query_name].append(
            (result.job.threshold, result.seconds, edges, loi)
        )
    _SWEEP_CACHE[key] = out
    return out


def run_fig09_threshold_runtime(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 9: runtime vs privacy threshold."""
    sweep = _threshold_sweep(settings, _queries(settings, queries))
    return {
        name: [(k, seconds) for k, seconds, _, _ in points]
        for name, points in sweep.items()
    }


def run_fig10_threshold_size(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 10: optimal abstraction size (tree edges used) vs threshold."""
    sweep = _threshold_sweep(settings, _queries(settings, queries))
    return {
        name: [(k, edges) for k, _, edges, _ in points]
        for name, points in sweep.items()
    }


def run_fig11_threshold_loi(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 11: loss of information vs threshold."""
    sweep = _threshold_sweep(settings, _queries(settings, queries))
    return {
        name: [(k, loi) for k, _, _, loi in points]
        for name, points in sweep.items()
    }


# --------------------------------------------------------------------------
# Figures 12, 13 — tree-size sweep
# --------------------------------------------------------------------------

def _treesize_sweep(
    settings: ExperimentSettings, queries: tuple[str, ...]
) -> dict[str, list[tuple[int, float, int]]]:
    key = ("treesize", settings, queries)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    jobs = [
        BatchJob(name, settings.privacy_threshold, n_leaves=n_leaves)
        for name in queries
        for n_leaves in settings.tree_sizes
    ]
    batch = run_sweep(jobs, settings)
    out: dict[str, list[tuple[int, float, int]]] = {n: [] for n in queries}
    for result in batch.results:
        edges = result.edges_used if result.found else -1
        out[result.job.query_name].append(
            (result.job.n_leaves, result.seconds, edges)
        )
    _SWEEP_CACHE[key] = out
    return out


def run_fig12_treesize_runtime(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 12: runtime vs abstraction tree size (leaf count)."""
    sweep = _treesize_sweep(settings, _queries(settings, queries))
    return {
        name: [(leaves, seconds) for leaves, seconds, _ in points]
        for name, points in sweep.items()
    }


def run_fig13_treesize_size(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 13: optimal abstraction size vs tree size."""
    sweep = _treesize_sweep(settings, _queries(settings, queries))
    return {
        name: [(leaves, edges) for leaves, _, edges in points]
        for name, points in sweep.items()
    }


# --------------------------------------------------------------------------
# Figures 14, 15 — tree-height sweep
# --------------------------------------------------------------------------

def _height_sweep(
    settings: ExperimentSettings, queries: tuple[str, ...]
) -> dict[str, list[tuple[int, float, int]]]:
    key = ("height", settings, queries)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    jobs = [
        BatchJob(name, settings.privacy_threshold, height=height)
        for name in queries
        for height in settings.tree_heights
    ]
    batch = run_sweep(jobs, settings)
    out: dict[str, list[tuple[int, float, int]]] = {n: [] for n in queries}
    for result in batch.results:
        edges = result.edges_used if result.found else -1
        out[result.job.query_name].append(
            (result.job.height, result.seconds, edges)
        )
    _SWEEP_CACHE[key] = out
    return out


def run_fig14_height_runtime(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 14: runtime vs abstraction tree height."""
    sweep = _height_sweep(settings, _queries(settings, queries))
    return {
        name: [(height, seconds) for height, seconds, _ in points]
        for name, points in sweep.items()
    }


def run_fig15_height_size(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 15: optimal abstraction size vs tree height."""
    sweep = _height_sweep(settings, _queries(settings, queries))
    return {
        name: [(height, edges) for height, _, edges in points]
        for name, points in sweep.items()
    }


# --------------------------------------------------------------------------
# Figure 16 — join-count sweep
# --------------------------------------------------------------------------

def run_fig16_joins_runtime(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 16: runtime vs number of joins (growing query prefixes)."""
    names = tuple(queries) if queries is not None else settings.join_sweep_queries
    out: Series = {}
    for name in names:
        points = []
        for n_joins, variant in join_variants(name):
            context = prepare_context(name, settings, query=variant)
            _, seconds = timed_optimal(context, settings.privacy_threshold)
            points.append((n_joins, seconds))
        out[name] = points
    return out


# --------------------------------------------------------------------------
# Figure 17 — K-example row sweep
# --------------------------------------------------------------------------

def run_fig17_rows_runtime(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 17: runtime vs number of K-example rows."""
    out: Series = {}
    for name in _queries(settings, queries):
        points = []
        for n_rows in settings.row_counts:
            context = prepare_context(name, settings, n_rows=n_rows)
            _, seconds = timed_optimal(context, settings.privacy_threshold)
            points.append((n_rows, seconds))
        out[name] = points
    return out


# --------------------------------------------------------------------------
# Figure 18 — ours vs the compression baseline [24]
# --------------------------------------------------------------------------

def run_fig18_compression_loi(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Figure 18: LOI of our optimum vs the compression baseline, per k."""
    out: Series = {}
    for name in _queries(settings, queries):
        context = prepare_context(name, settings)
        ours, theirs = [], []
        for k in settings.thresholds:
            result, _ = timed_optimal(context, k)
            ours.append((k, result.loi if result.found else math.nan))
            baseline = compression_baseline(
                context.example, context.tree, k,
                privacy_config=PrivacyConfig(max_concretizations=20_000),
            )
            theirs.append((k, baseline.loi if baseline.found else math.nan))
        out[f"{name} (ours)"] = ours
        out[f"{name} (compression [24])"] = theirs
    return out


# --------------------------------------------------------------------------
# Figure 19 — per-component ablation vs brute force
# --------------------------------------------------------------------------

#: The five components of Section 4.1, each enabled standalone.
#: "sorting" includes the l < l_best gate of Algorithm 2 line 6 — sorted
#: scanning is meaningless without it, and the paper quotes the two
#: search-side components together ("improved performance by over 500x").
ABLATION_COMPONENTS: dict[str, OptimizerConfig] = {
    "sorting": OptimizerConfig(
        sort_abstractions=True, loi_first=True,
        privacy=PrivacyConfig(
            row_by_row=False, connectivity_filter=False, cache_queries=False,
        ),
    ),
    "loi-first": OptimizerConfig(
        sort_abstractions=False, loi_first=True,
        privacy=PrivacyConfig(
            row_by_row=False, connectivity_filter=False, cache_queries=False,
        ),
    ),
    "row-by-row": OptimizerConfig(
        sort_abstractions=False, loi_first=False,
        privacy=PrivacyConfig(
            row_by_row=True, connectivity_filter=False, cache_queries=False,
        ),
    ),
    "connectivity": OptimizerConfig(
        sort_abstractions=False, loi_first=False,
        privacy=PrivacyConfig(
            row_by_row=False, connectivity_filter=True, cache_queries=False,
        ),
    ),
    "caching": OptimizerConfig(
        sort_abstractions=False, loi_first=False,
        privacy=PrivacyConfig(
            row_by_row=False, connectivity_filter=False, cache_queries=True,
        ),
    ),
}


def run_fig19_component_ablation(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
    threshold: int = 2,
    n_leaves: int = 30,
    height: int = 3,
    budget_seconds: Optional[float] = 120.0,
) -> Series:
    """Figure 19: each component standalone, as % of brute-force runtime.

    Uses a deliberately small tree so the (cache-less, unordered,
    monolithic) brute force finishes; the paper normalizes the same way
    (brute force = 100%).  ``budget_seconds`` caps each measured run; a
    brute force that hits the cap makes the reported speedups conservative.
    """
    import dataclasses

    names = tuple(queries) if queries is not None else ("TPCH-Q3", "IMDB-Q1")
    out: Series = {}
    for name in names:
        context = prepare_context(name, settings, n_leaves=n_leaves, height=height)
        base_config = dataclasses.replace(
            brute_force_config(), max_seconds=budget_seconds
        )
        _, base_seconds = timed_optimal(context, threshold, config=base_config)
        points = [(0, 100.0)]  # brute force reference
        for idx, (component, config) in enumerate(ABLATION_COMPONENTS.items(), 1):
            capped = dataclasses.replace(config, max_seconds=budget_seconds)
            _, seconds = timed_optimal(context, threshold, config=capped)
            points.append((idx, 100.0 * seconds / base_seconds))
        out[name] = points
    return out


#: x-axis labels for the ablation series (index 0 is brute force).
ABLATION_LABELS = ["brute-force", *ABLATION_COMPONENTS.keys()]


# --------------------------------------------------------------------------
# Tables 3 and 6, distribution sensitivity, dual problem
# --------------------------------------------------------------------------

def run_table3_running_example() -> dict[str, int]:
    """Table 3: consistent/connected/CIM counts for the running example."""
    from repro.examples_data import running_example

    db, qreal, tree = running_example()
    from repro.provenance.builder import build_kexample
    from repro.abstraction.function import AbstractionFunction
    from repro.query.join_graph import is_connected
    from repro.core.consistency import consistent_queries
    from repro.core.privacy import PrivacyComputer

    example = build_kexample(qreal, db, n_rows=2)
    function = AbstractionFunction.uniform(
        tree, example, {"h1": "Facebook", "h2": "LinkedIn"}
    )
    abstracted = function.apply(example)

    computer = PrivacyComputer(tree, db.registry)
    engine = computer.engine
    consistent: set = set()
    for concretization in engine.concretizations(abstracted):
        consistent.update(consistent_queries(concretization))
    connected = {q for q in consistent if is_connected(q)}
    cim = computer.cim_queries(abstracted)
    return {
        "consistent": len(consistent),
        "connected": len(connected),
        "cim": len(cim),
    }


def run_table6_query_stats() -> dict[str, tuple[int, int]]:
    """Table 6: per-query atom and join counts (joins = atoms - 1)."""
    return {
        name: (atoms, atoms - 1) for name, (atoms, _) in query_stats().items()
    }


def run_distribution_sensitivity(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Section 5.2: runtimes under uniform vs random-weight distributions."""
    out: Series = {}
    rng = random.Random(settings.seed)
    for name in _queries(settings, queries):
        context = prepare_context(name, settings)
        _, uniform_seconds = timed_optimal(context, settings.privacy_threshold)
        weights = {leaf: rng.uniform(0.5, 2.0) for leaf in context.tree.leaves()}

        start = clock.perf_counter()
        find_optimal_abstraction(
            context.example, context.tree, settings.privacy_threshold,
            config=settings.search_config(),
            distribution=LeafWeightDistribution(weights),
        )
        weighted_seconds = clock.perf_counter() - start
        out[name] = [(0, uniform_seconds), (1, weighted_seconds)]
    return out


def run_dual_problem(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    queries: Optional[Sequence[str]] = None,
) -> Series:
    """Section 4.2: dual problem (max privacy s.t. LOI cap) vs primal."""
    out: Series = {}
    for name in _queries(settings, queries):
        context = prepare_context(name, settings)
        primal, primal_seconds = timed_optimal(context, settings.privacy_threshold)
        cap = primal.loi if primal.found else 5.0

        start = clock.perf_counter()
        dual = find_dual_optimal_abstraction(
            context.example, context.tree, max_loi=cap,
            config=settings.search_config(),
        )
        dual_seconds = clock.perf_counter() - start
        out[name] = [
            (0, primal_seconds),
            (1, dual_seconds),
            (2, float(dual.privacy)),
        ]
    return out
