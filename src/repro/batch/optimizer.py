"""Running many optimal-abstraction searches as one batch.

:func:`run_job` executes one :class:`BatchJob` (or inline job) in this
process.  :func:`run_batch` runs a list of them on an in-process
:class:`~repro.service.server.JobService` (the thread tier for one
worker, the process tier otherwise), folds the per-job effort counters
into :class:`BatchStats` and returns results in job order.

Each process keeps a context cache keyed by the job's
``(query_name, n_rows, n_leaves, height)``, or by an inline job's frozen
:class:`~repro.batch.jobs.InlineContext` itself: the database, the
K-example, and the frozen abstraction tree — whose memoized ancestor
chains and leaf counts are exactly the tree-level caches the incremental
evaluator hits — are built once per process and shared by every job it
executes.  Jobs for the same workload therefore pay the data
generation cost once, as the sequential sweep harness always did.

Stacked on the context cache is a :class:`~repro.core.privacy.PrivacySession`
cache with the same key plus the job's privacy config: every cached entry
of Algorithm 1 — row-option sets, prefix queries, and value indexes — is
threshold-independent, so the jobs of a threshold sweep over one context
share a single warmed session instead of recomputing the same
concretization work per threshold.  The sessions over one database's
registry and one consistency config, whatever their tree, share one
:class:`~repro.core.privacy.QueryFacts` holder, so a job over a new tree
of a database skips the query generation and containment work other
trees already paid for.  Results are bit-identical with or without the
sharing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from repro.batch.jobs import (
    _DATABASE_TEXTS,
    BatchJob,
    BatchJobResult,
    InlineContext,
    InlineJob,
    _database_from_text,
)
from repro.core.consistency import ConsistencyConfig
from repro.core.optimizer import find_optimal_abstraction
from repro.core.privacy import PrivacyConfig, PrivacySession, QueryFacts
from repro.db.database import AnnotationRegistry
from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings
from repro.obs import clock, metrics, spans
from repro.store.hashing import effective_config


@dataclass
class BatchStats:
    """Aggregate effort across one batch run."""

    jobs_total: int = 0
    jobs_found: int = 0
    jobs_failed: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    job_seconds: float = 0.0  # sum of per-job search times
    candidates_scanned: int = 0
    privacy_computations: int = 0
    privacy_budget_exhausted: int = 0
    delta_evaluations: int = 0
    full_evaluations: int = 0
    functions_materialized: int = 0
    # Cross-job privacy-session reuse: jobs that attached to a session
    # warmed by an earlier job of the same context, and the row-option
    # cache traffic across all jobs.
    sessions_reused: int = 0
    row_option_cache_hits: int = 0
    row_option_cache_misses: int = 0
    # Jobs served straight from the persistent result cache (repro.store)
    # without running the optimizer at all; their effort counters stay
    # out of the aggregates above — no search happened this run.
    cache_hits: int = 0

    @classmethod
    def fold(cls, results: Iterable[BatchJobResult], **fields) -> "BatchStats":
        """Sum per-job outcomes; ``fields`` sets workers and wall time.

        A failed job counts only as failed.  A cache hit counts as found
        and as a hit, not as effort: no search ran, and the payload's
        counters describe the original run.
        """
        stats = cls(**fields)
        for result in results:
            stats.jobs_total += 1
            if not result.ok:
                stats.jobs_failed += 1
                continue
            if result.found:
                stats.jobs_found += 1
            if result.cache_hit:
                stats.cache_hits += 1
                continue
            stats.job_seconds += result.seconds
            stats.candidates_scanned += result.stats.candidates_scanned
            stats.privacy_computations += result.stats.privacy_computations
            stats.privacy_budget_exhausted += result.stats.privacy_budget_exhausted
            stats.delta_evaluations += result.stats.delta_evaluations
            stats.full_evaluations += result.stats.full_evaluations
            stats.functions_materialized += result.stats.functions_materialized
            stats.sessions_reused += int(result.session_reused)
            stats.row_option_cache_hits += result.stats.row_option_cache_hits
            stats.row_option_cache_misses += result.stats.row_option_cache_misses
        return stats

    @property
    def parallel_speedup(self) -> float:
        """Aggregate search seconds per wall second (1.0 = serial pace)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.job_seconds / self.wall_seconds

    def summary(self) -> str:
        return (
            f"{self.jobs_total} jobs ({self.jobs_found} found, "
            f"{self.jobs_failed} failed) on {self.workers} worker"
            f"{'s' if self.workers != 1 else ''}: "
            f"{self.wall_seconds:.2f}s wall, {self.job_seconds:.2f}s of search "
            f"({self.parallel_speedup:.1f}x), "
            f"{self.candidates_scanned} candidates, "
            f"{self.privacy_computations} privacy computations, "
            f"{self.sessions_reused} warm-session jobs, "
            f"{self.cache_hits} result-cache hits"
        )


@dataclass
class BatchResult:
    """Results in job order, plus the aggregate stats."""

    results: list[BatchJobResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)

    def by_tag(self) -> dict[str, BatchJobResult]:
        return {r.job.tag: r for r in self.results if r.job.tag}


# Serializes cold-path context/session resolution: ``lru_cache`` runs
# its builder unlocked on concurrent misses, so without this two service
# worker threads racing on a new context could each hold a *different*
# context object than the one the cached session was built on — and trip
# the session compatibility check.  Cache hits stay cheap.
_cache_lock = threading.Lock()


@lru_cache(maxsize=32)
def _cached_context(
    context_key: "tuple | InlineContext",
    settings: ExperimentSettings,
    engine: str = "naive",
):
    """Process-local (db, example, tree) cache shared across a worker's jobs.

    Keyed by :meth:`BatchJob.context_key` so the job spec stays the single
    definition of what identifies a context; an inline job's key is its
    context, which builds itself.  The engine joins the key for
    simplicity — per-engine contexts are bit-identical by contract, the
    cache entries are merely separate.
    """
    if isinstance(context_key, InlineContext):
        return context_key.build(settings, engine=engine)

    from repro.experiments.runner import prepare_context

    query_name, n_rows, n_leaves, height = context_key
    return prepare_context(
        query_name, settings, n_rows=n_rows, n_leaves=n_leaves, height=height,
        engine=engine,
    )


#: Query-fact holders this process built: a session over a database an
#: earlier session already served shares that session's holder.
_QUERY_FACTS_BUILDS = metrics.REGISTRY.counter(
    "repro_query_facts_builds_total",
    "Algorithm 1 query-fact holders built in this process.",
)


@lru_cache(maxsize=8)
def _query_facts(
    registry: AnnotationRegistry, consistency: ConsistencyConfig
) -> QueryFacts:
    """The holder every cached session over ``registry`` and
    ``consistency`` shares, whatever its tree.

    Contexts over one database share its registry object (named contexts
    through ``experiments.runner._tpch``/``_imdb``, inline ones through
    ``_database_from_text``), so the registry's identity keys the cache.
    """
    _QUERY_FACTS_BUILDS.inc()
    return QueryFacts(registry, consistency)


@lru_cache(maxsize=32)
def _cached_session(
    context_key: "tuple | InlineContext",
    privacy: PrivacyConfig,
    settings: ExperimentSettings,
    engine: str = "naive",
) -> PrivacySession:
    """Process-local privacy-session cache stacked on ``_cached_context``.

    Algorithm 1's caches are threshold-independent, so one session serves
    every job over the same context and privacy config — the whole point
    of the cross-job reuse.
    """
    context = _cached_context(context_key, settings, engine)
    registry = context.example.registry
    return PrivacySession(
        context.tree, registry, privacy,
        facts=_query_facts(registry, privacy.consistency),
    )


def clear_worker_caches() -> None:
    """Release this process's cached contexts, sessions and databases.

    Sessions hold unbounded caches for up to 32 contexts, and the
    query-fact holders they share unbounded query-level caches for up
    to 8 databases; the context and session caches' keys hold the text
    of each inline context they cache, the inline-database cache up to
    8 databases, and the job-spec decoder the texts of up to 8 more.  A
    long-lived process interleaving many large serial sweeps can call
    this between batches to cap memory (worker processes die with their
    pool, so they never need it).
    """
    with _cache_lock:
        _cached_session.cache_clear()
        _query_facts.cache_clear()
        _cached_context.cache_clear()
        _database_from_text.cache_clear()
        _DATABASE_TEXTS.clear()


def run_job(
    job: "BatchJob | InlineJob", settings: ExperimentSettings
) -> BatchJobResult:
    """Run one job's search; never raises (failures land in
    ``result.error``).

    Only the search: the job service that dispatches the job consults
    and fills the result cache around it, on every tier.  A traced job
    (``config.trace``, an execution detail stripped from content hashes)
    carries the spans of this run.
    """
    config = effective_config(job, settings)
    tracer = spans.Tracer() if config.trace else None
    with spans.activate(tracer):
        try:
            with _cache_lock:
                with spans.span("context_build", engine=config.engine):
                    context = _cached_context(
                        job.context_key(), settings, config.engine
                    )
                with spans.span("session_build"):
                    session = _cached_session(
                        job.context_key(), config.privacy, settings,
                        config.engine,
                    )
                session_reused = session.computers_attached > 0
            start = clock.perf_counter()
            with spans.span("search", threshold=job.threshold):
                result = find_optimal_abstraction(
                    context.example, context.tree, job.threshold,
                    config=config, session=session,
                )
            seconds = clock.perf_counter() - start
            targets: dict[str, str] = {}
            if result.function is not None:
                for (row_idx, occ_idx), target in result.function.assignment.items():
                    source = context.example.rows[row_idx].occurrences[occ_idx]
                    targets[source] = target
            return BatchJobResult(
                job=job,
                found=result.found,
                loi=result.loi,
                privacy=result.privacy,
                edges_used=result.edges_used,
                seconds=seconds,
                stats=result.stats,
                variable_targets=targets,
                session_reused=session_reused,
                trace=tracer.to_payload() if tracer is not None else None,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't kill the pool
            failed = BatchJobResult.from_error(job, exc)
            if tracer is not None:
                failed.trace = tracer.to_payload()
            return failed


def run_job_payload(
    job: "BatchJob | InlineJob", settings: ExperimentSettings
) -> dict:
    """:func:`run_job`, returning the JSON payload instead of the object.

    The process-pool entry point for the service's execution tier:
    results cross the pool as :meth:`BatchJobResult.to_payload` dicts —
    the same lossless representation the store and the HTTP result
    endpoint use — so transport can never carry state a consumer would
    not see.  ``run_job`` already converts job failures into error
    results; the extra guard covers everything outside its reach (a
    spec whose context JSON breaks during unpickling-adjacent setup, an
    interpreter-level error), because an exception that escaped a pool
    worker would otherwise surface as an opaque pickled traceback.
    """
    try:
        return run_job(job, settings).to_payload()
    except BaseException as exc:  # noqa: BLE001 - must cross the pool as data
        return BatchJobResult.from_error(job, exc).to_payload()


def run_batch(
    jobs: Sequence[BatchJob],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    max_workers: Optional[int] = None,
    store_path: Optional[str] = None,
) -> BatchResult:
    """Run ``jobs`` on an in-process job service; results in job order.

    ``max_workers=1`` runs them in submission order on the service's
    thread tier: deterministic and cache-friendly.  More workers
    (``None`` = one per core, capped by the job count) use its process
    tier, one service thread per pool process; a job whose worker dies
    is retried once on a fresh pool.  ``store_path`` names a result
    cache file (see :mod:`repro.store`) that the service opens, so a bad
    path fails before any job runs; the service consults and fills it,
    and writes no job rows.  An interrupt cancels the queued jobs.
    """
    from repro.service.server import JobService  # it imports this module

    jobs = list(jobs)
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    workers = max(1, min(max_workers, len(jobs)))
    service = JobService(
        settings,
        worker_threads=workers,
        max_queue=0,  # unbounded: the batch is submitted all at once
        executor="thread" if workers == 1 else "process",
        cache_path=store_path,
    )
    start = clock.perf_counter()
    try:
        records = service.start().run_all(jobs)
    finally:
        service.shutdown()
    wall = clock.perf_counter() - start
    results = [
        record.result or BatchJobResult(job=record.job, error=record.error)
        for record in records
    ]
    stats = BatchStats.fold(results, workers=workers, wall_seconds=wall)
    return BatchResult(results=results, stats=stats)
