"""Batch-parallel optimal-abstraction search.

Runs :func:`repro.core.optimizer.find_optimal_abstraction` over many
(K-example, threshold) jobs at once — :func:`run_batch` hands them to an
in-process :class:`~repro.service.server.JobService`, on its thread tier
or its process tier — with per-process context caches and aggregate
effort statistics.  See ``docs/PERFORMANCE.md`` for the knobs and
``repro batch-optimize`` for the CLI front-end.
"""

from repro.batch.jobs import (
    INLINE_SPEC_KEYS,
    NAMED_SPEC_KEYS,
    BatchJob,
    BatchJobResult,
    InlineContext,
    InlineJob,
    job_from_spec,
    job_spec_text,
    job_to_spec,
)
from repro.batch.optimizer import (
    BatchResult,
    BatchStats,
    clear_worker_caches,
    run_batch,
    run_job,
)

__all__ = [
    "INLINE_SPEC_KEYS",
    "NAMED_SPEC_KEYS",
    "BatchJob",
    "BatchJobResult",
    "BatchResult",
    "BatchStats",
    "InlineContext",
    "InlineJob",
    "clear_worker_caches",
    "job_from_spec",
    "job_spec_text",
    "job_to_spec",
    "run_batch",
    "run_job",
]
