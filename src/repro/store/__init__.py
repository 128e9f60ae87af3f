"""Persistent job store and content-addressed result cache.

The optimizer is pure, so identical work need never run twice — not
within a process (the warm caches in :mod:`repro.batch.optimizer`), and
with this package not across processes or restarts either.  A SQLite
file holds job records and full result payloads keyed by a canonical
content hash of (context spec, threshold, effective optimizer config,
search mode); the job service (``repro serve --store``, and the batch
and scenario runs that use a file as a result cache only), fleet
workers, and the ``repro jobs`` CLI all share it.  See
``docs/PERFORMANCE.md`` ("Persistent job store & result cache").
"""

from repro.store.cache import ResultCache
from repro.store.hashing import (
    CONTEXT_SETTINGS_FIELDS,
    HASH_VERSION,
    canonical_json,
    context_settings,
    effective_config,
    job_content_hash,
    spec_content_hash,
)
from repro.store.jobstore import JobStore, StoredJob

__all__ = [
    "CONTEXT_SETTINGS_FIELDS",
    "HASH_VERSION",
    "JobStore",
    "ResultCache",
    "StoredJob",
    "canonical_json",
    "context_settings",
    "effective_config",
    "job_content_hash",
    "spec_content_hash",
]
