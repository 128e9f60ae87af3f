"""The content-addressed result cache over a :class:`JobStore`.

This is the API consulted *before* running the optimizer, by the job
service alone: its run loop asks :meth:`ResultCache.lookup` first on
every executor tier, the fleet's included — a hit rebuilds the stored
:class:`~repro.batch.jobs.BatchJobResult` instantly, marked
``cache_hit=True``; a miss runs the search and
:meth:`ResultCache.store_result` persists the payload for every later
identical job, in this process or any other, before or after a restart.

Only clean, *reproducible* results are cached: a crashed search
(``not result.ok``) may be environmental (out of memory, a bug since
fixed) and must be retried, and a search that tripped its **wall-clock**
budget is skipped too — how far a search gets in ``max_seconds`` depends
on machine speed and load, so caching it would freeze one slow machine's
best-so-far as the canonical answer for every faster reader of the same
store.  A ``max_candidates``-limited outcome, by contrast, is exactly as
deterministic as a completed search (the budget is part of the content
hash) and is cached, found or not.

Store-level failures (a corrupt or locked file) degrade to cache misses
rather than failing the job: the cache is an amortization, never a
correctness dependency.
"""

from __future__ import annotations

import sqlite3
from typing import Optional

from repro.obs import metrics, spans
from repro.store.hashing import job_content_hash
from repro.store.jobstore import JobStore

#: Process-local cache-lookup traffic, by outcome: ``hit`` (payload
#: served), ``miss`` (no row), ``error`` (a damaged store degraded to a
#: miss — the only signal the degradation leaves behind).
_LOOKUPS = metrics.REGISTRY.counter(
    "repro_cache_lookups_total",
    "ResultCache lookups by outcome (hit/miss/error).",
    labelnames=("outcome",),
)


class ResultCache:
    """Lookup/store of job results keyed by canonical content hash."""

    def __init__(self, store: JobStore):
        self._store = store

    @property
    def store(self) -> JobStore:
        return self._store

    def key(self, job, settings) -> str:
        return job_content_hash(job, settings)

    def lookup(self, job, settings):
        """The cached :class:`BatchJobResult` for ``job``, or ``None``.

        The returned result is rebuilt from the stored payload —
        bit-identical to the original run except for ``cache_hit``,
        which flips to ``True`` so callers and payload consumers can
        audit the dedup, and ``trace``, which is ``None``: no search
        ran, and a row an older store wrote may still hold the storing
        run's spans.
        """
        from repro.batch.jobs import BatchJobResult

        # Everything a damaged store row can throw — sqlite errors, a
        # truncated JSON payload (json errors are ValueErrors), or a
        # payload whose shape from_payload cannot digest — must degrade
        # to a miss: the service then runs the job, as for any miss.
        try:
            with spans.aggregate("cache_lookup"):
                payload = self._store.load_result(self.key(job, settings))
                if payload is None:
                    _LOOKUPS.inc(outcome="miss")
                    return None
                result = BatchJobResult.from_payload(payload, job)
        except (sqlite3.Error, ValueError, TypeError, KeyError,
                AttributeError):
            _LOOKUPS.inc(outcome="error")
            return None
        _LOOKUPS.inc(outcome="hit")
        result.cache_hit = True
        result.trace = None
        return result

    def store_result(self, job, settings, result) -> Optional[str]:
        """Persist a fresh result; returns its hash, or ``None`` if skipped.

        Skipped: errored results, results that were themselves cache
        hits (already stored — rewriting would bump ``created_at`` and
        could race a concurrent writer), and searches whose scan was cut
        short by the wall-clock budget (machine-speed-dependent, see the
        module docstring).  The optimizer reports the cut exactly
        (``stats.stopped_by_wall_clock``), so a search that brushed its
        budget but *completed* is still cached.
        """
        if not result.ok or result.cache_hit:
            return None
        if result.stats.stopped_by_wall_clock:
            return None
        key = self.key(job, settings)
        # The trace is the storing run's, not the result's: a traced
        # and an untraced job share the entry.
        payload = dict(result.to_payload(), trace=None)
        try:
            self._store.save_result(key, payload)
        except sqlite3.Error:
            return None
        return key
