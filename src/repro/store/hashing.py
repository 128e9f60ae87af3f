"""Canonical content hashing for optimizer jobs.

The optimizer is pure: the optimal abstraction for a given (context,
threshold, optimizer config, search mode) never changes.  This module
defines the *one* canonical content hash the whole codebase keys that
purity on — the inline-context hash in :mod:`repro.batch.jobs`, the
result cache the job service consults, and the persistent
:class:`~repro.store.jobstore.JobStore` all derive from the helpers
here, so a hash computed in any process (or on any machine with the
same code) addresses the same work.

What goes into :func:`job_content_hash`:

* the **context spec** — for an :class:`~repro.batch.jobs.InlineJob` the
  content hash of its serialized (database, tree, query/K-example,
  n_rows); for a named-workload :class:`~repro.batch.jobs.BatchJob` the
  workload coordinates (``query_name``/``n_rows``/``n_leaves``/``height``)
  *plus* the context-shaping
  :class:`~repro.experiments.settings.ExperimentSettings` fields
  (:data:`CONTEXT_SETTINGS_FIELDS` — the knobs ``prepare_context`` feeds
  into data/tree generation; pool sizes and sweep lists cannot change a
  single job's result and stay out),
* the **threshold**,
* the **effective optimizer config** (:func:`effective_config`) — the
  job's own config, or the settings-level budgets, every switch
  included (privacy and consistency knobs change results),
* the **search mode** (``"primal"`` today; jobs that grow a ``mode``
  attribute — e.g. a dual search — hash differently automatically once
  the mode is registered in :data:`KNOWN_MODES`; an unregistered mode is
  rejected rather than hashed).

Inline jobs deliberately exclude the settings: their context is fully
self-describing, so the same user data + config shares one cache entry
across settings profiles.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Optional

#: Bumped whenever the hash inputs or payload layout change shape, so a
#: store written by an older code version can never serve a stale result.
HASH_VERSION = "repro-job-v5"

#: The search modes the job layer understands.  The ``mode`` slot is
#: reserved for the dual search ("max privacy under an LOI cap"); until a
#: dual job type exists, "primal" is the only value that may reach a
#: content hash — an unknown mode must fail loudly *before* hashing, or a
#: future dual job run by today's code would be filed (and cached!) as a
#: primal result.
KNOWN_MODES = ("primal",)


def canonical_json(data) -> str:
    """Canonical JSON text: equal values always serialize equally.

    The common input — an inline job's multi-megabyte database dict,
    fresh out of ``json.loads`` — is already plain JSON material, so the
    fast path serializes it in one pass, converting dataclasses, enums,
    and sets lazily via the ``default`` hook only where they occur.
    Inputs the hook cannot finish (non-finite floats, mixed-type dict
    keys) fall back to the :func:`jsonable` deep rebuild, which
    normalizes them; both paths emit identical text for any input the
    fast path accepts.
    """
    try:
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"),
            default=_json_default, allow_nan=False,
        )
    except (TypeError, ValueError):
        return json.dumps(
            jsonable(data), sort_keys=True, separators=(",", ":")
        )


def _json_default(value):
    """Lazy converter for the fast path (mirrors :func:`jsonable`)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: getattr(value, f.name)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    raise TypeError(
        f"not canonically serializable: {type(value).__name__}"
    )


def jsonable(value):
    """``value`` with dataclasses, enums, and tuples made JSON-safe.

    Dataclasses become sorted dicts, enums their ``value``, tuples/sets
    lists (sets sorted, for determinism); non-finite floats become
    strings (JSON has no ``inf``).  Everything else must already be JSON
    material — an unknown type raises ``TypeError`` at ``dumps`` time
    rather than hashing its ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, float) and (value != value or value in
                                     (float("inf"), float("-inf"))):
        return repr(value)
    return value


def hash_text(text: str) -> str:
    """Hex SHA-256 of ``text`` (the digest every key here bottoms out in)."""
    return hashlib.sha256(text.encode()).hexdigest()


def hash_parts(*parts: str) -> str:
    """Hex SHA-256 of unit-separated text parts.

    The delimiter keeps adjacent parts from aliasing (``("ab", "c")``
    must not equal ``("a", "bc")``).  This is the digest behind
    :meth:`repro.batch.jobs.InlineContext.content_hash`.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


#: The settings fields that shape a *named workload's* generated context
#: — exactly what :func:`repro.experiments.runner.prepare_context` feeds
#: into database/K-example/tree construction (``database_for`` uses the
#: scale/size knobs and the seed, ``build_kexample`` the default row
#: count, ``tree_for`` the tree shape).  Budgets enter the hash through
#: :func:`effective_config`; sweep lists and pool sizes never affect one
#: job's result, so changing them must not invalidate the cache.
CONTEXT_SETTINGS_FIELDS = (
    "tree_leaves",
    "tree_height",
    "kexample_rows",
    "tpch_scale",
    "imdb_people",
    "imdb_movies",
    "seed",
)


def context_settings(settings) -> dict:
    """The named-context identity slice of an ``ExperimentSettings``."""
    return {
        name: jsonable(getattr(settings, name))
        for name in CONTEXT_SETTINGS_FIELDS
    }


def effective_config(job, settings):
    """The config a job searches with: its own, or the settings'.

    ``job.config is None`` means "use the settings-level budgets"
    (:meth:`~repro.experiments.settings.ExperimentSettings.search_config`);
    two jobs that resolve to the same effective config must hash equally,
    so the resolution happens *before* hashing, and
    :func:`repro.batch.optimizer.run_job` resolves through here too.
    """
    return job.config or settings.search_config()


#: ``OptimizerConfig`` fields that choose *how* a job executes, never
#: *what* it computes — exactly like the service's executor tier, they
#: are stripped from the effective config before hashing so results
#: cache across engines (a SQL-engine run answers a naive-engine
#: resubmission, and vice versa).  The equivalence tests and the
#: scenario smoke's cross-engine baseline diff enforce the bit-identity
#: this stripping assumes.
EXECUTION_ONLY_CONFIG_FIELDS = ("engine", "trace")


def job_content_hash(job, settings) -> str:
    """The canonical content hash addressing one job's result.

    ``job`` is a :class:`~repro.batch.jobs.BatchJob` or
    :class:`~repro.batch.jobs.InlineJob`; ``settings`` the
    :class:`~repro.experiments.settings.ExperimentSettings` the run
    executes under.  ``tag`` is a display label and never participates;
    neither do the :data:`EXECUTION_ONLY_CONFIG_FIELDS`.
    """
    mode = getattr(job, "mode", "primal")
    if mode not in KNOWN_MODES:
        from repro.errors import JobSpecError

        raise JobSpecError(
            f"unknown search mode {mode!r} "
            f"(known modes: {', '.join(KNOWN_MODES)})"
        )
    inline_context = getattr(job, "context", None)
    if inline_context is not None:
        context_part = {"inline": inline_context.content_hash()}
    else:
        context_part = {
            "query_name": job.query_name,
            "n_rows": job.n_rows,
            "n_leaves": job.n_leaves,
            "height": job.height,
            "settings": context_settings(settings),
        }
    config_part = jsonable(effective_config(job, settings))
    for field_name in EXECUTION_ONLY_CONFIG_FIELDS:
        config_part.pop(field_name, None)
    return hash_text(canonical_json({
        "version": HASH_VERSION,
        "mode": mode,
        "threshold": job.threshold,
        "config": config_part,
        "context": context_part,
    }))


def spec_content_hash(
    spec: dict, settings, *, default_rows: Optional[int] = None
) -> str:
    """`job_content_hash` straight from a JSON job spec.

    Convenience for tools (CLI inspection, tests) that hold a spec but
    not a built job; parses through the one shared validator so spec and
    job hashes can never diverge.
    """
    from repro.batch.jobs import job_from_spec

    job = job_from_spec(
        spec, default_rows=default_rows, base_config=settings.search_config(),
    )
    return job_content_hash(job, settings)
