"""Picklable job specifications for the batch optimizer.

A :class:`BatchJob` names everything one ``find_optimal_abstraction`` run
needs — the workload query, the K-example/tree shape, the privacy
threshold, and an optional per-job :class:`OptimizerConfig` budget —
without holding any live objects, so jobs cross process boundaries
cheaply.  Workers rebuild the (database, example, tree) context from the
spec and share it across the jobs they execute.

An :class:`InlineJob` is the user-supplied counterpart: instead of a
workload name it carries an :class:`InlineContext` — the ``optimize``
subcommand's inputs (database, tree, query or K-example) serialized to
canonical JSON text — so arbitrary jobs stay picklable and are cached by
workers under that context exactly like the named contexts.

:func:`job_from_spec` turns one JSON job spec (named or inline) into the
matching job object, validating every key; it is the single parser behind
``repro batch-optimize --jobs``, ``repro submit``, and the job service.
:func:`job_spec_text` writes a job back as the canonical spec text the
job store keeps, and :func:`job_to_spec` as the parsed dict.
:func:`decode_job_specs` parses a job service request body for
:func:`job_from_spec`, reusing the canonical text of a ``database`` it
decoded recently.

A :class:`BatchJobResult` carries the outcome back the same way: scalars
and the per-variable abstraction targets rather than live
``AbstractionFunction`` objects (rebuild one with :meth:`BatchJobResult.function`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional, Union

from repro.core.optimizer import OptimizerConfig, OptimizerStats
from repro.datasets.queries import all_queries
from repro.errors import JobSpecError
from repro.obs import metrics
from repro.store.hashing import KNOWN_MODES, canonical_json, hash_parts


@dataclass(frozen=True)
class BatchJob:
    """One optimal-abstraction search over a named experiment workload.

    ``query_name`` is a workload name understood by
    :func:`repro.experiments.runner.prepare_context` (e.g. ``"TPCH-Q3"``,
    ``"IMDB-Q1"``).  ``n_rows``/``n_leaves``/``height`` override the
    settings defaults, mirroring ``prepare_context``; ``config`` overrides
    the per-job search budget (defaults to the settings' budgets).
    ``tag`` is a caller-chosen label echoed in the result.
    """

    query_name: str
    threshold: int
    n_rows: Optional[int] = None
    n_leaves: Optional[int] = None
    height: Optional[int] = None
    config: Optional[OptimizerConfig] = None
    tag: str = ""

    def context_key(self) -> tuple:
        """The part of the spec that determines the (db, example, tree)."""
        return (self.query_name, self.n_rows, self.n_leaves, self.height)


class CanonicalJSON:
    """A spec value :func:`decode_job_specs` already made canonical text.

    Only :func:`job_from_spec` reads one.  No serializer knows the type,
    so one that reaches ``json.dumps`` fails instead of writing the text
    as a JSON string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _canonical(value) -> str:
    """Canonical JSON text, so equal payloads hash equally.

    The shared definition in :mod:`repro.store.hashing`, which the
    result cache keys on too; a :class:`CanonicalJSON` is its text.
    """
    if isinstance(value, CanonicalJSON):
        return value.text
    return canonical_json(value)


class _DatabaseTexts:
    """The canonical text of each raw ``database`` text decoded lately.

    Keyed by the whole raw text as it arrived, never by a digest or by
    the parsed value: ``1``, ``1.0`` and ``true`` compare equal in Python
    but canonicalize differently.  Holds the 8 most recently used, as
    :func:`_database_from_text` does.  Handler threads decode
    concurrently, so a lock guards the entries; it is never held while
    a value is parsed or dumped.
    """

    def __init__(self, maxsize: int = 8):
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._texts: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._texts)

    def match(self, text: str, idx: int) -> Optional[tuple[str, str]]:
        """The ``(raw, canonical)`` pair whose raw text ``text`` holds at
        ``idx``, or ``None``."""
        with self._lock:
            for raw, canonical in self._texts.items():
                if text.startswith(raw, idx):
                    self._texts.move_to_end(raw)
                    return raw, canonical
        return None

    def remember(self, raw: str, canonical: str) -> None:
        with self._lock:
            self._texts[raw] = canonical
            self._texts.move_to_end(raw)
            while len(self._texts) > self._maxsize:
                self._texts.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._texts.clear()


_DATABASE_TEXTS = _DatabaseTexts()

#: Spec ``database`` objects :func:`decode_job_specs` read: ``parsed``
#: on a first sighting, ``reused`` when a remembered raw text matched.
_DATABASE_DECODES = metrics.REGISTRY.counter(
    "repro_inline_database_decodes_total",
    "Job-spec database objects decoded from request bodies, by outcome "
    "(parsed/reused).",
    labelnames=("outcome",),
)

# The stdlib's C scanner parses every value but a spec's database, and
# JSON's four whitespace characters separate tokens, as in json.loads.
_scan_value = json.JSONDecoder().raw_decode
_skip_space = re.compile(r"[ \t\n\r]*").match


def decode_job_specs(body):
    """``json.loads`` of a ``POST /v1/jobs`` body, for :func:`job_from_spec`.

    The body is one spec object or a list of them.  Each spec's
    ``database`` object comes back as :class:`CanonicalJSON`: when its
    raw text arrived lately, the remembered canonical text, without a
    parse; otherwise it is parsed and dumped once and remembered.
    Everything else is what ``json.loads`` returns, duplicate keys
    resolved last-wins, and a body ``json.loads`` rejects raises the
    same error.

    A JSON object's text ends at its closing brace, so a body that
    holds a remembered object text where a value starts holds that
    object there.
    """
    if isinstance(body, (bytes, bytearray)):
        text = body.decode(json.detect_encoding(body), "surrogatepass")
    elif isinstance(body, str) and not body.startswith("\ufeff"):
        text = body
    else:
        return json.loads(body)
    idx = _skip_space(text, 0).end()
    decode = _CONTAINERS.get(text[idx:idx + 1])
    if decode is None:
        return json.loads(body)
    try:
        value, idx = decode(text, idx + 1)
        if _skip_space(text, idx).end() == len(text):
            return value
    except (ValueError, RecursionError):
        pass  # the walkers raise ValueError wherever json.loads fails
    # Malformed: json.loads raises its own message and position.
    return json.loads(body)


def _decode_spec_list(text: str, idx: int) -> tuple[list, int]:
    """The list whose ``[`` ends before ``idx``, and the index after it."""
    specs: list = []
    idx = _skip_space(text, idx).end()
    if text.startswith("]", idx):
        return specs, idx + 1
    while True:
        if text.startswith("{", idx):
            spec, idx = _decode_spec(text, idx + 1)
        else:
            spec, idx = _scan_value(text, idx)
        specs.append(spec)
        idx = _skip_space(text, idx).end()
        if text.startswith("]", idx):
            return specs, idx + 1
        if not text.startswith(",", idx):
            raise ValueError(idx)
        idx = _skip_space(text, idx + 1).end()


def _decode_spec(text: str, idx: int) -> tuple[dict, int]:
    """The spec whose ``{`` ends before ``idx``, and the index after it."""
    spec: dict = {}
    idx = _skip_space(text, idx).end()
    if text.startswith("}", idx):
        return spec, idx + 1
    while True:
        if not text.startswith('"', idx):
            raise ValueError(idx)
        key, idx = _scan_value(text, idx)
        idx = _skip_space(text, idx).end()
        if not text.startswith(":", idx):
            raise ValueError(idx)
        idx = _skip_space(text, idx + 1).end()
        if key == "database" and text.startswith("{", idx):
            spec[key], idx = _decode_database(text, idx)
        else:
            spec[key], idx = _scan_value(text, idx)
        idx = _skip_space(text, idx).end()
        if text.startswith("}", idx):
            return spec, idx + 1
        if not text.startswith(",", idx):
            raise ValueError(idx)
        idx = _skip_space(text, idx + 1).end()


def _decode_database(text: str, idx: int) -> tuple[CanonicalJSON, int]:
    """The database object at ``idx``, and the index after it."""
    match = _DATABASE_TEXTS.match(text, idx)
    if match is not None:
        raw, canonical = match
        _DATABASE_DECODES.inc(outcome="reused")
        return CanonicalJSON(canonical), idx + len(raw)
    value, end = _scan_value(text, idx)
    canonical = canonical_json(value)
    _DATABASE_TEXTS.remember(text[idx:end], canonical)
    _DATABASE_DECODES.inc(outcome="parsed")
    return CanonicalJSON(canonical), end


_CONTAINERS: dict[str, Callable[[str, int], tuple[Any, int]]] = {
    "{": _decode_spec, "[": _decode_spec_list,
}


#: Inline databases this process built from JSON text: a first-seen job
#: over a database an earlier job already brought leaves it unchanged.
_DATABASE_BUILDS = metrics.REGISTRY.counter(
    "repro_inline_database_builds_total",
    "Inline-context databases built from JSON text in this process.",
)


@lru_cache(maxsize=8)
def _database_from_text(text: str):
    """The ``KDatabase`` of one canonical database text, built once.

    Every inline context over the same text shares the object, as named
    contexts share ``experiments.runner._tpch``/``_imdb`` (whose bound
    this repeats), so nothing may mutate a built context's database.
    """
    from repro.io.json_io import database_from_json

    database = database_from_json(json.loads(text))
    _DATABASE_BUILDS.inc()
    return database


@dataclass(frozen=True)
class InlineContext:
    """A user-supplied (database, tree, query/K-example) job context.

    The fields are canonical JSON *text* (plus the query's datalog text),
    so the spec is hashable, picklable, and content-addressable: the
    context itself keys the per-worker context and privacy-session
    caches, meaning a stream of jobs over the same user data shares one
    warm context exactly like the named workloads do, and
    :meth:`content_hash` keys the result cache.  Exactly one of
    ``query`` / ``kexample_json`` must be set; :meth:`build` rebuilds the
    live objects the same way ``repro optimize`` loads them.
    """

    database_json: str
    tree_json: str
    query: Optional[str] = None
    kexample_json: Optional[str] = None
    n_rows: int = 2

    @classmethod
    def from_objects(cls, database, tree, query=None, kexample=None,
                     n_rows: int = 2) -> "InlineContext":
        """Serialize live objects into a spec (inverse of :meth:`build`)."""
        from repro.io.json_io import (
            database_to_json, kexample_to_json, tree_to_json,
        )

        return cls(
            database_json=_canonical(database_to_json(database)),
            tree_json=_canonical(tree_to_json(tree)),
            query=query,
            kexample_json=(
                _canonical(kexample_to_json(kexample))
                if kexample is not None else None
            ),
            n_rows=n_rows,
        )

    def content_hash(self) -> str:
        """Hex digest identifying this context's content.

        Memoized on the instance (all inputs are frozen): with a store
        attached the hash is consulted on submit persistence, cache
        lookup, cache store, and every ``query_name`` in a status
        listing, and re-digesting a multi-megabyte database JSON each
        time would put linear work on the service's hot path.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            digest = hash_parts(
                self.database_json, self.tree_json, self.query or "",
                self.kexample_json or "", str(self.n_rows),
            )
            object.__setattr__(self, "_content_hash", digest)
        return digest

    def build(self, settings, engine: str = "naive"):
        """Rebuild the live context exactly as ``repro optimize`` does.

        The database comes from a per-process cache keyed by
        ``database_json``: contexts that differ only in tree, query or
        rows, and builds on different engines, share one ``KDatabase``
        object, built once.  The tree and example are built fresh.
        ``engine`` evaluates ``query`` when the K-example must be built
        (the job runner passes the effective config's engine); every
        engine builds a bit-identical context.
        """
        from repro.experiments.runner import ExperimentContext
        from repro.io.json_io import kexample_from_json, tree_from_json
        from repro.provenance.builder import build_kexample
        from repro.query.parser import parse_cq

        database = _database_from_text(self.database_json)
        tree = tree_from_json(json.loads(self.tree_json))
        query = parse_cq(self.query) if self.query else None
        if self.kexample_json is not None:
            example = kexample_from_json(json.loads(self.kexample_json), database)
        else:
            example = build_kexample(
                query, database, n_rows=self.n_rows, engine=engine,
            )
        return ExperimentContext(
            query_name=f"inline:{self.content_hash()[:12]}",
            query=query,
            database=database,
            example=example,
            tree=tree,
            settings=settings,
        )


@dataclass(frozen=True)
class InlineJob:
    """One optimal-abstraction search over a user-supplied context.

    Mirrors :class:`BatchJob` (threshold, optional per-job config, tag)
    but carries the whole context inline, so it runs through the same
    workers, caches, and result type.
    """

    context: InlineContext
    threshold: int
    config: Optional[OptimizerConfig] = None
    tag: str = ""

    @property
    def query_name(self) -> str:
        """A stable label standing in for the workload name."""
        return f"inline:{self.context.content_hash()[:12]}"

    def context_key(self) -> InlineContext:
        """The context itself: frozen and hashable, it keys the worker
        caches and builds the live context on a miss."""
        return self.context


#: Every key a named-workload job spec may carry.
NAMED_SPEC_KEYS = frozenset({
    "query_name", "threshold", "n_rows", "n_leaves", "height", "tag",
    "max_candidates", "max_seconds", "mode",
})

#: Every key an inline-context job spec may carry.
INLINE_SPEC_KEYS = frozenset({
    "database", "tree", "query", "kexample", "threshold", "n_rows", "tag",
    "max_candidates", "max_seconds", "mode",
})


def exact_int(value) -> int:
    """``int(value)``, refusing what ``int`` would truncate or misread:
    ``2.7``, ``True``, ``"2"``.  ``2.0`` passes, as some JSON writers
    spell integers that way.  Raises :class:`TypeError` or
    :class:`ValueError` as ``int`` does, and for infinity too."""
    try:
        number = int(value)
    except OverflowError:  # 1e400 reads as inf
        raise ValueError(f"not an integer: {value!r}") from None
    if isinstance(value, bool) or number != value:
        raise ValueError(f"not an integer: {value!r}")
    return number


def _as_int(value, key: str, positive: bool = False) -> int:
    number: Optional[int]
    try:
        number = exact_int(value)
    except (TypeError, ValueError):
        number = None
    if number is None or positive and number < 1:
        kind = "a positive integer" if positive else "an integer"
        raise JobSpecError(f"{key!r} must be {kind}, got {value!r}")
    return number


def _as_positive_int(value, key: str) -> Optional[int]:
    """A shape key's value (rows, leaves, height), ``None`` when unset.

    Zero is rejected too: it would run the default shape under another
    content hash, so the result cache would store a duplicate.
    """
    return None if value is None else _as_int(value, key, positive=True)


def _is_text(value) -> bool:
    """A non-empty string UTF-8 can encode.  JSON's ``\\ud800`` escape
    yields a lone surrogate, which the context's content hash cannot
    digest."""
    if not (isinstance(value, str) and value):
        return False
    try:
        value.encode()
    except UnicodeEncodeError:
        return False
    return True


def _config_from_spec(
    spec: dict, base_config: Optional[OptimizerConfig]
) -> Optional[OptimizerConfig]:
    """A per-job config when the spec sets budget keys, else ``None``.

    Unset budget keys inherit from ``base_config`` (the settings-level
    budgets), so a spec overriding only ``max_candidates`` keeps the
    global ``max_seconds``.
    """
    if "max_candidates" not in spec and "max_seconds" not in spec:
        return None
    overrides: dict = {}
    if "max_candidates" in spec:
        overrides["max_candidates"] = _as_int(
            spec["max_candidates"], "max_candidates", positive=True
        )
    if "max_seconds" in spec:
        value = spec["max_seconds"]
        # ``float`` would read ``true`` as 1 s and ``"5"`` as 5 s.
        number = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
        max_seconds = float(value) if number else math.nan
        # A NaN budget compares false with every elapsed time, so the
        # search would never stop, whatever --job-timeout says; one of
        # zero or less stops it before its first candidate.
        if not max_seconds > 0:
            raise JobSpecError(
                f"'max_seconds' must be a number > 0, "
                f"got {spec['max_seconds']!r}"
            )
        overrides["max_seconds"] = max_seconds
    return dataclasses.replace(base_config or OptimizerConfig(), **overrides)


def job_from_spec(
    spec: dict,
    *,
    default_rows: Optional[int] = None,
    base_config: Optional[OptimizerConfig] = None,
) -> "Union[BatchJob, InlineJob]":
    """Build a job from one JSON spec, validating every key.

    A spec with any of ``database``/``tree``/``query``/``kexample`` is an
    inline-context job; otherwise it must name a workload via
    ``query_name``.  Unknown keys raise :class:`JobSpecError` naming the
    key (a typo must not silently run a default job), as do missing
    required keys and mistyped values.
    """
    if not isinstance(spec, dict):
        raise JobSpecError(
            f"job spec must be a JSON object, got {type(spec).__name__}"
        )
    inline = any(k in spec for k in ("database", "tree", "query", "kexample"))
    known = INLINE_SPEC_KEYS if inline else NAMED_SPEC_KEYS
    for key in spec:
        if key not in known:
            kind = "inline" if inline else "named-workload"
            raise JobSpecError(
                f"unknown job-spec key {key!r} "
                f"(known {kind} keys: {', '.join(sorted(known))})"
            )
    if "threshold" not in spec:
        raise JobSpecError("job spec needs a 'threshold'")
    # The 'mode' slot is reserved for the dual search.  Specs may say
    # "primal" explicitly (forward compatibility), but anything else must
    # be rejected here, naming the field: silently running an unknown
    # mode as a primal search would cache the wrong result under the
    # dual job's future hash.
    mode = spec.get("mode", "primal")
    if mode not in KNOWN_MODES:
        raise JobSpecError(
            f"unknown job-spec 'mode' {mode!r} "
            f"(known modes: {', '.join(KNOWN_MODES)})"
        )
    threshold = _as_int(spec["threshold"], "threshold")
    config = _config_from_spec(spec, base_config)
    tag = spec.get("tag", "")
    if not isinstance(tag, str):
        raise JobSpecError(f"'tag' must be a string, got {tag!r}")
    n_rows = _as_positive_int(spec.get("n_rows", default_rows), "n_rows")

    if inline:
        missing = [k for k in ("database", "tree") if k not in spec]
        if missing:
            raise JobSpecError(
                f"inline job spec needs {' and '.join(repr(k) for k in missing)}"
            )
        if ("query" in spec) == ("kexample" in spec):
            raise JobSpecError(
                "inline job spec needs exactly one of 'query' or 'kexample'"
            )
        query = spec.get("query")
        if "query" in spec and not _is_text(query):
            raise JobSpecError(
                f"'query' must be a non-empty string, got {query!r}"
            )
        context = InlineContext(
            database_json=_canonical(spec["database"]),
            tree_json=_canonical(spec["tree"]),
            query=query,
            kexample_json=(
                _canonical(spec["kexample"]) if "kexample" in spec else None
            ),
            n_rows=n_rows if n_rows is not None else 2,
        )
        return InlineJob(
            context=context, threshold=threshold, config=config, tag=tag
        )

    if "query_name" not in spec:
        raise JobSpecError("job spec needs 'query_name' and 'threshold'")
    query_name = spec["query_name"]
    queries = all_queries()
    if not isinstance(query_name, str) or query_name not in queries:
        raise JobSpecError(
            f"'query_name' must name a workload query "
            f"({', '.join(sorted(queries))}), got {query_name!r}"
        )
    return BatchJob(
        query_name=query_name,
        threshold=threshold,
        n_rows=n_rows,
        n_leaves=_as_positive_int(spec.get("n_leaves"), "n_leaves"),
        height=_as_positive_int(spec.get("height"), "height"),
        config=config,
        tag=tag,
    )


def _dumps(value) -> str:
    """JSON text in the job store's layout: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def job_spec_text(job: "Union[BatchJob, InlineJob]") -> str:
    """The job's spec as canonical JSON text: what the job store writes.

    The one definition of the spec layout.  An inline context's
    database, tree and K-example are already canonical text, so they
    are spliced in as held and only the small fields are serialized:
    the result equals ``_dumps`` of the spec dict, byte for byte,
    without parsing or re-serializing a multi-megabyte database.  A
    hand-built ``config`` is represented by its budget keys
    (``max_candidates``/``max_seconds``) — the only config fields a spec
    can express; ``None`` budgets are omitted, matching the spec
    grammar, which has no null values.
    """
    fields: dict = {"threshold": job.threshold}
    texts: dict[str, str] = {}
    context = getattr(job, "context", None)
    if context is not None:
        texts["database"] = context.database_json
        texts["tree"] = context.tree_json
        if context.query is not None:
            fields["query"] = context.query
        else:
            texts["kexample"] = context.kexample_json
        fields["n_rows"] = context.n_rows
    else:
        fields["query_name"] = job.query_name
        for key in ("n_rows", "n_leaves", "height"):
            value = getattr(job, key)
            if value is not None:
                fields[key] = value
    if job.tag:
        fields["tag"] = job.tag
    if job.config is not None:
        if job.config.max_candidates is not None:
            fields["max_candidates"] = job.config.max_candidates
        if job.config.max_seconds is not None:
            fields["max_seconds"] = job.config.max_seconds
    texts.update((key, _dumps(value)) for key, value in fields.items())
    return "{" + ",".join(
        f"{_dumps(key)}:{texts[key]}" for key in sorted(texts)
    ) + "}"


def job_to_spec(job: "Union[BatchJob, InlineJob]") -> dict:
    """Serialize a job back into a JSON spec (inverse of :func:`job_from_spec`).

    The parsed form of :func:`job_spec_text`, which the job store
    writes, so a queued job survives a restart as re-parseable input:
    for any spec-built job, ``job_from_spec(job_to_spec(job),
    base_config=same_base)`` rebuilds an equal job.
    """
    return json.loads(job_spec_text(job))


def config_to_payload(config: OptimizerConfig) -> dict:
    """An :class:`OptimizerConfig` as a lossless JSON-safe dict.

    The job-spec grammar can only express the budget keys; the fleet's
    claim descriptors need the *whole* effective config on the wire —
    every switch, the privacy sub-config included — so a remote worker
    runs exactly the config the service hashed, not a reconstruction.
    The encoding is :func:`repro.store.hashing.jsonable`'s (nested
    dataclasses become sorted dicts, enums their values), which is also
    what content hashing digests — by construction, what survives
    transport is what was hashed.
    """
    from repro.store.hashing import jsonable

    return jsonable(config)


def _dataclass_from_payload(cls, payload, field_builders):
    """Rebuild dataclass ``cls`` from a ``jsonable`` dict, strictly.

    ``field_builders`` maps field names needing more than the raw JSON
    value (nested dataclasses, enums) to a callable.  Unknown keys raise
    :class:`TypeError` — a worker on a different code version must fail
    visibly, not run a silently-defaulted config.
    """
    if not isinstance(payload, dict):
        raise TypeError(
            f"{cls.__name__} payload must be an object, "
            f"got {type(payload).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise TypeError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
        )
    kwargs = {
        name: field_builders.get(name, lambda v: v)(value)
        for name, value in payload.items()
    }
    return cls(**kwargs)


def config_from_payload(payload: dict) -> OptimizerConfig:
    """The inverse of :func:`config_to_payload` (strict; see there)."""
    from repro.core.consistency import ConsistencyConfig
    from repro.core.privacy import PrivacyConfig
    from repro.semirings.base import SemiringName

    return _dataclass_from_payload(
        OptimizerConfig, payload, {
            "privacy": lambda value: _dataclass_from_payload(
                PrivacyConfig, value, {
                    "consistency": lambda sub: _dataclass_from_payload(
                        ConsistencyConfig, sub,
                        {"semiring": SemiringName},
                    ),
                },
            ),
        },
    )


def _traceback_summary(exc: BaseException, limit: int = 3) -> str:
    """The innermost frames of ``exc``'s traceback, compactly.

    Worker processes report failures as error *strings* (the payload is
    JSON), so the location must be baked into the message for a failing
    job to stay debuggable from ``/status`` — innermost frame first,
    basenames only.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    return " <- ".join(
        f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        for frame in reversed(frames[-limit:])
    )


@dataclass
class BatchJobResult:
    """The outcome of one batch job, in picklable scalar form."""

    job: "Union[BatchJob, InlineJob]"
    found: bool = False
    loi: float = float("inf")
    privacy: int = -1
    edges_used: int = 0
    seconds: float = 0.0
    stats: OptimizerStats = field(default_factory=OptimizerStats)
    # The optimal abstraction as {variable: target label} (uniform per
    # variable, as Algorithm 2 produces); empty when not found.
    variable_targets: dict[str, str] = field(default_factory=dict)
    # Whether this job attached to a privacy session already warmed by an
    # earlier job of the same worker (same context + privacy switches).
    session_reused: bool = False
    # Whether this result was served from the content-addressed result
    # cache (repro.store) instead of running the optimizer.
    cache_hit: bool = False
    # Span records from repro.obs.spans when the job ran with
    # ``config.trace`` on; ``None`` otherwise.  Volatile observability
    # data: excluded from result hashes and payload-equivalence checks,
    # but carried losslessly across the pool/store/HTTP round trips.
    trace: Optional[list] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def from_error(
        cls, job: "Union[BatchJob, InlineJob]", exc: BaseException
    ) -> "BatchJobResult":
        """A failed result whose error keeps the traceback summary.

        The single formatter behind every execution tier (in-process
        ``run_job``, pool workers, the service), so an error reads the
        same wherever the job ran — and survives the JSON payload round
        trip intact, traceback summary included.
        """
        where = _traceback_summary(exc)
        message = f"{type(exc).__name__}: {exc}"
        return cls(job=job, error=f"{message} [{where}]" if where else message)

    def function(self, tree, example):
        """Rebuild the optimal :class:`AbstractionFunction` in-process."""
        from repro.abstraction.function import AbstractionFunction

        if not self.found:
            return None
        return AbstractionFunction.uniform(tree, example, self.variable_targets)

    def to_payload(self) -> dict:
        """A JSON-ready dict of the full outcome, audit counters included.

        Shared by ``batch-optimize --output`` and the job service's result
        endpoint, so sweep results can always be audited for cache reuse
        (``session_reused`` plus the :class:`OptimizerStats` counters).
        """
        return {
            "query_name": self.job.query_name,
            "threshold": self.job.threshold,
            "tag": self.job.tag,
            "found": self.found,
            "privacy": self.privacy,
            # JSON has no Infinity: an unbounded LOI (nothing found)
            # crosses as null and from_payload restores math.inf.
            "loi": self.loi if math.isfinite(self.loi) else None,
            "edges_used": self.edges_used,
            "seconds": self.seconds,
            "variable_targets": self.variable_targets,
            "session_reused": self.session_reused,
            "cache_hit": self.cache_hit,
            "stats": dataclasses.asdict(self.stats),
            "trace": self.trace,
            "error": self.error,
        }

    @classmethod
    def from_payload(
        cls, payload: dict, job: "Union[BatchJob, InlineJob]"
    ) -> "BatchJobResult":
        """Rebuild a result from :meth:`to_payload` output, losslessly.

        ``job`` supplies the spec side (the payload carries only its
        display fields); everything else round-trips bit-identically —
        ``to_payload()`` of the rebuilt result equals ``payload``.  The
        :class:`OptimizerStats` counters are matched by field name so a
        payload written by a newer code version (extra counters) still
        loads; absent counters keep their zero defaults.
        """
        known = {f.name for f in dataclasses.fields(OptimizerStats)}
        stats = OptimizerStats(**{
            key: value
            for key, value in (payload.get("stats") or {}).items()
            if key in known
        })
        loi = payload.get("loi")
        return cls(
            job=job,
            found=bool(payload.get("found", False)),
            loi=math.inf if loi is None else loi,
            privacy=payload.get("privacy", -1),
            edges_used=payload.get("edges_used", 0),
            seconds=payload.get("seconds", 0.0),
            stats=stats,
            variable_targets=dict(payload.get("variable_targets") or {}),
            session_reused=bool(payload.get("session_reused", False)),
            cache_hit=bool(payload.get("cache_hit", False)),
            trace=payload.get("trace"),
            error=payload.get("error"),
        )
