"""The ``repro-trace-v1`` JSONL trace-file format.

One JSON object per line, one line per traced job::

    {"schema": "repro-trace-v1", "label": "running_example@0.5",
     "query": "running_example", "threshold": 0.5, "tag": null,
     "seconds": 0.0123, "spans": [ ... span records ... ]}

Span records are exactly :meth:`repro.obs.spans.Tracer.to_payload`
output: ``{"name", "start", "seconds", "parent", "count", "attrs"?}``
with ``start`` relative to the job's trace origin and ``parent`` an
index into the same list (``-1`` for roots).  Files are append-only, so
a long-lived service streams one line per completed job and the file
tails cleanly.

:func:`read_trace` validates the schema; :func:`summarize` folds any
number of records into per-phase aggregates for ``repro trace summary``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence

from repro.errors import ReproError

TRACE_SCHEMA = "repro-trace-v1"

_SPAN_REQUIRED = ("name", "start", "seconds", "parent", "count")


class TraceError(ReproError):
    """A trace file that is not valid ``repro-trace-v1``."""


def trace_record(
    spans: List[Dict[str, Any]],
    *,
    label: str,
    query: Optional[str] = None,
    threshold: Optional[float] = None,
    tag: Optional[str] = None,
    seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble one trace-file line for a completed job."""
    return {
        "schema": TRACE_SCHEMA,
        "label": label,
        "query": query,
        "threshold": threshold,
        "tag": tag,
        "seconds": seconds,
        "spans": spans,
    }


class TraceWriter:
    """Append-only JSONL writer; thread-safe (the service's worker
    threads all stream completed-job records through one writer)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        try:
            self._handle: Optional[IO[str]] = self.path.open(
                "a", encoding="utf-8"
            )
        except OSError as exc:
            raise TraceError(
                f"cannot open trace file {self.path}: {exc}"
            ) from exc

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                raise TraceError(f"trace writer for {self.path} is closed")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _validate_record(record: Any, where: str) -> Dict[str, Any]:
    if not isinstance(record, dict):
        raise TraceError(f"{where}: expected a JSON object")
    schema = record.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceError(
            f"{where}: schema {schema!r} is not {TRACE_SCHEMA!r}"
        )
    spans = record.get("spans")
    if not isinstance(spans, list):
        raise TraceError(f"{where}: 'spans' must be a list")
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            raise TraceError(f"{where}: span {i} is not an object")
        missing = [key for key in _SPAN_REQUIRED if key not in span]
        if missing:
            raise TraceError(f"{where}: span {i} missing {missing}")
        parent = span["parent"]
        if not isinstance(parent, int) or not -1 <= parent < i:
            raise TraceError(
                f"{where}: span {i} parent {parent!r} must point at an "
                f"earlier span (or -1)"
            )
    return record


def read_trace(path: str | Path) -> List[Dict[str, Any]]:
    """Read and validate a ``repro-trace-v1`` JSONL file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{where}: invalid JSON ({exc.msg})") from exc
        records.append(_validate_record(record, where))
    if not records:
        raise TraceError(f"{path}: no trace records")
    return records


@dataclass
class PhaseSummary:
    """Aggregate view of one span name across trace records."""

    name: str
    jobs: int = 0            # records the phase appears in
    calls: int = 0           # total span entries (aggregated counts included)
    seconds: float = 0.0     # total time inside the phase

    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


@dataclass
class TraceSummary:
    """Per-phase totals over a whole trace file."""

    records: int = 0
    root_seconds: float = 0.0    # sum of top-level span time (share basis)
    phases: Dict[str, PhaseSummary] = field(default_factory=dict)

    def share(self, name: str) -> float:
        if self.root_seconds <= 0.0:
            return 0.0
        phase = self.phases.get(name)
        return phase.seconds / self.root_seconds if phase else 0.0


def summarize(records: Sequence[Dict[str, Any]]) -> TraceSummary:
    summary = TraceSummary()
    for record in records:
        summary.records += 1
        seen: set[str] = set()
        for span in record.get("spans", ()):
            name = str(span["name"])
            phase = summary.phases.get(name)
            if phase is None:
                phase = summary.phases[name] = PhaseSummary(name)
            if name not in seen:
                phase.jobs += 1
                seen.add(name)
            phase.calls += int(span["count"])
            phase.seconds += float(span["seconds"])
            if span["parent"] == -1:
                summary.root_seconds += float(span["seconds"])
    return summary


def format_summary(summary: TraceSummary) -> str:
    """The ``repro trace summary`` table."""
    header = (
        f"{'phase':<20} {'jobs':>5} {'calls':>8} {'total_s':>10} "
        f"{'mean_ms':>9} {'share':>6}"
    )
    lines = [
        f"trace records: {summary.records}"
        f"  (root span time {summary.root_seconds:.4f}s)",
        header,
        "-" * len(header),
    ]
    ordered = sorted(
        summary.phases.values(), key=lambda p: p.seconds, reverse=True
    )
    for phase in ordered:
        lines.append(
            f"{phase.name:<20} {phase.jobs:>5} {phase.calls:>8} "
            f"{phase.seconds:>10.4f} {phase.mean_seconds() * 1e3:>9.3f} "
            f"{summary.share(phase.name) * 100:>5.1f}%"
        )
    return "\n".join(lines)


def format_record(record: Dict[str, Any]) -> str:
    """One record as an indented span tree (``repro trace show``)."""
    spans = record.get("spans", [])
    depths: List[int] = []
    for span in spans:
        parent = span["parent"]
        depths.append(0 if parent == -1 else depths[parent] + 1)
    label = record.get("label") or "<unlabelled>"
    seconds = record.get("seconds")
    suffix = f"  ({seconds:.4f}s)" if isinstance(seconds, (int, float)) else ""
    lines = [f"{label}{suffix}"]
    for span, depth in zip(spans, depths):
        attrs = span.get("attrs")
        attr_text = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if attrs else ""
        )
        count = span["count"]
        count_text = f" x{count}" if count != 1 else ""
        lines.append(
            f"  {'  ' * depth}{span['name']:<{24 - 2 * depth}} "
            f"{float(span['seconds']):>9.4f}s{count_text}{attr_text}"
        )
    return "\n".join(lines)


__all__ = [
    "PhaseSummary",
    "TRACE_SCHEMA",
    "TraceError",
    "TraceSummary",
    "TraceWriter",
    "format_record",
    "format_summary",
    "read_trace",
    "summarize",
    "trace_record",
]
