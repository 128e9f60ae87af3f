"""Nestable, deterministic-safe tracing spans.

A :class:`Tracer` records a per-job trace: a flat list of span records
in start order, each carrying its parent index, so nesting reconstructs
without a tree structure in the payload.  All timing comes from
:mod:`repro.obs.clock` and is *relative to the tracer's creation* — a
trace never contains a wall-clock timestamp, which keeps it safely in
the VOLATILE tier of scenario snapshots.

Two kinds of spans:

* ``span(name, **attrs)`` — one record per entry; for coarse phases
  (context build, session build, search).
* ``aggregate(name, **attrs)`` — one record per distinct
  ``(name, attrs)`` that accumulates ``count`` and ``seconds`` across
  entries; for hot loops (per-candidate scoring, engine evaluation,
  store I/O) where per-entry records would explode the trace.

The module-level :func:`span`/:func:`aggregate` helpers consult the
ambient tracer (a :mod:`contextvars` variable set by :func:`activate`).
When no tracer is active they return the shared :data:`NO_SPAN`
singleton — two trivial method calls and no allocation, the "near-zero
cost when disabled" fast path guarded by
``benchmarks/bench_obs_overhead.py``.  Hot loops should not pay even
that: they wrap each per-iteration call once with :func:`timed`
(``score = spans.timed("x", score)``), which returns the callable
itself when tracing is disabled.
"""

from __future__ import annotations

import contextvars
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.obs import clock

_ROOT = -1

_T = TypeVar("_T")


class _NullSpan:
    """Shared do-nothing span: the disabled-mode fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: The singleton no-op context manager returned whenever tracing is off.
NO_SPAN = _NullSpan()


class _Span:
    """A live single-entry span; records on exit even if the body raises."""

    __slots__ = ("_tracer", "_index", "_t0")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        self._t0 = clock.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = clock.perf_counter() - self._t0
        self._tracer._close(self._index, elapsed)


class _AggregateSpan:
    """A reusable accumulating span bound to one ``(name, attrs)`` record."""

    __slots__ = ("_tracer", "_name", "_attrs", "_index", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._index: Optional[int] = None

    def __enter__(self) -> "_AggregateSpan":
        self._t0 = clock.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = clock.perf_counter() - self._t0
        if self._index is None:
            self._index = self._tracer._open_aggregate(self._name, self._attrs)
        self._tracer._accumulate(self._index, elapsed)


class Tracer:
    """Per-job span recorder.

    Records are plain dicts — the serialized form *is* the in-memory
    form, so ``to_payload()`` round-trips losslessly through JSON, the
    process pool, and the result store.  A tracer is single-threaded by
    design: each job runs on one worker thread/process and activates
    its own tracer.
    """

    __slots__ = ("records", "_stack", "_aggregates", "_t0")

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._aggregates: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], int] = {}
        self._t0 = clock.perf_counter()

    # -- single-entry spans -------------------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        index = len(self.records)
        record: Dict[str, Any] = {
            "name": name,
            "start": self._now(),
            "seconds": 0.0,
            "parent": self._stack[-1] if self._stack else _ROOT,
            "count": 1,
        }
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
        self._stack.append(index)
        return _Span(self, index)

    def _close(self, index: int, elapsed: float) -> None:
        self.records[index]["seconds"] = elapsed
        # Tolerate out-of-order exits (a span leaked across a raise):
        # unwind to the closing span rather than corrupting parentage.
        while self._stack and self._stack[-1] != index:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    # -- aggregated spans ---------------------------------------------

    def aggregate(self, name: str, **attrs: Any) -> _AggregateSpan:
        return _AggregateSpan(self, name, attrs)

    def add(self, name: str, seconds: float, **attrs: Any) -> None:
        """Accumulate one externally timed interval into an aggregate
        record (for call sites that already hold a duration)."""
        self._accumulate(self._open_aggregate(name, attrs), seconds)

    def _open_aggregate(self, name: str, attrs: Dict[str, Any]) -> int:
        key = (name, tuple(sorted(attrs.items())))
        index = self._aggregates.get(key)
        if index is None:
            index = len(self.records)
            record: Dict[str, Any] = {
                "name": name,
                "start": self._now(),
                "seconds": 0.0,
                "parent": self._stack[-1] if self._stack else _ROOT,
                "count": 0,
            }
            if attrs:
                record["attrs"] = dict(attrs)
            self.records.append(record)
            self._aggregates[key] = index
        return index

    def _accumulate(self, index: int, elapsed: float) -> None:
        record = self.records[index]
        record["seconds"] += elapsed
        record["count"] += 1

    # -- serialization -------------------------------------------------

    def _now(self) -> float:
        return clock.perf_counter() - self._t0

    def to_payload(self) -> List[Dict[str, Any]]:
        """The trace as JSON-ready records (start order, parent links)."""
        return [dict(record) for record in self.records]

    @classmethod
    def from_payload(cls, payload: List[Dict[str, Any]]) -> "Tracer":
        """Rebuild a tracer from serialized records (for inspection and
        merging; the rebuilt tracer starts with an empty span stack, so
        new spans land at the root)."""
        tracer = cls()
        tracer.records = [dict(record) for record in payload]
        return tracer


class _Activation:
    """Context manager installing ``tracer`` as the ambient tracer."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer

    def __enter__(self) -> Optional[Tracer]:
        self._token = _CURRENT.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc: object) -> None:
        _CURRENT.reset(self._token)


_CURRENT: contextvars.ContextVar[Optional[Tracer]] = contextvars.ContextVar(
    "repro_obs_tracer", default=None
)


def current() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is disabled."""
    return _CURRENT.get()


def activate(tracer: Optional[Tracer]) -> _Activation:
    """Install ``tracer`` as the ambient tracer for the ``with`` body.

    ``activate(None)`` is valid and explicitly disables tracing for the
    body (used to shield nested work from an outer tracer).
    """
    return _Activation(tracer)


def span(name: str, **attrs: Any) -> Any:
    """A single-entry span on the ambient tracer; no-op when disabled."""
    tracer = _CURRENT.get()
    if tracer is None:
        return NO_SPAN
    return tracer.span(name, **attrs)


def aggregate(name: str, **attrs: Any) -> Any:
    """An accumulating span handle on the ambient tracer; no-op when
    disabled.  Hot loops use :func:`timed` instead."""
    tracer = _CURRENT.get()
    if tracer is None:
        return NO_SPAN
    return tracer.aggregate(name, **attrs)


def timed(name: str, fn: Callable[..., _T]) -> Callable[..., _T]:
    """``fn`` with every call accumulated into the ``name`` aggregate of
    the ambient tracer, or ``fn`` itself when tracing is disabled, so a
    loop that wraps its calls once pays nothing per call untraced."""
    tracer = _CURRENT.get()
    if tracer is None:
        return fn
    timer = tracer.aggregate(name)

    def run(*args: Any) -> _T:
        with timer:
            return fn(*args)

    return run


__all__ = [
    "NO_SPAN",
    "Tracer",
    "activate",
    "aggregate",
    "current",
    "span",
    "timed",
]
