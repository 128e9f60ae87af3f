"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

:func:`install` wraps the public functions of each layer the benchmark
reports on (optimizer, privacy, consistency, containment, query AST,
concretization, join graph, engine) and returns an :class:`Installation`
whose :meth:`~Installation.remove` puts every original back.  A function
imported by name into other modules is replaced at every such binding, so
the program's own call sites go through the wrapper.  Nothing under
``src/`` changes and nothing records unless wrappers are installed.

Each wrapped call is a *frame*.  A frame of kind ``span`` is also kept as
a span record (name, start, end, parent) for the spans file; ``aggregate``
frames (the hottest leaf functions) and ``generator`` frames (one per
resumption of a wrapped generator) only add to counts and times.  All
kinds feed the same arithmetic: a frame's self time is its duration minus
the time its child frames cover, and a *layer*'s time is the duration of
its outermost frames, so nested calls within one layer are not counted
twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


class _Layer:
    """Per-thread accumulators of one layer (``optimizer``, ``privacy``...)."""

    __slots__ = ("name", "depth", "calls", "seconds")

    def __init__(self, name: str):
        self.name = name
        self.depth = 0      # frames of this layer open on the stack
        self.calls = 0      # outermost calls
        self.seconds = 0.0  # duration of outermost frames


class _Stat:
    """Per-thread accumulators of one frame name."""

    __slots__ = ("name", "layer", "calls", "items", "seconds", "self_seconds")

    def __init__(self, name: str, layer: _Layer):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.items = 0      # values yielded, for generators
        self.seconds = 0.0
        self.self_seconds = 0.0


class _ThreadState:
    """One thread's frame stack and accumulators (merged on read)."""

    def __init__(self):
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.stats: dict[str, _Stat] = {}
        self.layers: dict[str, _Layer] = {}
        self.counts: Counter = Counter()

    def stat(self, name: str, layer: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            if layer not in self.layers:
                self.layers[layer] = _Layer(layer)
            stat = self.stats[name] = _Stat(name, self.layers[layer])
        return stat


# A frame is a list, which is cheaper to build than an object:
# [stat, start, child seconds, span index or -1,
#  span index of the nearest enclosing span or -1, outermost in its layer,
#  thread state]
_STAT, _START, _CHILD, _SPAN, _PARENT, _OUTER, _STATE = range(7)


class Recorder:
    """Collects frames from the wrappers; one per traced run.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    scripted timeline.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._peaks: dict[str, float] = {}
        self.sessions: "weakref.WeakSet" = weakref.WeakSet()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    # -- frames -----------------------------------------------------------

    def note_call(self, name: str, layer: str) -> _Stat:
        """Count one call of ``name`` (and of its layer, if outermost)."""
        stat = self._state().stat(name, layer)
        stat.calls += 1
        if not stat.layer.depth:
            stat.layer.calls += 1
        return stat

    def enter(self, name: str, layer: str, span: bool,
              call: bool = True) -> list:
        """Open a frame; ``call`` also counts it as a call."""
        state = self._state()
        stat = state.stat(name, layer)
        group = stat.layer
        if call:
            stat.calls += 1
            if not group.depth:
                group.calls += 1
        stack = state.stack
        parent = -1
        if stack:
            top = stack[-1]
            parent = top[_SPAN] if top[_SPAN] >= 0 else top[_PARENT]
        index = -1
        start = self._clock()
        if span:
            index = len(state.spans)
            state.spans.append([name, start - self._origin, None, parent])
        frame = [stat, start, 0.0, index, parent, not group.depth, state]
        group.depth += 1
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self._clock()
        stat, start, child, index, _, outer, state = frame
        stack = state.stack
        if stack.pop() is not frame:
            raise RuntimeError(f"frame {stat.name} closed out of order")
        duration = end - start
        group = stat.layer
        group.depth -= 1
        stat.seconds += duration
        stat.self_seconds += duration - child
        if outer:
            group.seconds += duration
        if stack:
            stack[-1][_CHILD] += duration
        if index >= 0:
            state.spans[index][2] = end - self._origin

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self._peaks.get(name, 0):
                self._peaks[name] = value

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict:
        """Every accumulator, merged across threads, as plain dicts."""
        out: dict = {key: Counter() for key in (
            "calls", "items", "seconds", "self_seconds", "layer_calls",
            "layer_seconds", "counts",
        )}
        with self._lock:
            states = list(self._states)
            out["peaks"] = dict(self._peaks)
        for state in states:
            for stat in state.stats.values():
                out["calls"][stat.name] += stat.calls
                out["items"][stat.name] += stat.items
                out["seconds"][stat.name] += stat.seconds
                out["self_seconds"][stat.name] += stat.self_seconds
            for group in state.layers.values():
                out["layer_calls"][group.name] += group.calls
                out["layer_seconds"][group.name] += group.seconds
            out["counts"].update(state.counts)
        return {key: dict(value) for key, value in out.items()}

    def span_records(self) -> list[dict]:
        """All finished spans, parents re-indexed into one list."""
        with self._lock:
            states = list(self._states)
        records: list[dict] = []
        for state in states:
            offset = len(records)
            for name, start, end, parent in state.spans:
                records.append({
                    "name": name, "start": start, "end": end,
                    "parent": parent + offset if parent >= 0 else None,
                })
        return records

    def write_spans(self, path: str) -> int:
        """Write the spans as gzipped JSON lines; returns how many."""
        records = self.span_records()
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)


# -- wrappers ---------------------------------------------------------------


def _wrap_call(rec: Recorder, fn, target: "Target"):
    name, hook = target.name, target.hook
    layer = name.split(".", 1)[0]
    span = target.kind == "span"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(name, layer, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if hook is not None:
            hook(rec, result, args)
        return result

    wrapper.perfbench_wrapper = True
    return wrapper


def _wrap_generator(rec: Recorder, fn, target: "Target"):
    """Times each resumption of the generator, not the consumer's work
    between items; counts one call per generator and one item per yield."""
    name = target.name
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stat = rec.note_call(name, layer)
        inner = fn(*args, **kwargs)
        try:
            while True:
                frame = rec.enter(name, layer, False, call=False)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.exit(frame)
                stat.items += 1
                yield item
        finally:
            inner.close()

    wrapper.perfbench_wrapper = True
    return wrapper


def _on_search(rec: Recorder, result, args) -> None:
    stats = result.stats
    rec.count("optimizer.candidates", stats.candidates_scanned)
    rec.count("optimizer.privacy_computations", stats.privacy_computations)
    rec.count("privacy.row_option_hits", stats.row_option_cache_hits)
    rec.count("privacy.row_option_misses", stats.row_option_cache_misses)
    entries = sum(
        sum(session.cache_sizes().values()) for session in list(rec.sessions)
    )
    rec.peak("privacy.session_entries", entries)


def _on_homomorphism(rec: Recorder, result, args) -> None:
    if result is not None:
        rec.count("containment.homomorphism_found")


def _on_consistency(rec: Recorder, result, args) -> None:
    rec.count("consistency.queries", len(result))


def _on_session(rec: Recorder, result, args) -> None:
    rec.sessions.add(args[0])  # args[0] is the new session (self)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``name`` or ``Class.method``."""

    module: str
    attr: str
    name: str
    kind: str  # "span" | "aggregate" | "generator"
    hook: Optional[Callable] = None


TARGETS: tuple[Target, ...] = (
    Target("repro.core.optimizer", "find_optimal_abstraction",
           "optimizer.search", "span", _on_search),
    Target("repro.core.privacy", "PrivacySession.__init__",
           "privacy.session_init", "aggregate", _on_session),
    Target("repro.core.privacy", "PrivacyComputer.compute",
           "privacy.compute", "span"),
    Target("repro.core.consistency", "consistent_queries",
           "consistency.generate", "span", _on_consistency),
    Target("repro.query.containment", "is_strictly_contained_in",
           "containment.strict", "span"),
    Target("repro.query.containment", "find_homomorphism",
           "containment.homomorphism", "aggregate", _on_homomorphism),
    Target("repro.query.ast", "CQ.__init__", "ast.cq_init", "aggregate"),
    Target("repro.query.ast", "CQ.canonical", "ast.canonical", "aggregate"),
    Target("repro.abstraction.concretization",
           "ConcretizationEngine.concretize_row",
           "concretization.concretize_row", "generator"),
    Target("repro.abstraction.concretization",
           "ConcretizationEngine.row_connected",
           "concretization.row_connected", "aggregate"),
    Target("repro.query.join_graph", "is_connected",
           "join_graph.is_connected", "span"),
    Target("repro.engine.base", "EvaluationEngine.evaluate",
           "engine.evaluate", "span"),
    Target("repro.engine.naive", "NaiveEngine.derivations",
           "engine.derivations", "generator"),
    Target("repro.engine.sql", "SqlEngine.derivations",
           "engine.derivations", "generator"),
)


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Installation:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused by another object before remove().
        self._originals: dict[int, tuple[object, object]] = {}

    def patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        self._originals[id(wrapper)] = (wrapper, original)
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module first imported while the wrappers were live may have
        # bound one by name; put the original back there too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install(rec: Recorder) -> Installation:
    """Wrap every target in :data:`TARGETS` so calls record into ``rec``."""
    installation = Installation()
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            wrap = _wrap_generator if target.kind == "generator" else _wrap_call
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                installation.patch(owner, method, original,
                                   wrap(rec, original, target))
                continue
            original = getattr(module, target.attr)
            wrapper = wrap(rec, original, target)
            for other in _repro_modules():
                for key, value in list(vars(other).items()):
                    if value is original:
                        installation.patch(other, key, original, wrapper)
    except BaseException:
        installation.remove()
        raise
    return installation


def wrapped_bindings() -> list[str]:
    """Every ``repro`` module or class attribute still bound to a wrapper
    (empty after :meth:`Installation.remove`)."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if getattr(value, "perfbench_wrapper", False):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type):
                found.extend(
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in list(vars(value).items())
                    if getattr(member, "perfbench_wrapper", False)
                )
    return found


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(totals: dict) -> dict[str, float]:
    """The per-layer metrics, by name, from :meth:`Recorder.totals`."""
    calls = totals["calls"]
    seconds = totals["seconds"]
    self_s = totals["self_seconds"]
    layer_calls = totals["layer_calls"]
    layer_s = totals["layer_seconds"]
    counts = totals["counts"]
    peaks = totals["peaks"]
    searches = calls.get("containment.homomorphism", 0)
    candidates = counts.get("optimizer.candidates", 0)
    row_hits = counts.get("privacy.row_option_hits", 0)
    row_lookups = row_hits + counts.get("privacy.row_option_misses", 0)
    return {
        "containment.strict_calls": calls.get("containment.strict", 0),
        "containment.homomorphism_searches": searches,
        "containment.homomorphism_found_ratio": _ratio(
            counts.get("containment.homomorphism_found", 0), searches),
        "containment.s": layer_s.get("containment", 0.0),
        "ast.cq_built": calls.get("ast.cq_init", 0),
        "ast.canonical_s": seconds.get("ast.canonical", 0.0),
        "consistency.calls": calls.get("consistency.generate", 0),
        "consistency.queries": counts.get("consistency.queries", 0),
        "consistency.s": layer_s.get("consistency", 0.0),
        "privacy.calls": calls.get("privacy.compute", 0),
        "privacy.self_s": self_s.get("privacy.compute", 0.0),
        "privacy.row_option_hit_ratio": _ratio(row_hits, row_lookups),
        "privacy.session_entries": peaks.get("privacy.session_entries", 0),
        "optimizer.candidates": candidates,
        "optimizer.privacy_gate_ratio": _ratio(
            counts.get("optimizer.privacy_computations", 0), candidates),
        "optimizer.self_s": self_s.get("optimizer.search", 0.0),
        "concretization.rows": totals["items"].get(
            "concretization.concretize_row", 0),
        "concretization.row_connected_calls": calls.get(
            "concretization.row_connected", 0),
        "concretization.s": layer_s.get("concretization", 0.0),
        "join_graph.calls": layer_calls.get("join_graph", 0),
        "join_graph.s": layer_s.get("join_graph", 0.0),
        "engine.evaluate_calls": layer_calls.get("engine", 0),
        "engine.evaluate_s": layer_s.get("engine", 0.0),
    }
