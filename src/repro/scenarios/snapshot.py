"""Scenario benchmark snapshots (``BENCH_*.json``): schema, diffing.

A snapshot is one generation of the scenario matrix: per-cell wall time,
effort counters, cache provenance, and — the part that must never move
without a code change meaning it — a **result hash** over exactly the
deterministic fields of the outcome (found / privacy / LOI /
edges_used / variable_targets).  Timing and execution-provenance fields
(seconds, cache_hit, executor, ...) are declared volatile: they are the
perf *trajectory*, expected to move run to run, and are stripped by
:func:`normalize` before any identity comparison.

:func:`diff` compares two snapshots cell by cell:

* **result-hash drift** — same cell, same inputs (``content_hash``),
  different ``result_hash``.  This is the fatal signal: the optimizer
  changed its answer.
* **changed inputs** — same cell id but a different ``content_hash``
  (the matrix, generators, or hash schema changed); reported, never
  conflated with drift.
* **throughput regressions/speedups** — per-cell search seconds moved
  beyond a tolerance; informational by default, fatal only when the
  caller sets ``max_regression``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import ScenarioError
from repro.store.hashing import canonical_json, hash_text

#: Snapshot schema identifier (bump on layout changes).
SNAPSHOT_SCHEMA = "repro-scenarios-v1"

#: Keys whose values legitimately differ between two runs of the same
#: code on the same inputs: timing, and where/how the result was served.
VOLATILE_FIELDS = frozenset({
    "seconds", "wall_seconds", "job_seconds", "generated_at",
    "cache_hit", "cache_hits", "session_reused", "sessions_reused",
    "executor", "engine", "workers", "trace",
})

#: The payload fields a cell's ``result_hash`` digests — exactly the
#: machine-independent outcome of a candidate-capped search.
RESULT_HASH_FIELDS = (
    "found", "privacy", "loi", "edges_used", "variable_targets",
)


def result_hash(payload: dict) -> str:
    """Hex digest of the deterministic slice of one result payload."""
    loi = payload.get("loi")
    if isinstance(loi, float) and not math.isfinite(loi):
        loi = None
    slice_ = {name: payload.get(name) for name in RESULT_HASH_FIELDS}
    slice_["loi"] = loi
    return hash_text(canonical_json(slice_))


def normalize(snapshot: dict):
    """``snapshot`` with every volatile field removed, recursively.

    Two runs of the same matrix+seed on the same code must normalize to
    equal values — this is the identity the acceptance tests compare.
    """
    if isinstance(snapshot, dict):
        return {
            key: normalize(value)
            for key, value in snapshot.items()
            if key not in VOLATILE_FIELDS
        }
    if isinstance(snapshot, list):
        return [normalize(value) for value in snapshot]
    return snapshot


def save(path: str, snapshot: dict) -> None:
    """Write a snapshot as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str) -> dict:
    """Read a snapshot, mapping failures to :class:`ScenarioError`."""
    try:
        with open(path, "rb") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read snapshot {path!r}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(
            f"malformed snapshot JSON in {path!r}: {exc}"
        ) from None
    if not isinstance(data, dict) or "cells" not in data:
        raise ScenarioError(
            f"{path!r} is not a scenario snapshot (no 'cells' key)"
        )
    schema = data.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ScenarioError(
            f"{path!r} has snapshot schema {schema!r}; "
            f"this code reads {SNAPSHOT_SCHEMA!r}"
        )
    return data


@dataclass
class SnapshotDiff:
    """The outcome of comparing an old snapshot against a new one."""

    drifted: list[dict] = field(default_factory=list)
    changed_inputs: list[str] = field(default_factory=list)
    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)
    regressions: list[dict] = field(default_factory=list)
    speedups: list[dict] = field(default_factory=list)
    old_job_seconds: float = 0.0
    new_job_seconds: float = 0.0
    compared: int = 0
    #: Ratio above which a per-cell slowdown is flagged (informational).
    tolerance: float = 1.5

    @property
    def has_drift(self) -> bool:
        return bool(self.drifted)

    def lines(self) -> list[str]:
        """Human-readable report, one finding per line."""
        out = [
            f"compared {self.compared} cell"
            f"{'s' if self.compared != 1 else ''}: "
            f"{self.old_job_seconds:.2f}s -> {self.new_job_seconds:.2f}s "
            f"of search"
        ]
        for entry in self.drifted:
            out.append(
                f"DRIFT {entry['cell']}: result hash "
                f"{entry['old'][:12]} -> {entry['new'][:12]}"
            )
        for cell_id in self.changed_inputs:
            out.append(f"CHANGED-INPUTS {cell_id}: content hash differs "
                       f"(matrix or generators moved; not comparable)")
        for cell_id in self.only_old:
            out.append(f"REMOVED {cell_id}: only in the old snapshot")
        for cell_id in self.only_new:
            out.append(f"ADDED {cell_id}: only in the new snapshot")
        for entry in self.regressions:
            out.append(
                f"SLOWER {entry['cell']}: {entry['old_seconds']:.3f}s -> "
                f"{entry['new_seconds']:.3f}s ({entry['ratio']:.2f}x)"
            )
        for entry in self.speedups:
            out.append(
                f"FASTER {entry['cell']}: {entry['old_seconds']:.3f}s -> "
                f"{entry['new_seconds']:.3f}s ({entry['ratio']:.2f}x)"
            )
        if not self.has_drift:
            out.append("result hashes: OK (no drift)")
        return out


def diff(old: dict, new: dict, tolerance: float = 1.5) -> SnapshotDiff:
    """Compare two snapshots cell by cell (see module docstring)."""
    report = SnapshotDiff(tolerance=tolerance)
    old_cells = {c["cell"]: c for c in old.get("cells", [])}
    new_cells = {c["cell"]: c for c in new.get("cells", [])}
    report.only_old = sorted(set(old_cells) - set(new_cells))
    report.only_new = sorted(set(new_cells) - set(old_cells))
    for cell_id in (c["cell"] for c in old.get("cells", [])
                    if c["cell"] in new_cells):
        a, b = old_cells[cell_id], new_cells[cell_id]
        if a.get("content_hash") != b.get("content_hash"):
            report.changed_inputs.append(cell_id)
            continue
        report.compared += 1
        if a.get("result_hash") != b.get("result_hash"):
            report.drifted.append({
                "cell": cell_id,
                "old": a.get("result_hash") or "<none>",
                "new": b.get("result_hash") or "<none>",
            })
        old_s = float(a.get("seconds") or 0.0)
        new_s = float(b.get("seconds") or 0.0)
        report.old_job_seconds += old_s
        report.new_job_seconds += new_s
        # Sub-5ms cells are all noise; don't rate their ratios.
        if old_s >= 0.005 and new_s >= 0.005:
            ratio = new_s / old_s
            entry = {"cell": cell_id, "old_seconds": old_s,
                     "new_seconds": new_s, "ratio": ratio}
            if ratio > tolerance:
                report.regressions.append(entry)
            elif ratio < 1.0 / tolerance:
                report.speedups.append(entry)
    return report
