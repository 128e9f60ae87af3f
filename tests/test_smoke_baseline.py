"""The committed smoke baseline's hashes, on whichever interpreter runs
the suite.

``benchmarks/BENCH_scenarios.json`` pins each smoke cell's content hash
(its inputs) and result hash (its answer, LOI bits included).  Float sums
are the fragile part: from Python 3.12 on, the built-in ``sum()`` of
floats is compensated (``sum([0.1] * 10)`` is ``1.0`` there and
``0.9999999999999999`` before), so a ``+=`` loop rewritten as ``sum()``
keeps every hash on one interpreter and moves LOI bits on another.  This
check runs the 12-cell preset in process on every interpreter of the
test matrix.

Run it without pytest as ``PYTHONPATH=src python
tests/test_smoke_baseline.py``: it prints each cell and exits 1 on any
mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenarios import SMOKE_MATRIX, run_matrix

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_scenarios.json"


def mismatches() -> tuple[list[str], int]:
    """Each cell whose hashes differ from the baseline's, and the number
    of cells compared."""
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    expected = {cell["cell"]: cell for cell in baseline["cells"]}
    snapshot = run_matrix(SMOKE_MATRIX, seed=baseline["seed"], workers=1)
    cells = snapshot["cells"]
    errors = []
    if sorted(cell["cell"] for cell in cells) != sorted(expected):
        errors.append("the preset's cells differ from the baseline's")
    for cell in cells:
        pinned = expected.get(cell["cell"])
        if pinned is None:
            continue
        for field in ("content_hash", "result_hash"):
            if cell[field] != pinned[field]:
                errors.append(f"{cell['cell']}: {field} {cell[field][:12]} "
                              f"!= baseline {pinned[field][:12]}")
    return errors, len(cells)


def test_smoke_cells_match_the_committed_baseline():
    errors, compared = mismatches()
    assert compared == 12
    assert errors == []


if __name__ == "__main__":
    import platform
    import sys

    errors, compared = mismatches()
    for line in errors:
        print(line)
    print(f"Python {platform.python_version()}: {compared} cells, "
          f"{len(errors)} mismatches")
    sys.exit(1 if errors else 0)
