"""Pinned output of consistent-query generation.

``consistent_queries`` keeps the first generated query of each isomorphism
class, so which query represents a class depends on the order in which
skeletons and alignments are generated.  These tests compare the sorted
``repr`` of every returned query against
``fixtures/consistent_queries_pinned.json``; a generator that reorders
alignments, renames its variables, truncates differently or changes what
it generates fails them.  Connected-only generation must return the
connected part of the same output, representatives included.

The fixture is a reference capture, not derived from the code under test.
Rewrite it only for a change meant to alter the generated queries::

    PYTHONPATH=src python tests/test_consistency_pinned.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.consistency import ConsistencyConfig, consistent_queries
from repro.datasets.queries import get_query
from repro.datasets.tpch import generate_tpch
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.examples_data import Q_REAL, running_example_db
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.join_graph import is_connected
from repro.scenarios.matrix import SCALES
from repro.semirings.base import SemiringName

FIXTURE = Path(__file__).parent / "fixtures" / "consistent_queries_pinned.json"

#: The data seed of the committed smoke scenario baseline.
SMOKE_SEED = 7


def _paper_example() -> KExample:
    return build_kexample(Q_REAL, running_example_db(), n_rows=2)


def _tpch_q3_prefix(rows: int) -> KExample:
    """The first ``rows`` rows of the TPC-H Q3 K-example of the smoke cells
    (scale ``xs``, data seed 7)."""
    database = generate_tpch(scale=SCALES["xs"]["tpch_scale"], seed=SMOKE_SEED)
    example = build_kexample(get_query("TPCH-Q3"), database, n_rows=3)
    return KExample(example.rows[:rows], example.registry)


def _self_join_example() -> KExample:
    """Two ``R`` tuples per row, so every later row has two alignments."""
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
    for relation, values, annotation in (
        ("R", (1, 10), "r1"), ("R", (2, 20), "r2"), ("R", (1, 30), "r3"),
        ("R", (2, 10), "r4"), ("S", (10, 5), "s1"), ("S", (20, 5), "s2"),
    ):
        db.insert(relation, values, annotation)
    rows = [
        KExampleRow((1,), ["r1", "r3", "s1"]),
        KExampleRow((2,), ["r2", "r4", "s2"]),
        KExampleRow((1,), ["r3", "r1", "s1"]),
    ]
    return KExample(rows, db.registry)


def _alignment_order_example() -> KExample:
    """Two alignments yield isomorphic queries whose head variables
    differ (``x1`` and ``x3``); the first one generated represents both."""
    db = KDatabase(Schema.from_dict({"R": ["a", "b"]}))
    for values, annotation in (
        ((1, 2), "r0"), ((1, 3), "r1"), ((3, 1), "r2"), ((3, 2), "r3"),
    ):
        db.insert("R", values, annotation)
    rows = [
        KExampleRow((2,), ["r0", "r3"]),
        KExampleRow((3,), ["r1", "r2"]),
        KExampleRow((1,), ["r0", "r2"]),
    ]
    return KExample(rows, db.registry)


#: name -> (example builder, consistency config).
CASES = {
    "paper": (_paper_example, ConsistencyConfig()),
    "tpch_q3_2rows": (lambda: _tpch_q3_prefix(2), ConsistencyConfig()),
    "tpch_q3_3rows": (lambda: _tpch_q3_prefix(3), ConsistencyConfig()),
    "paper_why_reuse2": (
        _paper_example,
        ConsistencyConfig(semiring=SemiringName.WHY, max_tuple_reuse=2),
    ),
    # Five constant classes against a cap of two: the flip fallback.
    "tpch_q3_2rows_flip_cap": (
        lambda: _tpch_q3_prefix(2), ConsistencyConfig(max_flip_classes=2),
    ),
    # Four alignment combinations against a cap of two.
    "self_join_combo_cap": (
        _self_join_example, ConsistencyConfig(max_alignment_combos=2),
    ),
    "self_join_alignment_order": (
        _alignment_order_example, ConsistencyConfig(),
    ),
}


def generated_reprs(name: str) -> list[str]:
    build, config = CASES[name]
    return sorted(repr(query) for query in consistent_queries(build(), config))


@pytest.fixture(scope="module")
def pinned() -> dict:
    with FIXTURE.open() as handle:
        return json.load(handle)


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_generation_matches_pinned_output(name, pinned):
    assert generated_reprs(name) == pinned[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_connected_only_is_the_connected_part(name):
    build, config = CASES[name]
    example = build()
    connected = consistent_queries(example, config, connected_only=True)
    assert sorted(map(repr, connected)) == sorted(
        repr(query) for query in consistent_queries(example, config)
        if is_connected(query)
    )


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: generated_reprs(name) for name in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
