"""Tests for concretization counting, enumeration, and connectivity."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abstraction.builders import balanced_tree, tree_from_categories
from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.function import AbstractionFunction
from repro.core.loi import loss_of_information
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.provenance.kexample import KExampleRow
from repro.query.join_graph import overlap_connected


@pytest.fixture
def engine(paper_tree, paper_db):
    return ConcretizationEngine(paper_tree, paper_db.registry)


def _abstract(tree, example, targets):
    return AbstractionFunction.uniform(tree, example, targets).apply(example)


class TestCounting:
    def test_identity_has_one_concretization(self, engine, paper_tree, paper_example):
        abstracted = _abstract(paper_tree, paper_example, {})
        assert engine.count(abstracted) == 1

    def test_paper_a1_count_is_15(self, engine, paper_tree, paper_example):
        """Example 3.15: |C(Ex_abs1)| = 5 * 3 = 15."""
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        assert engine.count(abstracted) == 15

    def test_paper_a2_count_is_20(self, engine, paper_tree, paper_example):
        """Example 3.15: |C(Ex_abs2)| = 5 * 4 = 20."""
        abstracted = _abstract(
            paper_tree, paper_example, {"i1": "WikiLeaks", "i2": "Facebook"}
        )
        assert engine.count(abstracted) == 20

    def test_paper_a3_count_is_4(self, engine, paper_tree, paper_example):
        """Figure 6: C(Ex_abs3) has 4 concretizations."""
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        assert engine.count(abstracted) == 4

    def test_count_matches_enumeration(self, engine, paper_tree, paper_example):
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        enumerated = list(engine.concretizations(abstracted))
        assert len(enumerated) == engine.count(abstracted)

    def test_root_abstraction_upper_bound(self, engine, paper_tree, paper_example):
        """Proposition 3.5(2): |C| <= |L_T|^n, tight at the root."""
        targets = {v: "*" for v in ("h1", "h2", "i1", "i2")}
        abstracted = _abstract(paper_tree, paper_example, targets)
        assert engine.count(abstracted) == len(paper_tree.leaves()) ** 4


class TestEnumeration:
    def test_paper_figure6_set(self, engine, paper_tree, paper_example):
        """The concretization set of Ex_abs3 is exactly Figure 6."""
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        first_row_monomials = {
            tuple(ex.rows[0].occurrences)
            for ex in engine.concretizations(abstracted)
        }
        assert first_row_monomials == {
            ("h1", "h6", "p1"),
            ("h1", "i1", "p1"),
            ("h1", "i4", "p1"),
            ("h1", "i6", "p1"),
        }

    def test_original_example_is_a_concretization(
        self, engine, paper_tree, paper_example
    ):
        """Ex in C(A_T(Ex)) always (Definition 3.3)."""
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        assert paper_example in list(engine.concretizations(abstracted))

    def test_connected_only_filters(self, engine, paper_tree, paper_example):
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        connected = list(engine.concretizations(abstracted, connected_only=True))
        # Figure 6 / Example 4.2: c1 and c4 are disconnected.
        assert len(connected) == 2
        monomials = {tuple(ex.rows[0].occurrences) for ex in connected}
        assert monomials == {("h1", "i1", "p1"), ("h1", "i4", "p1")}


class TestConnectivity:
    def test_real_rows_connected(self, engine, paper_example):
        for row in paper_example.rows:
            assert engine.row_connected(row)

    def test_cache_counts(self, paper_tree, paper_db, paper_example):
        """The memo holds one value index per label: the row's three
        distinct labels miss on the first call and hit on the second."""
        engine = ConcretizationEngine(paper_tree, paper_db.registry)
        row = paper_example.rows[0]
        assert len(set(row.occurrences)) == 3
        engine.row_connected(row)
        engine.row_connected(row)
        assert engine.cache_hits == 3
        assert engine.cache_misses == 3
        assert engine.connectivity_cache_size == 3

    def test_cache_disabled(self, paper_tree, paper_db, paper_example):
        engine = ConcretizationEngine(
            paper_tree, paper_db.registry, use_connectivity_cache=False
        )
        row = paper_example.rows[0]
        engine.row_connected(row)
        engine.row_connected(row)
        assert engine.cache_hits == 0


def _database(values):
    db = KDatabase(Schema.from_dict({"T": ["x", "y"]}))
    for i, pair in enumerate(values):
        db.insert("T", pair, f"t{i}")
    return db


@st.composite
def _random_case(draw):
    """A random registry, a random tree over it, and rows of 1-4
    occurrences drawn from all of the tree's labels (so labels repeat and
    concrete leaves mix with abstract categories)."""
    values = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=2, max_size=8,
    ))
    db = _database(values)
    tree = balanced_tree(
        [f"t{i}" for i in range(len(values))],
        height=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)),
    )
    labels = st.sampled_from(sorted(tree.labels()))
    rows = draw(st.lists(
        st.lists(labels, min_size=1, max_size=4), min_size=1, max_size=4
    ))
    return db.registry, tree, [KExampleRow((0,), row) for row in rows]


def _pinned_case():
    """``t4`` shares no value with any tuple.  In ``(A, t0, t2)`` the
    innermost occurrence ``A`` (most choices) comes first, and the fixed
    part ``t0``, ``t2`` is disconnected; only ``t3`` bridges it.  In
    ``(A, B)`` the picks ``t2``, ``t5`` of ``B`` keep ``t3``, ``t0`` of
    ``A``, the reverse of product order."""
    db = _database([(0, 1), (1, 2), (5, 6), (1, 5), (8, 9), (0, 7)])
    tree = tree_from_categories(
        {"A": ["t0", "t1", "t3"], "B": ["t2", "t5", "t4"]}
    )
    rows = [("A",), ("B", "B"), ("A", "t0", "t2"), ("A", "B"), ("B", "t1"),
            ("A", "B", "B", "t0"), ("t4",), ("t4", "t4")]
    return db.registry, tree, [KExampleRow((0,), row) for row in rows]


class TestConnectedOnlyEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(case=_random_case(), use_cache=st.booleans())
    @example(case=_pinned_case(), use_cache=True)
    @example(case=_pinned_case(), use_cache=False)
    def test_matches_filtering_the_full_product(self, case, use_cache):
        """Connected-only enumeration yields exactly the rows of the full
        product whose tuples' value sets overlap-connect, in order."""
        registry, tree, rows = case
        engine = ConcretizationEngine(
            tree, registry, use_connectivity_cache=use_cache
        )
        for row in rows:
            expected = [
                option for option in engine.concretize_row(row)
                if overlap_connected([
                    registry.resolve(label).value_set()
                    for label in option.occurrences
                ])
            ]
            assert list(engine.concretize_row(row, connected_only=True)) == (
                expected
            )
        if not use_cache:
            assert engine.connectivity_cache_size == engine.cache_hits == 0


class TestCountingProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        h1_level=st.integers(min_value=0, max_value=3),
        i1_level=st.integers(min_value=0, max_value=2),
    )
    def test_product_formula(self, paper_tree, paper_db, paper_example, h1_level, i1_level):
        """Proposition 3.5(1): |C| is the product of subtree leaf counts,
        and uniform LOI is its log."""
        engine = ConcretizationEngine(paper_tree, paper_db.registry)
        targets = {}
        h1_chain = paper_tree.ancestors("h1")
        i1_chain = paper_tree.ancestors("i1")
        if h1_level:
            targets["h1"] = h1_chain[h1_level]
        if i1_level:
            targets["i1"] = i1_chain[i1_level]
        abstracted = _abstract(paper_tree, paper_example, targets)
        expected = 1
        for label in targets.values():
            expected *= paper_tree.leaf_count(label)
        assert engine.count(abstracted) == expected
        assert math.isclose(
            loss_of_information(abstracted, paper_tree), math.log(expected)
        )
