"""Tests for consistent-query generation (the adapted FindConsistentQuery)."""

import pytest

from repro.core import consistency
from repro.core.consistency import ConsistencyConfig, consistent_queries
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.containment import is_equivalent
from repro.query.join_graph import is_connected
from repro.semirings.base import SemiringName
from repro.examples_data import Q_FALSE_1, Q_REAL


class TestRunningExample:
    def test_real_example_yields_qreal(self, paper_example):
        queries = consistent_queries(paper_example)
        assert any(is_equivalent(q, Q_REAL) for q in queries)

    def test_real_example_is_unambiguous(self, paper_example):
        """Only Q_real is CIM for the raw example: all generated connected
        queries contain it."""
        queries = [q for q in consistent_queries(paper_example) if is_connected(q)]
        assert queries
        from repro.query.containment import is_contained_in

        assert all(is_contained_in(Q_REAL, q) for q in queries)

    def test_concretization_of_exfalse1_yields_qfalse1(self, paper_db):
        """The K-example of Figure 2b admits Q_false_1."""
        rows = [
            KExampleRow((1,), ["p1", "h4", "i1"]),
            KExampleRow((2,), ["p2", "h5", "i2"]),
        ]
        example = KExample(rows, paper_db.registry)
        queries = consistent_queries(example)
        assert any(is_equivalent(q, Q_FALSE_1) for q in queries)


class TestAlignments:
    @pytest.fixture
    def db(self):
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
        db.insert("R", (1, 10), "r1")
        db.insert("R", (2, 20), "r2")
        db.insert("R", (1, 30), "r3")
        db.insert("S", (10, 5), "s1")
        db.insert("S", (20, 5), "s2")
        return db

    def test_join_recovered(self, db):
        """Rows joined on R.b = S.x produce a query with that join."""
        example = KExample(
            [
                KExampleRow((1,), ["r1", "s1"]),
                KExampleRow((2,), ["r2", "s2"]),
            ],
            db.registry,
        )
        queries = consistent_queries(example)
        joined = [q for q in queries if is_connected(q) and len(q.body) == 2]
        assert joined
        # The most specific query keeps the S.y constant 5.
        assert any(q.constants() for q in joined)

    def test_mismatched_relations_give_nothing(self, db):
        example = KExample(
            [
                KExampleRow((1,), ["r1", "s1"]),
                KExampleRow((2,), ["r2", "r3"]),
            ],
            db.registry,
        )
        assert consistent_queries(example) == frozenset()

    def test_output_not_derivable_gives_nothing(self, db):
        example = KExample(
            [
                KExampleRow((777,), ["r1", "s1"]),
                KExampleRow((888,), ["r2", "s2"]),
            ],
            db.registry,
        )
        assert consistent_queries(example) == frozenset()

    def test_constant_output_uses_head_constant(self, db):
        example = KExample(
            [
                KExampleRow((777,), ["r1", "s1"]),
                KExampleRow((777,), ["r2", "s2"]),
            ],
            db.registry,
        )
        queries = consistent_queries(example)
        assert queries
        assert all(
            q.head.terms[0].value == 777 for q in queries  # type: ignore[union-attr]
        )

    def test_self_join_alignments(self, db):
        """Two R atoms per row: both alignments are explored."""
        example = KExample(
            [
                KExampleRow((1,), ["r1", "r3"]),
                KExampleRow((1,), ["r1", "r3"]),
            ],
            db.registry,
        )
        queries = consistent_queries(example)
        assert queries
        assert all(sorted(a.relation for a in q.body) == ["R", "R"] for q in queries)

    def test_single_row_example(self, db):
        example = KExample([KExampleRow((1,), ["r1"])], db.registry)
        queries = consistent_queries(example)
        assert queries
        # The fully-ground query R(1, 10) with head 1 is among them.
        assert any(not q.variables() for q in queries)


class TestFlips:
    @pytest.fixture
    def db(self):
        db = KDatabase(Schema.from_dict({"R": ["a"], "S": ["b"]}))
        db.insert("R", (7,), "r1")
        db.insert("R", (8,), "r2")
        db.insert("S", (7,), "s1")
        db.insert("S", (8,), "s2")
        return db

    def test_flip_connects_constant_join(self, db):
        """R(7), S(7) / R(8), S(8): the value-equal columns merge into a
        shared variable, producing a *connected* consistent query."""
        example = KExample(
            [
                KExampleRow((7,), ["r1", "s1"]),
                KExampleRow((8,), ["r2", "s2"]),
            ],
            db.registry,
        )
        queries = consistent_queries(example)
        connected = [q for q in queries if is_connected(q)]
        assert connected
        assert any(len(q.body) == 2 for q in connected)

    def test_single_row_flip_connects(self, db):
        """Single row R(7), S(7): the base query keeps both constants and is
        disconnected; flipping the constant class to a shared variable
        yields the connected Q :- R(x), S(x)."""
        example = KExample([KExampleRow((7,), ["r1", "s1"])], db.registry)
        queries = consistent_queries(example)
        base = [q for q in queries if not q.variables()]
        flipped = [q for q in queries if is_connected(q) and q.variables()]
        assert base, "the fully-ground base query must be generated"
        assert any(
            len(q.body) == 2 and len(q.variables()) == 1 for q in flipped
        ), "the constant-flip variant must connect the query"

    def test_require_variable_drops_ground_queries(self, db):
        example = KExample([KExampleRow((7,), ["r1"])], db.registry)
        with_ground = consistent_queries(example)
        without = consistent_queries(
            example, ConsistencyConfig(require_variable=True)
        )
        assert any(not q.variables() for q in with_ground)
        assert all(q.variables() for q in without)
        assert without < with_ground


class TestSemiringAdjustments:
    @pytest.fixture
    def db(self):
        db = KDatabase(Schema.from_dict({"E": ["u", "v"]}))
        db.insert("E", (1, 1), "e11")
        db.insert("E", (2, 2), "e22")
        return db

    def test_exponent_dropping_allows_reuse(self, db):
        """In Why(X) a witness {e11} can come from a 2-atom self-join; with
        tuple reuse enabled, 2-atom queries appear."""
        example = KExample(
            [
                KExampleRow((1,), ["e11"]),
                KExampleRow((2,), ["e22"]),
            ],
            db.registry,
        )
        strict = consistent_queries(
            example, ConsistencyConfig(semiring=SemiringName.NX)
        )
        relaxed = consistent_queries(
            example,
            ConsistencyConfig(semiring=SemiringName.WHY, max_tuple_reuse=2),
        )
        assert all(len(q.body) == 1 for q in strict)
        assert any(len(q.body) == 2 for q in relaxed)
        assert strict <= relaxed

    def test_bx_behaves_like_nx(self, paper_example):
        nx_queries = consistent_queries(
            paper_example, ConsistencyConfig(semiring=SemiringName.NX)
        )
        bx_queries = consistent_queries(
            paper_example, ConsistencyConfig(semiring=SemiringName.BX)
        )
        assert nx_queries == bx_queries

    def test_exponent_semiring_surjective_alignment(self, db):
        """Why(X) alignment may map two slots onto one tuple of a later row."""
        example = KExample(
            [
                KExampleRow((1,), ["e11", "e11"]),  # exponent 2 in row 1
                KExampleRow((2,), ["e22"]),
            ],
            db.registry,
        )
        strict = consistent_queries(
            example, ConsistencyConfig(semiring=SemiringName.NX)
        )
        relaxed = consistent_queries(
            example, ConsistencyConfig(semiring=SemiringName.WHY)
        )
        assert strict == frozenset()  # bijection impossible: 2 slots, 1 tuple
        assert relaxed  # surjection allowed


class TestDeduplication:
    def test_queries_deduplicated_up_to_isomorphism(self, paper_example):
        queries = consistent_queries(paper_example)
        canons = [q.canonical() for q in queries]
        assert len(canons) == len(set(canons))


class TestCapCounters:
    @pytest.fixture
    def db(self):
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
        db.insert("R", (1, 10), "r1")
        db.insert("R", (1, 30), "r3")
        db.insert("S", (10, 5), "s1")
        return db

    def test_alignment_combo_truncation_counted(self, db, monkeypatch):
        """Two R tuples in the second row: two alignments.  A budget of
        two returns; a budget of one aborts before building any layout."""
        example = KExample(
            [
                KExampleRow((1,), ["r1", "r3"]),
                KExampleRow((1,), ["r1", "r3"]),
            ],
            db.registry,
        )
        monkeypatch.setattr(consistency, "MAX_ALIGNMENT_COMBOS", 2)
        assert consistent_queries(example)
        layouts = []

        def record(*args):
            layouts.append(args)
            return iter(())

        monkeypatch.setattr(consistency, "_add_recipes", record)
        monkeypatch.setattr(consistency, "MAX_ALIGNMENT_COMBOS", 1)
        with pytest.raises(OptimizationError, match="MAX_ALIGNMENT_COMBOS"):
            consistent_queries(example)
        assert layouts == []


class TestAlignmentBudget:
    """The unpatched budget at the size where it binds."""

    def test_eight_tuples_per_row_abort(self, self_join_rows):
        """8! = 40,320 alignment combinations."""
        example = self_join_rows(8)
        for minimal_only in (False, True):
            with pytest.raises(OptimizationError, match="40320 alignment"):
                consistent_queries(example, minimal_only=minimal_only)

    def test_seven_tuples_per_row_return(self, self_join_rows):
        """7! = 5,040 alignment combinations."""
        (query,) = consistent_queries(self_join_rows(7))
        assert len(query.body) == 7
