"""Tests for the query AST, parser, and canonicalization."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query.ast import CQ, UCQ, Atom, Constant, Variable
from repro.query.parser import parse_cq, parse_ucq


class TestTerms:
    def test_variable_equality(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert Variable("x") != Constant("x")

    def test_constant_values(self):
        assert Constant(1) != Constant("1")
        assert Constant("Dance").value == "Dance"


class TestAtom:
    def test_fields(self):
        atom = Atom("R", [Variable("x"), Constant(5)])
        assert atom.relation == "R"
        assert atom.arity == 2
        assert atom.variables() == frozenset({Variable("x")})
        assert atom.constants() == frozenset({Constant(5)})

    def test_substitute(self):
        atom = Atom("R", [Variable("x"), Variable("y")])
        sub = atom.substitute({Variable("x"): Constant(1)})
        assert sub == Atom("R", [Constant(1), Variable("y")])

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            Atom("R", ["x"])  # type: ignore[list-item]


class TestCQ:
    def test_head_variable_must_be_bound(self):
        with pytest.raises(ParseError):
            CQ(Atom("Q", [Variable("z")]), [Atom("R", [Variable("x")])])

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            CQ(Atom("Q", [Constant(1)]), [])

    def test_constant_head_is_fine(self):
        cq = CQ(Atom("Q", [Constant(1)]), [Atom("R", [Variable("x")])])
        assert cq.head.terms == (Constant(1),)

    def test_equality_ignores_body_order(self):
        a1 = Atom("R", [Variable("x")])
        a2 = Atom("S", [Variable("x")])
        q1 = CQ(Atom("Q", [Variable("x")]), [a1, a2])
        q2 = CQ(Atom("Q", [Variable("x")]), [a2, a1])
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_num_joins_counts_join_graph_edges(self):
        cq = parse_cq("Q(x) :- R(x, y), S(y, z), T(w)")
        assert cq.num_joins() == 1  # only R-S share a variable; T isolated

    def test_relations_sorted_with_repeats(self):
        cq = parse_cq("Q(x) :- S(x), R(x), R(x)")
        assert cq.relations() == ("R", "R", "S")


class TestCanonical:
    def test_isomorphic_queries_share_canonical(self):
        q1 = parse_cq("Q(x) :- R(x, y), S(y, 'c')")
        q2 = parse_cq("Q(u) :- R(u, v), S(v, 'c')")
        assert q1.canonical() == q2.canonical()

    def test_body_order_is_irrelevant(self):
        q1 = parse_cq("Q(x) :- R(x, y), S(y)")
        q2 = parse_cq("Q(x) :- S(y), R(x, y)")
        assert q1.canonical() == q2.canonical()

    def test_different_join_structure_distinguished(self):
        q1 = parse_cq("Q(x) :- R(x, y), S(y)")
        q2 = parse_cq("Q(x) :- R(x, y), S(x)")
        assert q1.canonical() != q2.canonical()

    def test_different_constants_distinguished(self):
        q1 = parse_cq("Q(x) :- R(x, 'a')")
        q2 = parse_cq("Q(x) :- R(x, 'b')")
        assert q1.canonical() != q2.canonical()

    def test_self_join_symmetry(self):
        q1 = parse_cq("Q(x) :- R(x, y), R(x, z), S(y, 'c')")
        q2 = parse_cq("Q(x) :- R(x, z), R(x, y), S(z, 'c')")
        assert q1.canonical() == q2.canonical()

    @given(st.randoms(use_true_random=False))
    def test_random_renaming_preserves_canonical(self, rng: random.Random):
        query = parse_cq(
            "Q(a) :- Person(a, b, c), Hobbies(a, 'Dance', d), Interests(a, e, f)"
        )
        names = [v.name for v in query.variables()]
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping = {
            Variable(old): Variable("fresh_" + new)
            for old, new in zip(names, shuffled)
        }
        renamed = query.substitute(mapping)
        assert renamed.canonical() == query.canonical()


class TestUCQ:
    def test_single_cq(self):
        ucq = parse_ucq("Q(x) :- R(x)")
        assert ucq.is_single_cq()

    def test_union_parsing(self):
        ucq = parse_ucq("Q(x) :- R(x); Q(y) :- S(y)")
        assert len(ucq.disjuncts) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_ucq("Q(x) :- R(x); Q(y, z) :- S(y, z)")

    def test_equality_ignores_disjunct_order(self):
        u1 = parse_ucq("Q(x) :- R(x); Q(y) :- S(y)")
        u2 = parse_ucq("Q(y) :- S(y); Q(x) :- R(x)")
        assert u1 == u2


class TestParser:
    def test_round_trip_structure(self):
        cq = parse_cq("Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s)")
        assert cq.head == Atom("Q", [Variable("id")])
        assert len(cq.body) == 2
        assert Constant("Dance") in cq.body[1].constants()

    def test_numeric_constants(self):
        cq = parse_cq("Q(x) :- R(x, 42, 1.5)")
        constants = {c.value for c in cq.body[0].constants()}
        assert constants == {42, 1.5}

    def test_negative_number(self):
        cq = parse_cq("Q(x) :- R(x, -3)")
        assert Constant(-3) in cq.body[0].constants()

    def test_double_quoted_strings(self):
        cq = parse_cq('Q(x) :- R(x, "hello world")')
        assert Constant("hello world") in cq.body[0].constants()

    def test_whitespace_insensitive(self):
        assert parse_cq("Q(x):-R(x,y)") == parse_cq("Q( x ) :- R( x , y )")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_cq("Q(x) :- R(x) @@@")

    def test_missing_body_rejected(self):
        with pytest.raises(ParseError):
            parse_cq("Q(x)")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_cq("Q(x :- R(x)")

    def test_trailing_disjunct_rejected(self):
        with pytest.raises(ParseError):
            parse_ucq("Q(x) :- R(x);")
