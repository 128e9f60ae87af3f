"""Tests for CQ containment (Chandra-Merlin) and minimization."""

import itertools

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.query.containment as containment
from repro.query.ast import CQ, Atom, Constant, Variable
from repro.query.containment import (
    find_homomorphism,
    is_contained_in,
    is_equivalent,
    is_strictly_contained_in,
)
from repro.query.join_graph import is_connected, overlap_connected
from repro.query.minimize import is_minimal, minimize_cq
from repro.query.parser import parse_cq, parse_ucq

# Both queries of a pair draw variables from one pool of names, so most
# pairs share names: the case where a search that confused source
# variables with target terms would go wrong.
_NAMES = ("x", "y", "z", "w")
_CONSTANTS = (1, 2)
_ARITY = {"R": 2, "S": 1}
_TERMS = st.one_of(
    st.sampled_from(_NAMES).map(Variable),
    st.sampled_from(_CONSTANTS).map(Constant),
)


@st.composite
def _queries(draw, head_arity):
    body = [
        Atom(relation, [draw(_TERMS) for _ in range(_ARITY[relation])])
        for relation in draw(
            st.lists(st.sampled_from(sorted(_ARITY)), min_size=1, max_size=3))
    ]
    bound = sorted({t for atom in body for t in atom.terms
                    if isinstance(t, Variable)}, key=repr)
    head_terms = st.sampled_from(bound + [Constant(c) for c in _CONSTANTS])
    return CQ(Atom("Q", [draw(head_terms) for _ in range(head_arity)]), body)


@st.composite
def _query_pairs(draw):
    head_arity = draw(st.integers(min_value=0, max_value=2))
    return draw(_queries(head_arity)), draw(_queries(head_arity))


def _terms_of(query):
    return {t for atom in (query.head, *query.body) for t in atom.terms}


def _maps_onto(mapping, source, target):
    """Whether ``mapping`` sends the head onto the target head and every
    body atom onto some target body atom."""
    image = set(target.body)
    return (source.head.substitute(mapping) == target.head
            and all(atom.substitute(mapping) in image for atom in source.body))


def _brute_force_homomorphism_exists(source, target):
    variables = sorted(source.variables(), key=repr)
    images = sorted(_terms_of(target), key=repr)
    return any(
        _maps_onto(dict(zip(variables, choice)), source, target)
        for choice in itertools.product(images, repeat=len(variables))
    )


class TestHomomorphism:
    def test_identity_homomorphism(self):
        q = parse_cq("Q(x) :- R(x, y)")
        assert find_homomorphism(q, q) is not None

    def test_variable_to_constant(self):
        general = parse_cq("Q(x) :- R(x, y)")
        specific = parse_cq("Q(x) :- R(x, 'a')")
        hom = find_homomorphism(general, specific)
        assert hom is not None

    def test_no_homomorphism_to_wrong_constant(self):
        q1 = parse_cq("Q(x) :- R(x, 'a')")
        q2 = parse_cq("Q(x) :- R(x, 'b')")
        assert find_homomorphism(q1, q2) is None

    def test_head_must_map(self):
        q1 = parse_cq("Q(x) :- R(x, y)")
        q2 = parse_cq("Q(y) :- R(x, y)")
        # Q1's head variable is the first R column; Q2's is the second.
        hom = find_homomorphism(q1, q2)
        assert hom is None

    def test_mismatched_head_arity(self):
        q1 = parse_cq("Q(x, y) :- R(x, y)")
        q2 = parse_cq("Q(x) :- R(x, y)")
        assert find_homomorphism(q1, q2) is None

    def test_returned_mapping_is_usable(self):
        general = parse_cq("Q(x) :- R(x, y)")
        specific = parse_cq("Q(a) :- R(a, 'c')")
        hom = find_homomorphism(general, specific)
        assert hom is not None
        assert hom[Variable("x")] == Variable("a")

    def test_search_builds_no_query(self, monkeypatch):
        built, unified = [], []
        init, unify = CQ.__init__, containment._unify_atom

        def counting_init(self, head, body):
            built.append(head)
            init(self, head, body)

        def counting_unify(source, target, mapping):
            unified.append(unify(source, target, mapping))
            return unified[-1]

        # S(y) binds y to c, so R(x, y) fails on R(a, b) before R(a, c);
        # the triangle fails on every branch into the path.
        found = (parse_cq("Q(x) :- R(x, y), S(y)"),
                 parse_cq("Q(a) :- R(a, b), R(a, c), S(c)"))
        refuted = (parse_cq("Q(x) :- E(x, y), E(y, z), E(z, x)"),
                   parse_cq("Q(x) :- E(x, y), E(y, z)"))
        monkeypatch.setattr(CQ, "__init__", counting_init)
        monkeypatch.setattr(containment, "_unify_atom", counting_unify)
        assert find_homomorphism(*found) is not None
        assert find_homomorphism(*refuted) is None
        assert not all(unified)  # the searches backtracked
        assert built == []


class TestHomomorphismAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(_query_pairs())
    @example((parse_cq("Q(x) :- R(x, y)"), parse_cq("Q(y) :- R(y, x)")))
    @example((parse_cq("Q(x) :- R(x, y), R(y, x)"),
              parse_cq("Q(y) :- R(y, x), R(x, x)")))
    def test_verdict_and_mapping(self, pair):
        source, target = pair
        mapping = find_homomorphism(source, target)
        exists = _brute_force_homomorphism_exists(source, target)
        assert (mapping is not None) == exists
        if mapping is not None:
            # minimize_cq relies on the mapping covering the whole source.
            assert set(mapping) == source.variables()
            assert _maps_onto(mapping, source, target)


class TestContainment:
    def test_paper_qreal_contained_in_qgeneral(self, paper_queries):
        assert is_contained_in(paper_queries["real"], paper_queries["general"])
        assert not is_contained_in(paper_queries["general"], paper_queries["real"])

    def test_paper_qreal_vs_qfalse(self, paper_queries):
        assert not is_contained_in(paper_queries["real"], paper_queries["false1"])
        assert not is_contained_in(paper_queries["false1"], paper_queries["real"])

    def test_strict_containment(self, paper_queries):
        assert is_strictly_contained_in(
            paper_queries["real"], paper_queries["general"]
        )
        assert not is_strictly_contained_in(
            paper_queries["general"], paper_queries["real"]
        )

    def test_equivalence_up_to_renaming(self):
        q1 = parse_cq("Q(x) :- R(x, y), S(y)")
        q2 = parse_cq("Q(a) :- R(a, b), S(b)")
        assert is_equivalent(q1, q2)

    def test_redundant_atom_preserves_equivalence(self):
        lean = parse_cq("Q(x) :- R(x, y)")
        redundant = parse_cq("Q(x) :- R(x, y), R(x, z)")
        assert is_equivalent(lean, redundant)

    def test_more_atoms_usually_more_specific(self):
        two = parse_cq("Q(x) :- R(x, y), S(y)")
        one = parse_cq("Q(x) :- R(x, y)")
        assert is_strictly_contained_in(two, one)

    def test_self_containment_reflexive(self):
        q = parse_cq("Q(x) :- R(x, y), S(y, x)")
        assert is_contained_in(q, q)

    def test_cyclic_query(self):
        cycle = parse_cq("Q(x) :- E(x, y), E(y, z), E(z, x)")
        path = parse_cq("Q(x) :- E(x, y), E(y, z)")
        assert is_contained_in(cycle, path)
        assert not is_contained_in(path, cycle)


class TestMinimize:
    def test_redundant_atom_removed(self):
        q = parse_cq("Q(x) :- R(x, y), R(x, z)")
        core = minimize_cq(q)
        assert len(core.body) == 1
        assert is_equivalent(core, q)

    def test_minimal_query_unchanged(self):
        q = parse_cq("Q(x) :- R(x, y), S(y)")
        assert minimize_cq(q) == q
        assert is_minimal(q)

    def test_constant_atom_not_redundant(self):
        q = parse_cq("Q(x) :- R(x, y), R(x, 'a')")
        core = minimize_cq(q)
        # R(x, 'a') is more specific; R(x, y) folds into it.
        assert len(core.body) == 1
        assert core.body[0].constants()

    def test_head_binding_atom_kept(self):
        q = parse_cq("Q(x, w) :- R(x, y), S(w)")
        assert len(minimize_cq(q).body) == 2

    def test_triangle_is_minimal(self):
        q = parse_cq("Q(x) :- E(x, y), E(y, z), E(z, x)")
        assert is_minimal(q)

    def test_path_folds_into_shorter_path_when_headless(self):
        q = parse_cq("Q(x) :- E(x, y), E(y, z), E(z, w)")
        core = minimize_cq(q)
        assert is_equivalent(core, q)
        assert len(core.body) == 3  # the 3-path does not fold (x is head)


class TestJoinGraph:
    def test_connected_chain(self):
        assert is_connected(parse_cq("Q(x) :- R(x, y), S(y, z), T(z)"))

    def test_disconnected(self):
        assert not is_connected(parse_cq("Q(x) :- R(x), S(y)"))

    def test_constants_do_not_connect(self):
        # Shared constants are not join edges (Definition in Section 3.3).
        assert not is_connected(parse_cq("Q(x) :- R(x, 'a'), S('a', y)"))

    def test_single_atom_connected(self):
        assert is_connected(parse_cq("Q(x) :- R(x)"))

    def test_ucq_connected_iff_all_disjuncts(self):
        good = parse_ucq("Q(x) :- R(x, y), S(y); Q(z) :- T(z)")
        bad = parse_ucq("Q(x) :- R(x, y), S(y); Q(z) :- T(z), U(w)")
        assert is_connected(good)
        assert not is_connected(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(min_value=0, max_value=5),
                                  max_size=3), max_size=6))
    @example([])
    @example([frozenset({1})])
    @example([frozenset(), frozenset()])
    def test_overlap_connected_matches_networkx(self, sets):
        graph = nx.Graph()
        graph.add_nodes_from(range(len(sets)))
        graph.add_edges_from(
            (i, j) for i, j in itertools.combinations(range(len(sets)), 2)
            if sets[i] & sets[j]
        )
        # networkx refuses to judge the null graph; the helper, like the
        # callers it replaced, calls fewer than two sets connected.
        expected = nx.is_connected(graph) if sets else True
        assert overlap_connected(sets) == expected
