"""Cross-cutting property-based tests on randomly generated instances.

Hypothesis generates small random databases, queries, and trees; the
properties below are the paper's structural invariants:

* the original K-example is always a concretization of its abstraction
  (Definition 3.3);
* |C| obeys the product formula and its bounds (Proposition 3.5);
* uniform LOI is ln |C| and is monotone under coarser abstraction;
* privacy is invariant under the Algorithm 1 optimization switches;
* minimal-only consistent-query generation keeps the CIM queries of the
  connected part of the full generation;
* containment is a preorder compatible with canonicalization.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstraction.builders import balanced_tree
from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.function import AbstractionFunction
from repro.core.consistency import ConsistencyConfig, consistent_queries
from repro.core.loi import loss_of_information
from repro.core.privacy import (
    PrivacyComputer, PrivacyConfig, _minimal_queries,
)
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.ast import CQ, Atom, Variable
from repro.query.containment import is_contained_in, is_equivalent
from repro.query.join_graph import is_connected
from repro.query.parser import parse_cq
from repro.semirings.base import SemiringName


# -- instance generators -------------------------------------------------------

@st.composite
def small_databases(draw):
    """A 2-relation database with values from a small shared pool."""
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
    n_r = draw(st.integers(min_value=2, max_value=5))
    n_s = draw(st.integers(min_value=2, max_value=5))
    values = st.integers(min_value=0, max_value=6)
    for i in range(n_r):
        db.insert("R", (draw(values), draw(values)), f"r{i}")
    for i in range(n_s):
        db.insert("S", (draw(values), draw(values)), f"s{i}")
    return db


@st.composite
def database_with_example(draw):
    db = draw(small_databases())
    annotations = sorted(db.annotations())
    r_anns = [a for a in annotations if a.startswith("r")]
    s_anns = [a for a in annotations if a.startswith("s")]
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=2))):
        r = draw(st.sampled_from(r_anns))
        s = draw(st.sampled_from(s_anns))
        output = (db.resolve(r).values[0],)
        rows.append(KExampleRow(output, [r, s]))
    example = KExample(rows, db.registry)
    height = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=5))
    tree = balanced_tree(annotations, height=height, seed=seed)
    return db, example, tree


@st.composite
def abstractions(draw):
    db, example, tree = draw(database_with_example())
    targets = {}
    for var in sorted(example.variables()):
        chain = tree.ancestors(var)
        level = draw(st.integers(min_value=0, max_value=len(chain) - 1))
        if level:
            targets[var] = chain[level]
    function = AbstractionFunction.uniform(tree, example, targets)
    return db, example, tree, function


@st.composite
def consistency_instances(draw):
    """A K-example whose rows share one relation multiset, with a config.

    Values come from {0, 1, 2}, so tuples share values and positions often
    hold one value down every row (constant classes); a repeated relation
    is a self-join, and a second output column may be a constant.  The
    config picks NX or WHY with tuple reuse, and ``require_variable`` on or
    off.
    """
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
    value = st.integers(min_value=0, max_value=2)
    pool: dict[str, list[str]] = {"R": [], "S": []}
    for relation, annotations in pool.items():
        for i in range(draw(st.integers(min_value=1, max_value=3))):
            annotation = f"{relation.lower()}{i}"
            db.insert(relation, (draw(value), draw(value)), annotation)
            annotations.append(annotation)
    shape = draw(st.lists(st.sampled_from("RS"), min_size=1, max_size=3))
    head_constant = draw(st.one_of(st.none(), value))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        occurrences = [draw(st.sampled_from(pool[r])) for r in shape]
        output = (db.resolve(occurrences[0]).values[0],)
        if head_constant is not None:
            output += (head_constant,)
        rows.append(KExampleRow(output, occurrences))
    semiring, reuse = draw(st.sampled_from(
        [(SemiringName.NX, 1), (SemiringName.WHY, 2)]
    ))
    config = ConsistencyConfig(
        semiring=semiring, max_tuple_reuse=reuse,
        require_variable=draw(st.booleans()),
    )
    return KExample(rows, db.registry), config


# -- properties ---------------------------------------------------------------

class TestAbstractionProperties:
    @settings(max_examples=60, deadline=None)
    @given(abstractions())
    def test_original_is_a_concretization(self, instance):
        db, example, tree, function = instance
        abstracted = function.apply(example)
        engine = ConcretizationEngine(tree, db.registry)
        assert example in set(engine.concretizations(abstracted))

    @settings(max_examples=60, deadline=None)
    @given(abstractions())
    def test_count_product_formula(self, instance):
        db, example, tree, function = instance
        abstracted = function.apply(example)
        engine = ConcretizationEngine(tree, db.registry)
        count = engine.count(abstracted)
        assert count == len(list(engine.concretizations(abstracted)))
        # Proposition 3.5(2): bounds.
        n_abstracted = abstracted.num_abstracted()
        assert 1 <= count <= len(tree.leaves()) ** n_abstracted

    @settings(max_examples=60, deadline=None)
    @given(abstractions())
    def test_uniform_loi_is_log_count(self, instance):
        db, example, tree, function = instance
        abstracted = function.apply(example)
        engine = ConcretizationEngine(tree, db.registry)
        assert math.isclose(
            loss_of_information(abstracted, tree),
            math.log(engine.count(abstracted)),
        )

    @settings(max_examples=40, deadline=None)
    @given(abstractions())
    def test_loi_monotone_under_raising(self, instance):
        db, example, tree, function = instance
        abstracted = function.apply(example)
        base_loi = loss_of_information(abstracted, tree)
        # Raise every abstracted variable to the root.
        targets = {
            v: tree.root.label
            for v in example.variables()
        }
        coarser = AbstractionFunction.uniform(tree, example, targets)
        coarser_loi = loss_of_information(coarser.apply(example), tree)
        assert coarser_loi >= base_loi - 1e-12


class TestPrivacyProperties:
    @settings(max_examples=20, deadline=None)
    @given(abstractions())
    def test_privacy_invariant_under_switches(self, instance):
        db, example, tree, function = instance
        abstracted = function.apply(example)
        if ConcretizationEngine(tree, db.registry).count(abstracted) > 200:
            return  # keep the monolithic reference cheap
        reference = PrivacyComputer(
            tree, db.registry,
            PrivacyConfig(row_by_row=False, connectivity_filter=False,
                          cache_queries=False),
        ).privacy(abstracted)
        optimized = PrivacyComputer(tree, db.registry).privacy(abstracted)
        assert optimized == reference

    @settings(max_examples=30, deadline=None)
    @given(database_with_example())
    def test_identity_abstraction_admits_some_query_or_none(self, instance):
        db, example, tree = instance
        computer = PrivacyComputer(tree, db.registry)
        identity = AbstractionFunction.identity(tree, example).apply(example)
        privacy = computer.privacy(identity)
        assert privacy >= 0


class TestConsistencyProperties:
    @settings(max_examples=80, deadline=None)
    @given(consistency_instances())
    def test_minimal_only_keeps_the_cim_queries(self, instance):
        """A subset of the connected part of the full set with the same
        CIM queries and representatives; or both abort on the alignment
        budget."""
        example, config = instance
        try:
            full = consistent_queries(example, config)
        except OptimizationError:
            with pytest.raises(OptimizationError):
                consistent_queries(example, config, minimal_only=True)
            return
        connected = frozenset(query for query in full if is_connected(query))
        minimal = consistent_queries(example, config, minimal_only=True)
        assert {q.canonical() for q in minimal} <= {
            q.canonical() for q in connected
        }
        assert _minimal_queries(minimal) == _minimal_queries(connected)


class TestContainmentProperties:
    QUERIES = [
        parse_cq("Q(x) :- R(x, y), S(y, z)"),
        parse_cq("Q(x) :- R(x, y), S(y, 5)"),
        parse_cq("Q(x) :- R(x, y)"),
        parse_cq("Q(x) :- R(x, 3)"),
        parse_cq("Q(x) :- R(x, x)"),
        parse_cq("Q(x) :- R(x, y), R(y, x)"),
    ]

    @given(st.sampled_from(QUERIES))
    def test_reflexive(self, q):
        assert is_contained_in(q, q)

    @given(st.sampled_from(QUERIES), st.sampled_from(QUERIES),
           st.sampled_from(QUERIES))
    def test_transitive(self, q1, q2, q3):
        if is_contained_in(q1, q2) and is_contained_in(q2, q3):
            assert is_contained_in(q1, q3)

    @given(st.sampled_from(QUERIES), st.sampled_from(QUERIES))
    def test_equivalence_implies_equal_canonical_for_cores(self, q1, q2):
        # For the minimized queries in this pool, equivalence coincides
        # with isomorphism, hence equal canonical keys.
        from repro.query.minimize import minimize_cq

        c1, c2 = minimize_cq(q1), minimize_cq(q2)
        if is_equivalent(c1, c2):
            assert c1.canonical() == c2.canonical()


class TestEvaluationProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_databases())
    def test_provenance_degree_matches_body(self, db):
        """Every monomial's degree equals the number of body atoms."""
        from repro.query.evaluator import evaluate_cq

        query = parse_cq("Q(a) :- R(a, b), S(b, y)")
        for poly in evaluate_cq(query, db).values():
            for monomial in poly.monomials():
                assert monomial.degree() == 2

    @settings(max_examples=40, deadline=None)
    @given(small_databases())
    def test_built_examples_are_real_derivations(self, db):
        from repro.errors import EvaluationError

        query = parse_cq("Q(a) :- R(a, b), S(b, y)")
        try:
            example = build_kexample(query, db, n_rows=1)
        except EvaluationError:
            return  # the random instance has no join results
        row = example.rows[0]
        tuples = [example.tuple_of(a) for a in row.occurrences]
        relations = sorted(t.relation for t in tuples)
        assert relations == ["R", "S"]
