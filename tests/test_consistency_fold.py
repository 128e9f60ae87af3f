"""Consistent-query generation as a fold over rows, against a reference.

The reference below generates from scratch: it enumerates every alignment
combination of every skeleton and builds each combination's whole layout,
with no refutation, as generation did before it folded rows.  The fold
must return the same canonical keys, the same representative per key and
the same abort, whether it starts from the first row or extends the fold
of a shorter prefix.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import consistency
from repro.core.consistency import (
    ConcreteRows,
    ConsistencyConfig,
    consistent_queries,
    first_row_fold,
)
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.ast import CQ, Atom, Constant, Variable
from repro.query.join_graph import overlap_connected
from repro.semirings.base import SemiringName

# -- the from-scratch reference ---------------------------------------------


def reference_queries(example, config, minimal_only):
    """Canonical key -> first generated query, or the abort's message."""
    out = {}
    try:
        for query in _reference_generate(example, config, minimal_only):
            out.setdefault(query.canonical(), query)
    except OptimizationError as error:
        return str(error)
    return out


def _reference_generate(example, config, minimal_only):
    drops = config.semiring_ops().drops_exponents()
    for skeleton in _reference_skeletons(example, config, drops):
        per_row = []
        for row in example.rows[1:]:
            tuples = [example.tuple_of(ann) for ann in row.occurrences]
            alignments = list(_reference_alignments(skeleton, tuples, drops))
            if not alignments:
                break
            per_row.append(alignments)
        else:
            combos = math.prod(map(len, per_row))
            if combos > consistency.MAX_ALIGNMENT_COMBOS:
                raise OptimizationError(
                    f"alignment budget exhausted: {combos} alignment "
                    f"combinations exceed MAX_ALIGNMENT_COMBOS "
                    f"({consistency.MAX_ALIGNMENT_COMBOS}); use fewer rows"
                )
            for combo in itertools.product(*per_row):
                yield from _reference_layout_queries(
                    example, [skeleton, *combo], config, minimal_only
                )


def _reference_skeletons(example, config, drops):
    base = tuple(example.tuple_of(ann) for ann in example.rows[0].occurrences)
    yield base
    if not drops or config.max_tuple_reuse <= 1:
        return
    distinct = list(dict.fromkeys(base))
    for counts in itertools.product(
        range(1, config.max_tuple_reuse + 1), repeat=len(distinct)
    ):
        if any(count > 1 for count in counts):
            yield tuple(
                tup for tup, count in zip(distinct, counts)
                for _ in range(count)
            )


def _reference_alignments(skeleton, tuples, drops):
    slots = {}
    for index, tup in enumerate(skeleton):
        slots.setdefault(tup.relation, []).append(index)
    by_relation = {}
    for tup in tuples:
        by_relation.setdefault(tup.relation, []).append(tup)
    if set(slots) != set(by_relation):
        return
    choices = []
    for relation, indexes in slots.items():
        candidates = by_relation[relation]
        if drops:
            distinct = list(dict.fromkeys(candidates))
            options = [
                combo for combo in itertools.product(
                    distinct, repeat=len(indexes))
                if set(combo) == set(distinct)
            ]
        elif len(candidates) != len(indexes):
            return
        else:
            options = list(dict.fromkeys(itertools.permutations(candidates)))
        if not options:
            return
        choices.append([dict(zip(indexes, option)) for option in options])
    for combo in itertools.product(*choices):
        assignment = {}
        for mapping in combo:
            assignment.update(mapping)
        yield tuple(assignment[i] for i in range(len(skeleton)))


def reference_layout(example, matrix):
    """(class layout per atom, class of each vector, head per column) of
    one alignment matrix; the head is ``None`` where the check refutes."""
    class_of = {}
    layout = []
    for slot, tup in enumerate(matrix[0]):
        layout.append((tup.relation, [
            class_of.setdefault(vector, len(class_of))
            for vector in zip(*(row[slot].values for row in matrix))
        ]))
    outputs = [row.output for row in example.rows[:len(matrix)]]
    heads = []
    for column in range(len(outputs[0])):
        vector = tuple(output[column] for output in outputs)
        if vector in class_of:
            heads.append(class_of[vector])
        elif len(set(vector)) == 1:
            heads.append(Constant(vector[0]))
        else:
            heads.append(None)
    return layout, class_of, heads


def refuted(example, matrix, minimal_only):
    """Whether the head check or, under ``minimal_only``, the all-flip
    connectivity check refutes an alignment matrix, from its layout."""
    layout, _, heads = reference_layout(example, matrix)
    if None in heads:
        return True
    return minimal_only and not overlap_connected(
        [set(columns) for _, columns in layout]
    )


def _reference_layout_queries(example, matrix, config, minimal_only):
    layout, class_of, heads = reference_layout(example, matrix)
    if None in heads:
        return
    variables = [Variable(f"x{i}") for i in range(len(class_of))]
    base = list(variables)
    constants = []
    for index, vector in enumerate(class_of):
        if len(set(vector)) == 1:
            constants.append(index)
            base[index] = Constant(vector[0])
    smallest = int(config.require_variable and len(constants) == len(class_of))
    atoms = [set(columns) for _, columns in layout]
    if minimal_only:
        flip_sets = _reference_minimal_flips(atoms, constants, smallest)
    else:
        flip_sets = itertools.chain.from_iterable(
            itertools.combinations(constants, size)
            for size in range(smallest, len(constants) + 1)
        )
    for flips in flip_sets:
        terms = list(base)
        for index in flips:
            terms[index] = variables[index]
        yield CQ(
            Atom("Q", [
                terms[h] if isinstance(h, int) else h for h in heads
            ]),
            [Atom(relation, [terms[c] for c in columns])
             for relation, columns in layout],
        )


def _reference_minimal_flips(atoms, constants, smallest):
    if not overlap_connected(atoms):
        return
    shared = [c for c in constants if len(atoms) == 1
              or sum(c in classes for classes in atoms) > 1]
    found = []
    for size in range(smallest, max(len(atoms) - 1, 1) + 1):
        for flips in itertools.combinations(shared, size):
            if any(known <= set(flips) for known in found):
                continue
            fixed = set(constants) - set(flips)
            if overlap_connected([c - fixed for c in atoms]):
                found.append(set(flips))
                yield flips


# -- instances ---------------------------------------------------------------


@st.composite
def fold_instances(draw):
    """A 1-4-row K-example over R(a, b) and S(x, y) with values in
    {0, 1, 2}, or in {0, ..., 5} so that atoms share fewer values: a
    repeated relation is a self-join, a tuple may occur twice
    in a row, and a row may have another relation multiset (no alignment).
    NX, or WHY with tuple reuse 2; ``require_variable`` on or off; and an
    alignment budget, often small enough to abort."""
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
    value = st.integers(min_value=0, max_value=draw(st.sampled_from([2, 5])))
    pool = {"R": [], "S": []}
    for relation, names in pool.items():
        for i in range(draw(st.integers(min_value=1, max_value=3))):
            names.append(f"{relation.lower()}{i}")
            db.insert(relation, (draw(value), draw(value)), names[-1])
    shape = draw(st.lists(st.sampled_from("RS"), min_size=1, max_size=3))
    head_constant = draw(st.one_of(st.none(), value))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        row_shape = shape if draw(st.integers(0, 5)) else draw(
            st.lists(st.sampled_from("RS"), min_size=1, max_size=3))
        occurrences = [draw(st.sampled_from(pool[r])) for r in row_shape]
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
    budget = draw(st.sampled_from([0, 1, 2, 6, 40, 400]))
    return KExample(rows, db.registry), config, budget


def _outcome(call):
    """Canonical key -> representative repr, or the abort's message."""
    try:
        return {query.canonical(): repr(query) for query in call()}
    except OptimizationError as error:
        return str(error)


def _expected(reference):
    if isinstance(reference, str):
        return reference
    return {key: repr(query) for key, query in reference.items()}


# -- properties --------------------------------------------------------------


class TestFoldMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(fold_instances(), st.booleans())
    def test_from_the_first_row(self, instance, minimal_only):
        example, config, budget = instance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consistency, "MAX_ALIGNMENT_COMBOS", budget)
            assert _outcome(lambda: consistent_queries(
                example, config, minimal_only=minimal_only
            )) == _expected(reference_queries(example, config, minimal_only))

    @settings(max_examples=100, deadline=None)
    @given(fold_instances(), st.booleans())
    def test_extending_each_prefix_by_a_row(self, instance, minimal_only):
        """Each prefix starts from the last one's fold (the first from a
        first-row fold) and matches the reference on the prefix, abort
        included; a prefix that aborts hands nothing on."""
        example, config, budget = instance
        rows, registry = example.rows, example.registry
        start = first_row_fold(example, config, minimal_only=minimal_only)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consistency, "MAX_ALIGNMENT_COMBOS", budget)
            for size in range(1, len(rows) + 1):
                prefix = KExample(rows[:size], registry)
                expected = _expected(
                    reference_queries(prefix, config, minimal_only)
                )
                try:
                    queries = consistent_queries(
                        prefix, config, minimal_only=minimal_only,
                        start=start,
                    )
                except OptimizationError as error:
                    assert str(error) == expected
                    return
                assert {q.canonical(): repr(q) for q in queries} == expected
                start = queries.fold

    @settings(max_examples=100, deadline=None)
    @given(fold_instances(), st.booleans())
    def test_survivors_are_the_unrefuted_combinations(
        self, instance, minimal_only
    ):
        """A fold keeps exactly the combinations whose layout neither
        check refutes, in product order, and a refuted combination stays
        refuted for every extension by the next row."""
        example, config, _ = instance
        rows, registry = example.rows, example.registry
        drops = config.semiring_ops().drops_exponents()
        fold = None
        for size in range(1, len(rows) + 1):
            prefix = KExample(rows[:size], registry)
            try:
                fold = consistent_queries(
                    prefix, config, minimal_only=minimal_only, start=fold
                ).fold
            except OptimizationError:
                return  # over the budget: the reference would not finish
            if any(combos > 2_000 for _, combos, _ in fold.skeletons):
                return  # keeps the reference's layouts few
            kept = {
                skeleton.tuples: [combo for combo, _, _ in survivors]
                for skeleton, _, survivors in fold.skeletons
            }
            for skeleton in _reference_skeletons(prefix, config, drops):
                per_row = [
                    list(_reference_alignments(skeleton, [
                        prefix.tuple_of(ann) for ann in row.occurrences
                    ], drops))
                    for row in rows[1:size]
                ]
                survivors = []
                for combo in itertools.product(*per_row):
                    matrix = [skeleton, *combo]
                    if refuted(prefix, matrix, minimal_only):
                        for extension in _extensions(
                            example, skeleton, matrix, size, drops
                        ):
                            assert refuted(example, extension, minimal_only)
                    else:
                        survivors.append(tuple(
                            sum((tup.values for tup in aligned), ())
                            for aligned in combo
                        ))
                if all(per_row):
                    assert kept.get(skeleton, []) == survivors
                else:
                    assert skeleton not in kept


def _extensions(example, skeleton, matrix, size, drops):
    """The matrix extended by each alignment of the example's next row."""
    if size == len(example.rows):
        return
    tuples = [
        example.tuple_of(ann) for ann in example.rows[size].occurrences
    ]
    for aligned in _reference_alignments(skeleton, tuples, drops):
        yield [*matrix, aligned]


@st.composite
def signature_instances(draw):
    """A 2- or 3-row K-example over R(a, b) and S(x, y) with values in
    {0, 1, 2} whose rows mix alignment signatures: each row takes one of
    R·S, R·R·S and R·S·S, which share a relation set but not a multiset,
    or R·R and S, which differ in the set too.  NX, or WHY with tuple
    reuse 2; ``require_variable`` on or off."""
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
    value = st.integers(min_value=0, max_value=2)
    pool = {"R": [], "S": []}
    for relation, names in pool.items():
        for i in range(draw(st.integers(min_value=1, max_value=3))):
            names.append(f"{relation.lower()}{i}")
            db.insert(relation, (draw(value), draw(value)), names[-1])
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        shape = draw(st.sampled_from(["RS", "RRS", "RSS", "RR", "S"]))
        occurrences = [draw(st.sampled_from(pool[r])) for r in shape]
        output = (db.resolve(occurrences[0]).values[0],)
        rows.append(KExampleRow(output, occurrences))
    semiring, reuse = draw(st.sampled_from(
        [(SemiringName.NX, 1), (SemiringName.WHY, 2)]
    ))
    config = ConsistencyConfig(
        semiring=semiring, max_tuple_reuse=reuse,
        require_variable=draw(st.booleans()),
    )
    return KExample(rows, db.registry), config


class TestKeysBeforeQueries:
    """Generation keys each query from its class layout and builds only a
    recipe: the keys must be the canonical keys of the queries the
    reference builds, and each recipe must build the reference's
    representative."""

    @staticmethod
    def _check(example, config, minimal_only):
        reference = reference_queries(example, config, minimal_only)
        try:
            generated = consistent_queries(
                example, config, minimal_only=minimal_only
            )
        except OptimizationError as error:
            assert str(error) == reference
            return
        assert not isinstance(reference, str), reference
        assert generated.recipes.keys() == reference.keys()
        assert len(generated) == len(reference)
        for key, recipe in generated.recipes.items():
            query = recipe.build(key)
            assert repr(query) == repr(reference[key])
            assert CQ(query.head, query.body).canonical() == key

    @settings(max_examples=150, deadline=None)
    @given(signature_instances(), st.booleans())
    def test_keys_and_recipes_match_the_reference(
        self, instance, minimal_only
    ):
        self._check(*instance, minimal_only)

    def test_a_multiset_signature_under_why_fails(self, monkeypatch):
        """Without exponents, a row of R·S aligns with a first row of
        R·R·S (both R slots onto its one R tuple): the two rows share
        their signature as relation sets, not as multisets.  The fold
        reads no signature; it drops a row only where its alignment count
        is zero, and a count that compared relation multisets would drop
        this row's queries.  ``TestAlignmentPartition`` in
        ``test_privacy.py`` checks the same case for the partition."""
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
        for name, relation, values in [
            ("r0", "R", (1, 2)), ("r1", "R", (1, 5)), ("r2", "R", (4, 5)),
            ("s0", "S", (2, 3)), ("s1", "S", (5, 3)),
        ]:
            db.insert(relation, values, name)
        example = KExample(
            [KExampleRow((1,), ["r0", "r1", "s0"]),
             KExampleRow((4,), ["r2", "s1"])],
            db.registry,
        )
        config = ConsistencyConfig(
            semiring=SemiringName.WHY, max_tuple_reuse=2
        )
        first, second = (
            [db.resolve(ann).relation for ann in row.occurrences]
            for row in example.rows
        )
        signature = consistency.alignment_signature
        assert signature(first, True) == signature(second, True)
        assert signature(first, False) != signature(second, False)
        for minimal_only in (False, True):
            self._check(example, config, minimal_only)
            assert consistent_queries(
                example, config, minimal_only=minimal_only
            )
        count = consistency._alignment_count

        def by_multiset(slots, row, drops_exponents):
            if any(len(row.get(relation, ())) != len(indexes)
                   for relation, indexes in slots.items()):
                return 0
            return count(slots, row, drops_exponents)

        monkeypatch.setattr(consistency, "_alignment_count", by_multiset)
        with pytest.raises(AssertionError):
            self._check(example, config, minimal_only=True)


class TestRefutations:
    """The head check keeps only the alignments whose positions can carry
    the outputs.  CIM generation also refutes a combination whose all-flip
    layout leaves an atom apart, at the first row or once a later row
    splits the only group that joined the atoms; full generation keeps
    it."""

    @pytest.fixture
    def db(self):
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
        for name, relation, values in [
            ("r1", "R", (1, 2)), ("s1", "S", (2, 3)),
            ("r2", "R", (5, 6)), ("s2", "S", (7, 8)),
            ("s3", "S", (9, 9)),
        ]:
            db.insert(relation, values, name)
        return db

    @staticmethod
    def _survivors(example, minimal_only):
        fold = consistent_queries(example, minimal_only=minimal_only).fold
        return [survivors for _, _, survivors in fold.skeletons]

    def test_only_the_alignment_carrying_the_outputs_survives(
        self, self_join_rows
    ):
        """3! alignments, and each output column needs its own tuple."""
        example = self_join_rows(3)
        for minimal_only in (False, True):
            assert [len(s) for s in self._survivors(
                example, minimal_only
            )] == [1]

    def test_a_disconnected_first_row(self, db):
        example = KExample([KExampleRow((1,), ["r1", "s3"])], db.registry)
        assert [len(s) for s in self._survivors(example, False)] == [1]
        assert self._survivors(example, True) == [[]]
        assert consistent_queries(example, minimal_only=True) == frozenset()

    def test_a_later_row_splitting_the_join(self, db):
        example = KExample(
            [KExampleRow((1,), ["r1", "s1"]), KExampleRow((5,), ["r2", "s2"])],
            db.registry,
        )
        assert [len(s) for s in self._survivors(example, False)] == [1]
        assert self._survivors(example, True) == [[]]
        assert consistent_queries(example, minimal_only=True) == frozenset()
        assert consistent_queries(example)


class TestAlignmentCount:
    @settings(max_examples=200, deadline=None)
    @given(fold_instances())
    def test_count_matches_the_enumeration(self, instance):
        """A row's alignment count, from the relation multisets alone,
        equals the number of alignments enumerated, for every skeleton
        and row."""
        example, config, _ = instance
        drops = config.semiring_ops().drops_exponents()
        first = tuple(map(example.tuple_of, example.rows[0].occurrences))
        for skeleton in consistency._skeletons(first, config, drops):
            slots = consistency._slots(skeleton)
            for row in example.rows[1:]:
                grouped = consistency._by_relation(
                    [example.tuple_of(ann) for ann in row.occurrences]
                )
                enumerated = list(consistency._alignments(
                    slots, len(skeleton), grouped, drops
                ))
                assert consistency._alignment_count(
                    slots, grouped, drops
                ) == len(enumerated) == len(set(enumerated))


class TestBudgetBeforeEnumeration:
    def test_abort_enumerates_no_alignment(self, self_join_rows, monkeypatch):
        """8! alignment combinations are counted, not enumerated."""
        def enumerate_nothing(*args):
            raise AssertionError("an alignment was enumerated")

        monkeypatch.setattr(consistency, "_alignments", enumerate_nothing)
        with pytest.raises(OptimizationError, match="40320 alignment"):
            consistent_queries(self_join_rows(8), minimal_only=True)

    def test_a_row_without_alignment_skips_its_skeleton(self, monkeypatch):
        """A skeleton with a row it cannot align with has no combination,
        so it is skipped even under a zero budget."""
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
        db.insert("R", (1, 2), "r1")
        db.insert("S", (2, 3), "s1")
        example = KExample(
            [KExampleRow((1,), ["r1", "s1"]), KExampleRow((1,), ["r1"])],
            db.registry,
        )
        monkeypatch.setattr(consistency, "MAX_ALIGNMENT_COMBOS", 0)
        assert consistent_queries(example) == frozenset()
        assert consistent_queries(example).fold.skeletons == []

    def test_start_must_fold_a_prefix_of_the_rows(self, paper_example):
        fold = first_row_fold(paper_example)
        other = KExample(paper_example.rows[::-1], paper_example.registry)
        with pytest.raises(ValueError):
            consistent_queries(other, start=fold)
        with pytest.raises(ValueError):
            consistent_queries(paper_example, minimal_only=True, start=fold)

    def test_calls_sharing_concrete_rows_share_first_row_folds(
        self, paper_example
    ):
        """Calls without ``start`` begin from the holder's fold of their
        first row, built once per ``minimal_only``; a holder of another
        config is refused."""
        config = ConsistencyConfig()
        concrete = ConcreteRows(paper_example.registry, config)
        first = consistent_queries(
            paper_example, config, minimal_only=True, concrete_rows=concrete
        )
        fold = concrete.fold(paper_example.rows[0], True)
        again = consistent_queries(
            paper_example, config, minimal_only=True, concrete_rows=concrete
        )
        assert concrete.fold(paper_example.rows[0], True) is fold
        assert concrete.fold(paper_example.rows[0], False) is not fold
        assert first.recipes.keys() == again.recipes.keys()
        assert first.recipes.keys() == consistent_queries(
            paper_example, config, minimal_only=True
        ).recipes.keys()
        with pytest.raises(ValueError):
            consistent_queries(
                paper_example, ConsistencyConfig(require_variable=True),
                concrete_rows=concrete,
            )
