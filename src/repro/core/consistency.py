"""Generating consistent queries from a concrete K-example.

This adapts ``FindConsistentQuery`` of Deutch & Gilad (EDBT 2019) as the
paper prescribes (Section 4.2, bullet 1): instead of returning the first
consistent query found, enumerate the consistent queries arising from *all*
alignments ("matchings") between the provenance monomials of the rows.

Construction
------------
Fix the first row's monomial as the query *skeleton*: one body atom per
tuple occurrence ("slot").  For every later row, an *alignment* is a
relation-name-respecting bijection between the skeleton slots and that
row's tuple occurrences (for semirings that drop exponents, surjections are
also allowed — a query atom may reuse a tuple).  A choice of alignment for
every row yields a value matrix: rows x (slot, column) positions.

Positions with identical value vectors are merged into one term — the
*most specific* consistent query for that alignment.  A merged class whose
vector is constant may be a constant or (generalizing) a shared variable;
we emit the base query plus its constant-to-variable "flip" variants, since
a flip can connect an otherwise disconnected join graph and thereby become
a CIM query.

Which queries this counts
-------------------------
Every term of a generated query is a whole class of an alignment's layout:
the class's variable or, for a constant class, its constant.  Privacy
counted from this set is Definition 3.12's count over that family.  A
consistent connected query that splits a class lies outside it, although
it contains the class-level base query.  Example: ``R`` holds
r1 = R(1, 0) and r2 = R(2, 0), ``S`` holds s1 = S(0, 0), and the rows
are r1·s1 and r2·s1.  The generator builds ``Q(x0) :- R(x0, 0), S(0, 0)``
and ``Q(x0) :- R(x0, x1), S(x1, x1)``; ``Q(x0) :- R(x0, x1), S(x1, 0)``
and ``Q(x0) :- R(x0, x1), S(0, x1)`` are consistent and connected too,
but each splits the class of vector (0, 0).  Whether the paper's
definition counts them is not settled here.

Definition 3.12 counts connected inclusion-minimal queries, so Algorithm 1
asks for ``minimal_only`` generation.  For flip sets F ⊊ F' of one
alignment, Q_F is strictly contained in Q_F' (send the variables flipped
only in F' back to their constants; Q_F keeps a constant Q_F' lacks), so
only the minimal connecting flip sets can yield a CIM query, and a dropped
variant is never the only witness against another query.

Generation enumerates every alignment or none: a skeleton whose product
of per-row alignment counts exceeds :data:`MAX_ALIGNMENT_COMBOS` raises
:class:`~repro.errors.OptimizationError` before it builds any layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections.abc import Iterator

from repro.db.tuples import Tuple
from repro.errors import OptimizationError
from repro.provenance.kexample import KExample
from repro.query.ast import CQ, Atom, Constant, Term, Variable
from repro.query.join_graph import overlap_connected
from repro.semirings.base import Semiring, SemiringName, get_semiring

#: The most alignment combinations one skeleton may enumerate.  It is in
#: no content hash, so changing it needs a ``HASH_VERSION`` bump.
MAX_ALIGNMENT_COMBOS = 20_000


@dataclass(frozen=True)
class ConsistencyConfig:
    """Knobs for consistent-query generation.

    ``require_variable`` drops fully-ground queries, the paper's
    trivial-query elimination for the UCQ setting;
    ``max_tuple_reuse`` allows a skeleton slot multiset to repeat a tuple
    when the semiring hides exponents (Table 4, red cells).
    """

    head_name: str = "Q"
    semiring: SemiringName = SemiringName.NX
    require_variable: bool = False
    max_tuple_reuse: int = 1

    def semiring_ops(self) -> Semiring:
        return get_semiring(self.semiring)


def consistent_queries(
    example: KExample,
    config: ConsistencyConfig | None = None,
    *,
    minimal_only: bool = False,
) -> frozenset[CQ]:
    """The candidate consistent queries w.r.t. a concrete K-example.

    Returns the most-specific consistent query of every alignment together
    with its constant-flip variants, deduplicated up to isomorphism: every
    CIM query of the example over the family the module docs describe.
    Raises :class:`~repro.errors.OptimizationError` when a skeleton has
    more than :data:`MAX_ALIGNMENT_COMBOS` alignment combinations.

    ``minimal_only`` builds only each alignment's minimal connecting flip
    variants: a subset of the connected part with the same CIM queries,
    representatives included.
    """
    config = config or ConsistencyConfig()
    out: dict[tuple, CQ] = {}
    for query in _generate(example, config, minimal_only):
        out.setdefault(query.canonical(), query)
    return frozenset(out.values())


def _generate(
    example: KExample,
    config: ConsistencyConfig,
    minimal_only: bool,
) -> Iterator[CQ]:
    rows = example.rows
    drops_exponents = config.semiring_ops().drops_exponents()

    for skeleton in _skeletons(example, config, drops_exponents):
        per_row_alignments: list[list[tuple[Tuple, ...]]] = []
        feasible = True
        for row_index in range(1, len(rows)):
            row_tuples = [
                example.tuple_of(ann) for ann in rows[row_index].occurrences
            ]
            alignments = list(
                _alignments(skeleton, row_tuples, drops_exponents)
            )
            if not alignments:
                feasible = False
                break
            per_row_alignments.append(alignments)
        if not feasible:
            continue

        combos = math.prod(map(len, per_row_alignments))
        if combos > MAX_ALIGNMENT_COMBOS:
            raise OptimizationError(
                f"alignment budget exhausted: {combos} alignment "
                f"combinations exceed MAX_ALIGNMENT_COMBOS "
                f"({MAX_ALIGNMENT_COMBOS}); use fewer rows"
            )
        for combo in itertools.product(*per_row_alignments):
            matrix = [skeleton, *combo]
            yield from _queries_from_matrix(
                example, matrix, config, minimal_only
            )


def _skeletons(
    example: KExample,
    config: ConsistencyConfig,
    drops_exponents: bool,
) -> Iterator[tuple[Tuple, ...]]:
    """Candidate skeleton slot lists derived from the first row.

    Without exponent information the query may use a tuple more times than
    the (set-valued) provenance shows, so slots may be duplicated up to
    ``max_tuple_reuse`` times each.
    """
    base = tuple(example.tuple_of(ann) for ann in example.rows[0].occurrences)
    yield base
    if not drops_exponents or config.max_tuple_reuse <= 1:
        return
    distinct = list(dict.fromkeys(base))
    reuse_options = range(1, config.max_tuple_reuse + 1)
    for counts in itertools.product(reuse_options, repeat=len(distinct)):
        if all(c == 1 for c in counts):
            continue  # already yielded as ``base``
        expanded: list[Tuple] = []
        for tup, count in zip(distinct, counts):
            expanded.extend([tup] * count)
        yield tuple(expanded)


def _alignments(
    skeleton: tuple[Tuple, ...],
    row_tuples: list[Tuple],
    drops_exponents: bool,
) -> Iterator[tuple[Tuple, ...]]:
    """Assignments of one tuple of the row to every skeleton slot.

    With visible exponents this must be a multiset bijection per relation
    name; without, any relation-respecting surjection onto the row's
    distinct tuples is allowed.
    """
    slots_by_relation: dict[str, list[int]] = {}
    for index, tup in enumerate(skeleton):
        slots_by_relation.setdefault(tup.relation, []).append(index)
    tuples_by_relation: dict[str, list[Tuple]] = {}
    for tup in row_tuples:
        tuples_by_relation.setdefault(tup.relation, []).append(tup)

    if set(slots_by_relation) != set(tuples_by_relation):
        return

    per_relation_choices: list[list[dict[int, Tuple]]] = []
    for relation, slot_indexes in slots_by_relation.items():
        candidates = tuples_by_relation[relation]
        if drops_exponents:
            distinct = list(dict.fromkeys(candidates))
            choices = _surjective_assignments(slot_indexes, distinct)
        else:
            if len(candidates) != len(slot_indexes):
                return
            choices = [
                dict(zip(slot_indexes, perm))
                for perm in _distinct_permutations(candidates)
            ]
        if not choices:
            return
        per_relation_choices.append(choices)

    for combo in itertools.product(*per_relation_choices):
        assignment: dict[int, Tuple] = {}
        for mapping in combo:
            assignment.update(mapping)
        yield tuple(assignment[i] for i in range(len(skeleton)))


def _distinct_permutations(items: list[Tuple]) -> Iterator[tuple[Tuple, ...]]:
    """Permutations of a multiset without duplicates."""
    seen: set[tuple[Tuple, ...]] = set()
    for perm in itertools.permutations(items):
        if perm not in seen:
            seen.add(perm)
            yield perm


def _surjective_assignments(
    slot_indexes: list[int], targets: list[Tuple]
) -> list[dict[int, Tuple]]:
    """All slot->tuple maps using every target at least once."""
    if len(targets) > len(slot_indexes):
        return []
    out = []
    for combo in itertools.product(targets, repeat=len(slot_indexes)):
        if set(combo) == set(targets):
            out.append(dict(zip(slot_indexes, combo)))
    return out


def _queries_from_matrix(
    example: KExample,
    matrix: list[tuple[Tuple, ...]],
    config: ConsistencyConfig,
    minimal_only: bool,
) -> Iterator[CQ]:
    """Most-specific query and flip variants for one alignment matrix.

    The alignment's class layout is computed once: positions (slot, column)
    with equal cross-row value vectors share a class, numbered by first
    appearance, and class ``i`` is the term ``x{i}`` or, while a constant
    class is not flipped, its constant.  Each flip variant only picks the
    term of every class; under ``require_variable`` a ground base is no
    flip set.  With ``minimal_only``, only the minimal connecting flip sets
    are built (see :func:`_minimal_flip_sets`).
    """
    class_of: dict[tuple, int] = {}
    layout: list[tuple[str, list[int]]] = []
    for slot, tup in enumerate(matrix[0]):
        layout.append((tup.relation, [
            class_of.setdefault(vector, len(class_of))
            for vector in zip(*(row[slot].values for row in matrix))
        ]))

    # Resolve head terms: each output column needs a class with the exact
    # output vector, or a constant column.
    head_layout: list[int | Constant] = []
    outputs = [row.output for row in example.rows]
    for col in range(len(outputs[0])):
        out_vector = tuple(output[col] for output in outputs)
        if out_vector in class_of:
            head_layout.append(class_of[out_vector])
        elif len(set(out_vector)) == 1:
            head_layout.append(Constant(out_vector[0]))
        else:
            return  # this alignment cannot produce the outputs

    variables = [Variable(f"x{idx}") for idx in range(len(class_of))]
    base_terms: list[Term] = list(variables)
    constant_classes = []
    for idx, vector in enumerate(class_of):
        if len(set(vector)) == 1:
            constant_classes.append(idx)
            base_terms[idx] = Constant(vector[0])
    smallest = int(
        config.require_variable and len(constant_classes) == len(class_of)
    )
    if minimal_only:
        flip_sets = _minimal_flip_sets(
            [set(columns) for _, columns in layout], constant_classes, smallest
        )
    else:
        flip_sets = itertools.chain.from_iterable(
            itertools.combinations(constant_classes, size)
            for size in range(smallest, len(constant_classes) + 1)
        )

    for flips in flip_sets:
        terms = base_terms.copy()
        for idx in flips:
            terms[idx] = variables[idx]
        body = [
            Atom(relation, map(terms.__getitem__, columns))
            for relation, columns in layout
        ]
        head_terms = [
            terms[spec] if isinstance(spec, int) else spec
            for spec in head_layout
        ]
        yield CQ(Atom(config.head_name, head_terms), body)


def _minimal_flip_sets(
    atom_classes: list[set[int]], constant_classes: list[int], smallest: int
) -> Iterator[tuple[int, ...]]:
    """Inclusion-minimal flip sets of at least ``smallest`` classes whose
    atoms' variable classes overlap into one component.

    Unflipped constants are no variables, so nothing connects if flipping
    every class does not.  Each class of a minimal set joins two
    components, so it is shared by two atoms (unless there is one atom),
    and a set holds at most (atoms - 1) classes.  Sets go by size,
    skipping supersets of those found.
    """
    if not overlap_connected(atom_classes):
        return
    constant_set = frozenset(constant_classes)
    shared = [idx for idx in constant_classes if len(atom_classes) == 1
              or sum(idx in classes for classes in atom_classes) > 1]
    found: list[frozenset[int]] = []
    for size in range(smallest, max(len(atom_classes) - 1, 1) + 1):
        for flips in itertools.combinations(shared, size):
            if any(known.issubset(flips) for known in found):
                continue
            fixed = constant_set.difference(flips)
            if overlap_connected([c - fixed for c in atom_classes]):
                found.append(frozenset(flips))
                yield flips


def trivial_union_query(
    example: KExample, head_name: str = "Q"
) -> "object":
    """The trivial UCQ the paper rules out (Section 3.3).

    One fully-ground CQ per row: the union of the rows' own tuples.  It is
    consistent and (vacuously) connected under the UCQ definition, but it
    "does not generalize the K-example"; Algorithm 1's UCQ variant
    disqualifies such queries — our generator's ``require_variable`` flag
    implements the same rule (every CIM query must have a variable).
    """
    from repro.query.ast import UCQ

    disjuncts = []
    for row in example.rows:
        atoms = []
        for ann in row.occurrences:
            tup = example.tuple_of(ann)
            atoms.append(Atom(tup.relation, [Constant(v) for v in tup.values]))
        head = Atom(head_name, [Constant(v) for v in row.output])
        disjuncts.append(CQ(head, atoms))
    return UCQ(disjuncts)
