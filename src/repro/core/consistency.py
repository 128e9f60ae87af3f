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

Generation is a fold over the rows
----------------------------------
The first row gives each skeleton one state, the empty combination.  Each
later row extends every surviving combination by each of its alignments,
in order, and keeps the extensions that survive two refutations.  Queries
are built from the last row's survivors alone.  Survivors come out in the
order of the product of the per-row alignment lists, so the first query
generated per isomorphism class, its representative, is the one a
from-scratch product would generate first.

* **Head check.**  An output column whose values differ across rows needs
  a position whose value vector equals the outputs.  Only positions holding
  the first row's output value can qualify, and each later row keeps those
  holding its own.
* **Connectivity check** (``minimal_only`` only).  The all-flip layout,
  every class a variable, must connect the atoms.  Only positions whose
  values coincide across atoms can join them: each row splits these
  cross-atom groups by its values and drops the parts left inside one atom.
  Full generation also yields the flip variants of disconnected layouts,
  so it runs the head check alone.

A later row aligns only if it shares the first row's *alignment
signature* (:func:`alignment_signature`): its relation names as a
multiset or, when the semiring drops exponents, as a set.  Every
skeleton holds the first row's relation names (each as often as the row
does, or at least once under tuple reuse), and an alignment maps slots
onto a row's tuples relation by relation, bijectively or, without
exponents, surjectively.  So a row of another signature counts no
alignment with any skeleton, and the prefix admits no query.  Algorithm
1 partitions each row's concretizations by the same signature and never
forms such a prefix.

Both refutations are monotone in the rows.  A later row only splits
classes: it adds a coordinate to every value vector, so positions with
equal vectors may come apart but never come together.  Head candidates
and cross-atom groups therefore only shrink, and a combination refuted
for a prefix stays refuted for every extension.  A survivor carries its
head candidates and groups, so an extension refines them instead of
recomputing them, and the :class:`PrefixFold` of a prefix's call lets a
call for a longer prefix start where it stopped.  A skeleton's first-row
state is built only once a later row aligns with it, and calls that
share a :class:`ConcreteRows` share each first row's fold.

Keys before queries
-------------------
A layout's flip variants are keyed before any is built: the canonical
key (:func:`~repro.query.ast.canonical_key`, the routine
:meth:`CQ.canonical` calls too) is read off the class layout, each
variable class spelled by its number and each constant class by its
constant's repr.  Only the first layout of each key keeps a
:class:`QueryRecipe`, and a query is built only where one is read: when a
caller iterates a :class:`GeneratedQueries`, or from
:meth:`QueryRecipe.build` with its key preset.  Each concrete row is
resolved, grouped by relation and aligned once per :class:`ConcreteRows`
holder, so a fold extension pays only for the head and connectivity
refinements.

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

Generation enumerates every alignment or none.  A row's alignment count
follows from the relation multisets: distinct permutations per relation,
or surjections when the semiring drops exponents.  A skeleton whose
product of per-row counts exceeds :data:`MAX_ALIGNMENT_COMBOS` raises
:class:`~repro.errors.OptimizationError` before any alignment is
enumerated or layout built.
"""

from __future__ import annotations

import itertools
import math
import threading
from operator import attrgetter
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence, Set

from repro.db.database import AnnotationRegistry
from repro.db.tuples import Tuple
from repro.errors import OptimizationError
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.ast import CQ, Atom, Constant, Term, Variable, canonical_key
from repro.query.join_graph import overlap_connected
from repro.semirings.base import Semiring, SemiringName, get_semiring

_RELATION = attrgetter("relation")
_VALUES = attrgetter("values")

#: The most alignment combinations one skeleton may enumerate.  It is in
#: no content hash, so changing it needs a ``HASH_VERSION`` bump.
MAX_ALIGNMENT_COMBOS = 20_000

#: The head relation of every generated query.
_HEAD = "Q"


@dataclass(frozen=True)
class ConsistencyConfig:
    """Knobs for consistent-query generation.

    ``require_variable`` drops fully-ground queries, the paper's
    trivial-query elimination for the UCQ setting;
    ``max_tuple_reuse`` allows a skeleton slot multiset to repeat a tuple
    when the semiring hides exponents (Table 4, red cells).
    """

    semiring: SemiringName = SemiringName.NX
    require_variable: bool = False
    max_tuple_reuse: int = 1

    def semiring_ops(self) -> Semiring:
        return get_semiring(self.semiring)


def alignment_signature(relations: Iterable[str], drops_exponents: bool):
    """A row's alignment signature: its relation names as a multiset or,
    when the semiring drops exponents, as a set.  A later row aligns with
    a skeleton only if its signature is the first row's (see the module
    docs)."""
    if drops_exponents:
        return frozenset(relations)
    return tuple(sorted(relations))


class _Skeleton:
    """One skeleton of a fold: its slot tuples, their relation names in
    slot order (its ``shape``), and the first row's output.

    Most skeletons align with no later row, so the rest is computed on
    first use: ``slots``, the slot indexes per relation; and ``seed``, the
    first row's survivors, which is the empty combination with its head
    candidates and cross-atom groups, or none when the first row's
    all-flip layout already leaves an atom apart.  Computing the seed also
    sets the layout survivors use: the first row's ``values`` in (slot,
    column) order, each slot's relation and position range, each
    position's atom bit, and the mask of all atoms.
    """

    __slots__ = ("tuples", "shape", "output", "minimal_only", "values",
                 "ranges", "bits", "full", "_slots", "_seed")

    def __init__(
        self, tuples: tuple[Tuple, ...], output: tuple, minimal_only: bool
    ):
        self.tuples = tuples
        self.shape = tuple(map(_RELATION, tuples))
        self.output = output
        self.minimal_only = minimal_only
        self._slots: dict[str, list[int]] | None = None
        self._seed: list | None = None

    @property
    def slots(self) -> dict[str, list[int]]:
        if self._slots is None:
            self._slots = _slots(self.tuples)
        return self._slots

    @property
    def seed(self) -> list:
        if self._seed is None:
            self._seed = self._first_row()
        return self._seed

    def _first_row(self) -> list:
        ranges: list[tuple[str, int, int]] = []
        bits: list[int] = []
        values: tuple = ()
        for slot, tup in enumerate(self.tuples):
            row = tup.values
            ranges.append((tup.relation, len(values), len(values) + len(row)))
            values += row
            bits += [1 << slot] * len(row)
        self.values, self.ranges, self.bits = values, ranges, bits
        self.full = full = (1 << len(self.tuples)) - 1
        heads = tuple(
            [p for p, value in enumerate(values) if value == target]
            for target in self.output
        )
        groups: list = []
        if self.minimal_only and full > 1:
            members: dict = {}
            for position, value in enumerate(values):
                members.setdefault(value, []).append(position)
            for positions in members.values():
                mask = 0
                for position in positions:
                    mask |= bits[position]
                if mask & (mask - 1):  # the value is in two atoms or more
                    groups.append((mask, positions))
            if not _connected(groups, full):
                return []
        return [((), heads, groups)]


class PrefixFold:
    """The alignment combinations of a prefix of rows that survive both
    refutations, per skeleton (see the module docs).

    ``skeletons`` holds ``(skeleton, combos, survivors)`` for every
    skeleton whose rows all have alignments: ``combos`` is its product of
    per-row alignment counts, and a survivor is ``(later rows' flattened
    values, head candidates per output column, cross-atom groups)``, each
    group an atom mask with its positions.  A first row's fold
    (:meth:`ConcreteRows.fold`) holds every skeleton, with ``survivors``
    ``None``: the skeleton's seed.  A fold does not change once built,
    apart from fields its skeletons compute on first use, which any
    thread computes alike, so threads may share it.
    """

    __slots__ = ("rows", "config", "minimal_only", "skeletons")

    def __init__(
        self,
        rows: tuple[KExampleRow, ...],
        config: ConsistencyConfig,
        minimal_only: bool,
        skeletons: list,
    ):
        self.rows = rows
        self.config = config
        self.minimal_only = minimal_only
        self.skeletons = skeletons


class RowFacts:
    """What generation reads of one concrete row, resolved once: its
    ``tuples``, grouped per relation (``groups``), its
    :func:`alignment_signature`, its flattened alignments per skeleton
    shape, and its fold as a first row per ``minimal_only``
    (``folds``, filled by :meth:`ConcreteRows.fold`)."""

    __slots__ = ("tuples", "groups", "signature", "drops_exponents",
                 "folds", "_alignments")

    def __init__(self, tuples: tuple[Tuple, ...], drops_exponents: bool):
        self.tuples = tuples
        self.groups = _by_relation(tuples)
        self.signature = alignment_signature(
            map(_RELATION, tuples), drops_exponents
        )
        self.drops_exponents = drops_exponents
        self.folds: list[PrefixFold | None] = [None, None]
        self._alignments: dict[tuple[str, ...], list[tuple]] = {}

    def alignments(self, skeleton: _Skeleton) -> list[tuple]:
        """The row's alignments with ``skeleton``, each flattened to its
        values in (slot, column) order.  They depend on the skeleton's
        shape alone, so each shape's are enumerated once."""
        found = self._alignments.get(skeleton.shape)
        if found is None:
            found = self._alignments[skeleton.shape] = [
                sum(map(_VALUES, aligned), ()) for aligned in _alignments(
                    skeleton.slots, len(skeleton.tuples), self.groups,
                    self.drops_exponents,
                )
            ]
        return found


class ConcreteRows(dict):
    """Each concrete row's :class:`RowFacts` under one registry and
    consistency config, computed on first lookup.

    Calls of :func:`consistent_queries` that share one (their
    ``concrete_rows``) resolve, group and align each row once, and start
    from each first row's one fold.  Every entry holds what
    recomputation yields, so threads may share it.
    """

    def __init__(
        self, registry: AnnotationRegistry, config: ConsistencyConfig
    ):
        super().__init__()
        self.registry = registry
        self.config = config
        self.drops_exponents = config.semiring_ops().drops_exponents()

    def __missing__(self, row: KExampleRow) -> RowFacts:
        facts = self[row] = RowFacts(
            tuple(map(self.registry.resolve, row.occurrences)),
            self.drops_exponents,
        )
        return facts

    def fold(self, row: KExampleRow, minimal_only: bool) -> PrefixFold:
        """The fold of ``row`` as a first row: every skeleton, unseeded.

        It generates no query and checks no budget; a call that starts
        from it does both, and seeds a skeleton only when a later row
        aligns with it.  It is built once per ``minimal_only``.
        """
        facts = self[row]
        fold = facts.folds[minimal_only]
        if fold is None:
            fold = facts.folds[minimal_only] = PrefixFold(
                (row,), self.config, minimal_only,
                [(_Skeleton(tuples, row.output, minimal_only), 1, None)
                 for tuples in _skeletons(
                     facts.tuples, self.config, self.drops_exponents
                 )],
            )
        return fold


class _Layout:
    """One surviving alignment's class layout: each atom's relation and
    class per column, each head column's class or constant, and each
    constant class with its value."""

    __slots__ = ("atoms", "head", "constants", "count")

    def __init__(self, atoms: list, head: list,
                 constants: list[tuple[int, object]], count: int):
        self.atoms = atoms
        self.head = head
        self.constants = constants
        self.count = count


class QueryRecipe:
    """One generated query, unbuilt: its alignment's class layout and the
    constant classes flipped to variables."""

    __slots__ = ("layout", "flips")

    def __init__(self, layout: _Layout, flips: tuple[int, ...]):
        self.layout = layout
        self.flips = flips

    def build(self, key: tuple) -> CQ:
        """The query, with ``key``, its canonical key, preset.  Class ``i``
        is the term ``x{i}`` or, while a constant class is not flipped,
        its constant."""
        layout, flips = self.layout, self.flips
        terms: list[Term] = list(_variables(layout.count)[:layout.count])
        for idx, value in layout.constants:
            if idx not in flips:
                terms[idx] = Constant(value)
        return CQ(
            Atom(_HEAD, [
                terms[spec] if spec.__class__ is int else spec
                for spec in layout.head
            ]),
            [Atom(relation, map(terms.__getitem__, columns))
             for relation, columns in layout.atoms],
            canonical=key,
        )


class GeneratedQueries(Set):
    """The queries of one :func:`consistent_queries` call: a set of
    :class:`~repro.query.ast.CQ`, one per isomorphism class.

    ``recipes`` maps each query's canonical key to the
    :class:`QueryRecipe` of its representative (the first generated), in
    generation order, and ``fold`` is the :class:`PrefixFold` of the
    call's rows.  The length counts the keys; the queries are built when
    first read.
    """

    __slots__ = ("recipes", "fold", "_queries")

    def __init__(self, recipes: dict[tuple, QueryRecipe], fold: PrefixFold):
        self.recipes = recipes
        self.fold = fold
        self._queries: frozenset[CQ] | None = None

    def _built(self) -> frozenset[CQ]:
        if self._queries is None:
            self._queries = frozenset(
                recipe.build(key) for key, recipe in self.recipes.items()
            )
        return self._queries

    def __len__(self) -> int:
        return len(self.recipes)

    def __iter__(self) -> Iterator[CQ]:
        return iter(self._built())

    def __contains__(self, query: object) -> bool:
        return query in self._built()

    def __hash__(self) -> int:
        return hash(self._built())

    @classmethod
    def _from_iterable(cls, queries: Iterable[CQ]) -> frozenset[CQ]:
        """Set operations return a plain frozenset, as they did when the
        result was one."""
        return frozenset(queries)


def consistent_queries(
    example: KExample,
    config: ConsistencyConfig | None = None,
    *,
    minimal_only: bool = False,
    start: PrefixFold | None = None,
    concrete_rows: ConcreteRows | None = None,
) -> GeneratedQueries:
    """The candidate consistent queries w.r.t. a concrete K-example.

    Returns the most-specific consistent query of every alignment together
    with its constant-flip variants, deduplicated up to isomorphism: every
    CIM query of the example over the family the module docs describe.
    Raises :class:`~repro.errors.OptimizationError` when a skeleton has
    more than :data:`MAX_ALIGNMENT_COMBOS` alignment combinations.

    ``minimal_only`` builds only each alignment's minimal connecting flip
    variants: a subset of the connected part with the same CIM queries,
    representatives included.

    ``start``, the ``fold`` of an earlier result for a prefix of the
    example's rows under the same config and ``minimal_only``, continues
    that fold from the prefix's last row instead of the first; the
    queries are the same.  ``concrete_rows``, a :class:`ConcreteRows`
    over the example's registry and the same config, lends each row's
    resolved facts and first-row folds across calls.
    """
    config = config or ConsistencyConfig()
    fold = _fold(example, config, minimal_only, start, concrete_rows)
    output = example.rows[0].output
    recipes: dict[tuple, QueryRecipe] = {}
    for skeleton, _, survivors in fold.skeletons:
        for combo, heads, _ in survivors:
            _add_recipes(
                recipes, skeleton, (skeleton.values, *combo), heads, output,
                config, minimal_only,
            )
    return GeneratedQueries(recipes, fold)


def first_row_fold(
    example: KExample,
    config: ConsistencyConfig | None = None,
    *,
    minimal_only: bool = False,
) -> PrefixFold:
    """The fold of ``example``'s first row (see :meth:`ConcreteRows.fold`)."""
    return ConcreteRows(
        example.registry, config or ConsistencyConfig()
    ).fold(example.rows[0], minimal_only)


def _fold(
    example: KExample,
    config: ConsistencyConfig,
    minimal_only: bool,
    start: PrefixFold | None,
    concrete_rows: ConcreteRows | None,
) -> PrefixFold:
    """Fold ``example``'s rows after ``start``'s, or after its first row.

    Every skeleton's alignment count is checked against the budget before
    any alignment is enumerated, and a skeleton with a row that has no
    alignment is dropped.
    """
    concrete = concrete_rows
    if concrete is None:
        concrete = ConcreteRows(example.registry, config)
    elif (concrete.registry is not example.registry
          or concrete.config is not config and concrete.config != config):
        raise ValueError("concrete_rows resolve another registry or config")
    rows = example.rows
    if start is None:
        start = concrete.fold(rows[0], minimal_only)
    done = len(start.rows)
    if (rows[:done] != start.rows
            or start.config is not config and start.config != config
            or start.minimal_only != minimal_only):
        raise ValueError("start folds other rows, config or minimal_only")
    drops_exponents = concrete.drops_exponents
    later = [concrete[row] for row in rows[done:]]

    counted = []
    for skeleton, combos, survivors in start.skeletons:
        for facts in later:
            if not combos:
                break
            combos *= _alignment_count(
                skeleton.slots, facts.groups, drops_exponents
            )
        if combos > MAX_ALIGNMENT_COMBOS:
            raise OptimizationError(
                f"alignment budget exhausted: {combos} alignment "
                f"combinations exceed MAX_ALIGNMENT_COMBOS "
                f"({MAX_ALIGNMENT_COMBOS}); use fewer rows"
            )
        if combos:
            counted.append((skeleton, combos, survivors))
    if not counted:
        return PrefixFold(rows, config, minimal_only, [])

    # Per later row, the output columns whose values differ so far.
    varying = [
        [len(set(values)) > 1 for values in zip(*(
            row.output for row in rows[:index + 1]
        ))]
        for index in range(done, len(rows))
    ]
    skeletons = []
    for skeleton, combos, survivors in counted:
        if survivors is None:
            survivors = skeleton.seed
        for index, facts in enumerate(later):
            if not survivors:
                break
            survivors = _extend(
                skeleton, survivors, facts.alignments(skeleton),
                rows[done + index].output, varying[index], minimal_only,
            )
        skeletons.append((skeleton, combos, survivors))
    return PrefixFold(rows, config, minimal_only, skeletons)


def _extend(
    skeleton: _Skeleton,
    survivors: list,
    alignments: list[tuple],
    output: tuple,
    varying: list[bool],
    minimal_only: bool,
) -> list:
    """Each survivor extended by each of a row's (flattened) alignments,
    in product order, keeping the extensions that survive.

    ``varying`` flags the output columns whose values differ across the
    rows so far: such a column refutes an extension that leaves it no
    head candidate.
    """
    out = []
    for combo, heads, groups in survivors:
        for values in alignments:
            kept_heads = _refine_heads(heads, values, output, varying)
            if kept_heads is None:
                continue
            if minimal_only:
                kept_groups = _split_groups(groups, values, skeleton)
                if kept_groups is None:
                    continue
            else:
                kept_groups = groups
            out.append((combo + (values,), kept_heads, kept_groups))
    return out


def _refine_heads(heads, values: tuple, output: tuple, varying: list[bool]):
    """Each column's head candidates that hold the row's output value (the
    column's list itself when all do); ``None`` when a varying column
    keeps none."""
    kept_heads = []
    for candidates, target, required in zip(heads, output, varying):
        for position in candidates:
            if values[position] != target:
                candidates = [p for p in candidates if values[p] == target]
                break
        if required and not candidates:
            return None
        kept_heads.append(candidates)
    return kept_heads


def _split_groups(groups: list, values: tuple, skeleton: _Skeleton):
    """Each cross-atom group split by a row's values, keeping the parts
    that still span two atoms; ``None`` when they no longer connect the
    atoms."""
    kept: list | None = None
    for index, group in enumerate(groups):
        members = group[1]
        value = values[members[0]]
        for position in members:
            if values[position] != value:
                break
        else:
            if kept is not None:
                kept.append(group)
            continue
        if kept is None:
            kept = groups[:index]
        if len(members) == 2:
            continue  # split into two single positions
        parts: dict = {}
        for position in members:
            parts.setdefault(values[position], []).append(position)
        bits = skeleton.bits
        for part in parts.values():
            mask = 0
            for position in part:
                mask |= bits[position]
            if mask & (mask - 1):
                kept.append((mask, part))
    if kept is None:
        return groups
    return kept if _connected(kept, skeleton.full) else None


def _connected(groups: list, full: int) -> bool:
    """Whether the groups' atom masks join every atom of ``full``."""
    reached = full & -full
    while reached != full:
        grown = reached
        for mask, _ in groups:
            if mask & grown:
                grown |= mask
        if grown == reached:
            return False
        reached = grown
    return True


def _skeletons(
    base: tuple[Tuple, ...],
    config: ConsistencyConfig,
    drops_exponents: bool,
) -> Iterator[tuple[Tuple, ...]]:
    """Candidate skeleton slot lists derived from the first row's tuples,
    ``base``.

    Without exponent information the query may use a tuple more times than
    the (set-valued) provenance shows, so slots may be duplicated up to
    ``max_tuple_reuse`` times each.
    """
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


def _slots(skeleton: Sequence[Tuple]) -> dict[str, list[int]]:
    """A skeleton's slot indexes per relation, in order of first slot."""
    out: dict[str, list[int]] = {}
    for index, tup in enumerate(skeleton):
        out.setdefault(tup.relation, []).append(index)
    return out


def _by_relation(row_tuples: Sequence[Tuple]) -> dict[str, list[Tuple]]:
    """A row's tuples per relation."""
    out: dict[str, list[Tuple]] = {}
    for tup in row_tuples:
        out.setdefault(tup.relation, []).append(tup)
    return out


def _alignment_count(
    slots: dict[str, list[int]],
    row: dict[str, list[Tuple]],
    drops_exponents: bool,
) -> int:
    """How many alignments :func:`_alignments` yields, from the relation
    multisets alone: the distinct permutations of each relation's tuples
    or, when the semiring drops exponents, the surjections onto its
    distinct tuples."""
    if slots.keys() != row.keys():
        return 0
    count = 1
    for relation, slot_indexes in slots.items():
        n = len(slot_indexes)
        tuples = row[relation]
        if drops_exponents:
            d = len(set(tuples))
            count *= sum(
                (-1) ** j * math.comb(d, j) * (d - j) ** n
                for j in range(d + 1)
            )
        elif len(tuples) != n:
            return 0
        elif n > 1:
            count *= math.factorial(n)
            distinct = set(tuples)
            if len(distinct) < n:
                for tup in distinct:
                    count //= math.factorial(tuples.count(tup))
    return count


def _alignments(
    slots: dict[str, list[int]],
    size: int,
    row: dict[str, list[Tuple]],
    drops_exponents: bool,
) -> Iterator[tuple[Tuple, ...]]:
    """Assignments of one of the row's tuples to each of a skeleton's
    ``size`` slots.

    With visible exponents this must be a multiset bijection per relation
    name; without, any relation-respecting surjection onto the row's
    distinct tuples is allowed.  Relations go in order of first slot, and
    each relation's choices in permutation (or product) order.
    """
    if slots.keys() != row.keys():
        return
    per_relation: list[tuple[list[int], list[tuple[Tuple, ...]]]] = []
    for relation, slot_indexes in slots.items():
        candidates = row[relation]
        if len(candidates) == 1 and (
            drops_exponents or len(slot_indexes) == 1
        ):
            choices = [(candidates[0],) * len(slot_indexes)]
        elif drops_exponents:
            choices = _surjections(
                len(slot_indexes), list(dict.fromkeys(candidates))
            )
        elif len(candidates) != len(slot_indexes):
            return
        else:
            choices = list(_distinct_permutations(candidates))
        if not choices:
            return
        per_relation.append((slot_indexes, choices))

    aligned: list = [None] * size
    for combo in itertools.product(*[choices for _, choices in per_relation]):
        for (slot_indexes, _), chosen in zip(per_relation, combo):
            for slot, tup in zip(slot_indexes, chosen):
                aligned[slot] = tup
        yield tuple(aligned)


def _distinct_permutations(items: list[Tuple]) -> Iterator[tuple[Tuple, ...]]:
    """Permutations of a multiset without duplicates."""
    seen: set[tuple[Tuple, ...]] = set()
    for perm in itertools.permutations(items):
        if perm not in seen:
            seen.add(perm)
            yield perm


def _surjections(n: int, targets: list[Tuple]) -> list[tuple[Tuple, ...]]:
    """All length-``n`` tuples over ``targets`` using every one of them."""
    if len(targets) > n:
        return []
    wanted = set(targets)
    return [
        combo for combo in itertools.product(targets, repeat=n)
        if set(combo) == wanted
    ]


#: ``x0``, ``x1``, ...: every layout names class ``i`` by the same object.
_VARIABLES: list[Variable] = []
_VARIABLES_LOCK = threading.Lock()


def _variables(count: int) -> list[Variable]:
    """The shared variables, at least ``count`` of them."""
    if len(_VARIABLES) < count:
        with _VARIABLES_LOCK:
            _VARIABLES.extend(
                Variable(f"x{idx}") for idx in range(len(_VARIABLES), count)
            )
    return _VARIABLES


def _add_recipes(
    recipes: dict[tuple, QueryRecipe],
    skeleton: _Skeleton,
    matrix: tuple[tuple, ...],
    heads: Sequence[Sequence[int]],
    output: tuple,
    config: ConsistencyConfig,
    minimal_only: bool,
) -> None:
    """Key the most-specific query and flip variants of one surviving
    alignment matrix, one row of flattened values per K-example row, and
    keep a recipe under each key ``recipes`` lacks.

    The alignment's class layout is computed once: positions with equal
    cross-row value vectors share a class, numbered by first appearance in
    (slot, column) order, and class ``i`` is a variable or, while a
    constant class is not flipped, its constant.  An output column's head
    term is the class of its head candidates or, with none, its value in
    the first row's ``output``.  Each flip variant only picks the term of
    every class, and is keyed from the layout, each variable class spelled
    by its number and each constant by its repr, without building it;
    under ``require_variable`` a ground base is no flip set.  With
    ``minimal_only``, only the minimal connecting flip sets are keyed (see
    :func:`_minimal_flip_sets`).
    """
    class_of: dict[tuple, int] = {}
    classes = [
        class_of.setdefault(vector, len(class_of)) for vector in zip(*matrix)
    ]
    atoms = [
        (relation, classes[start:stop])
        for relation, start, stop in skeleton.ranges
    ]
    head: list[int | Constant] = [
        classes[candidates[0]] if candidates else Constant(output[column])
        for column, candidates in enumerate(heads)
    ]

    spelled: list = list(range(len(class_of)))
    constants = []
    for idx, vector in enumerate(class_of):
        if len(set(vector)) == 1:
            constants.append((idx, vector[0]))
            spelled[idx] = repr(vector[0])
    constant_classes = [idx for idx, _ in constants]
    smallest = int(
        config.require_variable and len(constant_classes) == len(class_of)
    )
    if minimal_only:
        flip_sets = _minimal_flip_sets(
            [set(columns) for _, columns in atoms], constant_classes, smallest
        )
    else:
        flip_sets = itertools.chain.from_iterable(
            itertools.combinations(constant_classes, size)
            for size in range(smallest, len(constant_classes) + 1)
        )

    head_spelled = [
        spec if spec.__class__ is int else repr(spec) for spec in head
    ]
    layout = None
    for flips in flip_sets:
        terms = spelled.copy()
        for idx in flips:
            terms[idx] = idx
        key = canonical_key(
            (_HEAD, [
                terms[spec] if spec.__class__ is int else spec
                for spec in head_spelled
            ]),
            [(relation, [terms[c] for c in columns])
             for relation, columns in atoms],
        )
        if key not in recipes:
            if layout is None:
                layout = _Layout(atoms, head, constants, len(class_of))
            recipes[key] = QueryRecipe(layout, flips)


def _minimal_flip_sets(
    atom_classes: list[set[int]], constant_classes: list[int], smallest: int
) -> Iterator[tuple[int, ...]]:
    """Inclusion-minimal flip sets of at least ``smallest`` classes whose
    atoms' variable classes overlap into one component.

    The layout survived the connectivity refutation, so flipping every
    class connects it.  Each class of a minimal set joins two components,
    so it is shared by two atoms (unless there is one atom), and a set
    holds at most (atoms - 1) classes.  Sets go by size, skipping
    supersets of those found.
    """
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


def trivial_union_query(example: KExample) -> "object":
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
        head = Atom(_HEAD, [Constant(v) for v in row.output])
        disjuncts.append(CQ(head, atoms))
    return UCQ(disjuncts)
