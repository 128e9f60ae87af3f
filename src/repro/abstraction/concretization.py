"""Concretizations of abstracted K-examples (Definition 3.3).

A concretization replaces every abstract label occurrence with one of the
leaves below it.  The engine provides:

* exact counting via the product formula of Proposition 3.5,
* lazy enumeration (full or per-row),
* the connectivity filter of Section 4.1 (a concretization whose monomial
  tuples do not form a connected constant-sharing graph can never admit a
  connected consistent query), applied by generation: a connected-only
  enumeration reads the connected rows off a per-label value index and
  never builds a disconnected one,
* memoized per-label value indexes (one of the Figure 19 ablation
  components).

The engine resolves leaf labels to tuples through the K-example's
annotation registry, which must cover every leaf of the tree (the tree is
built over database annotations).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterator

from repro.abstraction.tree import AbstractionTree
from repro.db.database import AnnotationRegistry
from repro.provenance.kexample import AbstractedKExample, KExample, KExampleRow

#: Per label: each choice's tuple value set, and per value the bitmask of
#: the choices holding it (bit ``j`` stands for choice ``j``).
_ValueIndex = tuple[tuple[frozenset, ...], dict[Hashable, int]]


class ConcretizationEngine:
    """Counts, enumerates, and filters concretizations of abstractions."""

    def __init__(
        self,
        tree: AbstractionTree,
        registry: AnnotationRegistry,
        use_connectivity_cache: bool = True,
    ):
        self._tree = tree
        self._registry = registry
        self._use_cache = use_connectivity_cache
        self._value_indexes: dict[str, _ValueIndex] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def tree(self) -> AbstractionTree:
        return self._tree

    @property
    def connectivity_cache_size(self) -> int:
        """Memoized per-label value indexes (0 when the cache is off)."""
        return len(self._value_indexes)

    # -- counting (Proposition 3.5) ----------------------------------------

    def count(self, abstracted: AbstractedKExample) -> int:
        """``|C(Ex~)|``: the product of subtree leaf counts per occurrence."""
        total = 1
        for row in abstracted.rows:
            for label in row.occurrences:
                if label in self._tree and not self._tree.is_leaf(label):
                    total *= self._tree.leaf_count(label)
        return total

    def occurrence_choices(self, row: KExampleRow) -> list[tuple[str, ...]]:
        """Per occurrence, the candidate concrete annotations.

        A concrete label has the single choice of itself; an abstract label
        offers every leaf of its subtree.
        """
        return [self._choices(label) for label in row.occurrences]

    def _choices(self, label: str) -> tuple[str, ...]:
        if label in self._tree and not self._tree.is_leaf(label):
            return tuple(self._tree.leaves_under(label))
        return (label,)

    # -- enumeration --------------------------------------------------------

    def concretize_row(
        self, row: KExampleRow, *, connected_only: bool = False
    ) -> Iterator[KExampleRow]:
        """All concrete versions of one abstracted row, in product order.

        With ``connected_only`` only the connected ones (Section 4.1), in
        the same order as filtering the full product; no disconnected
        combination is built or checked.  A row of one occurrence is
        connected by convention.
        """
        choices = self.occurrence_choices(row)
        if connected_only and len(choices) > 1:
            combos: Iterator[tuple[str, ...]] = (
                tuple(options[pick] for options, pick in zip(choices, picks))
                for picks in self._connected_picks(row.occurrences, choices)
            )
        else:
            combos = itertools.product(*choices)
        for combo in combos:
            yield KExampleRow(row.output, combo)

    def concretizations(
        self,
        abstracted: AbstractedKExample,
        connected_only: bool = False,
    ) -> Iterator[KExample]:
        """Enumerate the concretization set ``C(Ex~)`` lazily.

        With ``connected_only`` the connectivity filter is applied per row
        *during* enumeration, pruning the product space early.
        """
        rows_choices = []
        for row in abstracted.rows:
            concrete_rows = list(
                self.concretize_row(row, connected_only=connected_only)
            )
            if not concrete_rows:
                return
            rows_choices.append(concrete_rows)
        for combo in itertools.product(*rows_choices):
            yield KExample(combo, self._registry)

    # -- connectivity (Section 4.1, "Concretizations connectivity") ---------

    def row_connected(self, row: KExampleRow) -> bool:
        """Whether the row's tuples form a connected constant-sharing graph.

        For an abstract row: whether any of its concretizations does.
        """
        connected = self.concretize_row(row, connected_only=True)
        return next(connected, None) is not None

    def _connected_picks(
        self, labels: tuple[str, ...], choices: list[tuple[str, ...]]
    ) -> list[tuple[int, ...]]:
        """The choice-index tuples of the connected combinations, sorted.

        The occurrence with the most choices goes innermost.  Each pick of
        the others splits their tuples into overlap components; an inner
        choice connects the row iff its values meet every component, so
        the kept inner choices are the AND, over components, of the OR of
        the inner index's masks over the component's values.
        """
        indexes = [self._value_index(label) for label in labels]
        inner = max(range(len(choices)), key=lambda i: len(choices[i]))
        inner_masks = indexes[inner][1]
        outer = [indexes[i][0] for i in range(len(choices)) if i != inner]
        kept: list[tuple[int, ...]] = []
        for picks in itertools.product(*(range(len(sets)) for sets in outer)):
            components: list[frozenset] = []
            for value_sets, pick in zip(outer, picks):
                merged = value_sets[pick]
                disjoint = []
                for component in components:
                    if merged.isdisjoint(component):
                        disjoint.append(component)
                    else:
                        merged = merged | component
                disjoint.append(merged)
                components = disjoint
            connecting = -1
            for component in components:
                reached = 0
                for value in component:
                    reached |= inner_masks.get(value, 0)
                connecting &= reached
            head, tail = picks[:inner], picks[inner:]
            while connecting:
                low = connecting & -connecting
                kept.append(head + (low.bit_length() - 1,) + tail)
                connecting ^= low
        kept.sort()
        return kept

    def _value_index(self, label: str) -> _ValueIndex:
        """The label's value index, memoized when the cache is on."""
        if self._use_cache:
            cached = self._value_indexes.get(label)
            if cached is not None:
                self.cache_hits += 1
                return cached
        value_sets = tuple(
            self._registry.resolve(choice).value_set()
            for choice in self._choices(label)
        )
        masks: dict[Hashable, int] = {}
        for position, values in enumerate(value_sets):
            for value in values:
                masks[value] = masks.get(value, 0) | (1 << position)
        index = (value_sets, masks)
        if self._use_cache:
            self.cache_misses += 1
            self._value_indexes[label] = index
        return index
