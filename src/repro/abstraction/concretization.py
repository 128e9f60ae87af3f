"""Concretizations of abstracted K-examples (Definition 3.3).

A concretization replaces every abstract label occurrence with one of the
leaves below it.  The engine provides:

* exact counting via the product formula of Proposition 3.5,
* lazy enumeration (full or per-row),
* the connectivity filter of Section 4.1 (a concretization whose monomial
  tuples do not form a connected constant-sharing graph can never admit a
  connected consistent query),
* memoized connectivity checks (one of the Figure 19 ablation components).

The engine resolves leaf labels to tuples through the K-example's
annotation registry, which must cover every leaf of the tree (the tree is
built over database annotations).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.abstraction.tree import AbstractionTree
from repro.db.database import AnnotationRegistry
from repro.provenance.kexample import AbstractedKExample, KExample, KExampleRow
from repro.query.join_graph import overlap_connected


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
        self._connectivity_cache: dict[tuple[str, ...], bool] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def tree(self) -> AbstractionTree:
        return self._tree

    @property
    def connectivity_cache_size(self) -> int:
        """Memoized per-row connectivity verdicts (0 when the cache is off)."""
        return len(self._connectivity_cache)

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
        choices = []
        for label in row.occurrences:
            if label in self._tree and not self._tree.is_leaf(label):
                choices.append(tuple(self._tree.leaves_under(label)))
            else:
                choices.append((label,))
        return choices

    # -- enumeration --------------------------------------------------------

    def concretize_row(self, row: KExampleRow) -> Iterator[KExampleRow]:
        """All concrete versions of one abstracted row."""
        for combo in itertools.product(*self.occurrence_choices(row)):
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
            concrete_rows = list(self.concretize_row(row))
            if connected_only:
                concrete_rows = [r for r in concrete_rows if self.row_connected(r)]
            if not concrete_rows:
                return
            rows_choices.append(concrete_rows)
        for combo in itertools.product(*rows_choices):
            yield KExample(combo, self._registry)

    # -- connectivity (Section 4.1, "Concretizations connectivity") ---------

    def row_connected(self, row: KExampleRow) -> bool:
        """Whether the row's tuples form a connected constant-sharing graph."""
        key = row.occurrences
        if self._use_cache:
            cached = self._connectivity_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
        result = overlap_connected(
            [self._registry.resolve(ann).value_set() for ann in row.occurrences]
        )
        if self._use_cache:
            self.cache_misses += 1
            self._connectivity_cache[key] = result
        return result

    def example_connected(self, example: KExample) -> bool:
        """Whether every row of a concrete K-example is connected."""
        return all(self.row_connected(row) for row in example.rows)
