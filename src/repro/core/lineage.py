"""Privacy analysis under the ``Lin(X)`` semiring (Section 4, "The Lin(X)
semiring").

``Lin(X)`` flattens an output's provenance to the *set* of contributing
annotations, and its natural order is set containment — so a published
lineage may be any subset of the true one.  The paper proposes handling
this by *completing* partial lineage "in the most reasonable way" (citing
Gilad & Moskovitch, CIKM'20) before running the standard pipeline; it
defers the implementation to future work.  This module provides that
completion:

:func:`complete_lineage` searches the database for minimal connected tuple
multisets that (a) contain the published lineage, (b) can derive the
output row, and (c) stay within a size budget.  Each completion is a
candidate provenance monomial; packaging them as K-example rows lets
Algorithm 1 measure privacy exactly as in the N[X] case.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.db.database import KDatabase
from repro.db.tuples import Tuple
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.join_graph import overlap_connected
from repro.semirings.polynomial import Monomial


def complete_lineage(
    output: tuple,
    lineage: Iterable[str],
    database: KDatabase,
    max_extra_tuples: int = 2,
    max_completions: int = 50,
) -> list[Monomial]:
    """Candidate full provenance monomials for a partial ``Lin(X)`` row.

    Starting from the published annotations, grows the tuple set with up to
    ``max_extra_tuples`` database tuples so that the result is *connected*
    (tuples chain through shared constants) and *covers the output* (every
    output value appears in some tuple).  Returns the inclusion-minimal
    completions, smallest first.
    """
    base = [database.resolve(ann) for ann in dict.fromkeys(lineage)]
    completions: list[Monomial] = []
    seen: set[frozenset[str]] = set()

    def covers_output(tuples: list[Tuple]) -> bool:
        values = set()
        for tup in tuples:
            values.update(tup.values)
        return all(v in values for v in output)

    def candidates_for(tuples: list[Tuple]) -> Iterator[Tuple]:
        """Tuples sharing a value with the current set (join-reachable)."""
        values = set()
        for tup in tuples:
            values.update(tup.values)
        present = {t.annotation for t in tuples}
        for tup in database.tuples():
            if tup.annotation in present:
                continue
            if set(tup.values) & values:
                yield tup

    def search(tuples: list[Tuple], budget: int) -> None:
        if len(completions) >= max_completions:
            return
        key = frozenset(t.annotation for t in tuples)
        if key in seen:
            return
        seen.add(key)
        connected = overlap_connected([tup.value_set() for tup in tuples])
        if connected and covers_output(tuples):
            monomial = Monomial(t.annotation for t in tuples)
            if not any(existing.divides(monomial) for existing in completions):
                completions.append(monomial)
            return  # minimal: no need to grow further on this branch
        if budget == 0:
            return
        for candidate in candidates_for(tuples):
            search(tuples + [candidate], budget - 1)
            if len(completions) >= max_completions:
                return

    search(base, max_extra_tuples)
    completions.sort(key=lambda m: (m.degree(), m.items))
    return completions


def kexamples_from_lineage(
    rows: list[tuple[tuple, Iterable[str]]],
    database: KDatabase,
    max_extra_tuples: int = 2,
    max_examples: int = 20,
) -> list[KExample]:
    """All K-examples obtainable by completing each row's lineage.

    ``rows`` is ``[(output, lineage annotations), ...]``.  The cross
    product of per-row completions is truncated at ``max_examples``.
    """
    per_row: list[list[KExampleRow]] = []
    for output, lineage in rows:
        monomials = complete_lineage(
            output, lineage, database, max_extra_tuples=max_extra_tuples
        )
        if not monomials:
            return []
        per_row.append([KExampleRow(output, m) for m in monomials])

    examples: list[KExample] = []

    def build(index: int, chosen: list[KExampleRow]) -> None:
        if len(examples) >= max_examples:
            return
        if index == len(per_row):
            examples.append(KExample(chosen, database.registry))
            return
        for row in per_row[index]:
            build(index + 1, chosen + [row])

    build(0, [])
    return examples
