"""Join graphs and connectivity of queries.

The join graph of a CQ has the body atoms as nodes with an edge between two
atoms iff they share at least one *variable* (Section 3.3).  A query is
connected iff its join graph is; a UCQ is connected iff every disjunct is
(the Table 4 adjustment for the UCQ case).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence, Set

from repro.query.ast import CQ, UCQ


def overlap_connected(sets: Sequence[Set[Hashable]]) -> bool:
    """True iff the overlap graph of ``sets`` is connected.

    The graph has one node per set and an edge wherever two sets
    intersect.  Fewer than two sets are connected by convention.  Grows
    the union of the first set's component until no remaining set meets
    it, without building the graph.
    """
    if len(sets) <= 1:
        return True
    reached = set(sets[0])
    pending = list(sets[1:])
    grew = True
    while pending and grew:
        grew = False
        rest = []
        for members in pending:
            if reached.isdisjoint(members):
                rest.append(members)
            else:
                reached.update(members)
                grew = True
        pending = rest
    return not pending


def is_connected(query: "CQ | UCQ") -> bool:
    """True iff the query's join graph is connected.

    Single-atom bodies are connected by convention.  For a UCQ, every
    disjunct must be connected.
    """
    if isinstance(query, UCQ):
        return all(is_connected(cq) for cq in query.disjuncts)
    return overlap_connected([atom.variables() for atom in query.body])
