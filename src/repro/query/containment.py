"""Conjunctive-query containment via homomorphisms (Chandra–Merlin 1977).

``Q1 ⊆ Q2`` (over set semantics, and for the natural order of the
positively-ordered semirings used here) iff there is a homomorphism from
``Q2`` to ``Q1``: a mapping of Q2's variables to Q1's terms that maps every
body atom of Q2 onto a body atom of Q1 and the head onto the head.

The search is a straightforward backtracking over atom assignments with
unification, which is exponential in the worst case (the problem is
NP-complete) but fast for the small queries arising from K-examples.
"""

from __future__ import annotations

from typing import Optional

from repro.query.ast import CQ, Atom, Constant, Term, Variable


def find_homomorphism(source: CQ, target: CQ) -> Optional[dict[Variable, Term]]:
    """A homomorphism from ``source`` to ``target``, or ``None``.

    Maps each variable of ``source`` to a term of ``target`` such that every
    source body atom lands on some target body atom and the source head maps
    exactly onto the target head.  The mapping is keyed by source variables
    and only ever compared against target terms, so the two queries may
    share variable names.
    """
    if source.head.relation != target.head.relation:
        return None
    if source.head.arity != target.head.arity:
        return None
    # A homomorphism maps every constant to itself.
    if not source.constants() <= target.constants():
        return None

    mapping: dict[Variable, Term] = {}
    if not _unify_atom(source.head, target.head, mapping):
        return None

    by_relation: dict[str, list[Atom]] = {}
    for atom in target.body:
        by_relation.setdefault(atom.relation, []).append(atom)

    # Most-constrained-first: atoms with fewer candidate images first.
    ordered = sorted(
        source.body, key=lambda a: len(by_relation.get(a.relation, ()))
    )

    if _assign(ordered, 0, by_relation, mapping):
        return mapping
    return None


def _assign(
    atoms: list[Atom],
    index: int,
    by_relation: dict[str, list[Atom]],
    mapping: dict[Variable, Term],
) -> bool:
    if index == len(atoms):
        return True
    atom = atoms[index]
    for candidate in by_relation.get(atom.relation, ()):
        if candidate.arity != atom.arity:
            continue
        trail = dict(mapping)
        if _unify_atom(atom, candidate, mapping):
            if _assign(atoms, index + 1, by_relation, mapping):
                return True
        mapping.clear()
        mapping.update(trail)
    return False


def _unify_atom(source: Atom, target: Atom, mapping: dict[Variable, Term]) -> bool:
    """Extend ``mapping`` so ``source`` maps onto ``target``; False if impossible."""
    if source.relation != target.relation or source.arity != target.arity:
        return False
    for s_term, t_term in zip(source.terms, target.terms):
        if isinstance(s_term, Constant):
            if not isinstance(t_term, Constant) or s_term != t_term:
                return False
        else:
            bound = mapping.get(s_term)
            if bound is None:
                mapping[s_term] = t_term
            elif bound != t_term:
                return False
    return True


def is_contained_in(q1: CQ, q2: CQ) -> bool:
    """True iff ``q1 ⊆ q2`` (every answer of q1 is an answer of q2)."""
    return find_homomorphism(q2, q1) is not None


def is_equivalent(q1: CQ, q2: CQ) -> bool:
    """True iff ``q1`` and ``q2`` return the same answers on every database."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def is_strictly_contained_in(q1: CQ, q2: CQ) -> bool:
    """True iff ``q1 ⊊ q2``: contained but not equivalent."""
    return is_contained_in(q1, q2) and not is_contained_in(q2, q1)


def ucq_is_contained_in(u1, u2) -> bool:
    """``u1 ⊆ u2`` for UCQs: every disjunct of u1 is contained in some
    disjunct of u2 (Sagiv-Yannakakis)."""
    from repro.query.ast import UCQ

    d1 = u1.disjuncts if isinstance(u1, UCQ) else (u1,)
    d2 = u2.disjuncts if isinstance(u2, UCQ) else (u2,)
    return all(any(is_contained_in(a, b) for b in d2) for a in d1)


def ucq_is_equivalent(u1, u2) -> bool:
    """UCQ equivalence via mutual containment."""
    return ucq_is_contained_in(u1, u2) and ucq_is_contained_in(u2, u1)
