"""Abstract syntax for conjunctive queries (CQs) and unions thereof (UCQs).

A CQ is ``Q(u) :- R1(v1), ..., Rl(vl)`` where every head variable occurs in
the body (Section 2.1 of the paper).  Terms are either :class:`Variable` or
:class:`Constant`; all AST nodes are immutable and hashable so queries can
be deduplicated, cached, and used as dictionary keys.

Queries compare structurally.  For comparison *up to variable renaming*
(isomorphism) use :meth:`CQ.canonical`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Mapping
from typing import Any, Union

from repro.errors import ParseError


class Variable:
    """A query variable, e.g. ``x``."""

    __slots__ = ("_name", "_hash")

    def __init__(self, name: str):
        self._name = str(name)
        self._hash = hash(("var", self._name))

    @property
    def name(self) -> str:
        return self._name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self._name == other._name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self._name


class Constant:
    """A query constant, e.g. ``'Dance'`` or ``1995``."""

    __slots__ = ("_value", "_hash")

    def __init__(self, value: Any):
        self._value = value
        self._hash = hash(("const", value))

    @property
    def value(self) -> Any:
        return self._value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self._value == other._value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return repr(self._value)


Term = Union[Variable, Constant]


class Atom:
    """A relational atom ``R(t1, ..., tn)``."""

    __slots__ = ("_relation", "_terms", "_hash")

    def __init__(self, relation: str, terms: Iterable[Term]):
        self._relation = str(relation)
        self._terms = tuple(terms)
        for term in self._terms:
            if not isinstance(term, (Variable, Constant)):
                raise TypeError(f"atom term must be Variable or Constant: {term!r}")
        self._hash = hash((self._relation, self._terms))

    @property
    def relation(self) -> str:
        return self._relation

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._terms

    @property
    def arity(self) -> int:
        return len(self._terms)

    def variables(self) -> frozenset[Variable]:
        return frozenset(t for t in self._terms if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        return frozenset(t for t in self._terms if isinstance(t, Constant))

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Replace variables according to ``mapping``."""
        return Atom(
            self._relation,
            (mapping.get(t, t) if isinstance(t, Variable) else t for t in self._terms),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self._relation == other._relation
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self._relation}({', '.join(map(repr, self._terms))})"


class CQ:
    """A conjunctive query with head and body.

    The body is kept as a tuple in construction order but equality and
    hashing use the *sorted* body so syntactically reordered queries
    coincide.  Full isomorphism-invariant identity is provided by
    :meth:`canonical`.
    """

    __slots__ = ("_head", "_body", "_hash", "_constants", "_canonical_cache")

    def __init__(self, head: Atom, body: Iterable[Atom]):
        self._head = head
        self._body = tuple(body)
        if not self._body:
            raise ParseError("a CQ must have a non-empty body")
        head_vars = head.variables()
        body_vars: set[Variable] = set()
        for atom in self._body:
            body_vars.update(atom.variables())
        missing = head_vars - body_vars
        if missing:
            raise ParseError(
                f"head variables not bound in body: "
                f"{sorted(v.name for v in missing)}"
            )
        # Hash, constants and canonical key are computed on first use, so
        # the queries consistent-query generation drops as canonical
        # duplicates are never hashed.
        self._hash: "int | None" = None
        self._constants: "frozenset[Constant] | None" = None
        self._canonical_cache: "tuple | None" = None

    @property
    def head(self) -> Atom:
        return self._head

    @property
    def body(self) -> tuple[Atom, ...]:
        return self._body

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set(self._head.variables())
        for atom in self._body:
            out.update(atom.variables())
        return frozenset(out)

    def constants(self) -> frozenset[Constant]:
        if self._constants is None:
            out: set[Constant] = set(self._head.constants())
            for atom in self._body:
                out.update(atom.constants())
            self._constants = frozenset(out)
        return self._constants

    def relations(self) -> tuple[str, ...]:
        """Relation names in the body, with repetitions, sorted."""
        return tuple(sorted(atom.relation for atom in self._body))

    def num_joins(self) -> int:
        """Number of edges in the join graph (atoms sharing a variable)."""
        edges = 0
        for i, a in enumerate(self._body):
            for b in self._body[i + 1:]:
                if a.variables() & b.variables():
                    edges += 1
        return edges

    def substitute(self, mapping: Mapping[Variable, Term]) -> "CQ":
        return CQ(
            self._head.substitute(mapping),
            (atom.substitute(mapping) for atom in self._body),
        )

    def canonical(self) -> tuple:
        """An isomorphism-invariant key: two CQs get the same key iff they
        are equal up to variable renaming and body reordering.

        Computed by trying variable numberings in every order of first
        appearance induced by body permutations would be factorial; instead
        we canonicalize greedily: sort atoms by an invariant signature, then
        number variables by first appearance, then refine by trying all
        orders among atoms with identical signatures (bounded in practice
        by self-join multiplicity).
        """
        if self._canonical_cache is not None:
            return self._canonical_cache

        atoms = list(self._body)
        head_vars = self._head.variables()
        occurrences = Counter(
            term for atom in atoms for term in atom.terms
            if isinstance(term, Variable)
        )
        signatures = [
            _atom_signature(atom, occurrences, head_vars) for atom in atoms
        ]
        order = sorted(range(len(atoms)), key=lambda i: signatures[i])
        groups: list[list[int]] = []
        for idx in order:
            if groups and signatures[groups[-1][-1]] == signatures[idx]:
                groups[-1].append(idx)
            else:
                groups.append([idx])

        best: "tuple | None" = None
        for arrangement in _group_permutations(groups):
            key = _numbered_key(self._head, [atoms[i] for i in arrangement])
            if best is None or key < best:
                best = key
        assert best is not None
        self._canonical_cache = best
        return best

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CQ)
            and self._head == other._head
            and sorted(self._body, key=_atom_key) == sorted(other._body, key=_atom_key)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._head, tuple(sorted(self._body, key=_atom_key)))
            )
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(map(repr, self._body))
        return f"{self._head!r} :- {body}"


class UCQ:
    """A union of conjunctive queries."""

    __slots__ = ("_disjuncts", "_hash")

    def __init__(self, disjuncts: Iterable[CQ]):
        self._disjuncts = tuple(disjuncts)
        if not self._disjuncts:
            raise ParseError("a UCQ must have at least one disjunct")
        arities = {cq.head.arity for cq in self._disjuncts}
        if len(arities) != 1:
            raise ParseError(f"UCQ disjuncts disagree on head arity: {arities}")
        self._hash = hash(frozenset(self._disjuncts))

    @property
    def disjuncts(self) -> tuple[CQ, ...]:
        return self._disjuncts

    def is_single_cq(self) -> bool:
        return len(self._disjuncts) == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UCQ) and frozenset(self._disjuncts) == frozenset(
            other._disjuncts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return " UNION ".join(repr(cq) for cq in self._disjuncts)


def _atom_key(atom: Atom) -> tuple:
    return (
        atom.relation,
        tuple(
            ("c", repr(t.value)) if isinstance(t, Constant) else ("v", t.name)
            for t in atom.terms
        ),
    )


def _atom_signature(
    atom: Atom,
    occurrences: Mapping[Variable, int],
    head_vars: frozenset[Variable],
) -> tuple:
    """A renaming-invariant signature for sorting atoms before numbering.

    ``occurrences`` counts each variable's occurrences over the whole body
    and ``head_vars`` are the head's variables; both are per query, so the
    caller computes them once for all of its atoms.
    """
    per_term = tuple(
        ("c", repr(t.value))
        if isinstance(t, Constant)
        else ("v", occurrences[t], t in head_vars)
        for t in atom.terms
    )
    return (atom.relation, per_term)


def _group_permutations(groups: list[list[int]]):
    """All arrangements permuting only within signature-equal groups."""
    per_group = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*per_group):
        flat: list[int] = []
        for perm in combo:
            flat.extend(perm)
        yield flat


def _numbered_key(head: Atom, ordered_atoms: list[Atom]) -> tuple:
    """Number variables by first appearance over head then atoms."""
    numbering: dict[Variable, int] = {}

    def term_key(term: Term) -> tuple:
        if isinstance(term, Constant):
            return ("c", repr(term.value))
        if term not in numbering:
            numbering[term] = len(numbering)
        return ("v", numbering[term])

    head_part = (head.relation, tuple(term_key(t) for t in head.terms))
    body_part = tuple(
        (atom.relation, tuple(term_key(t) for t in atom.terms))
        for atom in ordered_atoms
    )
    return (head_part, body_part)
