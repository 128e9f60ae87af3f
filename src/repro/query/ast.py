"""Abstract syntax for conjunctive queries (CQs) and unions thereof (UCQs).

A CQ is ``Q(u) :- R1(v1), ..., Rl(vl)`` where every head variable occurs in
the body (Section 2.1 of the paper).  Terms are either :class:`Variable` or
:class:`Constant`; all AST nodes are immutable and hashable so queries can
be deduplicated, cached, and used as dictionary keys.

Queries compare structurally.  For comparison *up to variable renaming*
(isomorphism) use :meth:`CQ.canonical`, whose key is an opaque flat tuple:
compare keys for equality or use them as dict keys, but do not order,
persist or hash them into results, since their layout may change.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
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

    __slots__ = ("_value", "_hash", "_repr")

    def __init__(self, value: Any):
        self._value = value
        self._hash = hash(("const", value))
        # Canonical keys and body sorting spell a constant by its repr.
        self._repr = repr(value)

    @property
    def value(self) -> Any:
        return self._value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self._value == other._value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self._repr


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
    :meth:`canonical`.  ``canonical``, when given, must be the query's
    :func:`canonical_key`; it is trusted, not recomputed.
    """

    __slots__ = ("_head", "_body", "_hash", "_constants", "_canonical_cache")

    def __init__(
        self, head: Atom, body: Iterable[Atom], *,
        canonical: "tuple | None" = None,
    ):
        self._head = head
        self._body = tuple(body)
        if not self._body:
            raise ParseError("a CQ must have a non-empty body")
        body_names = {
            term._name for atom in self._body for term in atom._terms
            if isinstance(term, Variable)
        }
        missing = {
            term._name for term in head._terms
            if isinstance(term, Variable) and term._name not in body_names
        }
        if missing:
            raise ParseError(
                f"head variables not bound in body: {sorted(missing)}"
            )
        # Hash, constants and canonical key are computed on first use.  A
        # caller that already holds the key from :func:`canonical_key` (as
        # consistent-query generation does) passes it as ``canonical``.
        self._hash: "int | None" = None
        self._constants: "frozenset[Constant] | None" = None
        self._canonical_cache = canonical

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

        The key is :func:`canonical_key` of the query's atoms, each
        constant spelled by its repr.  Use it only for equality and as a
        dict key: its layout is not a stable format.
        """
        key = self._canonical_cache
        if key is None:
            key = self._canonical_cache = canonical_key(
                _spelling(self._head), [_spelling(atom) for atom in self._body]
            )
        return key

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
        atom._relation,
        tuple(
            ("c", t._repr) if isinstance(t, Constant) else ("v", t._name)
            for t in atom._terms
        ),
    )


def _spelling(atom: Atom) -> tuple[str, list]:
    """``atom`` as :func:`canonical_key` reads it."""
    return atom._relation, [
        term._repr if isinstance(term, Constant) else term
        for term in atom._terms
    ]


def canonical_key(head: tuple, body: Sequence[tuple]) -> tuple:
    """The isomorphism-invariant key of a query spelled as atoms.

    ``head`` and each atom of ``body`` are ``(relation, terms)``.  A term
    is a constant's repr (a ``str``) or names a variable (any other
    hashable: a :class:`Variable`, or a class number).  Two spellings get
    the same key iff their queries are equal up to variable renaming and
    body reordering.  :meth:`CQ.canonical` and consistent-query
    generation, which keys a query before building it, both call it.

    The key is an opaque flat tuple.  For the head and then each body
    atom it holds the relation, the arity, and per term the variable's
    number (an int) or the constant's repr (a str).

    Trying every body order would be factorial; instead atoms are sorted
    by a renaming-invariant signature, variables are numbered by first
    appearance over the head and then the atoms, and only atoms with
    identical signatures are permuted (bounded in practice by self-join
    multiplicity), keeping the least key.  Permuted atoms share a
    signature, so every candidate key holds an int or a str at the same
    places and candidates compare without type errors.
    """
    occurrences: dict = {}
    for _, terms in body:
        for term in terms:
            if term.__class__ is not str:
                occurrences[term] = occurrences.get(term, 0) + 1
    head_variables = {term for term in head[1] if term.__class__ is not str}
    signatures = [
        _atom_signature(atom, occurrences, head_variables) for atom in body
    ]
    order = sorted(range(len(body)), key=signatures.__getitem__)
    groups: list[list[int]] = []
    for idx in order:
        if groups and signatures[groups[-1][-1]] == signatures[idx]:
            groups[-1].append(idx)
        else:
            groups.append([idx])

    best: "tuple | None" = None
    for arrangement in _group_permutations(groups):
        key = _numbered_key(head, [body[i] for i in arrangement])
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def _atom_signature(
    atom: tuple,
    occurrences: Mapping,
    head_variables: set,
) -> tuple:
    """A renaming-invariant signature of a spelled atom, for sorting atoms
    before numbering.

    ``occurrences`` counts each variable's occurrences over the whole body
    and ``head_variables`` holds the head's variables, so the caller
    computes them once for all of its atoms.  Each term adds a kind tag,
    then the constant's repr or the variable's occurrence count and head
    membership: signatures that agree up to a tag hold values of one type
    after it, so any two compare.
    """
    relation, terms = atom
    signature: list = [relation]
    for term in terms:
        if term.__class__ is str:
            signature += (0, term)
        else:
            signature += (1, occurrences[term], term in head_variables)
    return tuple(signature)


def _group_permutations(groups: list[list[int]]):
    """All arrangements permuting only within signature-equal groups."""
    per_group = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*per_group):
        flat: list[int] = []
        for perm in combo:
            flat.extend(perm)
        yield flat


def _numbered_key(head: tuple, ordered_atoms: list[tuple]) -> tuple:
    """The flat key of one arrangement of spelled atoms: variables
    numbered by first appearance over the head, then the atoms in the
    given order."""
    numbering: dict = {}
    key: list = []
    for relation, terms in (head, *ordered_atoms):
        key += (relation, len(terms))
        for term in terms:
            if term.__class__ is str:
                key.append(term)
            else:
                key.append(numbering.setdefault(term, len(numbering)))
    return tuple(key)
