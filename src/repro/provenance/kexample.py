"""K-examples and abstracted K-examples.

A :class:`KExample` models Definition 2.4: a set of output rows, each paired
with its provenance monomial, together with the input tuples the annotations
refer to (the restriction of the input K-database to the participating
tuples).  An :class:`AbstractedKExample` is the result of applying an
abstraction function: structurally identical, but annotation *occurrences*
may have been replaced by abstraction-tree labels, so it also remembers
which occurrences are abstracted.

Rows use plain monomials rather than full polynomials because the paper's
K-examples show one explanation (derivation) per output row; multi-monomial
outputs can be modelled as multiple rows with the same output values.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.db.database import AnnotationRegistry
from repro.db.tuples import Tuple
from repro.errors import SchemaError
from repro.query.join_graph import overlap_connected
from repro.semirings.polynomial import Monomial


class KExampleRow:
    """One output row with its provenance: ``(output values, monomial)``.

    ``occurrences`` is the monomial expanded to a tuple of annotation
    occurrences in a canonical (sorted) order; abstraction functions operate
    per occurrence (Definition 3.1 allows mapping different occurrences of
    the same variable differently).

    The hash is computed once, at construction: rows key Algorithm 1's
    session caches, alone and in concretization prefixes.
    """

    __slots__ = ("_output", "_occurrences", "_hash")

    def __init__(self, output: tuple, provenance: "Monomial | Iterable[str]"):
        self._output = tuple(output)
        if isinstance(provenance, Monomial):
            self._occurrences = provenance.expand()
        else:
            self._occurrences = tuple(sorted(str(v) for v in provenance))
        if not self._occurrences:
            raise SchemaError("a K-example row must have non-empty provenance")
        self._hash = hash((self._output, self._occurrences))

    @property
    def output(self) -> tuple:
        return self._output

    @property
    def occurrences(self) -> tuple[str, ...]:
        """Annotation occurrences, with multiplicity, in canonical order."""
        return self._occurrences

    def monomial(self) -> Monomial:
        return Monomial(self._occurrences)

    def variables(self) -> frozenset[str]:
        return frozenset(self._occurrences)

    def replace(self, occurrence_values: Iterable[str]) -> "KExampleRow":
        """A new row with the occurrences replaced positionally."""
        values = tuple(occurrence_values)
        if len(values) != len(self._occurrences):
            raise SchemaError(
                f"expected {len(self._occurrences)} occurrence values, "
                f"got {len(values)}"
            )
        return KExampleRow(self._output, Monomial(values))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KExampleRow)
            and self._output == other._output
            and self._occurrences == other._occurrences
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self._output!r} <- {self.monomial()!r}"


class KExample:
    """A K-example: rows of (output, provenance) over an annotated input.

    ``registry`` resolves each annotation occurring in any row to the input
    tuple it tags; it may contain more annotations than the example uses
    (typically the whole database registry).
    """

    __slots__ = ("_rows", "_registry")

    def __init__(self, rows: Iterable[KExampleRow], registry: AnnotationRegistry):
        self._rows = tuple(rows)
        self._registry = registry
        if not self._rows:
            raise SchemaError("a K-example needs at least one row")
        for row in self._rows:
            for ann in row.variables():
                if ann not in registry:
                    raise SchemaError(
                        f"K-example annotation {ann!r} is not in the registry"
                    )

    @classmethod
    def _unchecked(
        cls, rows: tuple[KExampleRow, ...], registry: AnnotationRegistry
    ) -> "KExample":
        """Wrap non-empty ``rows`` without checking their annotations
        against ``registry``.

        Internal fast path for Algorithm 1's concrete prefixes, which
        consistent-query generation reads through ``registry.resolve``
        occurrence by occurrence: an annotation outside the registry
        still raises :class:`SchemaError` there.
        """
        example = cls.__new__(cls)
        example._rows = rows
        example._registry = registry
        return example

    @property
    def rows(self) -> tuple[KExampleRow, ...]:
        return self._rows

    @property
    def registry(self) -> AnnotationRegistry:
        return self._registry

    def variables(self) -> frozenset[str]:
        """``Var(Ex)``: all annotations appearing in the provenance."""
        out: set[str] = set()
        for row in self._rows:
            out.update(row.variables())
        return frozenset(out)

    def tuple_of(self, annotation: str) -> Tuple:
        return self._registry.resolve(annotation)

    def prefix(self, n_rows: int) -> "KExample":
        """The K-example restricted to its first ``n_rows`` rows."""
        return KExample(self._rows[:n_rows], self._registry)

    def verify_against(self, query, database, engine=None) -> bool:
        """Whether every row is a genuine (output, derivation) of ``query``.

        Re-evaluates ``query`` over ``database`` on the given engine
        (name or :class:`~repro.engine.base.EvaluationEngine`; default
        naive) and checks each row's monomial appears in its output's
        provenance polynomial — i.e. the K-example really shows one
        derivation per row (Definition 2.4), under whichever execution
        backend re-checks it.
        """
        from repro.engine.registry import resolve_engine
        from repro.semirings.polynomial import Polynomial

        results = resolve_engine(engine).evaluate(query, database)
        for row in self._rows:
            polynomial = results.get(row.output)
            if polynomial is None:
                return False
            if not Polynomial.from_monomials([row.monomial()]) <= polynomial:
                return False
        return True

    def is_connected(self) -> bool:
        """Connectivity in the paper's sense (Section 4.1, item 2).

        Every row's monomial must induce a connected graph over its tuples,
        where two tuples are adjacent iff they share a constant.
        """
        return all(self.row_is_connected(i) for i in range(len(self._rows)))

    def row_is_connected(self, row_index: int) -> bool:
        row = self._rows[row_index]
        return overlap_connected(
            [self.tuple_of(ann).value_set() for ann in row.occurrences]
        )

    def key(self) -> tuple:
        """A hashable identity for caching: rows only (registry-independent)."""
        return tuple((row.output, row.occurrences) for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KExample) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        lines = [f"  {row!r}" for row in self._rows]
        return "KExample(\n" + "\n".join(lines) + "\n)"


class AbstractedKExample:
    """An abstracted K-example: rows whose occurrences may be tree labels.

    Produced by :class:`repro.abstraction.function.AbstractionFunction`;
    remembers the source K-example so concretization machinery can check
    which occurrences were abstracted away.
    """

    __slots__ = ("_rows", "_source", "_mapping")

    def __init__(
        self,
        rows: Iterable[KExampleRow],
        source: KExample,
        mapping: Mapping[tuple[int, int], str],
    ):
        self._rows = tuple(rows)
        self._source = source
        # (row index, occurrence index) -> abstract label, only where changed
        self._mapping = dict(mapping)

    @property
    def rows(self) -> tuple[KExampleRow, ...]:
        return self._rows

    @property
    def source(self) -> KExample:
        return self._source

    @property
    def mapping(self) -> dict[tuple[int, int], str]:
        """Occurrence positions that were abstracted, with their labels."""
        return dict(self._mapping)

    def labels(self) -> frozenset[str]:
        """All labels (concrete or abstract) occurring in the rows."""
        out: set[str] = set()
        for row in self._rows:
            out.update(row.occurrences)
        return frozenset(out)

    def num_abstracted(self) -> int:
        return len(self._mapping)

    def key(self) -> tuple:
        return tuple((row.output, row.occurrences) for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbstractedKExample) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        lines = [f"  {row!r}" for row in self._rows]
        return "AbstractedKExample(\n" + "\n".join(lines) + "\n)"
