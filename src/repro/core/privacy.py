"""Privacy of an abstracted K-example: Algorithm 1 of the paper.

The privacy of ``Ex~`` is the number of distinct CIM queries — consistent,
connected, inclusion-minimal — across all concretizations (Definition
3.12).  :class:`PrivacyComputer` implements Algorithm 1 with its three
optimizations, each one switch of :class:`PrivacyConfig` for the Figure
19 ablation:

* row-by-row computation with ``GoodConc`` propagation, refined so a
  prefix extends only with the concretizations of a later row that share
  its first row's alignment signature (no other can admit a query),
* the connectivity filter: each row enumerates only its connected
  concretizations,
* caching: consistent queries per concretization prefix, and with a
  prefix that a compute extends, the alignment combinations its
  extensions start from (generation folds the rows; see
  :mod:`repro.core.consistency`); each abstracted example's counts; and
  the per-label value indexes that connected enumeration reads.

All of Algorithm 1's caches are *threshold-independent*: a row's
concretization options, a prefix's connected consistent queries, and a
label's value index depend only on the (tree, registry) pair and
the privacy config — never on the privacy threshold ``k`` or on which
candidate abstraction is being evaluated.  :class:`PrivacySession` holds
them in one shareable object so every ``compute()`` call over the same
context and config reuses them: across the candidates of one search
(candidates popped from the frontier differ in one variable level, so
untouched rows' option sets are reusable verbatim), and across the
searches of a threshold sweep or batch job group.  The two counts
Algorithm 1 compares with ``k`` are threshold-independent too, so the
session keeps them per abstracted example: a later compute of the same
example answers any threshold they decide without walking its
concretizations again.  The caches that do not depend on the tree — a
concrete prefix's queries, each concrete row's facts and first-row fold,
containment verdicts and minimal sets — live in a :class:`QueryFacts`
holder that sessions over other trees of the same database may share.
A computer keeps no cache of its own.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.tree import AbstractionTree
from repro.core.consistency import (
    ConcreteRows,
    ConsistencyConfig,
    PrefixFold,
    QueryRecipe,
    consistent_queries,
)
from repro.db.database import AnnotationRegistry
from repro.obs import spans
from repro.provenance.kexample import AbstractedKExample, KExample, KExampleRow
from repro.query.ast import CQ
from repro.query.containment import is_strictly_contained_in
from repro.errors import OptimizationError


@dataclass(frozen=True)
class PrivacyConfig:
    """Optimization switches for Algorithm 1 (Section 4.1).

    ``max_concretizations`` is a *per-site* budget, not a global total:
    it bounds (a) the number of concretization options of any single row,
    connected or not, and (b) the number of live concrete prefixes after
    fanning out any single row of the row-by-row scan (equivalently, the
    size of the full product in the monolithic path).  Both sites use the
    same boundary — the computation aborts as soon as the count *exceeds*
    the budget, so exactly ``max_concretizations`` items are allowed at
    each site.  A row's count is the product of its occurrences' choice
    counts, so it aborts before enumerating anything.  The paper's
    settings stay far below the default.  Consistent-query generation
    aborts the same way past
    :data:`~repro.core.consistency.MAX_ALIGNMENT_COMBOS`.
    """

    row_by_row: bool = True
    connectivity_filter: bool = True
    cache_queries: bool = True
    consistency: ConsistencyConfig = field(default_factory=ConsistencyConfig)
    max_concretizations: int = 200_000


@dataclass
class PrivacyStats:
    """Counters for the ablation study."""

    concretizations_seen: int = 0
    concretizations_pruned_disconnected: int = 0
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    consistency_calls: int = 0
    # Session-level reuse: row-option sets served from / added to the
    # shared per-row cache.  Work counters above are only charged on
    # misses — a hit does no enumeration or filtering.
    row_option_cache_hits: int = 0
    row_option_cache_misses: int = 0
    # Pairwise strict-containment verdicts (the homomorphism searches
    # behind GetMinimalQueries) for pairs whose constants allow containment,
    # served from the session vs computed fresh; whole minimal-set memo hits.
    containment_cache_hits: int = 0
    containment_cache_misses: int = 0
    minimal_set_cache_hits: int = 0
    minimal_set_cache_misses: int = 0
    # Row-by-row computes answered from the session's per-example counts
    # vs run through Algorithm 1 (counted only where the memo is read).
    privacy_cache_hits: int = 0
    privacy_cache_misses: int = 0
    # Prefixes the row-by-row scan never formed because the added row's
    # alignment signature differs from the prefix's first row's.
    prefixes_pruned_unaligned: int = 0


class RowOptions(list[KExampleRow]):
    """One abstract row's concretization options, in product order, and
    once the row-by-row scan extends prefixes with them, their partition
    by alignment signature (``by_signature``, signature -> options)."""

    __slots__ = ("by_signature",)

    def __init__(self, options: Iterable[KExampleRow]):
        super().__init__(options)
        self.by_signature: dict[object, list[KExampleRow]] | None = None


class QueryFacts:
    """Algorithm 1's caches over one (registry, consistency config) pair.

    A concrete prefix's consistent queries depend only on the registry
    that resolves its annotations and on the consistency knobs, and
    containment verdicts and minimal sets only on the queries.  None of
    them depends on the abstraction tree, so every :class:`PrivacySession`
    over the same registry and consistency config may share one holder:
    a session over a new tree of a database then skips the generation
    and homomorphism work an earlier tree already paid for.  It holds:

    * ``query_cache`` — each concrete prefix's connected consistent
      queries as a canonical key ->
      :class:`~repro.core.consistency.QueryRecipe` map (a query is built
      from its recipe only where one is read), keyed by the prefix's
      rows, with the :class:`~repro.core.consistency.PrefixFold` its
      one-row extensions start from where a compute extends the prefix
      (else ``None``),
    * ``concrete_rows`` — each concrete row's resolved tuples grouped by
      relation, its alignment signature, its flattened alignments and
      its fold as a first row
      (:class:`~repro.core.consistency.ConcreteRows`), which generation
      and the row-by-row partition read,
    * ``containment_cache`` — pairwise strict-containment verdicts (each
      one a homomorphism search, the dominant cost of GetMinimalQueries),
      keyed by the two queries' canonical forms, for the pairs whose
      constants do not already refute containment,
    * ``minimal_set_cache`` — the inclusion-minimal subset of a whole
      connected-query set, keyed by the set of canonical forms.

    Computers on several threads may share a holder.  Every entry holds
    what recomputation yields, so two threads that miss one key together
    at worst both compute it.  A prefix whose generation aborts stores
    nothing, so every compute over it aborts alike.
    """

    def __init__(
        self, registry: AnnotationRegistry, consistency: ConsistencyConfig
    ):
        self.registry = registry
        self.consistency = consistency
        self.query_cache: dict[
            tuple[KExampleRow, ...],
            tuple[dict[tuple, QueryRecipe], PrefixFold | None],
        ] = {}
        self.concrete_rows = ConcreteRows(registry, consistency)
        self.containment_cache: dict[tuple, bool] = {}
        self.minimal_set_cache: dict[frozenset, frozenset] = {}


class PrivacySession:
    """Shareable caches for Algorithm 1 over one (tree, registry, config).

    One session may back any number of :class:`PrivacyComputer` instances
    — sequentially or interleaved — over its tree, registry and
    :class:`PrivacyConfig`.  It holds the caches that depend on the tree:

    * ``row_option_cache`` — each row's concretization options (only the
      connected ones under the connectivity filter), keyed by the row,
      with their partition by alignment signature once the row-by-row
      scan extends prefixes with them,
    * ``engine`` — the :class:`ConcretizationEngine` with, under
      ``cache_queries``, its memoized per-label value indexes (each
      choice's value set and, per value, a bitmask of the choices
      holding it),
    * ``privacy_cache`` — an abstracted example's connected-query count
      and, once computed, its CIM count (else ``None``), keyed by its
      rows.  It is per tree, as the rows name the tree's labels.  Only
      computers that run row by row with the prefix cache read or write
      it: the monolithic fan-out check may abort where row by row does
      not, and the uncached arm must pay for what it measures,

    and ``facts``, the :class:`QueryFacts` holder of the caches that do
    not.  ``facts`` omitted, the session builds a private holder; a given
    one must be bound to the session's registry and consistency config.

    Every entry is threshold-independent (query-level facts don't depend
    on any config at all), so a session warmed by one search is valid for
    any other threshold over the same context; results are bit-identical
    with or without sharing (caches return exactly what recomputation
    would produce).
    """

    def __init__(
        self,
        tree: AbstractionTree,
        registry: AnnotationRegistry,
        config: PrivacyConfig | None = None,
        facts: QueryFacts | None = None,
    ):
        config = config or PrivacyConfig()
        if facts is None:
            facts = QueryFacts(registry, config.consistency)
        elif (facts.registry is not registry
              or facts.consistency != config.consistency):
            raise OptimizationError(
                "query facts are bound to another registry or "
                "consistency config"
            )
        self._tree = tree
        self._registry = registry
        self._config = config
        self.engine = ConcretizationEngine(
            tree, registry, use_connectivity_cache=config.cache_queries
        )
        self.row_option_cache: dict[KExampleRow, RowOptions] = {}
        self.privacy_cache: dict[
            tuple[KExampleRow, ...], tuple[int, int | None]
        ] = {}
        self.facts = facts
        #: How many computers have attached; > 1 means the session was reused.
        self.computers_attached = 0

    @property
    def tree(self) -> AbstractionTree:
        return self._tree

    @property
    def registry(self) -> AnnotationRegistry:
        return self._registry

    def compatible_with(
        self,
        tree: AbstractionTree,
        registry: AnnotationRegistry,
        config: PrivacyConfig,
    ) -> bool:
        """Whether a computer over (tree, registry, config) may attach."""
        return (
            tree is self._tree
            and registry is self._registry
            and config == self._config
        )

    def cache_sizes(self) -> dict[str, int]:
        """Current entry counts, for diagnostics and tests; the holder's
        entries (prefix queries, concrete rows, containments, minimal
        sets) are shared by the sessions sharing it."""
        facts = self.facts
        return {
            "row_options": len(self.row_option_cache),
            "privacies": len(self.privacy_cache),
            "prefix_queries": len(facts.query_cache),
            "concrete_rows": len(facts.concrete_rows),
            "connectivity": self.engine.connectivity_cache_size,
            "containments": len(facts.containment_cache),
            "minimal_sets": len(facts.minimal_set_cache),
        }


class PrivacyComputer:
    """Computes the privacy of abstracted K-examples over one tree.

    ``session`` shares Algorithm 1's caches with other computers over the
    same (tree, registry); omitted, the computer gets a private session,
    which still pools work across every ``compute()`` call it serves.
    """

    def __init__(
        self,
        tree: AbstractionTree,
        registry: AnnotationRegistry,
        config: PrivacyConfig | None = None,
        session: PrivacySession | None = None,
    ):
        self._tree = tree
        self._registry = registry
        self._config = config or PrivacyConfig()
        if session is None:
            session = PrivacySession(tree, registry, self._config)
        elif not session.compatible_with(tree, registry, self._config):
            raise OptimizationError(
                "privacy session is incompatible with this computer "
                "(different tree, registry, or privacy config)"
            )
        self._session = session
        session.computers_attached += 1
        self._engine = session.engine
        self._row_option_cache = session.row_option_cache
        self._privacy_cache = (
            session.privacy_cache if self._config.cache_queries else None
        )
        facts = session.facts
        self._query_cache = facts.query_cache
        self._concrete_rows = facts.concrete_rows
        self._containment_cache = facts.containment_cache
        self._minimal_set_cache = facts.minimal_set_cache
        self.stats = PrivacyStats()
        # Algorithm 1's phases, bound once per computer: untraced they are
        # the bound methods themselves; traced, each accumulates into one
        # aggregate record.
        self._row_options = spans.timed(  # type: ignore[method-assign]
            "row_options", self._row_options
        )
        self._generate = spans.timed(  # type: ignore[method-assign]
            "consistent_queries", self._generate
        )
        self._minimal_keys = spans.timed(  # type: ignore[method-assign]
            "minimality", self._minimal_keys
        )

    @property
    def config(self) -> PrivacyConfig:
        return self._config

    @property
    def engine(self) -> ConcretizationEngine:
        return self._engine

    @property
    def session(self) -> PrivacySession:
        return self._session

    def compute(self, abstracted: AbstractedKExample, threshold: int) -> int:
        """Algorithm 1: the privacy of ``abstracted`` or -1 if below ``threshold``."""
        if self._config.row_by_row:
            return self._compute_row_by_row(abstracted, threshold)
        return _gate(
            self._counts(self._product_queries(abstracted), threshold),
            threshold,
        )

    def privacy(self, abstracted: AbstractedKExample) -> int:
        """The exact privacy (no threshold early-exit)."""
        result = self.compute(abstracted, threshold=0)
        return max(result, 0)

    def cim_queries(self, abstracted: AbstractedKExample) -> frozenset[CQ]:
        """The CIM queries w.r.t. ``abstracted`` (Definition 3.10)."""
        connected = self._connected_queries_full(abstracted)
        keys = self._minimal_keys(frozenset(connected), [connected])
        return frozenset(connected[k].build(k) for k in keys)

    # -- Algorithm 1 proper -------------------------------------------------

    def _compute_row_by_row(
        self, abstracted: AbstractedKExample, threshold: int
    ) -> int:
        memo, rows = self._privacy_cache, abstracted.rows
        if memo is None:
            return _gate(self._row_by_row_counts(rows, threshold), threshold)
        counts = memo.get(rows)
        if counts is not None and (counts[0] < threshold
                                   or counts[1] is not None):
            self.stats.privacy_cache_hits += 1
        else:
            # Unseen, or seen only under a threshold above its connected
            # count.  A compute that aborts stores nothing, so a warm
            # session aborts where a cold one does.
            self.stats.privacy_cache_misses += 1
            counts = memo[rows] = self._row_by_row_counts(rows, threshold)
        return _gate(counts, threshold)

    def _row_by_row_counts(
        self, rows: tuple[KExampleRow, ...], threshold: int
    ) -> tuple[int, int | None]:
        good: list[tuple[KExampleRow, ...]] = [()]
        for index, row in enumerate(rows):
            options = self._row_options(row)
            if not options:
                # A row without options admits no query at all.
                return 0, 0
            self._check_fan_out(len(good) * len(options))
            prefixes: list[tuple[KExampleRow, ...]]
            if index == 0:
                prefixes = [(option,) for option in options]
            else:
                prefixes = self._aligned_extensions(good, options)
            if index == len(rows) - 1:
                # Neither count is monotone in the rows (a later row can
                # split a class, or kill a query that dominated others),
                # so both gates fire only on the complete example.
                return self._counts(self._prefix_queries(prefixes), threshold)
            # GoodConc: the concrete prefixes that admit a consistent
            # connected query, in product order.  The first row's options
            # all pass unchecked.
            good = prefixes if index == 0 else [
                prefix for prefix, queries
                in zip(prefixes, self._prefix_queries(prefixes, keep=True))
                if queries
            ]
        raise AssertionError("unreachable")

    def _aligned_extensions(
        self, good: list[tuple[KExampleRow, ...]], options: RowOptions
    ) -> list[tuple[KExampleRow, ...]]:
        """Each prefix extended by the options that share its first row's
        alignment signature, in product order.  Generation finds no query
        for a prefix with any other option (no skeleton aligns with it),
        so those prefixes are counted, not formed."""
        if not good:
            # Resolving the options could raise for a leaf outside the
            # registry, which an empty product never meets.
            return []
        concrete = self._concrete_rows
        by_signature = options.by_signature
        if by_signature is None:
            by_signature = {}
            for option in options:
                by_signature.setdefault(
                    concrete[option].signature, []
                ).append(option)
            # Published whole: a thread sharing the session reads either
            # no partition or all of it.
            options.by_signature = by_signature
        prefixes = [
            prefix + (option,) for prefix in good
            for option in by_signature.get(concrete[prefix[0]].signature, ())
        ]
        self.stats.prefixes_pruned_unaligned += (
            len(good) * len(options) - len(prefixes)
        )
        return prefixes

    def _connected_queries_full(
        self, abstracted: AbstractedKExample
    ) -> dict[tuple, QueryRecipe]:
        """The minimal-only consistent queries, canonical key -> recipe."""
        return _representatives(self._product_queries(abstracted))

    def _product_queries(
        self, abstracted: AbstractedKExample
    ) -> list[dict[tuple, QueryRecipe]]:
        """Each concretization's queries, in product order."""
        per_row_options = [self._row_options(row) for row in abstracted.rows]
        self._check_fan_out(math.prod(map(len, per_row_options)))
        return self._prefix_queries(itertools.product(*per_row_options))

    # -- helpers --------------------------------------------------------------

    def _check_fan_out(self, count: int) -> None:
        if count > self._config.max_concretizations:
            raise OptimizationError(
                "concretization budget exhausted; tighten the "
                "abstraction or raise max_concretizations"
            )

    def _row_options(self, row: KExampleRow) -> RowOptions:
        cached = self._row_option_cache.get(row)
        if cached is not None:
            self.stats.row_option_cache_hits += 1
            return cached
        self.stats.row_option_cache_misses += 1
        total = math.prod(map(len, self._engine.occurrence_choices(row)))
        self._check_fan_out(total)
        options = list(self._engine.concretize_row(
            row, connected_only=self._config.connectivity_filter
        ))
        self.stats.concretizations_seen += total
        self.stats.concretizations_pruned_disconnected += total - len(options)
        # Occurrences that share leaves yield equal rows (a row sorts its
        # occurrences): keep the first of each, in product order.
        cached = self._row_option_cache[row] = RowOptions(
            dict.fromkeys(options)
        )
        return cached

    def _prefix_queries(
        self, prefixes: Iterable[tuple[KExampleRow, ...]], keep: bool = False
    ) -> list[dict[tuple, QueryRecipe]]:
        """Each prefix's connected consistent queries, canonical key ->
        recipe; ``keep`` keeps the folds of the prefixes generated, for
        their extensions."""
        if not self._config.cache_queries:
            return [
                self._generate(prefix, None, False)[0] for prefix in prefixes
            ]
        cache, stats = self._query_cache, self.stats
        out = []
        for prefix in prefixes:
            entry = cache.get(prefix)
            if entry is None:
                # The parent's fold; looking it up is no cache hit.
                parent = cache.get(prefix[:-1]) if len(prefix) > 2 else None
                entry = cache[prefix] = self._generate(
                    prefix, parent[1] if parent is not None else None, keep
                )
                stats.query_cache_misses += 1
            else:
                stats.query_cache_hits += 1
            out.append(entry[0])
        return out

    def _generate(
        self,
        prefix: tuple[KExampleRow, ...],
        start: PrefixFold | None,
        keep: bool,
    ) -> tuple[dict[tuple, QueryRecipe], PrefixFold | None]:
        """A prefix's queries, generated from ``start`` or, without one,
        from its first row's fold in the holder's concrete rows; with the
        prefix's fold if ``keep`` and there are queries."""
        self.stats.consistency_calls += 1
        # Generation resolves every occurrence through the registry, so
        # the example's own check would only repeat it.
        example = KExample._unchecked(prefix, self._registry)
        queries = consistent_queries(
            example, self._config.consistency, minimal_only=True,
            start=start, concrete_rows=self._concrete_rows,
        )
        recipes = queries.recipes
        return recipes, queries.fold if keep and recipes else None

    def _counts(
        self, maps: list[dict[tuple, QueryRecipe]], threshold: int
    ) -> tuple[int, int | None]:
        """The connected-query count of ``maps`` and, unless it is below
        ``threshold``, the CIM count (homomorphisms); shared by every
        compute path."""
        keys: set[tuple] = set()
        for queries in maps:
            keys.update(queries)
        if len(keys) < threshold:
            return len(keys), None
        return len(keys), len(self._minimal_keys(frozenset(keys), maps))

    # -- session-cached query-level facts -----------------------------------
    #
    # Containment and inclusion-minimality are renaming-invariant facts of
    # the queries alone (no config, no threshold), so their verdicts are
    # cached in the session's holder by canonical form and shared across
    # candidates, thresholds, trees, and jobs.

    def _strictly_contained(self, a: CQ, b: CQ) -> bool:
        key = (a.canonical(), b.canonical())
        cached = self._containment_cache.get(key)
        if cached is None:
            self.stats.containment_cache_misses += 1
            cached = is_strictly_contained_in(a, b)
            self._containment_cache[key] = cached
        else:
            self.stats.containment_cache_hits += 1
        return cached

    def _minimal_keys(
        self, keys: frozenset, maps: list[dict[tuple, QueryRecipe]]
    ) -> frozenset:
        """The inclusion-minimal ones of ``keys``, the canonical keys of the
        queries in ``maps``, whose representatives are built on a miss.

        Count-equivalent to :func:`_minimal_queries` — one query per key,
        so they are pairwise non-equal and the minimality scan visits the
        same queries in the same order.  It skips pairs whose constants
        already refute the homomorphism.
        """
        cached = self._minimal_set_cache.get(keys)
        if cached is not None:
            self.stats.minimal_set_cache_hits += 1
            return cached
        self.stats.minimal_set_cache_misses += 1
        ordered = sorted(
            (recipe.build(key)
             for key, recipe in _representatives(maps).items()),
            key=lambda q: (len(q.body), repr(q)),
        )
        minimal = [
            query for query in ordered
            if not any(self._strictly_contained(other, query)
                       for other in ordered if other is not query
                       and query.constants() <= other.constants())
        ]
        result = frozenset(query.canonical() for query in minimal)
        self._minimal_set_cache[keys] = result
        return result


def _gate(counts: tuple[int, int | None], threshold: int) -> int:
    """Both gates of Algorithm 1's tail: the connected count first, the
    CIM count second; the CIM count, or -1 if either is below
    ``threshold``."""
    connected, cim = counts
    if connected < threshold or cim is None or cim < threshold:
        return -1
    return cim


def _representatives(
    maps: list[dict[tuple, QueryRecipe]]
) -> dict[tuple, QueryRecipe]:
    """Each canonical key's recipe from the first map that holds it."""
    out: dict[tuple, QueryRecipe] = {}
    for queries in reversed(maps):
        out.update(queries)
    return out


def _minimal_queries(queries: frozenset[CQ]) -> frozenset[CQ]:
    """The inclusion-minimal queries of a set (GetMinimalQueries).

    ``q`` survives iff no other query in the set is strictly contained in
    it.  Reference implementation: the computer's cached
    :meth:`PrivacyComputer._minimal_keys` must always agree with it
    (pinned by ``tests/test_privacy.py``).
    """
    ordered = sorted(queries, key=lambda q: (len(q.body), repr(q)))
    minimal: list[CQ] = []
    for query in ordered:
        if not any(is_strictly_contained_in(other, query) for other in ordered
                   if other is not query):
            minimal.append(query)
    return frozenset(minimal)
