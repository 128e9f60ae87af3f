"""Privacy of an abstracted K-example: Algorithm 1 of the paper.

The privacy of ``Ex~`` is the number of distinct CIM queries — consistent,
connected, inclusion-minimal — across all concretizations (Definition
3.12).  :class:`PrivacyComputer` implements Algorithm 1 with its four
optimizations, each independently switchable for the Figure 19 ablation:

* row-by-row computation with ``GoodConc`` propagation,
* the connectivity filter: each row enumerates only its connected
  concretizations,
* caching consistent queries per concretization prefix,
* caching the per-label value indexes that connected enumeration reads.

All of Algorithm 1's caches are *threshold-independent*: a row's
concretization options, a prefix's connected consistent queries, and a
label's value index depend only on the (tree, registry) pair and
the consistency knobs — never on the privacy threshold ``k`` or on which
candidate abstraction is being evaluated.  :class:`PrivacySession` holds
them in one shareable object so every ``compute()`` call over the same
context reuses them: across the candidates of one search (candidates
popped from the frontier differ in one variable level, so untouched rows'
option sets are reusable verbatim), and across the searches of a
threshold sweep or batch job group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.tree import AbstractionTree
from repro.core.consistency import ConsistencyConfig, consistent_queries
from repro.db.database import AnnotationRegistry
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
    settings stay far below the default.
    """

    row_by_row: bool = True
    connectivity_filter: bool = True
    cache_queries: bool = True
    cache_connectivity: bool = True
    consistency: ConsistencyConfig = field(default_factory=ConsistencyConfig)
    max_concretizations: int = 200_000

    def session_key(self) -> tuple:
        """The config fields a :class:`PrivacySession`'s caches depend on.

        Computers may share a session iff these match: the consistency
        knobs shape the prefix-query cache's contents, the connectivity
        filter shapes the row-option sets, the connectivity-cache switch
        shapes the shared engine, and the concretization budget decides
        where row enumeration aborts.  ``row_by_row`` and ``cache_queries``
        are deliberately absent — they change which caches are *consulted*,
        never what a cached entry means.
        """
        return (
            self.consistency,
            self.connectivity_filter,
            self.cache_connectivity,
            self.max_concretizations,
        )


@dataclass
class PrivacyStats:
    """Counters for the ablation study."""

    concretizations_seen: int = 0
    concretizations_pruned_disconnected: int = 0
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    consistency_calls: int = 0
    # Session-level reuse: row-option sets served from / added to the
    # shared per-(output, occurrences) cache.  Work counters above are
    # only charged on misses — a hit does no enumeration or filtering.
    row_option_cache_hits: int = 0
    row_option_cache_misses: int = 0
    # Pairwise strict-containment verdicts (the homomorphism searches
    # behind GetMinimalQueries) for pairs whose constants allow containment,
    # served from the session vs computed fresh; whole minimal-set memo hits.
    containment_cache_hits: int = 0
    containment_cache_misses: int = 0
    minimal_set_cache_hits: int = 0
    minimal_set_cache_misses: int = 0
    # Consistent-query generation cut short by a ConsistencyConfig cap,
    # charged per consistency call (cache misses only): alignment matrices
    # whose flips fell back to the heuristic subset list, and skeletons
    # whose alignment combinations were truncated.  Either can drop a CIM
    # query, so a nonzero count means the privacy may undercount.
    flip_cap_fallbacks: int = 0
    alignment_combo_truncations: int = 0


class PrivacySession:
    """Shareable caches for Algorithm 1 over one (tree, registry) context.

    One session may back any number of :class:`PrivacyComputer` instances
    — sequentially or interleaved — as long as they agree on the
    cache-relevant config fields (:meth:`PrivacyConfig.session_key`).  It
    holds:

    * ``row_option_cache`` — each row signature's concretization options
      (only the connected ones under the connectivity filter), keyed by
      ``(output, occurrences)``,
    * ``query_cache`` — connected consistent queries per prefix,
    * ``engine`` — the :class:`ConcretizationEngine` with its memoized
      per-label value indexes (each choice's value set and, per value, a
      bitmask of the choices holding it),
    * ``containment_cache`` — pairwise strict-containment verdicts (each
      one a homomorphism search, the dominant cost of GetMinimalQueries),
      keyed by the two queries' canonical forms, for the pairs whose
      constants do not already refute containment,
    * ``minimal_set_cache`` — the inclusion-minimal subset of a whole
      connected-query set, keyed by the set of canonical forms.

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
    ):
        config = config or PrivacyConfig()
        self._tree = tree
        self._registry = registry
        self._key = config.session_key()
        self.engine = ConcretizationEngine(
            tree, registry, use_connectivity_cache=config.cache_connectivity
        )
        self.query_cache: dict[tuple, frozenset[CQ]] = {}
        self.row_option_cache: dict[tuple, list[KExampleRow]] = {}
        self.containment_cache: dict[tuple, bool] = {}
        self.minimal_set_cache: dict[frozenset, frozenset] = {}
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
            and config.session_key() == self._key
        )

    def cache_sizes(self) -> dict[str, int]:
        """Current entry counts, for diagnostics and tests."""
        return {
            "row_options": len(self.row_option_cache),
            "prefix_queries": len(self.query_cache),
            "connectivity": self.engine.connectivity_cache_size,
            "containments": len(self.containment_cache),
            "minimal_sets": len(self.minimal_set_cache),
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
                "(different tree, registry, or cache-relevant config)"
            )
        self._session = session
        session.computers_attached += 1
        self._engine = session.engine
        self._query_cache = session.query_cache
        self._row_option_cache = session.row_option_cache
        self._containment_cache = session.containment_cache
        self._minimal_set_cache = session.minimal_set_cache
        self.stats = PrivacyStats()

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
        return self._compute_monolithic(abstracted, threshold)

    def privacy(self, abstracted: AbstractedKExample) -> int:
        """The exact privacy (no threshold early-exit)."""
        result = self.compute(abstracted, threshold=0)
        return max(result, 0)

    def cim_queries(self, abstracted: AbstractedKExample) -> frozenset[CQ]:
        """The CIM queries w.r.t. ``abstracted`` (Definition 3.10)."""
        connected = self._connected_queries_full(abstracted)
        keys = self._minimal_keys(connected)
        return frozenset(connected[k] for k in keys)

    # -- Algorithm 1 proper -------------------------------------------------

    def _compute_row_by_row(
        self, abstracted: AbstractedKExample, threshold: int
    ) -> int:
        rows = abstracted.rows
        first_row_options = self._row_options(rows[0])
        if not first_row_options:
            return -1 if threshold > 0 else 0

        # GoodConc: concrete prefixes that admit a consistent connected query.
        good_prefixes: list[tuple[KExampleRow, ...]] = [
            (row,) for row in first_row_options
        ]

        if len(rows) == 1:
            connected = self._queries_for_prefixes(good_prefixes)[0]
            return self._gated_cim_count(connected, threshold)

        for index in range(1, len(rows)):
            next_options = self._row_options(rows[index])
            if not next_options:
                return -1 if threshold > 0 else 0
            prefixes = []
            for prefix in good_prefixes:
                for option in next_options:
                    prefixes.append(prefix + (option,))
                    if len(prefixes) > self._config.max_concretizations:
                        raise OptimizationError(
                            "concretization budget exhausted; tighten the "
                            "abstraction or raise max_concretizations"
                        )
            connected, prefix_of_query = self._queries_for_prefixes(prefixes)

            # The connected-query count only shrinks as rows are added
            # (each new row constrains the consistent set), so falling
            # below the threshold here decides the full example too.
            if len(connected) < threshold:
                return -1

            if index == len(rows) - 1:
                # Inclusion-minimal counts are NOT monotone in the rows
                # (a later row can kill a small query, promoting the
                # larger ones it dominated), so the CIM gate may only
                # fire on the complete example.
                return self._gated_cim_count(connected, threshold)

            good_set: set[tuple[KExampleRow, ...]] = set()
            for key in connected:
                good_set.update(prefix_of_query[key])
            good_prefixes = sorted(
                good_set, key=lambda p: tuple(r.occurrences for r in p)
            )

        raise AssertionError("unreachable")

    def _compute_monolithic(
        self, abstracted: AbstractedKExample, threshold: int
    ) -> int:
        connected = self._connected_queries_full(abstracted)
        return self._gated_cim_count(connected, threshold)

    def _connected_queries_full(
        self, abstracted: AbstractedKExample
    ) -> dict[tuple, CQ]:
        """The connected consistent queries, keyed by canonical form."""
        per_row_options = [self._row_options(row) for row in abstracted.rows]
        if any(not options for options in per_row_options):
            return {}
        out: dict[tuple, CQ] = {}
        count = 0
        for combo in itertools.product(*per_row_options):
            count += 1
            if count > self._config.max_concretizations:
                raise OptimizationError(
                    "concretization budget exhausted; tighten the "
                    "abstraction or raise max_concretizations"
                )
            for query in self._queries_of_prefix(combo):
                out.setdefault(query.canonical(), query)
        return out

    # -- helpers --------------------------------------------------------------

    def _row_options(self, row: KExampleRow) -> list[KExampleRow]:
        key = (row.output, row.occurrences)
        cached = self._row_option_cache.get(key)
        if cached is not None:
            self.stats.row_option_cache_hits += 1
            return cached
        self.stats.row_option_cache_misses += 1
        total = math.prod(map(len, self._engine.occurrence_choices(row)))
        if total > self._config.max_concretizations:
            raise OptimizationError(
                "per-row concretization budget exhausted; tighten the "
                "abstraction or raise max_concretizations"
            )
        options = list(self._engine.concretize_row(
            row, connected_only=self._config.connectivity_filter
        ))
        self.stats.concretizations_seen += total
        self.stats.concretizations_pruned_disconnected += total - len(options)
        self._row_option_cache[key] = options
        return options

    def _queries_for_prefixes(
        self, prefixes: list[tuple[KExampleRow, ...]]
    ) -> tuple[dict[tuple, CQ], dict[tuple, list[tuple[KExampleRow, ...]]]]:
        """Connected consistent queries per prefix, plus the inverse map."""
        queries: dict[tuple, CQ] = {}
        prefix_of_query: dict[tuple, list[tuple[KExampleRow, ...]]] = {}
        for prefix in prefixes:
            for query in self._queries_of_prefix(prefix):
                key = query.canonical()
                queries.setdefault(key, query)
                prefix_of_query.setdefault(key, []).append(prefix)
        return queries, prefix_of_query

    def _queries_of_prefix(
        self, prefix: tuple[KExampleRow, ...]
    ) -> frozenset[CQ]:
        key = tuple((row.output, row.occurrences) for row in prefix)
        if self._config.cache_queries:
            cached = self._query_cache.get(key)
            if cached is not None:
                self.stats.query_cache_hits += 1
                return cached
        self.stats.consistency_calls += 1
        example = KExample(prefix, self._registry)
        result = consistent_queries(
            example, self._config.consistency, self.stats, connected_only=True
        )
        if self._config.cache_queries:
            self.stats.query_cache_misses += 1
            self._query_cache[key] = result
        return result

    def _gated_cim_count(self, connected: dict[tuple, CQ], threshold: int) -> int:
        """Both gates of Algorithm 1's tail, shared by every compute path:
        connected count first (cheap), CIM count second (homomorphisms)."""
        if len(connected) < threshold:
            return -1
        cim = len(self._minimal_keys(connected))
        return cim if cim >= threshold else -1

    # -- session-cached query-level facts -----------------------------------
    #
    # Containment and inclusion-minimality are renaming-invariant facts of
    # the queries alone (no config, no threshold), so their verdicts are
    # cached in the session by canonical form and shared across
    # candidates, thresholds, and jobs.

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

    def _minimal_keys(self, queries: dict[tuple, CQ]) -> frozenset:
        """Canonical keys of the inclusion-minimal queries of the set.

        Count-equivalent to :func:`_minimal_queries` — the dict is keyed
        by canonical form, so its values are pairwise non-equal and the
        minimality scan visits the same queries in the same order.  It
        skips pairs whose constants already refute the homomorphism.
        """
        set_key = frozenset(queries)
        cached = self._minimal_set_cache.get(set_key)
        if cached is not None:
            self.stats.minimal_set_cache_hits += 1
            return cached
        self.stats.minimal_set_cache_misses += 1
        ordered = sorted(queries.values(), key=lambda q: (len(q.body), repr(q)))
        minimal = [
            query for query in ordered
            if not any(self._strictly_contained(other, query)
                       for other in ordered if other is not query
                       and query.constants() <= other.constants())
        ]
        result = frozenset(query.canonical() for query in minimal)
        self._minimal_set_cache[set_key] = result
        return result


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
