"""Finding optimal abstractions: Algorithm 2 of the paper.

Given a K-example, an abstraction tree, and a privacy threshold ``k``,
find the abstraction function with privacy >= k minimizing the loss of
information.  The search realizes the paper's two search-side optimizations
(Section 4.1), each switchable for the Figure 19 ablation:

* *Sorting abstractions* — candidates are visited in non-decreasing order
  of the number of tree edges they use (ties broken by LOI).  Implemented
  lazily with a uniform-cost frontier over per-variable ancestor levels so
  the ``(h+1)^n`` space is never materialized.
* *LOI before privacy* — the cheap LOI computation gates the expensive
  privacy computation: privacy is only computed when the candidate's LOI
  beats the incumbent.

For monotone distributions (uniform), a sorted LOI-first scan also prunes:
the successors of a candidate that cannot improve on the incumbent are
never expanded, since abstracting any variable higher only raises LOI, so
the entire upward cone is dominated.

Candidates are scored *incrementally* (:class:`IncrementalEvaluator`)
whenever the distribution has ``supports_incremental``: for the additive
distributions (Proposition 3.5) a candidate's LOI is a sum of
per-occurrence contributions depending only on the target label, so the
search scores candidates from cached per-(variable, level) contributions
and only materializes the abstracted K-example for candidates whose
privacy is computed.  Other distributions are scored from scratch; both
paths produce bit-identical results.

The dual problem (Section 4.2, :func:`find_dual_optimal_abstraction`)
runs the same scan with a different objective.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.abstraction.function import AbstractionFunction
from repro.abstraction.tree import AbstractionTree
from repro.core.loi import UniformDistribution, loss_of_information
from repro.core.privacy import PrivacyComputer, PrivacyConfig, PrivacySession
from repro.errors import OptimizationError
from repro.obs import clock, spans
from repro.provenance.kexample import AbstractedKExample, KExample, KExampleRow


@dataclass(frozen=True)
class OptimizerConfig:
    """Switches and budgets for Algorithm 2."""

    sort_abstractions: bool = True
    loi_first: bool = True
    max_candidates: Optional[int] = None
    # Wall-clock budget for one search; the best abstraction found so far
    # is returned when it runs out (None = unbounded, as in the paper).
    max_seconds: Optional[float] = None
    # The evaluation engine used when a K-example must be (re)built for
    # this job: "naive" | "sqlite" | "duckdb".  An execution detail, like
    # the service's executor tier — every engine produces bit-identical
    # results, and store/hashing.py strips this field from job content
    # hashes so results cache across engines.
    engine: str = "naive"
    # Record a per-job span trace (repro.obs.spans) into the result.
    # Pure observability: an execution detail like ``engine``, stripped
    # from content hashes, and bit-neutral by construction — enabling it
    # changes no result fields, only attaches the VOLATILE trace.
    trace: bool = False
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)


@dataclass
class OptimizerStats:
    """Search effort counters."""

    candidates_scanned: int = 0
    privacy_computations: int = 0
    privacy_budget_exhausted: int = 0
    elapsed_seconds: float = 0.0
    # Scoring counters: candidates are scored from cached deltas when the
    # distribution is additive, from scratch otherwise.
    delta_evaluations: int = 0            # candidates scored from cached deltas
    full_evaluations: int = 0             # candidates scored from scratch
    functions_materialized: int = 0       # lazily built abstracted examples
    contribution_cache_hits: int = 0      # per-(variable, level) cache reuses
    contribution_cache_misses: int = 0    # per-(variable, level) cache fills
    # Privacy-session reuse during this search (copied from PrivacyStats):
    # row-option sets served from the shared cache vs enumerated fresh.
    row_option_cache_hits: int = 0
    row_option_cache_misses: int = 0
    # True iff the scan stopped because ``max_seconds`` ran out — the one
    # outcome that depends on machine speed rather than the inputs (the
    # persistent result cache refuses to store such results).
    stopped_by_wall_clock: bool = False


@dataclass
class OptimalAbstractionResult:
    """The outcome of an optimal-abstraction search.

    ``function`` is ``None`` when no abstraction meets the threshold within
    the candidate budget.
    """

    function: Optional[AbstractionFunction]
    abstracted: Optional[AbstractedKExample]
    privacy: int
    loi: float
    edges_used: int
    stats: OptimizerStats

    @property
    def found(self) -> bool:
        return self.function is not None


def search_space(
    example: KExample, tree: AbstractionTree
) -> tuple[list[str], dict[str, tuple[str, ...]]]:
    """Algorithm 2's search axes: abstractable variables + ancestor chains.

    A variable is abstractable iff it is a leaf of the tree; its chain
    lists the abstraction targets (itself first, root last).  Shared by
    the primal and dual searches, the equivalence tests, and the
    benchmarks so the candidate space has one definition.
    """
    variables = sorted(
        v for v in example.variables()
        if v in tree.labels() and tree.is_leaf(v)
    )
    chains = {v: tree.ancestors(v) for v in variables}
    return variables, chains


class IncrementalEvaluator:
    """Delta-based candidate evaluation over a shared base example.

    The frontier moves one variable one ancestor level at a time, yet a
    from-scratch evaluation rebuilds an :class:`AbstractionFunction`,
    re-applies it to every row, and recomputes LOI over the whole
    abstracted example for every pop.  For distributions whose LOI is
    additive per occurrence (Proposition 3.5: uniform and leaf-weight),
    a candidate's LOI depends only on which (variable, level) pairs it
    selects, so this evaluator

    * caches each (variable, level) contribution the first time the level
      is seen and reuses it for every later candidate touching it,
    * scores candidates without materializing the abstracted example, and
    * materializes the function/abstracted pair lazily — as a positional
      delta over the shared base example — only when the caller actually
      needs it (i.e. when the candidate's privacy must be computed).

    Float addition is order-sensitive, so :meth:`loi` replays the cached
    contributions in exactly the order the full recomputation would visit
    them (row by row; within a row, in the sorted occurrence order of the
    abstracted row).  Results are therefore bit-identical to
    :func:`repro.core.loi.loss_of_information` on the materialized example.
    """

    def __init__(self, example, tree, variables, chains, distribution):
        self._example = example
        self._tree = tree
        self._variables = tuple(variables)
        self._chains = chains
        self._distribution = distribution
        var_index = {v: i for i, v in enumerate(self._variables)}
        # Per row: each occurrence's variable index (-1 = not abstractable),
        # and the abstractable occurrences' indexes with multiplicity.
        self._row_occ_vars: list[tuple[int, ...]] = []
        self._row_var_entries: list[tuple[int, ...]] = []
        for row in example.rows:
            occ_vars = tuple(var_index.get(ann, -1) for ann in row.occurrences)
            self._row_occ_vars.append(occ_vars)
            self._row_var_entries.append(tuple(i for i in occ_vars if i >= 0))
        self._contributions: dict[tuple[int, int], float] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def contribution(self, var_index: int, level: int) -> float:
        """The per-occurrence LOI contribution of one (variable, level)."""
        key = (var_index, level)
        value = self._contributions.get(key)
        if value is None:
            var = self._variables[var_index]
            target = self._chains[var][level]
            value = self._distribution.label_contribution(target, self._tree)
            self._contributions[key] = value
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return value

    def loi(self, levels: tuple[int, ...]) -> float:
        """The candidate's LOI, bit-identical to a full recomputation."""
        total = 0.0
        chains = self._chains
        variables = self._variables
        for entries in self._row_var_entries:
            touched = []
            for i in entries:
                level = levels[i]
                if level:
                    touched.append((chains[variables[i]][level], i, level))
            if not touched:
                continue
            # The abstracted row sorts its occurrences; equal labels have
            # equal cached contributions, so sorting by label reproduces
            # the full path's addition order exactly.
            touched.sort()
            for _, i, level in touched:
                total += self.contribution(i, level)
        return total

    def materialize(
        self, levels: tuple[int, ...]
    ) -> tuple[AbstractionFunction, AbstractedKExample]:
        """Build (function, abstracted) by patching the shared base rows."""
        variables = self._variables
        chains = self._chains
        targets = [
            chains[variables[i]][level] if level else None
            for i, level in enumerate(levels)
        ]
        assignment: dict[tuple[int, int], str] = {}
        rows = []
        for row_idx, row in enumerate(self._example.rows):
            occ_vars = self._row_occ_vars[row_idx]
            values = list(row.occurrences)
            for occ_idx, var_i in enumerate(occ_vars):
                if var_i >= 0:
                    target = targets[var_i]
                    if target is not None:
                        values[occ_idx] = target
                        assignment[(row_idx, occ_idx)] = target
            rows.append(KExampleRow(row.output, values))
        function = AbstractionFunction._from_validated(self._tree, assignment)
        abstracted = AbstractedKExample(rows, self._example, assignment)
        return function, abstracted


class _SortedFrontier:
    """Lazy best-first enumeration of per-variable ancestor-level vectors.

    States are vectors assigning each abstractable variable a level in its
    ancestor chain (0 = itself).  Order: total edge count, then a uniform
    LOI estimate.  ``expand`` pushes a state's successors; the caller skips
    expanding dominated states to prune their upward cones.
    """

    def __init__(self, variables, chains, tree, occurrence_count):
        self._variables = variables
        self._chains = chains
        self._tree = tree
        self._occurrences = occurrence_count
        self._counter = itertools.count()
        start = tuple(0 for _ in variables)
        self._heap = [(0, 0.0, next(self._counter), start)]
        self._seen = {start}

    def _loi_estimate(self, levels: tuple[int, ...]) -> float:
        total = 0.0
        for var, level in zip(self._variables, levels):
            if level:
                target = self._chains[var][level]
                total += self._occurrences[var] * math.log(
                    self._tree.leaf_count(target)
                )
        return total

    def pop(self) -> Optional[tuple[int, ...]]:
        if not self._heap:
            return None
        _, _, _, levels = heapq.heappop(self._heap)
        return levels

    def expand(self, levels: tuple[int, ...]) -> None:
        cost = sum(levels)
        for index, var in enumerate(self._variables):
            if levels[index] + 1 < len(self._chains[var]):
                succ = levels[:index] + (levels[index] + 1,) + levels[index + 1:]
                if succ not in self._seen:
                    self._seen.add(succ)
                    heapq.heappush(
                        self._heap,
                        (cost + 1, self._loi_estimate(succ),
                         next(self._counter), succ),
                    )


class _UnsortedCandidates:
    """Every level vector in ``itertools.product`` order; nothing prunes."""

    def __init__(self, variables, chains):
        self._product = itertools.product(
            *(range(len(chains[v])) for v in variables)
        )

    def pop(self) -> Optional[tuple[int, ...]]:
        return next(self._product, None)

    def expand(self, levels: tuple[int, ...]) -> None:
        pass


def find_optimal_abstraction(
    example: KExample,
    tree: AbstractionTree,
    threshold: int,
    config: OptimizerConfig | None = None,
    distribution=None,
    session: PrivacySession | None = None,
) -> OptimalAbstractionResult:
    """Algorithm 2: the minimum-LOI abstraction with privacy >= ``threshold``.

    ``session`` shares Algorithm 1's caches with other searches over the
    same (tree, registry) — e.g. across a threshold sweep; omitted, the
    search still pools privacy work across its own candidates through a
    private session.  Results are bit-identical either way.
    """
    return _search(
        example, tree, config, distribution, session, threshold=threshold
    )


def find_dual_optimal_abstraction(
    example: KExample,
    tree: AbstractionTree,
    max_loi: float,
    config: OptimizerConfig | None = None,
    distribution=None,
    session: PrivacySession | None = None,
) -> OptimalAbstractionResult:
    """The dual problem (Section 4.2): the maximum-privacy abstraction
    with ``LOI <= max_loi``.

    Algorithm 2 is adjusted exactly as the paper prescribes: track the
    best privacy instead of the best LOI (ties go to the lower LOI), only
    compute privacy for abstractions whose LOI does not exceed
    ``max_loi``, and — because LOI is monotone under abstracting any
    variable higher (for the uniform distribution) — terminate branches
    whose LOI exceeds the cap.  The cap makes the dual "more efficiently
    solvable" than the primal, which the E-DUAL benchmark verifies.
    Every switch, budget and ``session`` acts as in
    :func:`find_optimal_abstraction`; the privacy is 0 when no
    abstraction fits the cap.
    """
    return _search(
        example, tree, config, distribution, session, max_loi=max_loi
    )


def _search(
    example: KExample,
    tree: AbstractionTree,
    config: OptimizerConfig | None,
    distribution,
    session: PrivacySession | None,
    threshold: int = 0,
    max_loi: Optional[float] = None,
) -> OptimalAbstractionResult:
    """Algorithm 2's scan: the primal search, or the dual one when
    ``max_loi`` is given.  The two differ only in which candidates may
    improve on the incumbent and which privacy wins."""
    config = config or OptimizerConfig()
    if not tree.is_compatible_with_annotations(example.registry):
        raise OptimizationError(
            "abstraction tree is incompatible with the K-example "
            "(an inner label collides with a tuple annotation)"
        )

    computer = PrivacyComputer(
        tree, example.registry, config.privacy, session=session
    )
    dist = distribution or UniformDistribution()
    prune = (
        config.sort_abstractions
        and config.loi_first
        and isinstance(dist, UniformDistribution)
    )

    variables, chains = search_space(example, tree)
    candidates: _SortedFrontier | _UnsortedCandidates
    if config.sort_abstractions:
        candidates = _SortedFrontier(
            variables, chains, tree, _occurrence_counts(example, variables)
        )
    else:
        candidates = _UnsortedCandidates(variables, chains)

    stats = OptimizerStats()
    start_time = clock.perf_counter()

    best: Optional[AbstractionFunction] = None
    best_abstracted: Optional[AbstractedKExample] = None
    best_privacy = -1 if max_loi is None else 0
    best_loi = math.inf

    # The per-candidate calls, wrapped once per search: untraced they are
    # the bare callables, so the loop pays nothing for tracing; traced,
    # each phase accumulates into one aggregate record instead of one span
    # per candidate.
    compute = spans.timed("privacy_check", computer.compute)
    evaluator: Optional[IncrementalEvaluator] = None
    if getattr(dist, "supports_incremental", False):
        evaluator = IncrementalEvaluator(example, tree, variables, chains, dist)
        score_delta = spans.timed("candidate_scoring", evaluator.loi)
        materialize = spans.timed("materialize", evaluator.materialize)
    else:
        def score_from_scratch(levels):
            function = _function_for_levels(
                tree, example, variables, chains, levels
            )
            abstracted = function.apply(example)
            loi = loss_of_information(abstracted, tree, dist)
            return loi, function, abstracted

        score_full = spans.timed("candidate_scoring", score_from_scratch)

    while True:
        levels = candidates.pop()
        if levels is None:
            break

        # Budgets are checked before the candidate is counted, so
        # ``candidates_scanned`` is exactly the number evaluated (the
        # popped-but-unevaluated candidate is not reported as effort).
        if (
            config.max_candidates is not None
            and stats.candidates_scanned >= config.max_candidates
        ):
            break
        if (
            config.max_seconds is not None
            and clock.perf_counter() - start_time > config.max_seconds
        ):
            stats.stopped_by_wall_clock = True
            break
        stats.candidates_scanned += 1

        function: Optional[AbstractionFunction]
        abstracted: Optional[AbstractedKExample]
        if evaluator is not None:
            # Incremental path: score from cached contributions; the
            # function/abstracted pair is materialized only if needed.
            loi = score_delta(levels)
            function = abstracted = None
            stats.delta_evaluations += 1
        else:
            loi, function, abstracted = score_full(levels)
            stats.full_evaluations += 1

        # Only a candidate under the incumbent's LOI (primal) or within
        # the cap (dual) may replace the incumbent.
        improves = loi < best_loi if max_loi is None else loi <= max_loi
        if config.loi_first and not improves:
            if not prune:
                candidates.expand(levels)
            continue

        # With loi_first disabled, privacy is paid for on every candidate.
        stats.privacy_computations += 1
        if abstracted is None:
            function, abstracted = materialize(levels)
            stats.functions_materialized += 1
        try:
            privacy = compute(abstracted, threshold)
        except OptimizationError:
            # Concretization or alignment budget exhausted: the
            # abstraction is too coarse to evaluate; skip it (its
            # refinements are coarser still, but siblings may be fine,
            # so keep expanding).
            stats.privacy_budget_exhausted += 1
        else:
            if improves and (
                privacy >= threshold if max_loi is None
                else best is None or privacy > best_privacy
                or (privacy == best_privacy and loi < best_loi)
            ):
                best, best_abstracted = function, abstracted
                best_privacy, best_loi = privacy, loi
        candidates.expand(levels)

    stats.elapsed_seconds = clock.perf_counter() - start_time
    if evaluator is not None:
        stats.contribution_cache_hits = evaluator.cache_hits
        stats.contribution_cache_misses = evaluator.cache_misses
    stats.row_option_cache_hits = computer.stats.row_option_cache_hits
    stats.row_option_cache_misses = computer.stats.row_option_cache_misses
    edges = best.edges_used(example) if best is not None else 0
    return OptimalAbstractionResult(
        function=best,
        abstracted=best_abstracted,
        privacy=best_privacy,
        loi=best_loi,
        edges_used=edges,
        stats=stats,
    )


def _function_for_levels(tree, example, variables, chains, levels):
    targets = {}
    for var, level in zip(variables, levels):
        if level:
            targets[var] = chains[var][level]
    return AbstractionFunction.uniform(tree, example, targets)


def _occurrence_counts(example: KExample, variables) -> dict[str, int]:
    counts = {v: 0 for v in variables}
    for row in example.rows:
        for ann in row.occurrences:
            if ann in counts:
                counts[ann] += 1
    return counts
