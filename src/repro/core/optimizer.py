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
search scores each row from a memo keyed by the levels of that row's
variables, builds the abstracted K-example (from memoized rows) only for
candidates whose privacy is computed, and builds the
:class:`AbstractionFunction` only for a candidate that replaces the
incumbent.  Other distributions are scored from scratch; both paths
produce bit-identical results.

The dual problem (Section 4.2, :func:`find_dual_optimal_abstraction`)
runs the same scan with a different objective.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
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
    contribution_cache_hits: int = 0      # rows scored from the row memo
    contribution_cache_misses: int = 0    # rows whose contributions were computed
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
    """Row-memoized candidate evaluation over a shared base example.

    The frontier moves one variable one ancestor level at a time, so a
    candidate leaves most rows exactly as some earlier candidate had them:
    a row changes only with the levels of its own variables.  For
    distributions whose LOI is additive per occurrence (Proposition 3.5:
    uniform and leaf-weight), each occurrence's contribution depends only
    on its target label, so this evaluator keeps, per row and per levels
    of that row's variables,

    * the row's LOI contributions, in the order the full recomputation
      adds them (:meth:`loi`), and
    * the abstracted row and its abstracted positions (:meth:`abstract`),
      built the first time a candidate whose privacy is computed needs
      them.

    A candidate therefore pays one lookup per row, and builds nothing for
    a row whose variables' levels were seen before.  The search builds
    the :class:`AbstractionFunction` itself only for a candidate that
    replaces the incumbent: the abstracted example's mapping is its
    assignment.

    Float addition is order-sensitive, so :meth:`loi` adds every
    contribution to the running total one by one, row by row and, within
    a row, in the sorted occurrence order of the abstracted row; a
    per-row subtotal would round differently.  Results are therefore
    bit-identical to :func:`repro.core.loi.loss_of_information` on the
    abstracted example.  ``cache_misses`` counts the rows whose
    contributions were computed, ``cache_hits`` the rows scored from the
    memo.
    """

    def __init__(self, example, tree, variables, chains, distribution):
        self._example = example
        self._tree = tree
        self._distribution = distribution
        var_index = {v: i for i, v in enumerate(variables)}
        self._chains = [chains[v] for v in variables]
        self._label_contributions: dict[str, float] = {}
        # Per row: the row, its index, each occurrence's variable index
        # (-1 = not abstractable), the function that reads the levels of
        # the row's own variables off a candidate (None: it has none), and
        # the memo of abstracted rows under those levels.
        self._rows = []
        for row_index, row in enumerate(example.rows):
            occ_vars = tuple(var_index.get(ann, -1) for ann in row.occurrences)
            own = sorted({i for i in occ_vars if i >= 0})
            key = operator.itemgetter(*own) if own else None
            self._rows.append((row, row_index, occ_vars, key, {}))
        # The rows with a variable, each with its memo of contributions.
        self._scored = [
            (key, {}, occ_vars)
            for _, _, occ_vars, key, _ in self._rows if key is not None
        ]
        self._scores = 0
        self.cache_misses = 0

    @property
    def cache_hits(self) -> int:
        return self._scores * len(self._scored) - self.cache_misses

    def loi(self, levels: tuple[int, ...]) -> float:
        """The candidate's LOI, bit-identical to a full recomputation."""
        self._scores += 1
        total = 0.0
        for key, memo, occ_vars in self._scored:
            row_key = key(levels)
            contributions = memo.get(row_key)
            if contributions is None:
                contributions = memo[row_key] = self._contributions(
                    occ_vars, levels
                )
            for value in contributions:
                total += value
        return total

    def _contributions(self, occ_vars, levels) -> tuple[float, ...]:
        """One row's contributions, in its abstracted row's sorted order."""
        self.cache_misses += 1
        chains = self._chains
        targets = sorted(
            chains[i][levels[i]] for i in occ_vars if i >= 0 and levels[i]
        )
        return tuple(self._label_contribution(label) for label in targets)

    def _label_contribution(self, label: str) -> float:
        value = self._label_contributions.get(label)
        if value is None:
            value = self._label_contributions[label] = (
                self._distribution.label_contribution(label, self._tree)
            )
        return value

    def abstract(self, levels: tuple[int, ...]) -> AbstractedKExample:
        """The candidate's abstracted example, from the memoized rows."""
        rows = []
        mapping: dict[tuple[int, int], str] = {}
        for row, row_index, occ_vars, key, memo in self._rows:
            if key is not None:
                row_key = key(levels)
                entry = memo.get(row_key)
                if entry is None:
                    entry = memo[row_key] = self._abstract_row(
                        row, row_index, occ_vars, levels
                    )
                row, positions = entry
                mapping.update(positions)
            rows.append(row)
        return AbstractedKExample(rows, self._example, mapping)

    def _abstract_row(self, row, row_index, occ_vars, levels):
        """The abstracted row and its ((row, occurrence), label) pairs."""
        chains = self._chains
        values = list(row.occurrences)
        positions = []
        for occ_index, i in enumerate(occ_vars):
            if i >= 0 and levels[i]:
                values[occ_index] = target = chains[i][levels[i]]
                positions.append(((row_index, occ_index), target))
        return KExampleRow(row.output, values), tuple(positions)


class _SortedFrontier:
    """Lazy best-first enumeration of per-variable ancestor-level vectors.

    States are vectors assigning each abstractable variable a level in its
    ancestor chain (0 = itself).  Order: total edge count, then a uniform
    LOI estimate, the sum in variable order of each abstracted variable's
    ``occurrences * ln |L_T(target)|``.  Each (variable, level) term is
    computed once; ``expand`` pushes a state's successors; the caller
    skips expanding dominated states to prune their upward cones.
    """

    def __init__(self, variables, chains, tree, occurrence_count):
        # A variable's term per level; 0.0 at level 0, which leaves the
        # estimate's sum unchanged (every term is >= +0.0).
        self._terms = [
            (0.0,) + tuple(
                occurrence_count[var] * math.log(tree.leaf_count(target))
                for target in chains[var][1:]
            )
            for var in variables
        ]
        # A state's code is the sum of level x stride, so a successor's
        # code is its parent's plus the raised variable's stride: states
        # seen before are recognized without building their vectors.
        self._strides = []
        stride = 1
        for terms in self._terms:
            self._strides.append(stride)
            stride *= len(terms)
        self._counter = itertools.count()
        start = tuple(0 for _ in variables)
        self._heap = [(0, 0.0, next(self._counter), start)]
        self._seen = {0}

    def pop(self) -> Optional[tuple[int, ...]]:
        if not self._heap:
            return None
        _, _, _, levels = heapq.heappop(self._heap)
        return levels

    def expand(self, levels: tuple[int, ...]) -> None:
        cost = sum(levels) + 1
        code = sum(map(operator.mul, levels, self._strides))
        seen = self._seen
        current = list(map(operator.getitem, self._terms, levels))
        # A successor's estimate adds the terms in variable order: the sum
        # of the terms before the raised variable (``head``), its new
        # term, then each term after it.
        head = 0.0
        for index, terms in enumerate(self._terms):
            level = levels[index] + 1
            if level < len(terms):
                succ_code = code + self._strides[index]
                if succ_code not in seen:
                    seen.add(succ_code)
                    succ = levels[:index] + (level,) + levels[index + 1:]
                    total = head + terms[level]
                    for term in current[index + 1:]:
                        total += term
                    heapq.heappush(
                        self._heap, (cost, total, next(self._counter), succ)
                    )
            head += current[index]


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
        materialize = spans.timed("materialize", evaluator.abstract)
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
            # Incremental path: score from memoized rows; the abstracted
            # example is built only if its privacy is computed, and the
            # function only for a new incumbent.
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
            abstracted = materialize(levels)
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
                if function is None:
                    function = AbstractionFunction._from_validated(
                        tree, abstracted.mapping
                    )
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
