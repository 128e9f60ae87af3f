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
variables, builds the abstracted rows (from memoized rows) only for
candidates whose privacy is computed, and builds the
:class:`AbstractedKExample` and :class:`AbstractionFunction` only for a
candidate that replaces the incumbent.  Other distributions are scored
from scratch; both paths produce bit-identical results.

What a search learns about a candidate and does not depend on the
threshold — its LOI, its abstracted rows, its successors' frontier
estimates — is kept in the privacy session's :class:`Lattice` of the
example, so a repeated or re-thresholded search over the session pays
per known candidate only for its heap, its budgets and dict lookups.

The dual problem (Section 4.2, :func:`find_dual_optimal_abstraction`)
runs the same scan with a different objective.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Any, Optional

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
    """Search effort counters, each of this search alone.

    The session keeps each candidate's LOI and abstracted rows (see
    :class:`Lattice`), so the scoring and materializing counters count
    the work this search did beyond what its session already held: a
    repeat of a search counts none, and two runs of one job sequence
    count alike.
    """

    candidates_scanned: int = 0
    privacy_computations: int = 0
    privacy_budget_exhausted: int = 0
    elapsed_seconds: float = 0.0
    # Scoring counters: a candidate whose LOI the session holds for the
    # distribution is read, one scored from cached deltas when the
    # distribution is additive, from scratch otherwise.
    delta_evaluations: int = 0            # candidates scored from cached deltas
    full_evaluations: int = 0             # candidates scored from scratch
    functions_materialized: int = 0       # candidates whose abstracted rows were built
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


class Lattice:
    """One example's candidate space over a tree, with Algorithm 2's
    threshold-independent facts about its candidates.

    A candidate (a *state*) assigns each abstractable variable a level
    of its ancestor chain (0 = itself) and is known by its integer code,
    the sum of level x stride.  A
    :class:`~repro.core.privacy.PrivacySession` keeps one lattice per
    example it has searched (``session.lattices``), so a later search
    over the session — a repeat, another threshold, the dual, any Fig 19
    arm — reads what earlier ones learned.  It holds:

    * the search space (:func:`search_space`), each (variable, level)
      term of the frontier's estimate, the strides, and each row's
      occurrence-to-variable map, all built once;
    * ``lois`` — per additive distribution (equal distributions share
      an entry), each scanned state's LOI;
    * ``checked`` — each state whose privacy was checked, its
      abstracted rows (a :class:`_Candidate`, what Algorithm 1 reads):
      the tuple that keys the session's ``privacy_cache``, so a later
      lookup matches it by identity;
    * ``successors`` — each expanded state's successor estimates, one
      float per variable in an ``array`` (-1.0 where the variable is at
      its chain's root, NaN where no expansion has pushed the successor
      yet).

    No entry depends on the threshold, the budgets or a switch, and
    each holds what recomputation yields, so threads sharing a session
    at worst both compute one.  A session builds a lattice only for a
    tree compatible with the example's registry, so its presence is that
    check's verdict.
    """

    def __init__(self, example: KExample, tree: AbstractionTree):
        self.tree = tree
        self.variables, chains = search_space(example, tree)
        self.chains = [chains[v] for v in self.variables]
        occurrences = _occurrence_counts(example, self.variables)
        # A variable's term per level; 0.0 at level 0, which leaves the
        # estimate's sum unchanged (every term is >= +0.0).
        self.terms = [
            (0.0,) + tuple(
                occurrences[var] * math.log(tree.leaf_count(target))
                for target in chain[1:]
            )
            for var, chain in zip(self.variables, self.chains)
        ]
        # A successor's code is its parent's plus the raised variable's
        # stride, so states seen before are recognized without a vector.
        self.strides: list[int] = []
        stride = 1
        for chain in self.chains:
            self.strides.append(stride)
            stride *= len(chain)
        self.radix = list(zip(self.strides, map(len, self.chains)))
        # The successor estimates a state's first expansion starts from:
        # NaN until it pushes the successor.
        self.unestimated = array("d", [math.nan]) * len(self.chains)
        # Per row: the row, each occurrence's variable index (-1 = not
        # abstractable), and the function that reads the levels of the
        # row's own variables off a state (None: it has none).
        var_index = {v: i for i, v in enumerate(self.variables)}
        self.row_facts: list[tuple[KExampleRow, tuple[int, ...], Any]] = []
        for row in example.rows:
            occ_vars = tuple(var_index.get(ann, -1) for ann in row.occurrences)
            own = sorted({i for i in occ_vars if i >= 0})
            key = operator.itemgetter(*own) if own else None
            self.row_facts.append((row, occ_vars, key))
        self.lois: dict[object, dict[int, float]] = {}
        self.checked: dict[int, _Candidate] = {}
        self.successors: dict[int, array] = {}

    def levels(self, code: int) -> tuple[int, ...]:
        """The level vector of the state ``code``."""
        return tuple([code // stride % size for stride, size in self.radix])

    def mapping(self, levels: tuple[int, ...]) -> dict[tuple[int, int], str]:
        """The state's assignment: (row, occurrence) -> target, for each
        abstracted occurrence, as :meth:`AbstractionFunction.apply` maps
        it."""
        chains = self.chains
        mapping: dict[tuple[int, int], str] = {}
        for row_index, (_, occ_vars, _) in enumerate(self.row_facts):
            for occ_index, i in enumerate(occ_vars):
                if i >= 0 and levels[i]:
                    mapping[row_index, occ_index] = chains[i][levels[i]]
        return mapping


class _Candidate:
    """A candidate as Algorithm 1 reads it: its abstracted rows, all
    that :meth:`PrivacyComputer.compute` reads of an abstracted example.
    The search builds the :class:`AbstractedKExample`, mapping included,
    only for a new incumbent."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[KExampleRow, ...]):
        self.rows = rows


class IncrementalEvaluator:
    """Row-memoized candidate evaluation over one lattice.

    The frontier moves one variable one ancestor level at a time, so a
    candidate leaves most rows exactly as some earlier candidate had them:
    a row changes only with the levels of its own variables.  For
    distributions whose LOI is additive per occurrence (Proposition 3.5:
    uniform and leaf-weight), each occurrence's contribution depends only
    on its target label, so this evaluator keeps, per row and per levels
    of that row's variables,

    * the row's LOI contributions, in the order the full recomputation
      adds them (:meth:`loi`), and
    * the abstracted row (:meth:`rows`), built the first time a candidate
      whose privacy is computed needs it.

    A candidate therefore pays one lookup per row, and builds nothing for
    a row whose variables' levels were seen before.  The search builds
    the :class:`AbstractionFunction` and the abstracted example's mapping
    (:meth:`Lattice.mapping`) only for a candidate that replaces the
    incumbent.  The memos last one search; the lattice keeps what the
    search learned per candidate.

    Float addition is order-sensitive, so :meth:`loi` adds every
    contribution to the running total one by one, row by row and, within
    a row, in the sorted occurrence order of the abstracted row; a
    per-row subtotal would round differently.  Results are therefore
    bit-identical to :func:`repro.core.loi.loss_of_information` on the
    abstracted example.  ``cache_misses`` counts the rows whose
    contributions were computed, ``cache_hits`` the rows scored from the
    memo.
    """

    def __init__(self, lattice: Lattice, distribution):
        self._tree = lattice.tree
        self._chains = lattice.chains
        self._distribution = distribution
        self._label_contributions: dict[str, float] = {}
        # Per row: its facts (see Lattice) and the memo of abstracted rows
        # under the levels of its own variables.
        self._rows: list[tuple[KExampleRow, tuple[int, ...], Any, dict]] = [
            (row, occ_vars, key, {}) for row, occ_vars, key in lattice.row_facts
        ]
        # The rows with a variable, each with its memo of contributions.
        self._scored: list[tuple[Any, dict, tuple[int, ...]]] = [
            (key, {}, occ_vars)
            for _, occ_vars, key, _ in self._rows if key is not None
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

    def rows(self, levels: tuple[int, ...]) -> tuple[KExampleRow, ...]:
        """The candidate's abstracted rows, from the memoized rows; equal
        to the rows of ``function.apply(example)``."""
        out = []
        for row, occ_vars, key, memo in self._rows:
            if key is not None:
                row_key = key(levels)
                abstracted = memo.get(row_key)
                if abstracted is None:
                    abstracted = memo[row_key] = self._abstract_row(
                        row, occ_vars, levels
                    )
                row = abstracted
            out.append(row)
        return tuple(out)

    def _abstract_row(self, row, occ_vars, levels) -> KExampleRow:
        chains = self._chains
        values = list(row.occurrences)
        for occ_index, i in enumerate(occ_vars):
            if i >= 0 and levels[i]:
                values[occ_index] = chains[i][levels[i]]
        return KExampleRow(row.output, values)


class _SortedFrontier:
    """Lazy best-first enumeration of a lattice's states, by code.

    Order: total edge count, then a uniform LOI estimate, the sum in
    variable order of each abstracted variable's ``occurrences * ln
    |L_T(target)|``, then push order.  ``pop`` returns a state's code
    and sets ``levels`` to its level vector where that is at hand (else
    ``None``); ``expand`` pushes the successors of the state ``pop``
    returned last; the caller skips expanding dominated states to prune
    their upward cones.

    A state's first expansion computes the estimates of the successors
    it pushes and stores them in the lattice (NaN for a successor
    another state pushed first, -1.0 for a variable at its root); their
    level vectors ride along in the heap, so a search over a new lattice
    decodes no code.  A later expansion reads the stored estimates and
    computes a missing one only for a successor it is the first to
    push.
    """

    def __init__(self, lattice: Lattice):
        self._lattice = lattice
        self._counter = itertools.count(1)
        start = (0,) * len(lattice.strides)
        # (edge count, estimate, push order, code, levels or None)
        self._heap: list[
            tuple[int, float, int, int, Optional[tuple[int, ...]]]
        ] = [(0, 0.0, 0, 0, start)]
        self._seen = {0}
        self._cost = 0  # the edge count of the popped state's successors
        self.levels: Optional[tuple[int, ...]] = None

    def pop(self) -> Optional[int]:
        if not self._heap:
            return None
        cost, _, _, code, self.levels = heapq.heappop(self._heap)
        self._cost = cost + 1
        return code

    def expand(self, code: int) -> None:
        lattice = self._lattice
        estimates = lattice.successors.get(code)
        if estimates is None:
            self._expand_new(code)
            return
        seen, heap, cost, counter = (
            self._seen, self._heap, self._cost, self._counter
        )
        for stride, estimate in zip(lattice.strides, estimates):
            if estimate >= 0.0:
                succ = code + stride
                if succ not in seen:
                    seen.add(succ)
                    heapq.heappush(
                        heap, (cost, estimate, next(counter), succ, None)
                    )
            elif estimate != -1.0 and code + stride not in seen:
                self._push_unestimated(code, stride, estimates)

    def _expand_new(self, code: int) -> None:
        """Push the successors of a state expanded for the first time,
        and store their estimates.

        A successor's estimate adds its terms in variable order: the sum
        of the terms before the raised variable (``head``), its new term,
        then each term after it.
        """
        lattice = self._lattice
        levels = self.levels
        if levels is None:
            levels = lattice.levels(code)
        terms, strides = lattice.terms, lattice.strides
        seen, heap, cost, counter = (
            self._seen, self._heap, self._cost, self._counter
        )
        current = list(map(operator.getitem, terms, levels))
        estimates = array("d", lattice.unestimated)
        head = 0.0
        for index, options in enumerate(terms):
            level = levels[index] + 1
            if level < len(options):
                succ = code + strides[index]
                if succ not in seen:
                    seen.add(succ)
                    total = head + options[level]
                    for term in current[index + 1:]:
                        total += term
                    estimates[index] = total
                    heapq.heappush(heap, (
                        cost, total, next(counter), succ,
                        levels[:index] + (level,) + levels[index + 1:],
                    ))
            else:
                estimates[index] = -1.0
            head += current[index]
        lattice.successors[code] = estimates

    def _push_unestimated(self, code: int, stride: int, estimates) -> None:
        """Push an unseen successor whose estimate the state's first
        expansion left out (another state had pushed it then)."""
        succ = code + stride
        self._seen.add(succ)
        lattice = self._lattice
        index = lattice.strides.index(stride)
        levels = self.levels
        if levels is None:
            levels = lattice.levels(code)
        levels = levels[:index] + (levels[index] + 1,) + levels[index + 1:]
        # Its terms added in variable order, as _expand_new adds them.
        estimate = 0.0
        for options, level in zip(lattice.terms, levels):
            estimate += options[level]
        estimates[index] = estimate
        heapq.heappush(
            self._heap, (self._cost, estimate, next(self._counter), succ, levels)
        )


class _UnsortedCandidates:
    """Every state in ``itertools.product`` order of the level vectors
    (the last variable fastest); nothing prunes."""

    def __init__(self, lattice: Lattice):
        self._product = itertools.product(
            *(range(len(chain)) for chain in lattice.chains)
        )
        self._strides = lattice.strides
        self.levels: Optional[tuple[int, ...]] = None

    def pop(self) -> Optional[int]:
        levels = self.levels = next(self._product, None)
        if levels is None:
            return None
        return sum(map(operator.mul, levels, self._strides))

    def expand(self, code: int) -> None:
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

    ``session`` shares Algorithm 1's caches and the example's
    :class:`Lattice` with other searches over the same (tree, registry) —
    e.g. across a threshold sweep; omitted, the search still pools
    privacy work across its own candidates through a private session.
    Results are bit-identical either way.
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


def _lattice(
    session: PrivacySession, example: KExample, tree: AbstractionTree
) -> Lattice:
    """The session's lattice of ``example``, built on its first search."""
    lattice = session.lattices.get(example)
    if lattice is None:
        if not tree.is_compatible_with_annotations(example.registry):
            raise OptimizationError(
                "abstraction tree is incompatible with the K-example "
                "(an inner label collides with a tuple annotation)"
            )
        lattice = session.lattices.setdefault(example, Lattice(example, tree))
    return lattice


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
    computer = PrivacyComputer(
        tree, example.registry, config.privacy, session=session
    )
    lattice = _lattice(computer.session, example, tree)
    dist = distribution or UniformDistribution()
    prune = (
        config.sort_abstractions
        and config.loi_first
        and isinstance(dist, UniformDistribution)
    )
    candidates: _SortedFrontier | _UnsortedCandidates
    if config.sort_abstractions:
        candidates = _SortedFrontier(lattice)
    else:
        candidates = _UnsortedCandidates(lattice)

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
        lois = lattice.lois.setdefault(dist, {})
        checked = lattice.checked
        evaluator = IncrementalEvaluator(lattice, dist)
        score_delta = spans.timed("candidate_scoring", evaluator.loi)
        materialize = spans.timed("materialize", evaluator.rows)
    else:
        variables = lattice.variables
        chains = dict(zip(variables, lattice.chains))

        def score_from_scratch(levels):
            function = _function_for_levels(
                tree, example, variables, chains, levels
            )
            abstracted = function.apply(example)
            loi = loss_of_information(abstracted, tree, dist)
            return loi, function, abstracted

        score_full = spans.timed("candidate_scoring", score_from_scratch)

    while True:
        code = candidates.pop()
        if code is None:
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

        # The level vector: the candidates' where at hand, else decoded
        # only where the lattice lacks a fact.
        levels = candidates.levels
        function: Optional[AbstractionFunction]
        abstracted: Optional[AbstractedKExample]
        if evaluator is not None:
            # Incremental path: the LOI the session holds, else scored
            # from memoized rows; the abstracted rows are built only if
            # privacy is computed, the function only for a new incumbent.
            loi = lois.get(code)
            if loi is None:
                if levels is None:
                    levels = lattice.levels(code)
                loi = lois[code] = score_delta(levels)
                stats.delta_evaluations += 1
            function = abstracted = None
        else:
            if levels is None:
                levels = lattice.levels(code)
            loi, function, abstracted = score_full(levels)
            stats.full_evaluations += 1

        # Only a candidate under the incumbent's LOI (primal) or within
        # the cap (dual) may replace the incumbent.
        improves = loi < best_loi if max_loi is None else loi <= max_loi
        if config.loi_first and not improves:
            if not prune:
                candidates.expand(code)
            continue

        # With loi_first disabled, privacy is paid for on every candidate.
        stats.privacy_computations += 1
        if abstracted is None:
            candidate = checked.get(code)
            if candidate is None:
                if levels is None:
                    levels = lattice.levels(code)
                candidate = checked[code] = _Candidate(materialize(levels))
                stats.functions_materialized += 1
        else:
            candidate = _Candidate(abstracted.rows)
        try:
            privacy = compute(candidate, threshold)
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
                    if levels is None:
                        levels = lattice.levels(code)
                    mapping = lattice.mapping(levels)
                    abstracted = AbstractedKExample(
                        candidate.rows, example, mapping
                    )
                    function = AbstractionFunction._from_validated(
                        tree, mapping
                    )
                best, best_abstracted = function, abstracted
                best_privacy, best_loi = privacy, loi
        candidates.expand(code)

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
