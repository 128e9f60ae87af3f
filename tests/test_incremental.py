"""Incremental candidate evaluation: equivalence with full recomputation.

The incremental evaluator must be *bit-identical* to the from-scratch
path — same floats, not merely close — because the optimizer's LOI gate
compares candidates against the incumbent and an ulp of drift could flip
which candidate wins.  These tests check that across random trees and
K-examples, for both additive distributions, per candidate and end to end,
and pin the frontier's order and the privacy check's inputs to the
formulas they replace.
"""

import heapq
import itertools
import math
import random

import pytest

from repro.abstraction.builders import balanced_tree, tree_from_categories
from repro.core.privacy import PrivacyComputer, PrivacySession
from repro.core.loi import (
    ExplicitDistribution,
    LeafWeightDistribution,
    UniformDistribution,
    loss_of_information,
)
from repro.core.optimizer import (
    IncrementalEvaluator,
    OptimizerConfig,
    _function_for_levels,
    _occurrence_counts,
    _SortedFrontier,
    find_dual_optimal_abstraction,
    find_optimal_abstraction,
    search_space,
)
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.parser import parse_cq


class FromScratchUniform(UniformDistribution):
    """Uniform LOI scored from scratch for every candidate: the reference
    the incremental evaluator must match (it still prunes like uniform)."""

    supports_incremental = False


def _random_instance(seed: int):
    """A random database, K-example, and abstraction tree.

    Each row draws its annotations and its output at random, so no query
    is consistent with the rows: the instance serves the per-candidate
    scoring tests, which compute no privacy.
    """
    rng = random.Random(seed)
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["b", "c"]}))
    n_r, n_s = rng.randint(3, 6), rng.randint(3, 6)
    for i in range(n_r):
        db.insert("R", (i, rng.randint(0, 3)), f"r{i}")
    for j in range(n_s):
        db.insert("S", (rng.randint(0, 3), j), f"s{j}")
    annotations = [f"r{i}" for i in range(n_r)] + [f"s{j}" for j in range(n_s)]

    rows = []
    for _ in range(rng.randint(2, 3)):
        k = rng.randint(2, 4)
        rows.append(KExampleRow((rng.randint(0, 9),), rng.sample(annotations, k)))
    example = KExample(rows, db.registry)

    tree = balanced_tree(annotations, height=rng.randint(2, 4), seed=seed)
    return db, example, tree


_JOIN = parse_cq("Q(a) :- R(a, b), S(b, c)")


def _joined_instance(seed: int):
    """A random database, a two- or three-row K-example of ``_JOIN`` over
    it, and an abstraction tree.  The first rows' ``S`` tuples join the
    first ``R`` tuples, so the query derives every row and the searches
    find abstractions with nonzero privacy."""
    rng = random.Random(seed)
    n_rows = 2 + seed % 2
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["b", "c"]}))
    n_r, n_s = rng.randint(3, 6), rng.randint(3, 6)
    r_bs = [rng.randint(0, 3) for _ in range(n_r)]
    for i, b in enumerate(r_bs):
        db.insert("R", (i, b), f"r{i}")
    for j in range(n_s):
        b = r_bs[j] if j < n_rows else rng.randint(0, 3)
        db.insert("S", (b, j), f"s{j}")
    annotations = [f"r{i}" for i in range(n_r)] + [f"s{j}" for j in range(n_s)]
    example = build_kexample(_JOIN, db, n_rows=n_rows)
    tree = balanced_tree(annotations, height=rng.randint(2, 4), seed=seed)
    return db, example, tree


def _search_inputs(example, tree):
    return search_space(example, tree)


def _candidate_sample(example, tree, variables, chains, rng, limit=80):
    """Sorted-order candidates plus random level vectors."""
    frontier = _SortedFrontier(
        variables, chains, tree, _occurrence_counts(example, variables)
    )
    candidates = []
    while len(candidates) < limit:
        levels = frontier.pop()
        if levels is None:
            break
        candidates.append(levels)
        frontier.expand(levels)
    for _ in range(20):
        candidates.append(tuple(
            rng.randrange(len(chains[v])) for v in variables
        ))
    return candidates


class TestPerCandidateEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_uniform_bit_identical(self, seed):
        _, example, tree = _random_instance(seed)
        variables, chains = _search_inputs(example, tree)
        rng = random.Random(seed + 1000)
        dist = UniformDistribution()
        evaluator = IncrementalEvaluator(example, tree, variables, chains, dist)
        for levels in _candidate_sample(example, tree, variables, chains, rng):
            function = _function_for_levels(tree, example, variables, chains, levels)
            full = loss_of_information(function.apply(example), tree, dist)
            assert evaluator.loi(levels) == full  # bitwise, not isclose

    @pytest.mark.parametrize("seed", range(4))
    def test_leaf_weight_bit_identical(self, seed):
        _, example, tree = _random_instance(seed)
        variables, chains = _search_inputs(example, tree)
        rng = random.Random(seed + 2000)
        weights = {leaf: rng.uniform(0.25, 4.0) for leaf in tree.leaves()}
        dist = LeafWeightDistribution(weights)
        evaluator = IncrementalEvaluator(example, tree, variables, chains, dist)
        for levels in _candidate_sample(example, tree, variables, chains, rng):
            function = _function_for_levels(tree, example, variables, chains, levels)
            full = loss_of_information(function.apply(example), tree, dist)
            assert evaluator.loi(levels) == full

    @pytest.mark.parametrize("seed", range(4))
    def test_materialize_matches_apply(self, seed):
        """The memoized abstracted example equals ``function.apply``'s,
        and a row is built once per levels of its own variables."""
        _, example, tree = _random_instance(seed)
        variables, chains = _search_inputs(example, tree)
        rng = random.Random(seed + 3000)
        evaluator = IncrementalEvaluator(
            example, tree, variables, chains, UniformDistribution()
        )
        for levels in _candidate_sample(example, tree, variables, chains, rng, 40):
            reference = _function_for_levels(tree, example, variables, chains, levels)
            applied = reference.apply(example)
            abstracted = evaluator.abstract(levels)
            assert abstracted.rows == applied.rows
            assert abstracted.mapping == applied.mapping == reference.assignment
            assert abstracted.source is example
            again = evaluator.abstract(levels)
            assert all(a is b for a, b in zip(again.rows, abstracted.rows))


def _reference_pops(variables, chains, tree, occurrences, limit):
    """The frontier's pop order with the estimate recomputed per successor
    from the tree: ``occurrences * ln |L_T(target)|`` per abstracted
    variable, summed in variable order.  Every state is expanded."""

    def estimate(levels):
        total = 0.0
        for var, level in zip(variables, levels):
            if level:
                target = chains[var][level]
                total += occurrences[var] * math.log(tree.leaf_count(target))
        return total

    counter = itertools.count()
    start = tuple(0 for _ in variables)
    heap = [(0, 0.0, next(counter), start)]
    seen = {start}
    popped = []
    while heap and len(popped) < limit:
        cost, _, _, levels = heapq.heappop(heap)
        popped.append(levels)
        for index, var in enumerate(variables):
            if levels[index] + 1 < len(chains[var]):
                succ = levels[:index] + (levels[index] + 1,) + levels[index + 1:]
                if succ not in seen:
                    seen.add(succ)
                    heapq.heappush(
                        heap, (cost + 1, estimate(succ), next(counter), succ)
                    )
    return popped


def _wide_instance(seed: int):
    """A K-example of 5-8 variables, each occurring one to three times,
    over a tree of height 2-4: many candidates share an edge count, so
    their order rests on the estimate's bits."""
    rng = random.Random(seed)
    annotations = [f"t{i}" for i in range(rng.randint(10, 16))]
    db = KDatabase(Schema.from_dict({"R": ["a"]}))
    for i, ann in enumerate(annotations):
        db.insert("R", (i,), ann)
    chosen = rng.sample(annotations, rng.randint(5, 8))
    occurrences = [ann for ann in chosen for _ in range(rng.randint(1, 3))]
    rng.shuffle(occurrences)
    half = len(occurrences) // 2
    example = KExample(
        [KExampleRow((0,), occurrences[:half]),
         KExampleRow((1,), occurrences[half:])],
        db.registry,
    )
    tree = balanced_tree(annotations, height=rng.randint(2, 4), seed=seed)
    return example, tree


class TestFrontierOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_pops_match_the_recomputed_estimate(self, seed):
        """The frontier pops the same level vectors in the same order as a
        heap keyed by the estimate recomputed from the tree, ties
        included."""
        example, tree = _wide_instance(seed)
        variables, chains = search_space(example, tree)
        occurrences = _occurrence_counts(example, variables)
        limit = 1500
        expected = _reference_pops(variables, chains, tree, occurrences, limit)
        frontier = _SortedFrontier(variables, chains, tree, occurrences)
        popped = []
        while len(popped) < limit:
            levels = frontier.pop()
            if levels is None:
                break
            popped.append(levels)
            frontier.expand(levels)
        assert popped == expected


class TestPrivacyInputs:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dual", [False, True])
    def test_compute_receives_the_applied_example(
        self, seed, dual, monkeypatch
    ):
        """Every candidate whose privacy is computed hands Algorithm 1 the
        rows and mapping of ``function.apply(example)``."""
        _, example, tree = _joined_instance(seed)
        variables, chains = search_space(example, tree)
        popped, received = [], []
        pop, compute = _SortedFrontier.pop, PrivacyComputer.compute

        def recording_pop(self):
            levels = pop(self)
            popped.append(levels)
            return levels

        def recording_compute(self, abstracted, threshold):
            received.append((popped[-1], abstracted))
            return compute(self, abstracted, threshold)

        monkeypatch.setattr(_SortedFrontier, "pop", recording_pop)
        monkeypatch.setattr(PrivacyComputer, "compute", recording_compute)
        config = OptimizerConfig(max_candidates=120)
        if dual:
            result = find_dual_optimal_abstraction(
                example, tree, 3.0, config=config
            )
        else:
            result = find_optimal_abstraction(example, tree, 2, config=config)
        assert len(received) == result.stats.privacy_computations > 0
        for levels, abstracted in received:
            applied = _function_for_levels(
                tree, example, variables, chains, levels
            ).apply(example)
            assert abstracted.rows == applied.rows
            assert abstracted.mapping == applied.mapping
            assert abstracted.source is example


def _assert_same_result(incremental, full):
    """The two paths' answers (function, abstracted example, privacy,
    LOI, edges) and their candidate and privacy counts agree."""
    assert incremental.found == full.found
    assert incremental.loi == full.loi
    assert incremental.privacy == full.privacy
    assert incremental.edges_used == full.edges_used
    assert incremental.stats.candidates_scanned == full.stats.candidates_scanned
    assert incremental.stats.privacy_computations == (
        full.stats.privacy_computations
    )
    assert incremental.function == full.function
    if incremental.found:
        assert incremental.function.assignment == full.function.assignment
        assert incremental.abstracted.rows == full.abstracted.rows
        assert incremental.abstracted.mapping == full.abstracted.mapping


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_search_results_identical(self, seed):
        _, example, tree = _joined_instance(seed)
        budget = dict(max_candidates=300)
        incremental = find_optimal_abstraction(
            example, tree, threshold=2, config=OptimizerConfig(**budget)
        )
        full = find_optimal_abstraction(
            example, tree, threshold=2, config=OptimizerConfig(**budget),
            distribution=FromScratchUniform(),
        )
        _assert_same_result(incremental, full)

    def test_random_instances_find_abstractions(self):
        """The instances above are not vacuous: most primal searches find
        an abstraction with privacy >= 2, and every dual one at the
        largest cap finds privacy >= 1."""
        found = 0
        for seed in range(5):
            _, example, tree = _joined_instance(seed)
            primal = find_optimal_abstraction(
                example, tree, threshold=2,
                config=OptimizerConfig(max_candidates=300),
            )
            found += primal.found and primal.privacy >= 2
            dual = find_dual_optimal_abstraction(
                example, tree, max(TestDualEndToEndEquivalence.CAPS),
                config=OptimizerConfig(max_candidates=120),
            )
            assert dual.found and dual.privacy >= 1
        assert found >= 4

    def test_paper_example_identical(self, paper_example, paper_tree):
        incremental = find_optimal_abstraction(paper_example, paper_tree, 2)
        full = find_optimal_abstraction(
            paper_example, paper_tree, 2, distribution=FromScratchUniform()
        )
        assert incremental.loi == full.loi == pytest.approx(math.log(15))
        assert incremental.function.assignment == full.function.assignment


class TestDualEndToEndEquivalence:
    """The dual search rides the same evaluator, which must be
    bit-identical to the from-scratch path (function, privacy, LOI)."""

    CAPS = (0.0, 1.5, 3.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_dual_results_identical(self, seed):
        _, example, tree = _joined_instance(seed)
        budget = dict(max_candidates=120)
        for max_loi in self.CAPS:
            incremental = find_dual_optimal_abstraction(
                example, tree, max_loi, config=OptimizerConfig(**budget)
            )
            full = find_dual_optimal_abstraction(
                example, tree, max_loi, config=OptimizerConfig(**budget),
                distribution=FromScratchUniform(),
            )
            _assert_same_result(incremental, full)

    def test_paper_dual_identical(self, paper_example, paper_tree):
        incremental = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=math.log(15)
        )
        full = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=math.log(15),
            distribution=FromScratchUniform(),
        )
        assert incremental.privacy == full.privacy
        assert incremental.loi == full.loi
        assert incremental.function.assignment == full.function.assignment

    def test_dual_uses_delta_evaluations(self, paper_example, paper_tree):
        result = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=math.log(15)
        )
        stats = result.stats
        assert stats.delta_evaluations == stats.candidates_scanned
        assert stats.full_evaluations == 0
        # Lazy materialization: only under-cap candidates are built.
        assert stats.functions_materialized == stats.privacy_computations

    def test_dual_shared_session_identical(self, paper_example, paper_tree):
        """One session across an LOI-cap sweep changes nothing but speed."""
        session = PrivacySession(paper_tree, paper_example.registry)
        for max_loi in (0.0, math.log(15), math.log(20)):
            shared = find_dual_optimal_abstraction(
                paper_example, paper_tree, max_loi, session=session
            )
            cold = find_dual_optimal_abstraction(
                paper_example, paper_tree, max_loi
            )
            assert shared.privacy == cold.privacy
            assert shared.loi == cold.loi
            if cold.found:
                assert shared.function.assignment == cold.function.assignment


class TestEvaluatorBookkeeping:
    def test_stats_counters(self, paper_example, paper_tree):
        result = find_optimal_abstraction(paper_example, paper_tree, 2)
        stats = result.stats
        assert stats.delta_evaluations == stats.candidates_scanned
        assert stats.full_evaluations == 0
        # Lazy materialization: only gate-passing candidates are built.
        assert stats.functions_materialized == stats.privacy_computations
        assert stats.functions_materialized < stats.candidates_scanned
        assert stats.contribution_cache_misses > 0
        assert stats.contribution_cache_hits > stats.contribution_cache_misses

    def test_disabled_uses_full_path(self, paper_example, paper_tree):
        result = find_optimal_abstraction(
            paper_example, paper_tree, 2, distribution=FromScratchUniform()
        )
        stats = result.stats
        assert stats.full_evaluations == stats.candidates_scanned
        assert stats.delta_evaluations == 0
        assert stats.functions_materialized == 0
        assert stats.contribution_cache_hits == 0

    def test_explicit_distribution_falls_back(self, paper_db, paper_tree):
        """Non-additive distributions cannot be evaluated incrementally."""
        assert not getattr(ExplicitDistribution([1.0]), "supports_incremental", False)

    def test_contribution_cache_reuse(self, paper_example, paper_tree):
        """The contribution cache is the per-row memo: the first pass
        computes each row's contributions, the second scores every row
        from the memo."""
        variables, chains = _search_inputs(paper_example, paper_tree)
        evaluator = IncrementalEvaluator(
            paper_example, paper_tree, variables, chains, UniformDistribution()
        )
        levels = tuple(1 if len(chains[v]) > 1 else 0 for v in variables)
        first = evaluator.loi(levels)
        misses = evaluator.cache_misses
        assert misses == len(paper_example.rows)
        assert evaluator.cache_hits == 0
        assert evaluator.loi(levels) == first
        assert evaluator.cache_misses == misses  # second pass is all hits
        assert evaluator.cache_hits == misses


class TestTreeMemoization:
    def test_ancestors_cached_after_freeze(self):
        tree = tree_from_categories({"A": {"B": ["x", "y"]}, "C": ["z"]})
        first = tree.ancestors("x")
        assert tree.ancestors("x") is first  # memoized tuple identity
        assert first == ("x", "B", "A", "*")

    def test_leaves_under_cached_after_freeze(self):
        tree = tree_from_categories({"A": {"B": ["x", "y"]}, "C": ["z"]})
        assert sorted(tree.leaves_under("A")) == ["x", "y"]
        # Second call is served from the memo and yields the same labels.
        assert sorted(tree.leaves_under("A")) == ["x", "y"]
        assert list(tree.leaves_under("z")) == ["z"]
