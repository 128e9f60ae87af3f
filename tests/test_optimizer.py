"""Tests for Algorithm 2 (optimal abstraction), brute force, dual, compression."""

import math

import pytest

from repro.abstraction.builders import tree_from_categories
from repro.core.brute_force import brute_force_optimal_abstraction
from repro.core.compression import compress_to_size, compression_baseline, provenance_size
from repro.core.loi import LeafWeightDistribution
from repro.core.optimizer import (
    OptimizerConfig,
    find_dual_optimal_abstraction,
    find_optimal_abstraction,
)
from repro.core.privacy import PrivacyComputer
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError
from repro.provenance.builder import build_kexample
from repro.query.parser import parse_cq


class TestPaperOptimum:
    def test_example_315(self, paper_example, paper_tree):
        """Example 3.15: the optimal abstraction at k=2 has LOI ln 15."""
        result = find_optimal_abstraction(paper_example, paper_tree, threshold=2)
        assert result.found
        assert result.privacy == 2
        assert math.isclose(result.loi, math.log(15))
        assert result.edges_used == 2

    def test_threshold_1_is_identity(self, paper_example, paper_tree):
        result = find_optimal_abstraction(paper_example, paper_tree, threshold=1)
        assert result.found
        assert result.loi == 0.0
        assert result.edges_used == 0

    def test_stats_populated(self, paper_example, paper_tree):
        result = find_optimal_abstraction(paper_example, paper_tree, threshold=2)
        assert result.stats.candidates_scanned > 0
        assert result.stats.privacy_computations > 0
        assert result.stats.elapsed_seconds > 0

    def test_loi_first_skips_privacy_calls(self, paper_example, paper_tree):
        eager = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            config=OptimizerConfig(loi_first=False, sort_abstractions=False),
        )
        lazy = find_optimal_abstraction(paper_example, paper_tree, threshold=2)
        assert lazy.stats.privacy_computations < eager.stats.privacy_computations
        assert math.isclose(lazy.loi, eager.loi)

    def test_incompatible_tree_rejected(self, paper_example, paper_db):
        bad_tree = tree_from_categories({"p1": ["h1", "h2"]})
        with pytest.raises(OptimizationError):
            find_optimal_abstraction(paper_example, bad_tree, threshold=1)


class TestAgreementWithBruteForce:
    @pytest.mark.parametrize("threshold", [1, 2])
    def test_same_optimal_loi(self, paper_example, paper_tree, threshold):
        """Exhaustive unordered scan (fast privacy) agrees with Algorithm 2."""
        fast = find_optimal_abstraction(paper_example, paper_tree, threshold)
        exhaustive = find_optimal_abstraction(
            paper_example, paper_tree, threshold,
            config=OptimizerConfig(sort_abstractions=False, loi_first=True),
        )
        assert fast.found == exhaustive.found
        if fast.found:
            assert math.isclose(fast.loi, exhaustive.loi)

    def test_small_synthetic_instance(self):
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["b", "c"]}))
        db.insert("R", (1, 10), "r1")
        db.insert("R", (2, 20), "r2")
        db.insert("R", (3, 10), "r3")
        db.insert("S", (10, 5), "s1")
        db.insert("S", (20, 5), "s2")
        db.insert("S", (10, 6), "s3")
        tree = tree_from_categories({
            "Rs": {"Rlow": ["r1", "r2"], "Rhigh": ["r3"]},
            "Ss": ["s1", "s2", "s3"],
        })
        example = build_kexample(
            parse_cq("Q(a) :- R(a, b), S(b, c)"), db, n_rows=2
        )
        fast = find_optimal_abstraction(example, tree, threshold=2)
        slow = brute_force_optimal_abstraction(example, tree, threshold=2)
        assert fast.found == slow.found
        if fast.found:
            assert math.isclose(fast.loi, slow.loi)


class TestConfigs:
    def test_unsorted_scan_finds_same_optimum(self, paper_example, paper_tree):
        config = OptimizerConfig(sort_abstractions=False)
        result = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2, config=config
        )
        assert result.found
        assert math.isclose(result.loi, math.log(15))

    def test_pruning_preserves_optimum(self, paper_example, paper_tree):
        # An unsorted scan prunes nothing.
        no_prune = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            config=OptimizerConfig(sort_abstractions=False),
        )
        pruned = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
        )
        assert math.isclose(no_prune.loi, pruned.loi)
        assert pruned.stats.candidates_scanned <= no_prune.stats.candidates_scanned

    def test_max_candidates_respected(self, paper_example, paper_tree):
        config = OptimizerConfig(max_candidates=3)
        result = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2, config=config
        )
        assert result.stats.candidates_scanned <= 4

    def test_nonuniform_distribution_disables_pruning(
        self, paper_example, paper_tree
    ):
        weights = {leaf: (2.0 if leaf.startswith("h") else 1.0)
                   for leaf in paper_tree.leaves()}
        result = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            distribution=LeafWeightDistribution(weights),
        )
        assert result.found
        assert result.privacy >= 2


class TestSortedOrder:
    def test_identity_scanned_first_and_cone_pruned(
        self, paper_example, paper_tree
    ):
        """At threshold 1 the identity (cost 0, LOI 0) wins immediately;
        with dominance pruning only its direct successors are scanned
        (every abstraction has LOI > 0)."""
        result = find_optimal_abstraction(paper_example, paper_tree, threshold=1)
        assert result.loi == 0.0
        assert result.stats.privacy_computations == 1
        n_vars = 4  # h1, h2, i1, i2 are the abstractable variables
        assert result.stats.candidates_scanned <= 1 + n_vars


class TestDual:
    def test_dual_matches_primal_at_cap(self, paper_example, paper_tree):
        primal = find_optimal_abstraction(paper_example, paper_tree, threshold=2)
        dual = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=primal.loi
        )
        assert dual.found
        assert dual.privacy >= primal.privacy
        assert dual.loi <= primal.loi + 1e-9

    def test_tight_cap_forces_identity(self, paper_example, paper_tree):
        dual = find_dual_optimal_abstraction(paper_example, paper_tree, max_loi=0.0)
        assert dual.found
        assert dual.loi == 0.0
        assert dual.privacy == 1  # only Q_real fits the raw example

    def test_dual_scans_fewer_candidates_than_unbounded(self, paper_example, paper_tree):
        wide = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=math.inf,
            config=OptimizerConfig(max_candidates=500),
        )
        narrow = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=1.5,
        )
        assert narrow.stats.privacy_computations <= wide.stats.privacy_computations

    def test_dual_honors_every_switch(self, paper_example, paper_tree):
        """At cap ln 15 the sorted LOI-first dual scans 42 of the 192
        candidates and computes privacy for 15.  Unsorted, it scans all
        192 and prunes none; without the LOI gate, it computes privacy
        for all 192.  Each returns privacy 2 at the same LOI."""
        cap = math.log(15)
        default = find_dual_optimal_abstraction(paper_example, paper_tree, cap)
        unsorted = find_dual_optimal_abstraction(
            paper_example, paper_tree, cap,
            config=OptimizerConfig(sort_abstractions=False),
        )
        eager = find_dual_optimal_abstraction(
            paper_example, paper_tree, cap,
            config=OptimizerConfig(loi_first=False),
        )
        assert default.stats.candidates_scanned == 42
        assert default.stats.privacy_computations == 15
        assert unsorted.stats.candidates_scanned == 192
        assert eager.stats.candidates_scanned == 192
        assert eager.stats.privacy_computations == 192
        for result in (default, unsorted, eager):
            assert result.privacy == 2
            assert result.loi == default.loi

    def test_traced_dual_records_its_phases(self, paper_example, paper_tree):
        from repro.obs import spans

        tracer = spans.Tracer()
        with spans.activate(tracer):
            result = find_dual_optimal_abstraction(
                paper_example, paper_tree, max_loi=math.log(15)
            )
        counts = {record["name"]: record["count"] for record in tracer.records}
        stats = result.stats
        assert counts["candidate_scoring"] == stats.candidates_scanned
        assert counts["privacy_check"] == stats.privacy_computations
        assert counts["materialize"] == stats.functions_materialized

    def test_dual_that_finds_nothing_reports_privacy_zero(
        self, paper_example, paper_tree
    ):
        result = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=-1.0
        )
        assert not result.found
        assert result.privacy == 0
        assert math.isinf(result.loi)
        assert result.stats.privacy_computations == 0


class TestCompression:
    def test_compress_reduces_size(self, paper_example, paper_tree):
        function = compress_to_size(paper_example, paper_tree, target_size=3)
        assert function is not None
        targets = {
            paper_example.rows[r].occurrences[o]: label
            for (r, o), label in function.assignment.items()
        }
        full = {v: targets.get(v, v) for v in paper_example.variables()}
        assert provenance_size(full, paper_example) <= 3

    def test_compress_to_current_size_is_identity(self, paper_example, paper_tree):
        n_vars = len(paper_example.variables())
        function = compress_to_size(paper_example, paper_tree, n_vars)
        assert function is not None
        assert function.num_abstracted() == 0

    def test_invalid_target_returns_none(self, paper_example, paper_tree):
        assert compress_to_size(paper_example, paper_tree, 0) is None

    def test_baseline_meets_threshold_with_higher_loi(
        self, paper_example, paper_tree
    ):
        """Figure 18: the compression baseline pays more LOI than optimal."""
        ours = find_optimal_abstraction(paper_example, paper_tree, threshold=2)
        theirs = compression_baseline(paper_example, paper_tree, threshold=2)
        assert theirs.found
        assert theirs.privacy >= 2
        assert theirs.loi >= ours.loi

    def test_baseline_unsatisfiable_threshold(self, paper_example, paper_tree):
        result = compression_baseline(paper_example, paper_tree, threshold=10**6)
        assert not result.found
        assert result.privacy == -1
