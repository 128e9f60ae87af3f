"""Budget exhaustion paths of Algorithm 2 and Algorithm 1.

The optimizer has four safety valves: a candidate budget
(``max_candidates``), a wall-clock budget (``max_seconds``), and — inside
the privacy computation — a concretization budget
(``PrivacyConfig.max_concretizations``) and an alignment budget
(``consistency.MAX_ALIGNMENT_COMBOS``).  Each must degrade gracefully:
return the best abstraction found so far (or a not-found result), never
raise out of ``find_optimal_abstraction``.
"""

import math

import pytest

from repro.abstraction.function import AbstractionFunction
from repro.core import consistency
from repro.core.loi import UniformDistribution
from repro.core.optimizer import (
    OptimizerConfig,
    find_dual_optimal_abstraction,
    find_optimal_abstraction,
)
from repro.core.privacy import PrivacyComputer, PrivacyConfig
from repro.errors import OptimizationError


class FromScratchUniform(UniformDistribution):
    """Uniform LOI scored from scratch for every candidate."""

    supports_incremental = False


class TestCandidateBudget:
    def test_zero_budget_returns_not_found(self, paper_example, paper_tree):
        result = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            config=OptimizerConfig(max_candidates=0),
        )
        assert not result.found
        assert result.function is None
        assert result.abstracted is None
        assert result.privacy == -1
        assert math.isinf(result.loi)
        # Reported effort equals work done: nothing was evaluated.
        assert result.stats.candidates_scanned == 0

    def test_budget_keeps_best_so_far(self, paper_example, paper_tree):
        """With room to find the k=1 optimum (the identity) but not to
        finish the scan, the incumbent is still returned."""
        result = find_optimal_abstraction(
            paper_example, paper_tree, threshold=1,
            config=OptimizerConfig(max_candidates=2),
        )
        assert result.found
        assert result.loi == 0.0

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_exhausted_budget_counts_exactly(
        self, paper_example, paper_tree, budget
    ):
        """When the budget trips, candidates_scanned == max_candidates —
        the popped-but-unevaluated candidate is not reported as effort."""
        for distribution in (UniformDistribution(), FromScratchUniform()):
            result = find_optimal_abstraction(
                paper_example, paper_tree, threshold=2,
                config=OptimizerConfig(max_candidates=budget),
                distribution=distribution,
            )
            assert result.stats.candidates_scanned == budget

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_dual_budget_counts_exactly(self, paper_example, paper_tree, budget):
        result = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=math.inf,
            config=OptimizerConfig(max_candidates=budget),
        )
        assert result.stats.candidates_scanned == budget

    def test_generous_budget_not_hit(self, paper_example, paper_tree):
        """A budget larger than the whole space leaves the scan untouched."""
        bounded = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            config=OptimizerConfig(max_candidates=100_000),
        )
        unbounded = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
        )
        assert (
            bounded.stats.candidates_scanned
            == unbounded.stats.candidates_scanned
        )
        assert bounded.stats.candidates_scanned < 100_000


class TestTimeBudget:
    def test_zero_seconds_stops_immediately(self, paper_example, paper_tree):
        result = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            config=OptimizerConfig(max_seconds=0.0),
        )
        assert not result.found
        assert result.stats.candidates_scanned == 0
        assert result.stats.privacy_computations == 0
        assert result.stats.elapsed_seconds > 0.0

    def test_dual_zero_seconds_stops_immediately(
        self, paper_example, paper_tree
    ):
        result = find_dual_optimal_abstraction(
            paper_example, paper_tree, max_loi=math.inf,
            config=OptimizerConfig(max_seconds=0.0),
        )
        assert not result.found
        assert result.stats.candidates_scanned == 0
        assert result.stats.privacy_computations == 0

    def test_unbounded_by_default(self, paper_example, paper_tree):
        config = OptimizerConfig()
        assert config.max_seconds is None
        assert config.max_candidates is None


class TestPrivacyConcretizationBudget:
    def test_exhaustion_is_counted_and_survived(
        self, paper_example, paper_tree, monkeypatch
    ):
        """A tiny concretization budget, or an alignment budget of zero,
        makes every proper abstraction unevaluable; the search skips them
        (counting each exhaustion) and reports not-found instead of
        raising."""
        budgets = [
            (PrivacyConfig(max_concretizations=1),
             consistency.MAX_ALIGNMENT_COMBOS),
            (PrivacyConfig(), 0),
        ]
        for privacy, max_combos in budgets:
            monkeypatch.setattr(
                consistency, "MAX_ALIGNMENT_COMBOS", max_combos
            )
            result = find_optimal_abstraction(
                paper_example, paper_tree, threshold=2,
                config=OptimizerConfig(privacy=privacy),
            )
            assert not result.found
            assert result.stats.privacy_budget_exhausted > 0
            assert result.stats.privacy_computations >= result.stats.privacy_budget_exhausted

    def test_computer_raises_directly(self, paper_example, paper_tree):
        computer = PrivacyComputer(
            paper_tree, paper_example.registry,
            PrivacyConfig(max_concretizations=1),
        )
        function = AbstractionFunction.uniform(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        with pytest.raises(OptimizationError):
            computer.compute(function.apply(paper_example), threshold=2)

    def test_generous_budget_unaffected(self, paper_example, paper_tree):
        tight = find_optimal_abstraction(
            paper_example, paper_tree, threshold=2,
            config=OptimizerConfig(
                privacy=PrivacyConfig(max_concretizations=200_000),
            ),
        )
        assert tight.found
        assert tight.stats.privacy_budget_exhausted == 0
        assert tight.loi == pytest.approx(math.log(15))
