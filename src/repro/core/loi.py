"""Loss of information: entropy over the concretization set (Definition 3.6).

Three distribution models are provided:

* :class:`UniformDistribution` — the paper's default; LOI reduces to
  ``ln |C(Ex~)|`` which, by Proposition 3.5, is a sum of per-occurrence
  ``ln |L_T(target)|`` terms and never requires enumerating concretizations.
* :class:`LeafWeightDistribution` — each leaf has a weight; occurrences
  choose leaves independently with probability proportional to weight.
  Independence makes the entropy additive across occurrences, again
  avoiding enumeration.
* :class:`ExplicitDistribution` — arbitrary probabilities per concretization
  (Example 3.7); requires enumeration and is intended for small sets.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.tree import AbstractionTree
from repro.errors import AbstractionError
from repro.provenance.kexample import AbstractedKExample


class UniformDistribution:
    """Discrete uniform distribution over the concretization set."""

    #: LOI is a sum of independent per-occurrence terms (Proposition 3.5),
    #: so the optimizer may evaluate candidates from cached per-label
    #: contributions instead of recomputing over the whole example.
    supports_incremental = True

    def label_contribution(self, label: str, tree: AbstractionTree) -> float:
        """The LOI contribution of one occurrence abstracted to ``label``."""
        return math.log(tree.leaf_count(label))

    def loi(
        self,
        abstracted: AbstractedKExample,
        tree: AbstractionTree,
        engine: "ConcretizationEngine | None" = None,
    ) -> float:
        # ``engine`` is accepted for signature uniformity with
        # ExplicitDistribution; the closed form needs no enumeration.
        total = 0.0
        for row in abstracted.rows:
            for label in row.occurrences:
                if label in tree and not tree.is_leaf(label):
                    total += math.log(tree.leaf_count(label))
        return total

    # Equal distributions score every label alike: the optimizer keeps
    # one LOI per candidate for all of them (``Lattice.lois``).
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return "UniformDistribution()"


class LeafWeightDistribution:
    """Independent per-occurrence leaf choices with given leaf weights.

    Each abstracted occurrence picks a leaf of its target's subtree with
    probability proportional to the leaf's weight; weights default to 1
    (reducing to uniform).  Entropy is the sum of the per-occurrence
    entropies because the choices are independent.
    """

    #: Independence makes the entropy additive per occurrence, so the
    #: incremental evaluator applies (contributions depend only on the
    #: target label).
    supports_incremental = True

    def __init__(self, weights: Mapping[str, float]):
        self._weights = dict(weights)
        for leaf, weight in self._weights.items():
            if weight <= 0:
                raise AbstractionError(
                    f"leaf weight must be positive: {leaf!r} -> {weight}"
                )

    def label_contribution(self, label: str, tree: AbstractionTree) -> float:
        """The entropy contribution of one occurrence abstracted to ``label``."""
        weights = [
            self._weights.get(leaf, 1.0) for leaf in tree.leaves_under(label)
        ]
        return _entropy_of_weights(weights)

    def loi(
        self,
        abstracted: AbstractedKExample,
        tree: AbstractionTree,
        engine: "ConcretizationEngine | None" = None,
    ) -> float:
        total = 0.0
        for row in abstracted.rows:
            for label in row.occurrences:
                if label in tree and not tree.is_leaf(label):
                    total += self.label_contribution(label, tree)
        return total

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"LeafWeightDistribution({len(self._weights)} weights)"


class ExplicitDistribution:
    """Explicit probabilities over an enumerated concretization set.

    ``probabilities`` must sum to 1 and match the concretization count;
    they are assigned to concretizations in the engine's enumeration order.
    """

    def __init__(self, probabilities: Sequence[float]):
        self._probabilities = tuple(float(p) for p in probabilities)
        if any(p < 0 for p in self._probabilities):
            raise AbstractionError("probabilities must be non-negative")
        if abs(sum(self._probabilities) - 1.0) > 1e-9:
            raise AbstractionError(
                f"probabilities must sum to 1, got {sum(self._probabilities)}"
            )

    def loi(
        self,
        abstracted: AbstractedKExample,
        tree: AbstractionTree,
        engine: "ConcretizationEngine | None" = None,
    ) -> float:
        if engine is not None:
            count = engine.count(abstracted)
            if count != len(self._probabilities):
                raise AbstractionError(
                    f"distribution has {len(self._probabilities)} outcomes "
                    f"but the concretization set has {count}"
                )
        return _entropy_of_probabilities(self._probabilities)

    def __repr__(self) -> str:
        return f"ExplicitDistribution({len(self._probabilities)} outcomes)"


def loss_of_information(
    abstracted: AbstractedKExample,
    tree: AbstractionTree,
    distribution: "UniformDistribution | LeafWeightDistribution | None" = None,
    engine: "ConcretizationEngine | None" = None,
) -> float:
    """``LOI(A_T(Ex))`` under the given distribution (uniform by default).

    ``engine`` enables the outcome-count validation of distributions that
    enumerate the concretization set (:class:`ExplicitDistribution`): with
    an engine the distribution's outcome count is checked against
    ``|C(Ex~)|`` and a mismatch raises; without one the check is skipped —
    the caller vouches that the probabilities line up with the engine's
    enumeration order.  The closed-form distributions ignore it.
    """
    if distribution is None:
        distribution = UniformDistribution()
    if engine is None:
        # Two-argument call keeps custom distributions without an
        # ``engine`` parameter working.
        return distribution.loi(abstracted, tree)
    return distribution.loi(abstracted, tree, engine)


def _entropy_of_weights(weights: Sequence[float]) -> float:
    total = sum(weights)
    return _entropy_of_probabilities([w / total for w in weights])


def _entropy_of_probabilities(probabilities: Sequence[float]) -> float:
    return -sum(p * math.log(p) for p in probabilities if p > 0)
