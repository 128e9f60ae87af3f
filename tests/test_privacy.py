"""Tests for Algorithm 1: privacy computation."""

import random

import pytest

from repro.abstraction.builders import balanced_tree
from repro.abstraction.function import AbstractionFunction
from repro.core.consistency import ConsistencyConfig
from repro.core.privacy import PrivacyComputer, PrivacyConfig, PrivacySession
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.containment import is_equivalent
from repro.examples_data import Q_FALSE_1, Q_FALSE_2, Q_REAL


def _abstract(tree, example, targets):
    return AbstractionFunction.uniform(tree, example, targets).apply(example)


@pytest.fixture
def computer(paper_tree, paper_db):
    return PrivacyComputer(paper_tree, paper_db.registry)


class TestPaperExamples:
    def test_raw_example_privacy_is_1(self, computer, paper_tree, paper_example):
        """The unabstracted K-example reveals Q_real."""
        identity = _abstract(paper_tree, paper_example, {})
        cims = computer.cim_queries(identity)
        assert len(cims) == 1
        (only,) = cims
        assert is_equivalent(only, Q_REAL)

    def test_abs1_privacy_is_2(self, computer, paper_tree, paper_example):
        """Example 3.13: Ex_abs1 has exactly the CIM queries Q_real, Q_false_1."""
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        cims = computer.cim_queries(abstracted)
        assert len(cims) == 2
        assert any(is_equivalent(q, Q_REAL) for q in cims)
        assert any(is_equivalent(q, Q_FALSE_1) for q in cims)

    def test_abs2_privacy_is_2(self, computer, paper_tree, paper_example):
        """Example 3.15: Ex_abs2 has CIM queries Q_real and Q_false_2."""
        abstracted = _abstract(
            paper_tree, paper_example, {"i1": "WikiLeaks", "i2": "Facebook"}
        )
        cims = computer.cim_queries(abstracted)
        assert len(cims) == 2
        assert any(is_equivalent(q, Q_REAL) for q in cims)
        assert any(is_equivalent(q, Q_FALSE_2) for q in cims)

    def test_abs3_fails_threshold_2(self, computer, paper_tree, paper_example):
        """Example 4.2: Ex_abs3's only CIM query is Q_real -> returns -1."""
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        assert computer.compute(abstracted, threshold=2) == -1
        assert computer.privacy(abstracted) == 1

    def test_compute_returns_count_when_met(
        self, computer, paper_tree, paper_example
    ):
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        assert computer.compute(abstracted, threshold=2) == 2


class TestConfigEquivalence:
    """All four optimization switches must not change the result."""

    CONFIGS = [
        PrivacyConfig(),
        PrivacyConfig(row_by_row=False),
        PrivacyConfig(connectivity_filter=False),
        PrivacyConfig(cache_queries=False, cache_connectivity=False),
        PrivacyConfig(
            row_by_row=False,
            connectivity_filter=False,
            cache_queries=False,
            cache_connectivity=False,
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize(
        "targets",
        [
            {"h1": "Facebook", "h2": "LinkedIn"},
            {"i1": "WikiLeaks", "i2": "Facebook"},
            {"i1": "WikiLeaks"},
            {"h1": "Social Network"},
        ],
    )
    def test_privacy_invariant_under_config(
        self, paper_tree, paper_db, paper_example, config, targets
    ):
        reference = PrivacyComputer(paper_tree, paper_db.registry)
        abstracted = _abstract(paper_tree, paper_example, targets)
        expected = reference.privacy(abstracted)
        actual = PrivacyComputer(paper_tree, paper_db.registry, config).privacy(
            abstracted
        )
        assert actual == expected


class TestMechanics:
    def test_caching_hits_on_repeat(self, paper_tree, paper_db, paper_example):
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        computer.privacy(abstracted)
        misses_after_first = computer.stats.query_cache_misses
        computer.privacy(abstracted)
        assert computer.stats.query_cache_hits > 0
        assert computer.stats.query_cache_misses == misses_after_first

    def test_cap_counters_zero_at_defaults(
        self, paper_tree, paper_db, paper_example
    ):
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        assert computer.privacy(abstracted) == 2
        assert computer.stats.consistency_calls > 0
        assert computer.stats.flip_cap_fallbacks == 0
        assert computer.stats.alignment_combo_truncations == 0

    def test_flip_cap_charged_on_cache_misses(
        self, paper_tree, paper_db, paper_example
    ):
        """Two constant classes ('Dance', 'Music') against a cap of one."""
        config = PrivacyConfig(consistency=ConsistencyConfig(max_flip_classes=1))
        computer = PrivacyComputer(paper_tree, paper_db.registry, config)
        abstracted = _abstract(paper_tree, paper_example, {})
        computer.privacy(abstracted)
        fallbacks = computer.stats.flip_cap_fallbacks
        assert fallbacks > 0
        computer.privacy(abstracted)
        assert computer.stats.query_cache_hits > 0
        assert computer.stats.flip_cap_fallbacks == fallbacks

    def test_connectivity_filter_prunes(self, paper_tree, paper_db, paper_example):
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        computer.privacy(abstracted)
        # Figure 6: c1 and c4 are disconnected and must be pruned.
        assert computer.stats.concretizations_pruned_disconnected >= 2

    def test_budget_guard(self, paper_tree, paper_db, paper_example):
        config = PrivacyConfig(max_concretizations=2)
        computer = PrivacyComputer(paper_tree, paper_db.registry, config)
        abstracted = _abstract(
            paper_tree, paper_example,
            {v: "*" for v in ("h1", "h2", "i1", "i2")},
        )
        with pytest.raises(OptimizationError):
            computer.privacy(abstracted)

    def test_single_row_privacy(self, paper_tree, paper_db, paper_example):
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        single = paper_example.prefix(1)
        abstracted = _abstract(paper_tree, single, {"h1": "Facebook"})
        privacy = computer.privacy(abstracted)
        assert privacy >= 1

    def test_threshold_zero_never_negative(
        self, computer, paper_tree, paper_example
    ):
        abstracted = _abstract(paper_tree, paper_example, {})
        assert computer.compute(abstracted, threshold=0) >= 0


def _random_instance(seed: int):
    """A random database, K-example, and abstraction tree (kept small:
    Algorithm 1 is exponential in the row count)."""
    rng = random.Random(seed)
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["b", "c"]}))
    n_r, n_s = rng.randint(3, 5), rng.randint(3, 5)
    for i in range(n_r):
        db.insert("R", (i, rng.randint(0, 3)), f"r{i}")
    for j in range(n_s):
        db.insert("S", (rng.randint(0, 3), j), f"s{j}")
    annotations = [f"r{i}" for i in range(n_r)] + [f"s{j}" for j in range(n_s)]

    rows = []
    for _ in range(rng.randint(2, 3)):
        k = rng.randint(2, 3)
        rows.append(KExampleRow((rng.randint(0, 9),), rng.sample(annotations, k)))
    example = KExample(rows, db.registry)

    tree = balanced_tree(annotations, height=rng.randint(2, 3), seed=seed)
    return db, example, tree


def _random_abstraction(example, tree, rng):
    """Abstract a random subset of the example's variables to random
    ancestors."""
    targets = {}
    for var in sorted(example.variables()):
        if var in tree.labels() and tree.is_leaf(var) and rng.random() < 0.6:
            chain = tree.ancestors(var)
            if len(chain) > 1:
                targets[var] = chain[rng.randrange(1, len(chain))]
    return _abstract(tree, example, targets)


class TestRowByRowEquivalence:
    """Row-by-row with GoodConc must agree with the monolithic path.

    Regression for the intermediate CIM gate: inclusion-minimal query
    counts are *not* monotone as rows are added (a later row can kill a
    small query, promoting the larger queries it dominated), so pruning
    on an intermediate prefix's CIM count could wrongly return -1 for
    examples whose full CIM count meets the threshold.  Only the
    connected-query count shrinks monotonically and may gate early.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_privacy_equivalence(self, seed):
        db, example, tree = _random_instance(seed)
        rng = random.Random(seed + 5000)
        row_by_row = PrivacyComputer(tree, db.registry, PrivacyConfig())
        monolithic = PrivacyComputer(
            tree, db.registry, PrivacyConfig(row_by_row=False)
        )
        for _ in range(3):
            abstracted = _random_abstraction(example, tree, rng)
            assert row_by_row.privacy(abstracted) == monolithic.privacy(
                abstracted
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_threshold_equivalence(self, seed):
        """compute() must agree at every threshold, not just threshold 0 —
        this is where the dropped intermediate CIM gate used to diverge."""
        db, example, tree = _random_instance(seed)
        rng = random.Random(seed + 6000)
        row_by_row = PrivacyComputer(tree, db.registry, PrivacyConfig())
        monolithic = PrivacyComputer(
            tree, db.registry, PrivacyConfig(row_by_row=False)
        )
        abstracted = _random_abstraction(example, tree, rng)
        for threshold in range(0, 5):
            assert row_by_row.compute(abstracted, threshold) == (
                monolithic.compute(abstracted, threshold)
            ), f"threshold {threshold}"

    def test_paper_example_thresholds(self, paper_tree, paper_db, paper_example):
        row_by_row = PrivacyComputer(paper_tree, paper_db.registry)
        monolithic = PrivacyComputer(
            paper_tree, paper_db.registry, PrivacyConfig(row_by_row=False)
        )
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        for threshold in range(0, 5):
            assert row_by_row.compute(abstracted, threshold) == (
                monolithic.compute(abstracted, threshold)
            )


class TestPrivacySession:
    def test_private_session_by_default(self, paper_tree, paper_db):
        a = PrivacyComputer(paper_tree, paper_db.registry)
        b = PrivacyComputer(paper_tree, paper_db.registry)
        assert a.session is not b.session
        assert a.session.computers_attached == 1

    def test_shared_session_reuses_row_options(
        self, paper_tree, paper_db, paper_example
    ):
        session = PrivacySession(paper_tree, paper_db.registry)
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        first = PrivacyComputer(paper_tree, paper_db.registry, session=session)
        warm_value = first.privacy(abstracted)
        assert first.stats.row_option_cache_misses > 0

        second = PrivacyComputer(paper_tree, paper_db.registry, session=session)
        assert session.computers_attached == 2
        assert second.privacy(abstracted) == warm_value
        # Every row option and prefix query is served from the warm caches.
        assert second.stats.row_option_cache_misses == 0
        assert second.stats.row_option_cache_hits > 0
        assert second.stats.consistency_calls == 0
        assert second.stats.concretizations_seen == 0

    def test_shared_session_is_bit_identical(
        self, paper_tree, paper_db, paper_example
    ):
        """Cached answers must equal fresh recomputation for every
        abstraction and threshold the paper's examples exercise."""
        session = PrivacySession(paper_tree, paper_db.registry)
        targets_list = [
            {"h1": "Facebook", "h2": "LinkedIn"},
            {"i1": "WikiLeaks", "i2": "Facebook"},
            {"i1": "WikiLeaks"},
            {"h1": "Social Network"},
        ]
        shared = PrivacyComputer(paper_tree, paper_db.registry, session=session)
        for targets in targets_list:
            abstracted = _abstract(paper_tree, paper_example, targets)
            fresh = PrivacyComputer(paper_tree, paper_db.registry)
            for threshold in range(0, 4):
                assert shared.compute(abstracted, threshold) == (
                    fresh.compute(abstracted, threshold)
                )

    def test_incompatible_session_rejected(self, paper_tree, paper_db):
        session = PrivacySession(paper_tree, paper_db.registry)
        with pytest.raises(OptimizationError):
            PrivacyComputer(
                paper_tree, paper_db.registry,
                PrivacyConfig(connectivity_filter=False),
                session=session,
            )

    def test_cache_consultation_switches_may_differ(self, paper_tree, paper_db):
        """row_by_row / cache_queries change which caches are consulted,
        not what a cached entry means, so they don't block sharing."""
        session = PrivacySession(paper_tree, paper_db.registry)
        PrivacyComputer(
            paper_tree, paper_db.registry,
            PrivacyConfig(row_by_row=False), session=session,
        )
        PrivacyComputer(
            paper_tree, paper_db.registry,
            PrivacyConfig(cache_queries=False), session=session,
        )
        assert session.computers_attached == 2

    def test_cache_sizes_grow(self, paper_tree, paper_db, paper_example):
        session = PrivacySession(paper_tree, paper_db.registry)
        assert all(size == 0 for size in session.cache_sizes().values())
        computer = PrivacyComputer(paper_tree, paper_db.registry, session=session)
        computer.privacy(
            _abstract(paper_tree, paper_example, {"h1": "Facebook"})
        )
        sizes = session.cache_sizes()
        assert sizes["row_options"] > 0
        assert sizes["prefix_queries"] > 0
        assert sizes["connectivity"] > 0
        assert sizes["connected_queries"] > 0
        assert sizes["minimal_sets"] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_minimal_keys_match_reference(self, seed):
        """The session-cached minimality scan must agree with the uncached
        reference implementation on every connected-query set."""
        from repro.core.privacy import _minimal_queries

        db, example, tree = _random_instance(seed)
        rng = random.Random(seed + 8000)
        computer = PrivacyComputer(tree, db.registry)
        for _ in range(3):
            abstracted = _random_abstraction(example, tree, rng)
            connected = computer._connected_queries_full(abstracted)
            keys = computer._minimal_keys(connected)
            reference = _minimal_queries(frozenset(connected.values()))
            assert keys == frozenset(q.canonical() for q in reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_shared_vs_fresh(self, seed):
        db, example, tree = _random_instance(seed)
        rng = random.Random(seed + 7000)
        session = PrivacySession(tree, db.registry)
        shared = PrivacyComputer(tree, db.registry, session=session)
        for _ in range(4):
            abstracted = _random_abstraction(example, tree, rng)
            fresh = PrivacyComputer(tree, db.registry)
            assert shared.privacy(abstracted) == fresh.privacy(abstracted)
