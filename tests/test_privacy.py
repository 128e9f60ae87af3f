"""Tests for Algorithm 1: privacy computation."""

import random

import pytest

from repro.abstraction.builders import balanced_tree
from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.function import AbstractionFunction
from repro.core import privacy as privacy_module
from repro.core.privacy import PrivacyComputer, PrivacyConfig, PrivacySession
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.containment import is_equivalent
from repro.query.parser import parse_cq
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
        assert computer.stats.alignment_combo_truncations == 0

    def test_connectivity_filter_prunes(self, paper_tree, paper_db, paper_example):
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        computer.privacy(abstracted)
        # Figure 6: the first row has four concretizations, of which c1 and
        # c4 are disconnected and must be pruned; the second row has one.
        assert computer.stats.concretizations_seen == 5
        assert computer.stats.concretizations_pruned_disconnected == 2

    def test_budget_guard(self, paper_tree, paper_db, paper_example):
        config = PrivacyConfig(max_concretizations=2)
        computer = PrivacyComputer(paper_tree, paper_db.registry, config)
        abstracted = _abstract(
            paper_tree, paper_example,
            {v: "*" for v in ("h1", "h2", "i1", "i2")},
        )
        with pytest.raises(OptimizationError):
            computer.privacy(abstracted)

    @pytest.mark.parametrize("budget", [4, 5])
    def test_row_budget_checked_before_enumeration(
        self, budget, paper_tree, paper_db, paper_example, monkeypatch
    ):
        """A row's option count is the product of its occurrences' choice
        counts, so a row over budget raises before any enumeration, and a
        row exactly at the budget is allowed."""
        calls = []
        original = ConcretizationEngine.concretize_row

        def recording(self, row, **kwargs):
            calls.append(row)
            return original(self, row, **kwargs)

        monkeypatch.setattr(ConcretizationEngine, "concretize_row", recording)
        computer = PrivacyComputer(
            paper_tree, paper_db.registry,
            PrivacyConfig(max_concretizations=budget),
        )
        # The first row offers the five Facebook leaves for h1.
        abstracted = _abstract(paper_tree, paper_example, {"h1": "Facebook"})
        if budget < 5:
            with pytest.raises(OptimizationError, match="per-row"):
                computer.privacy(abstracted)
            assert calls == []
        else:
            computer.privacy(abstracted)
            assert calls == list(abstracted.rows)
            assert computer.stats.concretizations_seen == 6

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

    def test_cim_queries_exact_past_twelve_constant_classes(self):
        """One row with thirteen constant classes: the only minimal
        connecting flips are the two values the atoms share."""
        db = KDatabase(Schema.from_dict(
            {name: ["a", "b", "c", "d", "e"] for name in "RST"}
        ))
        for name, first in (("R", 1), ("S", 5), ("T", 9)):
            db.insert(name, tuple(range(first, first + 5)), name.lower())
        example = KExample([KExampleRow((1,), ["r", "s", "t"])], db.registry)
        tree = balanced_tree(["r", "s", "t"], height=1, seed=0)
        computer = PrivacyComputer(tree, db.registry)
        cims = computer.cim_queries(_abstract(tree, example, {}))
        assert {q.canonical() for q in cims} == {parse_cq(
            "Q(1) :- R(1, 2, 3, 4, x), S(x, 6, 7, 8, y), "
            "T(y, 10, 11, 12, 13)"
        ).canonical()}


_JOIN = parse_cq("Q(a) :- R(a, b), S(b, c)")


def _random_instance(seed: int, n_rows: int = 2):
    """A random database, an ``n_rows``-row K-example of ``_JOIN`` over
    it, and an abstraction tree (kept small: Algorithm 1 is exponential in
    the row count).  The first ``n_rows`` ``S`` tuples join the first
    ``n_rows`` ``R`` tuples, so the query always derives that many outputs
    and the rows admit consistent queries."""
    rng = random.Random(seed)
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["b", "c"]}))
    n_r, n_s = rng.randint(3, 5), rng.randint(3, 5)
    r_bs = [rng.randint(0, 3) for _ in range(n_r)]
    for i, b in enumerate(r_bs):
        db.insert("R", (i, b), f"r{i}")
    for j in range(n_s):
        b = r_bs[j] if j < n_rows else rng.randint(0, 3)
        db.insert("S", (b, j), f"s{j}")
    annotations = [f"r{i}" for i in range(n_r)] + [f"s{j}" for j in range(n_s)]
    example = build_kexample(_JOIN, db, n_rows=n_rows)
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
    examples whose full CIM count meets the threshold.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_privacy_equivalence(self, seed):
        """Row-by-row, monolithic, unfiltered and uncached-connectivity
        computers agree, on draws that do derive queries."""
        db, example, tree = _random_instance(seed)
        rng = random.Random(seed + 5000)
        computers = [
            PrivacyComputer(tree, db.registry, config)
            for config in (
                PrivacyConfig(),
                PrivacyConfig(row_by_row=False),
                PrivacyConfig(connectivity_filter=False),
                PrivacyConfig(cache_connectivity=False),
            )
        ]
        privacies = []
        for _ in range(3):
            abstracted = _random_abstraction(example, tree, rng)
            values = [computer.privacy(abstracted) for computer in computers]
            assert len(set(values)) == 1, values
            privacies.append(values[0])
        assert any(privacies)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_threshold_equivalence(self, seed):
        """compute() must agree at every threshold, not just threshold 0 —
        this is where the dropped intermediate gates used to diverge.
        Three rows give row-by-row a prefix that is not the whole example."""
        for n_rows in (2, 3):
            db, example, tree = _random_instance(seed, n_rows)
            rng = random.Random(seed + 6000)
            row_by_row = PrivacyComputer(tree, db.registry, PrivacyConfig())
            monolithic = PrivacyComputer(
                tree, db.registry, PrivacyConfig(row_by_row=False)
            )
            abstracted = _random_abstraction(example, tree, rng)
            for threshold in range(0, 5):
                assert row_by_row.compute(abstracted, threshold) == (
                    monolithic.compute(abstracted, threshold)
                ), f"{n_rows} rows, threshold {threshold}"

    def test_three_rows_match_monolithic(self):
        """The two-row prefix admits one connected query, yet the whole
        example has two CIM queries: no prefix count gates the example."""
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["b", "c"]}))
        for relation, values, annotation in (
            ("R", (0, 0), "r0"), ("R", (2, 2), "r1"), ("R", (1, 0), "r2"),
            ("S", (0, 0), "s0"), ("S", (0, 3), "s1"), ("S", (1, 0), "s2"),
        ):
            db.insert(relation, values, annotation)
        example = build_kexample(
            parse_cq("Q(a, c) :- R(a, b), S(b, c)"), db, n_rows=3
        )
        tree = balanced_tree(
            ["r0", "r1", "r2", "s0", "s1", "s2"], height=1, seed=0
        )
        abstracted = _abstract(tree, example, {"s0": "*", "s1": "*"})
        monolithic = PrivacyComputer(
            tree, db.registry, PrivacyConfig(row_by_row=False)
        )
        assert {q.canonical() for q in monolithic.cim_queries(abstracted)} == {
            parse_cq(text).canonical() for text in (
                "Q(x0, x2) :- R(x0, x1), S(x1, x2)",
                "Q(x0, x2) :- R(x0, 0), S(x0, x2)",
            )
        }
        assert monolithic.compute(abstracted, 2) == 2
        assert PrivacyComputer(tree, db.registry).compute(abstracted, 2) == 2

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

    @pytest.mark.parametrize("row_by_row", [True, False])
    def test_constant_refuted_pairs_are_not_searched(
        self, row_by_row, monkeypatch
    ):
        """``a`` is contained in ``b`` only via a homomorphism from ``b``
        to ``a``, which maps each of ``b``'s constants to itself, so the
        minimality scan never searches a pair whose constants refute it."""
        searched = []
        original = privacy_module.is_strictly_contained_in

        def recording(a, b):
            searched.append((a, b))
            return original(a, b)

        monkeypatch.setattr(
            privacy_module, "is_strictly_contained_in", recording
        )
        for seed in range(12):
            db, example, tree = _random_instance(seed)
            rng = random.Random(seed + 9000)
            computer = PrivacyComputer(
                tree, db.registry, PrivacyConfig(row_by_row=row_by_row)
            )
            for _ in range(3):
                computer.privacy(_random_abstraction(example, tree, rng))
        assert searched
        assert all(b.constants() <= a.constants() for a, b in searched)

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
