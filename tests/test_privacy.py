"""Tests for Algorithm 1: privacy computation."""

import dataclasses
import os
import random
import sys
import threading
import time
from unittest import mock

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstraction.builders import balanced_tree
from repro.abstraction.concretization import ConcretizationEngine
from repro.abstraction.function import AbstractionFunction
from repro.core import consistency
from repro.core import privacy as privacy_module
from repro.core.consistency import ConsistencyConfig, consistent_queries
from repro.core.privacy import (
    PrivacyComputer,
    PrivacyConfig,
    PrivacySession,
    PrivacyStats,
    QueryFacts,
)
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.errors import OptimizationError, SchemaError
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample, KExampleRow
from repro.query.containment import is_equivalent
from repro.query.parser import parse_cq
from repro.render import render_query
from repro.semirings.base import SemiringName
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

    @pytest.mark.parametrize("targets, expected", [
        ({"h1": "Facebook", "h2": "LinkedIn"}, [
            "Q(x0) :- Hobbies(x0, 'Dance', x2), Interests(x0, 'Music', x4), "
            "Person(x0, x5, x6)",
            "Q(x0) :- Hobbies(x0, 'Trips', x2), Interests(x0, 'Music', x4), "
            "Person(x0, x5, x6)",
        ]),
        ({"i1": "WikiLeaks", "i2": "Facebook"}, [
            "Q(x0) :- Hobbies(x0, 'Dance', x2), Interests(x0, 'Music', x4), "
            "Person(x0, x5, x6)",
            "Q(x0) :- Hobbies(x0, 'Dance', x2), Interests(x0, 'Parties', x4), "
            "Person(x0, x5, x6)",
        ]),
    ], ids=["Ex_abs1", "Ex_abs2"])
    def test_cim_queries_render_pinned(
        self, computer, paper_tree, paper_example, targets, expected
    ):
        """The CIM queries ``repro attack`` prints, as rendered text."""
        abstracted = _abstract(paper_tree, paper_example, targets)
        rendered = sorted(render_query(q) for q in computer.cim_queries(abstracted))
        assert rendered == expected

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
    """No optimization switch may change the result."""

    CONFIGS = [
        PrivacyConfig(),
        PrivacyConfig(row_by_row=False),
        PrivacyConfig(connectivity_filter=False),
        PrivacyConfig(cache_queries=False),
        PrivacyConfig(
            row_by_row=False,
            connectivity_filter=False,
            cache_queries=False,
        ),
    ]

    TARGETS = [
        {"h1": "Facebook", "h2": "LinkedIn"},
        {"i1": "WikiLeaks", "i2": "Facebook"},
        {"i1": "WikiLeaks"},
        {"h1": "Social Network"},
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("targets", TARGETS)
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
        """An identical repeat is answered from the session's counts alone;
        an example sharing one of its rows reuses that row's options and
        the concrete prefixes both examples reach."""
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        computer.privacy(abstracted)
        first = dataclasses.replace(computer.stats)
        assert (first.privacy_cache_hits, first.privacy_cache_misses) == (0, 1)
        assert computer.privacy(abstracted) == 1
        assert computer.stats == dataclasses.replace(
            first, privacy_cache_hits=1
        )

        # Row 1 is shared; row 2's abstraction covers the first example's
        # concrete row 2, so its two prefixes are reached again.
        sharing = _abstract(
            paper_tree, paper_example, {"i1": "WikiLeaks", "h2": "LinkedIn"}
        )
        assert sharing.rows[0] == abstracted.rows[0]
        assert sharing.rows[1] != abstracted.rows[1]
        computer.privacy(sharing)
        stats = computer.stats
        assert stats.privacy_cache_misses == 2
        assert stats.query_cache_hits == first.query_cache_misses == 2
        assert stats.query_cache_misses > first.query_cache_misses
        assert stats.row_option_cache_hits == 1
        assert stats.row_option_cache_misses == first.row_option_cache_misses + 1

    @pytest.mark.parametrize("connectivity_filter", [True, False])
    def test_leaf_outside_the_registry_raises(
        self, connectivity_filter, paper_db, paper_example
    ):
        """A tree leaf that tags no tuple fails the compute with a
        SchemaError, whether connected enumeration or generation meets
        it first."""
        annotations = sorted(paper_db.registry.annotations())
        tree = balanced_tree(annotations + ["ghost"], height=1, seed=0)
        abstracted = _abstract(tree, paper_example, {"i1": "*"})
        computer = PrivacyComputer(
            tree, paper_db.registry,
            PrivacyConfig(connectivity_filter=connectivity_filter),
        )
        with pytest.raises(SchemaError, match="ghost"):
            computer.compute(abstracted, threshold=1)

    def test_cap_counters_zero_at_defaults(
        self, paper_tree, paper_db, paper_example, monkeypatch
    ):
        """The running example stays inside the alignment budget; a budget
        of zero aborts it."""
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        computer = PrivacyComputer(paper_tree, paper_db.registry)
        assert computer.privacy(abstracted) == 2
        assert computer.stats.consistency_calls > 0
        monkeypatch.setattr(consistency, "MAX_ALIGNMENT_COMBOS", 0)
        with pytest.raises(OptimizationError, match="MAX_ALIGNMENT_COMBOS"):
            PrivacyComputer(paper_tree, paper_db.registry).privacy(abstracted)

    def test_cap_counters_repeat_on_warm_sessions(self, self_join_rows):
        """Two rows of 8 ``R`` tuples (8! alignment combinations) abort on
        a cold session, on the warm one and on one sharing its holder; the
        prefix leaves nothing in the holder, so each compute generates it
        again."""
        example = self_join_rows(8)
        registry = example.registry
        tree = balanced_tree(sorted(registry.annotations()), height=1, seed=0)
        first_row = KExample(example.rows[:1], registry)
        session = PrivacySession(tree, registry)
        assert PrivacyComputer(tree, registry, session=session).privacy(
            _abstract(tree, first_row, {})
        ) == 1
        abstracted = _abstract(tree, example, {})
        sharing = PrivacySession(tree, registry, facts=session.facts)
        for target in (PrivacySession(tree, registry), session, sharing):
            computer = PrivacyComputer(tree, registry, session=target)
            with pytest.raises(OptimizationError, match="40320 alignment"):
                computer.privacy(abstracted)
            assert computer.stats.consistency_calls == 1
        assert list(session.facts.query_cache) == [tuple(first_row.rows)]

    def test_equal_row_options_are_kept_once(self):
        """Two occurrences abstracted to one label concretize to equal rows
        from distinct combinations (a row sorts its occurrences).  A row
        keeps the first of each, still counts only the disconnected
        combinations as pruned, and its privacy equals the monolithic
        path's and Definition 3.12 over every connected concretization."""
        from repro.core.privacy import _minimal_queries

        db, example, _ = _random_instance(3)
        tree = balanced_tree(sorted(db.annotations()), height=1, seed=0)
        abstracted = _abstract(
            tree, example, {var: "*" for var in example.variables()}
        )
        row = abstracted.rows[0]
        assert len(set(row.occurrences)) == 1 < len(row.occurrences)

        computer = PrivacyComputer(tree, db.registry)
        options = computer._row_options(row)
        connected = list(computer.engine.concretize_row(row, connected_only=True))
        assert len(options) == len(set(options)) < len(connected)
        assert options == list(dict.fromkeys(connected))
        stats = computer.stats
        assert stats.concretizations_seen - (
            stats.concretizations_pruned_disconnected
        ) == len(connected)

        reference = _minimal_queries(frozenset(
            query
            for concretization in computer.engine.concretizations(
                abstracted, connected_only=True
            )
            for query in consistent_queries(concretization, minimal_only=True)
        ))
        monolithic = PrivacyComputer(
            tree, db.registry, PrivacyConfig(row_by_row=False)
        )
        assert computer.privacy(abstracted) == monolithic.privacy(abstracted)
        assert computer.privacy(abstracted) == len(
            {query.canonical() for query in reference}
        ) > 0

    @pytest.mark.parametrize("row_by_row", [True, False])
    def test_uncached_compute_generates_each_prefix_once(
        self, row_by_row, paper_tree, paper_db, paper_example, monkeypatch
    ):
        """Without the prefix cache a compute still generates each prefix
        it visits once: the representatives the minimality scan needs come
        from the queries already generated, never from a second call."""
        calls = []
        original = privacy_module.consistent_queries

        def recording(example, *args, **kwargs):
            calls.append(example.key())
            return original(example, *args, **kwargs)

        monkeypatch.setattr(privacy_module, "consistent_queries", recording)
        for targets in TestConfigEquivalence.TARGETS:
            abstracted = _abstract(paper_tree, paper_example, targets)
            # A fresh session generates each prefix the compute visits once.
            PrivacyComputer(
                paper_tree, paper_db.registry,
                PrivacyConfig(row_by_row=row_by_row),
            ).privacy(abstracted)
            visited = sorted(calls)
            calls.clear()
            PrivacyComputer(
                paper_tree, paper_db.registry,
                PrivacyConfig(row_by_row=row_by_row, cache_queries=False),
            ).privacy(abstracted)
            assert visited and sorted(calls) == visited
            calls.clear()

    def test_only_prefixes_a_compute_extends_keep_their_folds(self):
        """After a three-row compute, a two-row prefix with queries keeps
        the fold its extensions start from; the last rows' prefixes and
        the prefixes without queries keep none."""
        db, example, tree = _random_instance(1, n_rows=3)
        computer = PrivacyComputer(tree, db.registry)
        assert computer.privacy(_abstract(tree, example, {})) > 0
        cache = computer.session.facts.query_cache
        assert {len(prefix) for prefix in cache} == {2, 3}
        for prefix, (queries, fold) in cache.items():
            kept = len(prefix) == 2 and bool(queries)
            assert (fold is not None) == kept
            if kept:
                assert fold.rows == prefix

    def test_algorithm_1_phases_trace_as_aggregates(
        self, paper_tree, paper_db, paper_example
    ):
        """Traced, a computer accumulates its row options, generations
        and minimality scans into one aggregate record each, one count per
        call; untraced, it calls the class's functions themselves."""
        from repro.obs import spans

        abstracted = _abstract(paper_tree, paper_example, {"i1": "WikiLeaks"})
        untraced = PrivacyComputer(paper_tree, paper_db.registry)
        for name in ("_row_options", "_generate", "_minimal_keys"):
            timed = getattr(untraced, "_timed" + name)
            assert timed is getattr(PrivacyComputer, name)
        tracer = spans.Tracer()
        with spans.activate(tracer):
            computer = PrivacyComputer(paper_tree, paper_db.registry)
        assert computer.privacy(abstracted) == untraced.privacy(abstracted)
        counts = {record["name"]: record["count"] for record in tracer.records}
        stats = computer.stats
        assert counts == {
            "row_options": (stats.row_option_cache_hits
                            + stats.row_option_cache_misses),
            "consistent_queries": stats.consistency_calls,
            "minimality": (stats.minimal_set_cache_hits
                           + stats.minimal_set_cache_misses),
        }

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
            with pytest.raises(OptimizationError,
                               match="max_concretizations"):
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
    low = max(3, n_rows)
    n_r, n_s = rng.randint(low, 5), rng.randint(low, 5)
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
        """Row-by-row, monolithic, unfiltered and uncached computers
        agree, on draws that do derive queries."""
        db, example, tree = _random_instance(seed)
        rng = random.Random(seed + 5000)
        computers = [
            PrivacyComputer(tree, db.registry, config)
            for config in (
                PrivacyConfig(),
                PrivacyConfig(row_by_row=False),
                PrivacyConfig(connectivity_filter=False),
                PrivacyConfig(cache_queries=False),
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

    @pytest.mark.parametrize("n_rows", [3, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_deep_rows_match_monolithic(self, seed, n_rows):
        """Three rows apply GoodConc once and four rows twice; row-by-row
        must agree with the monolithic path at every threshold, on a fresh
        session and on a warm shared one.  Abstractions whose full product
        exceeds the monolithic budget are skipped."""
        db, example, tree = _random_instance(seed, n_rows)
        rng = random.Random(seed + 10000)
        warm = PrivacyComputer(tree, db.registry)
        checked = 0
        for _ in range(3):
            abstracted = _random_abstraction(example, tree, rng)
            monolithic = PrivacyComputer(tree, db.registry, PrivacyConfig(
                row_by_row=False, max_concretizations=20_000,
            ))
            try:
                expected = [monolithic.compute(abstracted, k) for k in range(6)]
            except OptimizationError:
                continue
            fresh = PrivacyComputer(tree, db.registry)
            for threshold, want in enumerate(expected):
                assert fresh.compute(abstracted, threshold) == want, threshold
                assert warm.compute(abstracted, threshold) == want, threshold
            checked += 1
        assert checked

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


@st.composite
def mixed_signature_instances(draw):
    """A 2- or 3-row K-example over R(a, b) and S(x, y) with values in
    {0, 1, 2}, abstracted over a shuffled tree whose labels cover R and S
    leaves alike, so a row's concretizations mix alignment signatures; a
    row has one to three occurrences, so rows may share a relation set
    with different multisets.  NX, or WHY with tuple reuse 2;
    ``require_variable`` on or off."""
    db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
    value = st.integers(min_value=0, max_value=2)
    names = []
    for relation in ("R", "S"):
        for i in range(draw(st.integers(min_value=2, max_value=3))):
            names.append(f"{relation.lower()}{i}")
            db.insert(relation, (draw(value), draw(value)), names[-1])
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        occurrences = draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=3
        ))
        output = (db.resolve(occurrences[0]).values[0],)
        rows.append(KExampleRow(output, occurrences))
    example = KExample(rows, db.registry)
    tree = balanced_tree(
        names, height=draw(st.integers(min_value=1, max_value=2)),
        seed=draw(st.integers(min_value=0, max_value=999)),
    )
    targets = {
        var: draw(st.sampled_from(tree.ancestors(var)))
        for var in sorted(example.variables())
    }
    semiring, reuse = draw(st.sampled_from(
        [(SemiringName.NX, 1), (SemiringName.WHY, 2)]
    ))
    config = ConsistencyConfig(
        semiring=semiring, max_tuple_reuse=reuse,
        require_variable=draw(st.booleans()),
    )
    return db, tree, _abstract(tree, example, targets), config


def _partitioned_counts_match(db, tree, abstracted, config):
    """Asserts that the row-by-row counts, whose prefixes extend only by
    the concretizations of their first row's alignment signature, equal
    the monolithic arm's over the full product; returns the prefixes the
    partition pruned, or ``None`` when the monolithic arm aborts."""
    monolithic = PrivacyComputer(tree, db.registry, PrivacyConfig(
        row_by_row=False, consistency=config,
    ))
    try:
        expected = monolithic._counts(
            monolithic._product_queries(abstracted), 0
        )
    except OptimizationError:
        return None
    row_by_row = PrivacyComputer(
        tree, db.registry, PrivacyConfig(consistency=config)
    )
    assert row_by_row._row_by_row_counts(abstracted.rows, 0) == expected
    return row_by_row.stats.prefixes_pruned_unaligned


class TestAlignmentPartition:
    """Row by row, a prefix extends only with the concretizations that
    share its first row's alignment signature: no other admits a query,
    so the counts must be the monolithic arm's."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_signature_instances())
    def test_partitioned_counts_match_the_monolithic_arm(self, instance):
        db, tree, abstracted, config = instance
        if ConcretizationEngine(tree, db.registry).count(abstracted) > 400:
            return  # keep the monolithic reference cheap
        _partitioned_counts_match(db, tree, abstracted, config)

    def test_a_multiset_partition_under_why_fails(self, monkeypatch):
        """Without exponents a second row of R·S aligns with a first row
        of R·R·S, and its R·R concretizations align with none.  The
        partition by relation set prunes only the latter; one by multiset
        would prune both and lose every query."""
        db = KDatabase(Schema.from_dict({"R": ["a", "b"], "S": ["x", "y"]}))
        for name, relation, values in [
            ("r0", "R", (1, 2)), ("r1", "R", (1, 5)), ("r2", "R", (4, 5)),
            ("s0", "S", (2, 3)), ("s1", "S", (5, 3)),
        ]:
            db.insert(relation, values, name)
        example = KExample(
            [KExampleRow((1,), ["r0", "r1", "s0"]),
             KExampleRow((4,), ["r2", "s1"])],
            db.registry,
        )
        tree = balanced_tree(sorted(db.annotations()), height=1, seed=0)
        abstracted = _abstract(tree, example, {"s1": "*"})
        config = ConsistencyConfig(
            semiring=SemiringName.WHY, max_tuple_reuse=2
        )
        assert _partitioned_counts_match(db, tree, abstracted, config) == 2
        assert PrivacyComputer(
            tree, db.registry, PrivacyConfig(consistency=config)
        ).privacy(abstracted) > 0

        def by_multiset(self, good, options):
            def relations(row):
                return sorted(
                    db.registry.resolve(ann).relation
                    for ann in row.occurrences
                )
            return [prefix + (option,) for prefix in good
                    for option in options
                    if relations(option) == relations(prefix[0])]

        monkeypatch.setattr(
            PrivacyComputer, "_aligned_extensions", by_multiset
        )
        with pytest.raises(AssertionError):
            _partitioned_counts_match(db, tree, abstracted, config)


    def test_each_row_is_partitioned_once(
        self, paper_tree, paper_db, paper_example
    ):
        """A row's partition is stored with its options in the session,
        each signature's options in product order, and a later compute
        that extends prefixes with the row reads it."""
        session = PrivacySession(paper_tree, paper_db.registry)
        first = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        second = _abstract(
            paper_tree, paper_example,
            {"h1": "Social Network", "h2": "LinkedIn"},
        )
        assert first.rows[0] != second.rows[0]
        assert first.rows[1] == second.rows[1]
        computer = PrivacyComputer(
            paper_tree, paper_db.registry, session=session
        )
        computer.privacy(first)
        options = session.row_option_cache[first.rows[1]]
        partition = options.by_signature
        concrete = session.facts.concrete_rows
        assert partition and {
            signature: [o for o in options
                        if concrete[o].signature == signature]
            for signature in partition
        } == partition
        assert sum(map(len, partition.values())) == len(options)
        computer.privacy(second)
        assert computer.stats.row_option_cache_hits == 1
        assert options.by_signature is partition


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
        # The identical example is answered from the session's counts,
        # without looking up a row or a prefix.
        assert second.stats == PrivacyStats(privacy_cache_hits=1)

        # An example sharing the first row: its options are served from
        # the warm cache, and every prefix it reaches (the first row's
        # options with the concrete second row, an option of LinkedIn's)
        # was generated by the first computer.
        sharing = _abstract(paper_tree, paper_example, {"h1": "Facebook"})
        assert sharing.rows[0] == abstracted.rows[0]
        assert sharing.rows[1] != abstracted.rows[1]
        second.privacy(sharing)
        assert second.stats.row_option_cache_hits == 1
        assert second.stats.row_option_cache_misses == 1
        assert second.stats.query_cache_hits > 0
        assert second.stats.query_cache_misses == 0
        assert second.stats.consistency_calls == 0
        # Only the new second row is enumerated: one concrete option.
        assert second.stats.concretizations_seen == 1

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
        """A session serves one config: a computer whose config differs
        in any switch, a caching one included, may not attach."""
        session = PrivacySession(paper_tree, paper_db.registry)
        for config in (
            PrivacyConfig(connectivity_filter=False),
            PrivacyConfig(cache_queries=False),
        ):
            with pytest.raises(OptimizationError):
                PrivacyComputer(
                    paper_tree, paper_db.registry, config, session=session,
                )
        assert session.computers_attached == 0

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_dropped_computer_dies_without_a_collection(
        self, traced, paper_tree, paper_db, paper_example
    ):
        """A computer holds no reference to itself, traced or not, so
        dropping it frees it and the private session it held at once."""
        import gc
        import weakref

        from repro.obs import spans

        abstracted = _abstract(paper_tree, paper_example, {"h1": "Facebook"})
        gc.disable()
        try:
            with spans.activate(spans.Tracer() if traced else None):
                computer = PrivacyComputer(paper_tree, paper_db.registry)
                assert computer.privacy(abstracted) > 0
            refs = (weakref.ref(computer), weakref.ref(computer.session))
            del computer
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_cache_sizes_grow(self, paper_tree, paper_db, paper_example):
        session = PrivacySession(paper_tree, paper_db.registry)
        assert all(size == 0 for size in session.cache_sizes().values())
        computer = PrivacyComputer(paper_tree, paper_db.registry, session=session)
        computer.privacy(
            _abstract(paper_tree, paper_example, {"h1": "Facebook"})
        )
        sizes = session.cache_sizes()
        assert sizes["row_options"] > 0
        assert sizes["privacies"] == 1
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
            keys = computer._minimal_keys(frozenset(connected), [connected])
            reference = _minimal_queries(frozenset(
                recipe.build(key) for key, recipe in connected.items()
            ))
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


def _answer(computer, abstracted, threshold):
    """One compute's answer, or its budget error."""
    try:
        return computer.compute(abstracted, threshold)
    except OptimizationError as exc:
        return str(exc)


class TestPrivacyMemo:
    """A session's per-example counts answer a later compute of the same
    example exactly as Algorithm 1 would."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.sampled_from([2, 3]),
        order=st.sampled_from(["ascending", "descending", "random"]),
        budget=st.sampled_from([None, "concretizations", "alignments"]),
    )
    @hypothesis.example(seed=0, n_rows=3, order="descending", budget=None)
    @hypothesis.example(seed=1, n_rows=2, order="descending",
                        budget="concretizations")
    @hypothesis.example(seed=0, n_rows=2, order="random", budget="alignments")
    def test_shared_session_matches_fresh_computers(
        self, seed, n_rows, order, budget
    ):
        """One computer per threshold on one shared session, as a sweep
        runs them; every answer, or budget error, equals a fresh
        computer's.  Descending thresholds store connected counts alone
        that a lower threshold then completes with the CIM count."""
        db, example, tree = _random_instance(seed, n_rows)
        config = PrivacyConfig(
            max_concretizations=3 if budget == "concretizations" else 200_000
        )
        cap = 1 if budget == "alignments" else consistency.MAX_ALIGNMENT_COMBOS
        rng = random.Random(seed)
        abstractions = [_random_abstraction(example, tree, rng)
                        for _ in range(3)]
        thresholds = list(range(6))
        if order == "descending":
            thresholds.reverse()
        elif order == "random":
            rng.shuffle(thresholds)
        session = PrivacySession(tree, db.registry, config)
        hits = 0
        with mock.patch.object(consistency, "MAX_ALIGNMENT_COMBOS", cap):
            for threshold in thresholds:
                shared = PrivacyComputer(
                    tree, db.registry, config, session=session
                )
                for abstracted in abstractions:
                    assert _answer(shared, abstracted, threshold) == _answer(
                        PrivacyComputer(tree, db.registry, config),
                        abstracted, threshold,
                    ), threshold
                hits += shared.stats.privacy_cache_hits
        if budget is None:
            assert hits > 0

    def test_lower_threshold_completes_a_connected_only_entry(
        self, paper_tree, paper_db, paper_example
    ):
        """A threshold above the connected count stores that count alone;
        a threshold it does not decide runs Algorithm 1 again and adds the
        CIM count, which then decides every threshold."""
        session = PrivacySession(paper_tree, paper_db.registry)
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )

        def compute(threshold):
            computer = PrivacyComputer(
                paper_tree, paper_db.registry, session=session
            )
            answer = computer.compute(abstracted, threshold)
            stats = computer.stats
            return answer, stats.privacy_cache_hits, stats.consistency_calls

        assert compute(10)[0] == -1
        ((connected, cim),) = session.privacy_cache.values()
        assert cim is None and 2 <= connected < 10
        assert compute(connected + 1) == (-1, 1, 0)
        assert compute(2) == (2, 0, 0)
        assert session.privacy_cache[abstracted.rows] == (connected, 2)
        assert [compute(k) for k in (0, 2, 3, 10)] == [
            (2, 1, 0), (2, 1, 0), (-1, 1, 0), (-1, 1, 0)
        ]

    def test_aborted_compute_stores_nothing(
        self, paper_tree, paper_db, paper_example
    ):
        computer = PrivacyComputer(
            paper_tree, paper_db.registry,
            PrivacyConfig(max_concretizations=2),
        )
        abstracted = _abstract(
            paper_tree, paper_example,
            {v: "*" for v in ("h1", "h2", "i1", "i2")},
        )
        for _ in range(2):
            with pytest.raises(OptimizationError):
                computer.compute(abstracted, 1)
        assert computer.session.privacy_cache == {}
        assert computer.stats.privacy_cache_misses == 2

    @pytest.mark.parametrize("config", [
        PrivacyConfig(row_by_row=False),
        PrivacyConfig(cache_queries=False),
    ], ids=["monolithic", "uncached"])
    def test_other_arms_neither_read_nor_write_the_memo(
        self, config, paper_tree, paper_db, paper_example
    ):
        """The monolithic and uncached arms leave their session's counts
        alone: a planted entry changes the answer of a computer that reads
        it, and not theirs.  The arm's session shares its holder with the
        reader's."""
        reader_session = PrivacySession(paper_tree, paper_db.registry)
        session = PrivacySession(
            paper_tree, paper_db.registry, config, reader_session.facts
        )
        abstracted = _abstract(
            paper_tree, paper_example, {"h1": "Facebook", "h2": "LinkedIn"}
        )
        arm = PrivacyComputer(
            paper_tree, paper_db.registry, config, session=session
        )
        assert arm.privacy(abstracted) == 2
        assert session.privacy_cache == {}
        planted = {abstracted.rows: (7, 7)}
        session.privacy_cache.update(planted)
        reader_session.privacy_cache.update(planted)
        reader = PrivacyComputer(
            paper_tree, paper_db.registry, session=reader_session
        )
        assert reader.compute(abstracted, 3) == 7
        assert arm.compute(abstracted, 3) == -1
        assert arm.privacy(abstracted) == 2
        assert session.privacy_cache == planted
        assert arm.stats.privacy_cache_hits == 0
        assert arm.stats.privacy_cache_misses == 0


def _outcome(computer, abstracted):
    """One compute's privacy, then the CIM queries; or the budget error."""
    try:
        return computer.privacy(abstracted), computer.cim_queries(abstracted)
    except OptimizationError as exc:
        return str(exc)


def _trees_over(db, tree, count, seed):
    """``tree`` and ``count - 1`` other trees over ``db``'s annotations."""
    annotations = sorted(db.annotations())
    return [tree] + [
        balanced_tree(annotations, height=2 + i % 2, seed=seed + i)
        for i in range(1, count)
    ]


class TestQueryFacts:
    """Sessions over different trees of one registry share a holder."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.sampled_from([2, 3]),
        n_trees=st.sampled_from([2, 3]),
        cap=st.sampled_from([1, 2, 20_000]),
    )
    @hypothesis.example(seed=0, n_rows=2, n_trees=3, cap=1)
    @hypothesis.example(seed=2, n_rows=3, n_trees=2, cap=20_000)
    def test_shared_holder_matches_private_sessions(
        self, seed, n_rows, n_trees, cap
    ):
        """Trees compute interleaved through one holder, on fresh and warm
        sessions (one warm session per tree and mode) and in both modes,
        under an alignment budget of ``cap``; each compute's privacy and
        CIM queries, or its error, equal a private session's."""
        db, example, tree = _random_instance(seed, n_rows)
        trees = _trees_over(db, tree, n_trees, seed)
        modes = [
            PrivacyConfig(max_concretizations=2_000),
            PrivacyConfig(row_by_row=False, max_concretizations=2_000),
        ]
        facts = QueryFacts(db.registry, modes[0].consistency)
        warm = [[PrivacySession(t, db.registry, config, facts)
                 for config in modes] for t in trees]
        rng = random.Random(seed)
        with mock.patch.object(consistency, "MAX_ALIGNMENT_COMBOS", cap):
            for _ in range(2):
                for t, warm_sessions in zip(trees, warm):
                    abstracted = _random_abstraction(example, t, rng)
                    for config, warm_session in zip(modes, warm_sessions):
                        expected = _outcome(
                            PrivacyComputer(t, db.registry, config),
                            abstracted,
                        )
                        for session in (
                            PrivacySession(t, db.registry, config, facts),
                            warm_session,
                        ):
                            assert _outcome(PrivacyComputer(
                                t, db.registry, config, session=session
                            ), abstracted) == expected

    def test_holder_of_another_registry_or_consistency_is_rejected(self):
        db, example, tree = _random_instance(0)
        other, _, _ = _random_instance(0)
        config = PrivacyConfig()
        with pytest.raises(OptimizationError):
            PrivacySession(tree, db.registry, config,
                           QueryFacts(other.registry, config.consistency))
        with pytest.raises(OptimizationError):
            PrivacySession(tree, db.registry, config, QueryFacts(
                db.registry, ConsistencyConfig(require_variable=True)
            ))
        # An equal config object will do, whatever the session's other
        # switches.
        facts = QueryFacts(db.registry, ConsistencyConfig())
        PrivacySession(tree, db.registry, config, facts)
        PrivacySession(tree, db.registry,
                       PrivacyConfig(connectivity_filter=False), facts)

    @mock.patch.object(consistency, "MAX_ALIGNMENT_COMBOS", 1)
    def test_threads_sharing_a_holder_match_private_sessions(self):
        """More threads than cores, switching every microsecond, each
        compute through sessions of three trees that share one holder per
        round, under an alignment budget of one; every compute's privacy,
        or its error, must equal a private session's."""
        reference = _threads_sharing_a_holder(n_rows=2)
        assert any(isinstance(error, str) for error in reference)

    def test_threads_extending_shared_folds_match_private_sessions(self):
        """As above over three rows: threads extend two-row prefixes from
        folds that other threads generated and seeded."""
        _threads_sharing_a_holder(n_rows=3)

    def test_threads_sharing_sessions_match_private_sessions(self):
        """As above with each tree's session shared by every thread, so
        row options and per-example counts race too, at thresholds that
        store a connected count alone and at ones that complete it."""
        _threads_sharing_a_holder(n_rows=3, share_sessions=True)


def _threads_sharing_a_holder(
    n_rows: int, share_sessions: bool = False
) -> list:
    """Run the holder-sharing stress rounds on ``n_rows``-row examples,
    each thread with its own sessions or all sharing one per tree, and
    return the private sessions' outcomes they matched."""
    db, example, tree = _random_instance(0, n_rows)
    trees = _trees_over(db, tree, 3, 0)
    config = PrivacyConfig()
    rng = random.Random(0)
    thresholds = (4, 0, 2) if share_sessions else (0,)
    work = [(index, _random_abstraction(example, t, rng), threshold)
            for index, t in enumerate(trees) for _ in range(3)
            for threshold in thresholds]

    def outcome(session, abstracted, threshold):
        computer = PrivacyComputer(
            session.tree, db.registry, config, session=session
        )
        return _answer(computer, abstracted, threshold)

    reference = [
        outcome(PrivacySession(trees[index], db.registry, config), *item)
        for index, *item in work
    ]
    assert any(isinstance(privacy, int) and privacy > 0
               for privacy in reference)

    def run(facts, shared, slot, results):
        sessions = shared or [PrivacySession(t, db.registry, config, facts)
                              for t in trees]
        # Each thread starts at another item, so threads miss and
        # publish prefixes in different orders.
        order = [(slot + i) % len(work) for i in range(len(work))]
        got = {i: outcome(sessions[work[i][0]], *work[i][1:]) for i in order}
        results[slot] = [got[i] for i in range(len(work))]

    n_threads = (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 2.0
    rounds = 0
    sys.setswitchinterval(1e-6)
    try:
        while rounds == 0 or time.monotonic() < deadline:
            facts = QueryFacts(db.registry, config.consistency)
            shared = share_sessions and [
                PrivacySession(t, db.registry, config, facts) for t in trees
            ]
            results: list = [None] * n_threads
            threads = [
                threading.Thread(
                    target=run, args=(facts, shared, slot, results)
                )
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [reference] * n_threads
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    return reference
