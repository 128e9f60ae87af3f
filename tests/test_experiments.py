"""Smoke tests for the experiment harness on miniature settings."""

import math

import pytest

from repro.experiments.figures import (
    ABLATION_LABELS,
    run_distribution_sensitivity,
    run_dual_problem,
    run_fig09_threshold_runtime,
    run_fig10_threshold_size,
    run_fig11_threshold_loi,
    run_fig16_joins_runtime,
    run_fig17_rows_runtime,
    run_fig18_compression_loi,
    run_fig19_component_ablation,
    run_table3_running_example,
    run_table6_query_stats,
)
from repro.experiments.report import format_series
from repro.experiments.runner import prepare_context, timed_optimal
from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings

TINY = ExperimentSettings(
    privacy_threshold=2,
    thresholds=(2, 3),
    tree_sizes=(30, 60),
    tree_heights=(3, 4),
    row_counts=(2,),
    tree_leaves=40,
    tpch_scale=0.015,
    imdb_people=60,
    imdb_movies=40,
    max_candidates=400,
    max_seconds=5.0,
)

QUERIES = ("TPCH-Q3", "IMDB-Q1")


class TestRunner:
    def test_prepare_context(self):
        context = prepare_context("TPCH-Q3", TINY)
        assert context.query_name == "TPCH-Q3"
        assert len(context.example) == 2
        assert set(context.example.variables()) <= set(
            context.database.annotations()
        )

    def test_context_tree_covers_variables(self):
        context = prepare_context("IMDB-Q1", TINY)
        leaves = set(context.tree.leaves())
        assert context.example.variables() <= leaves

    def test_timed_optimal(self):
        context = prepare_context("TPCH-Q3", TINY)
        result, seconds = timed_optimal(context, 2)
        assert seconds > 0
        assert result.stats.candidates_scanned > 0

    def test_databases_cached_across_contexts(self):
        c1 = prepare_context("TPCH-Q3", TINY)
        c2 = prepare_context("TPCH-Q4", TINY)
        assert c1.database is c2.database


class TestThresholdSweep:
    def test_fig09_series_shape(self):
        series = run_fig09_threshold_runtime(TINY, queries=QUERIES)
        assert set(series) == set(QUERIES)
        for points in series.values():
            assert [k for k, _ in points] == list(TINY.thresholds)
            assert all(seconds > 0 for _, seconds in points)

    def test_fig10_and_fig11_share_sweep(self):
        sizes = run_fig10_threshold_size(TINY, queries=QUERIES)
        lois = run_fig11_threshold_loi(TINY, queries=QUERIES)
        assert set(sizes) == set(lois) == set(QUERIES)

    def test_fig11_loi_nondecreasing_in_k(self):
        lois = run_fig11_threshold_loi(TINY, queries=QUERIES)
        for name, points in lois.items():
            values = [v for _, v in points if not math.isnan(v)]
            assert values == sorted(values), name


class TestOtherSweeps:
    def test_fig16_join_sweep(self):
        series = run_fig16_joins_runtime(TINY, queries=("TPCH-Q7",))
        points = series["TPCH-Q7"]
        assert len(points) >= 2
        assert all(seconds > 0 for _, seconds in points)

    def test_fig17_rows(self):
        series = run_fig17_rows_runtime(TINY, queries=("TPCH-Q3",))
        assert [rows for rows, _ in series["TPCH-Q3"]] == [2]

    def test_fig18_compression_pays_more_loi(self):
        series = run_fig18_compression_loi(TINY, queries=("TPCH-Q3",))
        ours = dict(series["TPCH-Q3 (ours)"])
        theirs = dict(series["TPCH-Q3 (compression [24])"])
        for k in TINY.thresholds:
            if not (math.isnan(ours[k]) or math.isnan(theirs[k])):
                assert theirs[k] >= ours[k] - 1e-9

    def test_fig19_ablation_runs(self, monkeypatch):
        """Every arm finds brute force's answer within its wall clock; the
        figure reports only times, so the test reads the results."""
        from repro.experiments import figures

        results = []

        def recording(*args, **kwargs):
            result, seconds = timed_optimal(*args, **kwargs)
            results.append(result)
            return result, seconds

        monkeypatch.setattr(figures, "timed_optimal", recording)
        series = run_fig19_component_ablation(
            TINY, queries=("TPCH-Q3",), threshold=2, n_leaves=6, height=3,
            budget_seconds=8.0
        )
        points = series["TPCH-Q3"]
        assert len(points) == len(ABLATION_LABELS) == len(results)
        assert points[0] == (0, 100.0)
        brute_force = results[0]
        assert brute_force.found and brute_force.privacy >= 2
        for label, result in zip(ABLATION_LABELS, results):
            assert not result.stats.stopped_by_wall_clock, label
            assert (result.found, result.privacy, result.loi) == (
                brute_force.found, brute_force.privacy, brute_force.loi
            ), label

    def test_distribution_sensitivity(self):
        series = run_distribution_sensitivity(TINY, queries=("TPCH-Q3",))
        assert len(series["TPCH-Q3"]) == 2

    def test_dual_problem(self):
        series = run_dual_problem(TINY, queries=("TPCH-Q3",))
        points = dict(series["TPCH-Q3"])
        assert points[2] >= 0  # dual privacy


class TestTables:
    def test_table3(self):
        counts = run_table3_running_example()
        assert counts["cim"] == 2
        assert counts["connected"] >= counts["cim"]
        assert counts["consistent"] >= counts["connected"]

    def test_table6_matches_paper(self):
        stats = run_table6_query_stats()
        assert stats["TPCH-Q21"] == (6, 5)
        assert stats["IMDB-Q4"] == (7, 6)


class TestReport:
    def test_format_series(self):
        text = format_series(
            "demo", {"q": [(1, 0.5), (2, float("nan"))]},
            x_label="k", y_label="s",
        )
        assert "demo" in text
        assert "q" in text
        assert "-" in text  # the NaN cell
