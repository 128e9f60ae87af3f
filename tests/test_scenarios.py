"""The scenario-matrix harness: matrix, materialization, runner, diff.

Covers the reproducibility contract end to end: the matrix is a pure
function of its axes, materialization is a pure function of
(matrix, seed) — bit-identical content hashes even across interpreter
processes — and two runs of the same (matrix, seed) produce snapshots
that are identical once the volatile trajectory fields are stripped,
with the second run served from the persistent result cache.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ScenarioError
from repro.scenarios import (
    PRESETS,
    SMOKE_MATRIX,
    ScenarioMatrix,
    diff,
    load,
    materialize,
    normalize,
    result_hash,
    run_matrix,
    save,
)
from repro.store import job_content_hash

#: A 2-cell matrix small enough to *search* in a unit test.
TINY = ScenarioMatrix(
    queries=("TPCH-Q3",), scales=("xs",), tree_leaves=(16,),
    tree_heights=(3,), rows=(2,), thresholds=(2,), max_candidates=120,
)
#: A 4-cell matrix for shape/hashing tests (never searched).
SHAPE = ScenarioMatrix(
    queries=("TPCH-Q3", "IMDB-Q1"), scales=("xs",), tree_leaves=(16,),
    tree_heights=(3,), rows=(2,), thresholds=(2, 3), max_candidates=120,
)


class TestScenarioMatrix:
    def test_smoke_preset_is_the_twelve_cell_acceptance_matrix(self):
        cells = SMOKE_MATRIX.cells()
        assert len(cells) == 12
        assert PRESETS["smoke"] is SMOKE_MATRIX
        # Deterministic order: the axis cross product, queries outermost.
        assert cells[0].cell_id == "TPCH-Q3|xs|L24|H3|R2|K2"
        assert cells[-1].cell_id == "IMDB-Q1|xs|L48|H3|R2|K4"

    def test_cell_ids_are_unique(self):
        for preset in PRESETS.values():
            ids = [c.cell_id for c in preset.cells()]
            assert len(ids) == len(set(ids))

    def test_dict_round_trip(self):
        assert ScenarioMatrix.from_dict(SHAPE.to_dict()) == SHAPE

    @pytest.mark.parametrize("data, fragment", [
        ({"colors": ["red"]}, "unknown scenario-matrix key"),
        ({"queries": []}, "non-empty list"),
        ({"queries": "TPCH-Q3"}, "non-empty list"),
        ({"tree_leaves": ["wide"]}, "non-integer"),
        ({"queries": ["NOPE-Q9"]}, "unknown workload query"),
        ({"scales": ["galactic"]}, "unknown scale"),
        ({"thresholds": [0]}, "must be >= 1"),
        ({"max_candidates": 0}, "must be >= 1"),
        ("not a dict", "must be a JSON object"),
    ])
    def test_from_dict_rejects_bad_axes(self, data, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            ScenarioMatrix.from_dict(data)


class TestMaterialize:
    def test_same_seed_same_content_hashes(self):
        from repro.experiments.settings import DEFAULT_SETTINGS

        first = materialize(SHAPE, seed=7)
        second = materialize(SHAPE, seed=7)
        assert [
            job.context.content_hash() for _, job in first
        ] == [job.context.content_hash() for _, job in second]
        assert [
            job_content_hash(job, DEFAULT_SETTINGS) for _, job in first
        ] == [job_content_hash(job, DEFAULT_SETTINGS) for _, job in second]

    def test_different_seed_different_hashes(self):
        first = materialize(SHAPE, seed=7)
        second = materialize(SHAPE, seed=8)
        assert first[0][1].context.content_hash() != \
            second[0][1].context.content_hash()

    def test_cells_differing_only_in_threshold_share_a_context(self):
        # The per-coordinate caches make repeated coordinates free: the
        # K2 and K3 cells of one (query, scale, shape) reuse one
        # InlineContext object, not just an equal one.
        jobs = {cell.cell_id: job for cell, job in materialize(SHAPE, 7)}
        assert jobs["TPCH-Q3|xs|L16|H3|R2|K2"].context is \
            jobs["TPCH-Q3|xs|L16|H3|R2|K3"].context

    def test_content_hashes_are_stable_across_processes(self, tmp_path):
        """Satellite property: same seed => bit-identical cell hashes
        in a completely fresh interpreter."""
        script = (
            "from repro.scenarios import ScenarioMatrix, materialize\n"
            f"matrix = ScenarioMatrix.from_dict({SHAPE.to_dict()!r})\n"
            "for cell, job in materialize(matrix, seed=7):\n"
            "    print(cell.cell_id, job.context.content_hash())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={**os.environ, "PYTHONPATH": str(
                Path(__file__).resolve().parent.parent / "src"
            )},
        )
        here = [
            f"{cell.cell_id} {job.context.content_hash()}"
            for cell, job in materialize(SHAPE, seed=7)
        ]
        assert out.stdout.strip().splitlines() == here


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The TINY matrix run twice against one persistent store."""
    root = tmp_path_factory.mktemp("scenarios")
    store = str(root / "store.sqlite")
    first = run_matrix(TINY, seed=7, workers=1, store_path=store)
    second = run_matrix(TINY, seed=7, workers=1, store_path=store)
    return first, second


class TestRunMatrix:
    def test_snapshot_shape(self, two_runs):
        snapshot, _ = two_runs
        assert snapshot["seed"] == 7
        assert snapshot["matrix"] == TINY.to_dict()
        assert len(snapshot["cells"]) == 1
        cell = snapshot["cells"][0]
        assert cell["cell"] == "TPCH-Q3|xs|L16|H3|R2|K2"
        assert cell["found"] is True
        assert cell["result_hash"] == result_hash(cell)
        assert len(cell["content_hash"]) == 64
        assert snapshot["summary"]["cells"] == 1

    def test_second_run_is_served_from_the_result_cache(self, two_runs):
        first, second = two_runs
        assert first["summary"]["cache_hits"] == 0
        assert second["summary"]["cache_hits"] == len(second["cells"])
        # The cached payload restores the original run's timing, so even
        # `seconds` agrees; the full identity check is normalize below.
        assert second["cells"][0]["seconds"] == first["cells"][0]["seconds"]

    def test_runs_are_identical_modulo_volatile_fields(self, two_runs):
        first, second = two_runs
        assert normalize(first) == normalize(second)

    def test_rejects_invalid_matrix_before_running(self):
        with pytest.raises(ScenarioError, match="unknown workload query"):
            run_matrix(ScenarioMatrix(queries=("NOPE-Q9",)), seed=7)


class TestSnapshotDiff:
    def test_identical_snapshots_have_no_findings(self, two_runs):
        first, second = two_runs
        report = diff(first, second)
        assert not report.has_drift
        assert report.compared == len(first["cells"])
        assert report.changed_inputs == []

    def test_result_hash_drift_is_detected(self, two_runs):
        first, _ = two_runs
        drifted = json.loads(json.dumps(first))
        drifted["cells"][0]["result_hash"] = "0" * 64
        report = diff(first, drifted)
        assert report.has_drift
        assert report.drifted[0]["cell"] == first["cells"][0]["cell"]

    def test_changed_inputs_are_not_drift(self, two_runs):
        first, _ = two_runs
        changed = json.loads(json.dumps(first))
        changed["cells"][0]["content_hash"] = "f" * 64
        changed["cells"][0]["result_hash"] = "0" * 64
        report = diff(first, changed)
        assert not report.has_drift
        assert report.changed_inputs == [first["cells"][0]["cell"]]

    def test_added_and_removed_cells_are_reported(self, two_runs):
        first, _ = two_runs
        pruned = json.loads(json.dumps(first))
        pruned["cells"] = []
        assert diff(first, pruned).only_old == \
            [c["cell"] for c in first["cells"]]
        assert diff(pruned, first).only_new == \
            [c["cell"] for c in first["cells"]]

    def test_slowdowns_beyond_tolerance_are_flagged(self, two_runs):
        first, _ = two_runs
        # Both timings are set above diff's 5 ms noise floor: the measured
        # cell itself can finish in less than that.
        before = json.loads(json.dumps(first))
        before["cells"][0]["seconds"] = 0.01
        slower = json.loads(json.dumps(first))
        slower["cells"][0]["seconds"] = 0.1
        report = diff(before, slower, tolerance=1.5)
        assert [r["cell"] for r in report.regressions] == \
            [first["cells"][0]["cell"]]
        assert not report.has_drift  # perf is trajectory, not identity


class TestScenariosCli:
    def test_run_then_diff_round_trip(self, tmp_path, capsys):
        matrix_file = tmp_path / "matrix.json"
        matrix_file.write_text(json.dumps(TINY.to_dict()))
        store = str(tmp_path / "store.sqlite")
        snaps = [str(tmp_path / f"snap{i}.json") for i in (1, 2)]
        for snap in snaps:
            assert main([
                "scenarios", "run", "--matrix", str(matrix_file),
                "--seed", "7", "--store", store, "--output", snap,
            ]) == 0
        out = capsys.readouterr().out
        assert "(cached)" in out  # the second run hit the store
        assert main(["scenarios", "diff", snaps[0], snaps[1]]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_diff_exits_nonzero_on_injected_drift(self, tmp_path, capsys,
                                                  two_runs):
        first, _ = two_runs
        old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
        save(old, first)
        drifted = json.loads(json.dumps(first))
        drifted["cells"][0]["result_hash"] = "0" * 64
        save(new, drifted)
        assert main(["scenarios", "diff", old, new]) == 1
        captured = capsys.readouterr()
        assert "DRIFT" in captured.out
        assert "FAIL" in captured.err

    def test_diff_max_regression_gates_timing(self, tmp_path, capsys,
                                              two_runs):
        first, _ = two_runs
        old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
        # Timings above diff's 5 ms noise floor, as in the test above.
        before = json.loads(json.dumps(first))
        before["cells"][0]["seconds"] = 0.01
        save(old, before)
        slower = json.loads(json.dumps(first))
        slower["cells"][0]["seconds"] = 0.1
        save(new, slower)
        # Report-only by default; fatal once the caller sets the gate.
        assert main(["scenarios", "diff", old, new]) == 0
        capsys.readouterr()
        assert main([
            "scenarios", "diff", old, new, "--max-regression", "2.0",
        ]) == 1
        assert "slower than" in capsys.readouterr().err

    def test_list_prints_cells_without_running(self, capsys):
        assert main(["scenarios", "list", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "TPCH-Q3|xs|L24|H3|R2|K2" in out
        assert "(12 cells" in out

    def test_malformed_snapshot_is_a_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"schema": "repro-scenarios-v1",
                                    "cells": []}))
        assert main(["scenarios", "diff", str(good), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_schema_is_a_cli_error(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"schema": "repro-scenarios-v0",
                                   "cells": []}))
        assert main(["scenarios", "diff", str(old), str(old)]) == 2
        assert "repro-scenarios-v0" in capsys.readouterr().err

    def test_bad_matrix_key_is_a_cli_error(self, tmp_path, capsys):
        matrix_file = tmp_path / "matrix.json"
        matrix_file.write_text(json.dumps({"colors": ["red"]}))
        assert main([
            "scenarios", "list", "--matrix", str(matrix_file),
        ]) == 2
        assert "unknown scenario-matrix key" in capsys.readouterr().err


def test_load_rejects_snapshotless_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ScenarioError, match="no 'cells' key"):
        load(str(path))
