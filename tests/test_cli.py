"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io.csv_io import database_to_csv_dir
from repro.io.json_io import database_to_json, tree_to_json
from repro.examples_data import running_example_db, running_example_tree

QUERY = (
    "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1),"
    " Interests(id, 'Music', s2)"
)


@pytest.fixture
def workspace(tmp_path):
    db = running_example_db()
    database_to_csv_dir(db, tmp_path / "data")
    (tmp_path / "db.json").write_text(json.dumps(database_to_json(db)))
    (tmp_path / "tree.json").write_text(
        json.dumps(tree_to_json(running_example_tree()))
    )
    return tmp_path


class TestOptimize:
    def test_optimize_from_csv(self, workspace, capsys):
        code = main([
            "optimize",
            "--database", str(workspace / "data"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
            "--threshold", "2",
            "--output", str(workspace / "result.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "privacy             : 2" in out
        result = json.loads((workspace / "result.json").read_text())
        assert result["privacy"] == 2

    def test_optimize_from_json_db(self, workspace, capsys):
        code = main([
            "optimize",
            "--database", str(workspace / "db.json"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
            "--threshold", "2",
        ])
        assert code == 0

    def test_unsatisfiable_threshold_exit_code(self, workspace):
        code = main([
            "optimize",
            "--database", str(workspace / "data"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
            "--threshold", "999999",
            "--max-seconds", "10",
        ])
        assert code == 1


class TestBatchOptimize:
    def test_cross_product_of_queries_and_thresholds(self, tmp_path, capsys):
        code = main([
            "batch-optimize",
            "--queries", "TPCH-Q3",
            "--thresholds", "2", "3",
            "--workers", "1",
            "--max-candidates", "200",
            "--max-seconds", "10",
            "--output", str(tmp_path / "batch.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TPCH-Q3 k=2" in out
        assert "TPCH-Q3 k=3" in out
        assert "2 jobs" in out
        results = json.loads((tmp_path / "batch.json").read_text())
        assert len(results) == 2
        assert {r["threshold"] for r in results} == {2, 3}
        assert all(r["error"] is None for r in results)

    def test_jobs_file(self, tmp_path, capsys):
        (tmp_path / "jobs.json").write_text(json.dumps([
            {"query_name": "TPCH-Q3", "threshold": 2, "tag": "t1"},
        ]))
        code = main([
            "batch-optimize",
            "--jobs", str(tmp_path / "jobs.json"),
            "--workers", "1",
            "--max-candidates", "200",
            "--max-seconds", "10",
        ])
        assert code == 0
        assert "t1:" in capsys.readouterr().out

    def test_failed_job_sets_exit_code(self, capsys):
        code = main([
            "batch-optimize",
            "--queries", "NO-SUCH-QUERY",
            "--thresholds", "2",
            "--workers", "1",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestJobsFileValidation:
    def test_unknown_spec_key_exits_2_naming_it(self, tmp_path, capsys):
        """A typo like 'treshold' must not silently run a default job."""
        (tmp_path / "jobs.json").write_text(json.dumps([
            {"query_name": "TPCH-Q3", "treshold": 2},
        ]))
        code = main([
            "batch-optimize",
            "--jobs", str(tmp_path / "jobs.json"),
            "--workers", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "treshold" in err
        assert "job 0" in err

    def test_missing_required_keys_exit_2(self, tmp_path, capsys):
        (tmp_path / "jobs.json").write_text(json.dumps([{"threshold": 2}]))
        code = main([
            "batch-optimize",
            "--jobs", str(tmp_path / "jobs.json"),
            "--workers", "1",
        ])
        assert code == 2
        assert "query_name" in capsys.readouterr().err

    def test_non_list_jobs_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "jobs.json").write_text(json.dumps({"query_name": "x"}))
        code = main([
            "batch-optimize",
            "--jobs", str(tmp_path / "jobs.json"),
            "--workers", "1",
        ])
        assert code == 2
        assert "list" in capsys.readouterr().err

    def test_per_spec_budgets_build_per_job_config(self, tmp_path, capsys):
        """--jobs specs can set max_candidates/max_seconds per job."""
        (tmp_path / "jobs.json").write_text(json.dumps([
            {"query_name": "TPCH-Q3", "threshold": 2,
             "max_candidates": 1, "tag": "tight"},
        ]))
        code = main([
            "batch-optimize",
            "--jobs", str(tmp_path / "jobs.json"),
            "--workers", "1",
            "--max-seconds", "10",
            "--output", str(tmp_path / "out.json"),
        ])
        capsys.readouterr()
        assert code == 0
        payload = json.loads((tmp_path / "out.json").read_text())[0]
        assert payload["stats"]["candidates_scanned"] <= 2
        # The global --max-seconds override is inherited by the spec config.
        assert payload["error"] is None

    def test_output_includes_session_reused_and_stats(self, tmp_path, capsys):
        code = main([
            "batch-optimize",
            "--queries", "TPCH-Q3",
            "--thresholds", "2", "3",
            "--workers", "1",
            "--max-candidates", "200",
            "--max-seconds", "10",
            "--output", str(tmp_path / "batch.json"),
        ])
        capsys.readouterr()
        assert code == 0
        results = json.loads((tmp_path / "batch.json").read_text())
        assert all("session_reused" in r for r in results)
        for r in results:
            assert r["stats"]["candidates_scanned"] > 0
            assert "row_option_cache_hits" in r["stats"]

    def test_inline_spec_in_jobs_file(self, workspace, tmp_path, capsys):
        """batch-optimize --jobs accepts inline-context specs too."""
        (tmp_path / "jobs.json").write_text(json.dumps([{
            "database": json.loads((workspace / "db.json").read_text()),
            "tree": json.loads((workspace / "tree.json").read_text()),
            "query": QUERY,
            "threshold": 2,
            "tag": "inline",
        }]))
        code = main([
            "batch-optimize",
            "--jobs", str(tmp_path / "jobs.json"),
            "--workers", "1",
        ])
        assert code == 0
        assert "inline: privacy=2" in capsys.readouterr().out


class TestLoaderErrors:
    """CLI loaders map I/O and JSON failures to exit code 2, no tracebacks."""

    def test_missing_database_file(self, workspace, capsys):
        code = main([
            "optimize",
            "--database", str(workspace / "nope.json"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
            "--threshold", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "database" in err

    def test_malformed_database_json(self, workspace, capsys):
        (workspace / "bad.json").write_text("{not json")
        code = main([
            "optimize",
            "--database", str(workspace / "bad.json"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
            "--threshold", "2",
        ])
        assert code == 2
        assert "malformed database JSON" in capsys.readouterr().err

    def test_missing_tree_file(self, workspace, capsys):
        code = main([
            "optimize",
            "--database", str(workspace / "db.json"),
            "--tree", str(workspace / "no_tree.json"),
            "--query", QUERY,
            "--threshold", "2",
        ])
        assert code == 2
        assert "tree" in capsys.readouterr().err

    def test_malformed_tree_structure(self, workspace, capsys):
        (workspace / "bad_tree.json").write_text(json.dumps({"nolabel": 1}))
        code = main([
            "optimize",
            "--database", str(workspace / "db.json"),
            "--tree", str(workspace / "bad_tree.json"),
            "--query", QUERY,
            "--threshold", "2",
        ])
        assert code == 2
        assert "malformed tree JSON" in capsys.readouterr().err

    def test_missing_kexample_file(self, workspace, capsys):
        code = main([
            "optimize",
            "--database", str(workspace / "db.json"),
            "--tree", str(workspace / "tree.json"),
            "--kexample", str(workspace / "no_example.json"),
            "--threshold", "2",
        ])
        assert code == 2
        assert "K-example" in capsys.readouterr().err

    def test_serve_port_in_use_exits_2(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            code = main(["serve", "--port", str(port)])
        assert code == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, capsys):
        code = main([
            "poll",
            "--server", "http://127.0.0.1:1",  # nothing listens here
            "--stats",
        ])
        assert code == 2
        assert "cannot reach job service" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_serve_rejects_bad_worker_count(self, workers, capsys):
        # Argparse validation: exit 2 before any service starts, with an
        # error naming the flag (a bad count used to surface only as a
        # service whose queue never drains).
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--workers", workers])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "must be >= 1" in err or "positive integer" in err

    def test_serve_rejects_unknown_executor(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--executor", "mpi"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--executor" in err
        assert "thread" in err and "process" in err

    def test_worker_with_no_service_exits_2(self, capsys):
        code = main([
            "worker",
            "--server", "http://127.0.0.1:1",  # nothing listens here
            "--startup-timeout", "0.2",
        ])
        assert code == 2
        assert "did not become healthy" in capsys.readouterr().err

    def test_scenarios_remote_requires_fleet_port(self, tmp_path, capsys):
        code = main([
            "scenarios", "run", "--preset", "smoke",
            "--executor", "remote",
            "--output", str(tmp_path / "snap.json"),
        ])
        assert code == 2
        assert "fleet_port" in capsys.readouterr().err


class TestServeSignals:
    def test_sigterm_stops_a_process_tier_server(self):
        # SIGTERM must shut the pool down too: a forked pool worker that
        # outlives the server keeps its stdout and stderr pipes open, so
        # communicate() would never return.
        import os
        import signal
        import socket
        import subprocess
        import sys
        from pathlib import Path

        from repro.service.client import ServiceClient

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
             "--executor", "process", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            start_new_session=True,
        )
        try:
            ServiceClient(f"http://127.0.0.1:{port}").wait_until_healthy(30)
            proc.terminate()
            out, _ = proc.communicate(timeout=15)
            assert proc.returncode == 0
            assert b"shutting down" in out
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()


class TestOtherCommands:
    def test_privacy_identity(self, workspace, capsys):
        code = main([
            "privacy",
            "--database", str(workspace / "data"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
        ])
        assert code == 0
        assert "privacy: 1" in capsys.readouterr().out

    def test_attack_lists_cims(self, workspace, capsys):
        code = main([
            "attack",
            "--database", str(workspace / "data"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 CIM query" in out
        assert "Hobbies" in out

    def test_evaluate(self, workspace, capsys):
        code = main([
            "evaluate",
            "--database", str(workspace / "data"),
            "--query", "Q(id) :- Person(id, n, a)",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(2 rows)" in out

    def test_show_tree(self, workspace, capsys):
        code = main(["show-tree", "--tree", str(workspace / "tree.json")])
        assert code == 0
        assert "Facebook" in capsys.readouterr().out

    def test_privacy_with_abstraction_file(self, workspace, capsys):
        (workspace / "abs.json").write_text(json.dumps({
            "assignment": [
                {"row": 0, "occurrence": 0, "target": "Facebook"},
                {"row": 1, "occurrence": 0, "target": "LinkedIn"},
            ]
        }))
        code = main([
            "privacy",
            "--database", str(workspace / "data"),
            "--tree", str(workspace / "tree.json"),
            "--query", QUERY,
            "--abstraction", str(workspace / "abs.json"),
        ])
        assert code == 0
        assert "privacy: 2" in capsys.readouterr().out
