"""The reserved dual ``mode`` slot: rejection today, hash room tomorrow.

The content-hash schema reserves a ``mode`` field for the paper's dual
problem ("max privacy under an LOI cap").  Until a dual job type exists,
``primal`` is the only legal value — an unknown mode must fail loudly at
spec validation *and* at hash time (:data:`repro.store.hashing.KNOWN_MODES`),
because a dual job silently hashed by primal-only code would be filed
(and cached) as a primal result.  The pinned-hash tests at the bottom
prove the reservation is free: primal hashes are bit-identical to the
pre-``KNOWN_MODES`` code.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.jobs import job_from_spec
from repro.cli import main
from repro.core.optimizer import OptimizerConfig
from repro.errors import JobSpecError
from repro.experiments.settings import ExperimentSettings
from repro.store import job_content_hash, spec_content_hash
from repro.store.hashing import KNOWN_MODES

NAMED_SPEC = {"query_name": "TPCH-Q3", "threshold": 2, "n_leaves": 32,
              "tag": "pin-named"}
INLINE_SPEC = {
    "database": {
        "schema": {"Person": ["id", "name"]},
        "relations": {"Person": [
            {"values": [1, "Ann"], "annotation": "p1"},
            {"values": [2, "Bob"], "annotation": "p2"},
        ]},
    },
    "tree": {"label": "root", "children": [
        {"label": "a", "children": [{"label": "p1"}, {"label": "p2"}]},
    ]},
    "query": "Q(id) :- Person(id, n)",
    "threshold": 2,
    "n_rows": 2,
    "max_candidates": 100,
}

#: Every knob pinned so drift in *defaults* can never move these tests.
PINNED = ExperimentSettings(
    tree_leaves=64, tree_height=4, kexample_rows=2, tpch_scale=0.01,
    imdb_people=60, imdb_movies=40, seed=7, max_candidates=500,
    max_seconds=None,
)


def _base_config() -> OptimizerConfig:
    return OptimizerConfig(
        max_candidates=PINNED.max_candidates,
        max_seconds=PINNED.max_seconds,
    )


class TestSpecValidation:
    def test_primal_is_the_only_known_mode_today(self):
        assert KNOWN_MODES == ("primal",)

    @pytest.mark.parametrize("spec", [NAMED_SPEC, INLINE_SPEC])
    def test_explicit_primal_mode_is_accepted_and_hash_neutral(self, spec):
        with_mode = {**spec, "mode": "primal"}
        job_from_spec(with_mode, base_config=_base_config())
        assert spec_content_hash(with_mode, PINNED, default_rows=2) == \
            spec_content_hash(spec, PINNED, default_rows=2)

    @pytest.mark.parametrize("spec", [NAMED_SPEC, INLINE_SPEC])
    def test_unknown_mode_is_rejected_naming_the_field(self, spec):
        with pytest.raises(JobSpecError, match="'mode'") as excinfo:
            job_from_spec({**spec, "mode": "dual"},
                          base_config=_base_config())
        assert "primal" in str(excinfo.value)  # the error lists the menu

    def test_cli_rejects_unknown_mode_with_exit_2(self, tmp_path, capsys):
        jobs_file = tmp_path / "jobs.json"
        jobs_file.write_text(json.dumps([{**NAMED_SPEC, "mode": "dual"}]))
        assert main(["batch-optimize", "--jobs", str(jobs_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'mode'" in err and "dual" in err


class TestHashTimeGuard:
    def test_job_object_with_unknown_mode_cannot_be_hashed(self):
        job = job_from_spec(INLINE_SPEC, base_config=_base_config())

        class DualJob:
            """A future job type this code version does not understand."""
            context = job.context
            threshold = job.threshold
            config = job.config
            mode = "dual"

        with pytest.raises(JobSpecError, match="unknown search mode"):
            job_content_hash(DualJob(), PINNED)


class TestPinnedHashes:
    """Bit-for-bit hash stability of job and context content hashes.

    A job digest that moves by accident makes every persistent job store
    in the wild silently lose its cached results.  A deliberate change of
    the hash inputs bumps :data:`repro.store.hashing.HASH_VERSION` and
    re-pins these digests; the job digests were last re-pinned at
    ``repro-job-v5``, when ``PrivacyConfig`` lost ``cache_connectivity``
    and ``ConsistencyConfig`` lost ``head_name``.
    """

    def test_named_job_hash_is_stable(self):
        job = job_from_spec(NAMED_SPEC, default_rows=PINNED.kexample_rows,
                            base_config=_base_config())
        assert job_content_hash(job, PINNED) == (
            "ba9c7895ed0b8c657350f2b92481e2b5"
            "966d415ba048bf8af30595b3ab62af0e"
        )

    def test_inline_job_hash_is_stable(self):
        job = job_from_spec(INLINE_SPEC, base_config=_base_config())
        assert job_content_hash(job, PINNED) == (
            "9e4a6f5c23b532fb718f404fe764eade"
            "e02f5ccc2e9ca665a3cdb0a8fc64c245"
        )

    def test_inline_context_hash_is_stable(self):
        job = job_from_spec(INLINE_SPEC, base_config=_base_config())
        assert job.context.content_hash() == (
            "94830042d7cd27901e1a08296d749775"
            "3d2f825153f863f4690d0f517d6e3cb5"
        )
