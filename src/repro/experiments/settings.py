"""Experiment settings (the paper's Table 5, scaled down).

The paper's basic setting is: privacy threshold 5; a 5-level tree with
10000 leaves; 2-row K-examples; uniform LOI distribution; 1 GB data.  Pure
Python trades constant factors for clarity, so the defaults here shrink the
data and tree sizes while sweeping the *same parameters over the same
relative ranges* — the shapes the figures compare are preserved (see
DESIGN.md, "Substitutions").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.seeding import DEFAULT_SEED

if TYPE_CHECKING:
    from repro.core.optimizer import OptimizerConfig


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared defaults for every figure runner."""

    privacy_threshold: int = 5
    tree_leaves: int = 200
    tree_height: int = 5
    kexample_rows: int = 2
    tpch_scale: float = 0.02
    imdb_people: int = 120
    imdb_movies: int = 80
    # Shared with every generator default (repro.seeding): the settings
    # profile and a bare generate_tpch()/generate_imdb()/tree call now
    # produce the same data at the same scale.
    seed: int = DEFAULT_SEED
    # The sweeps (paper ranges in comments).
    thresholds: tuple[int, ...] = (2, 5, 8, 11, 14, 17, 20)  # paper: 2..20
    tree_sizes: tuple[int, ...] = (100, 200, 400, 800)       # paper: 10K..810K
    tree_heights: tuple[int, ...] = (2, 3, 4, 5, 6, 7)       # paper heights
    row_counts: tuple[int, ...] = (2, 3, 4)                  # paper: 2..5+
    # Queries whose curves the paper plots (Section 5.1 omits the
    # near-duplicate curves of Q5/Q9/IMDB-Q3/IMDB-Q4).
    plotted_queries: tuple[str, ...] = (
        "TPCH-Q3", "TPCH-Q4", "TPCH-Q7", "TPCH-Q10", "TPCH-Q21",
        "IMDB-Q1", "IMDB-Q2", "IMDB-Q5", "IMDB-Q6", "IMDB-Q7",
    )
    join_sweep_queries: tuple[str, ...] = (
        "TPCH-Q5", "TPCH-Q7", "TPCH-Q9", "TPCH-Q21",
        "IMDB-Q2", "IMDB-Q4", "IMDB-Q7",
    )
    max_candidates: int = 30_000
    # Per-search wall-clock budget (None = unbounded).
    max_seconds: "float | None" = 60.0
    # Worker processes for the sweep harness (1 = serial in-process;
    # 0/negative = one per CPU core).  Sweeps fan out per-(query, point)
    # jobs through repro.batch regardless; this only sets the pool size.
    batch_workers: int = 1

    def search_config(self, **fields) -> "OptimizerConfig":
        """The search config these settings give a job without its own.

        Their ``max_candidates``/``max_seconds`` budgets, every other
        switch at its default; ``fields`` (an ``engine`` or ``trace``)
        apply on top.  The one definition behind a config-less job's
        content hash and every runner that searches under the settings.
        """
        from repro.core.optimizer import OptimizerConfig

        return OptimizerConfig(
            max_candidates=self.max_candidates,
            max_seconds=self.max_seconds,
            **fields,
        )

    def to_payload(self) -> dict:
        """A JSON-ready dict of every field (tuples become lists).

        The fleet claim endpoint ships this so remote workers run under
        exactly the service's settings — the settings participate in
        ``job_content_hash``, so anything less would let a worker
        compute (and cache) results for different inputs than the
        service hashed.
        """
        payload = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentSettings":
        """Rebuild settings from :meth:`to_payload` output, losslessly.

        Lists come back as tuples (JSON has no tuples); unknown fields
        are rejected so a version-skewed worker fails loudly instead of
        silently running under different settings.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise TypeError(
                f"unknown ExperimentSettings fields: {', '.join(unknown)}"
            )
        return cls(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()
        })


DEFAULT_SETTINGS = ExperimentSettings()

#: A reduced-size profile for CI / pytest-benchmark runs.
FAST_SETTINGS = ExperimentSettings(
    thresholds=(2, 5, 8),
    tree_sizes=(50, 100, 200),
    tree_heights=(3, 4, 5),
    row_counts=(2, 3),
    tree_leaves=100,
    max_candidates=8_000,
    max_seconds=20.0,
)
