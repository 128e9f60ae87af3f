"""Shared fixtures: the paper's running example and small generated datasets."""

from __future__ import annotations

import pytest

from repro.datasets.imdb import generate_imdb
from repro.datasets.tpch import generate_tpch
from repro.examples_data import (
    Q_FALSE_1,
    Q_FALSE_2,
    Q_GENERAL,
    Q_REAL,
    running_example_db,
    running_example_tree,
)
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.provenance.builder import build_kexample
from repro.provenance.kexample import KExample, KExampleRow


@pytest.fixture(scope="session")
def paper_db():
    """The Figure 1 database (session-scoped; treat as read-only)."""
    return running_example_db()


@pytest.fixture(scope="session")
def paper_tree():
    """The Figure 3 abstraction tree."""
    return running_example_tree()


@pytest.fixture(scope="session")
def paper_example(paper_db):
    """The K-example Ex_real of Figure 2a."""
    return build_kexample(Q_REAL, paper_db, n_rows=2)


@pytest.fixture(scope="session")
def paper_queries():
    """The four queries of Table 1."""
    return {
        "real": Q_REAL,
        "false1": Q_FALSE_1,
        "false2": Q_FALSE_2,
        "general": Q_GENERAL,
    }


@pytest.fixture(scope="session")
def tpch_db():
    """A tiny deterministic TPC-H instance."""
    return generate_tpch(scale=0.02, seed=1)


@pytest.fixture(scope="session")
def imdb_db():
    """A tiny deterministic IMDB-style instance."""
    return generate_imdb(n_people=120, n_movies=80, seed=1)


@pytest.fixture(scope="session")
def self_join_rows():
    """Builds a two-row K-example whose rows each hold ``n`` distinct ``R``
    tuples, so the second row aligns with the first in n! ways.  Each row
    outputs its tuples' ``a`` values, so only one alignment yields a
    query and the rest stop at the head."""

    def build(n: int) -> KExample:
        db = KDatabase(Schema.from_dict({"R": ["a", "b"]}))
        rows = []
        for row in range(2):
            names = [f"r{row}_{i}" for i in range(n)]
            for i, name in enumerate(names):
                db.insert("R", (10 * row + i, row), name)
            rows.append(KExampleRow(
                tuple(10 * row + i for i in range(n)), names
            ))
        return KExample(rows, db.registry)

    return build
