"""Cross-engine equivalence: every engine is a bit-identical drop-in.

The pluggable engine layer (``repro.engine``) is an *execution* detail:
the naive interpreter and the SQL engines must produce identical output
rows, identical provenance polynomials, identical derivation streams
(order included — K-example construction consumes derivations in order),
identical K-examples, identical content hashes, and byte-identical job
payloads.  These tests pin all of that on the smoke-preset workload
families plus a seeded sweep of random conjunctive queries.
"""

import random

import pytest

from repro.batch.jobs import InlineContext, InlineJob
from repro.batch.optimizer import run_job
from repro.core.optimizer import OptimizerConfig
from repro.datasets.imdb import generate_imdb
from repro.datasets.queries import get_query
from repro.datasets.tpch import generate_tpch
from repro.db.database import KDatabase
from repro.db.schema import Schema
from repro.engine import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    NaiveEngine,
    SqlEngine,
    available_engines,
    duckdb_available,
    get_engine,
    resolve_engine,
)
from repro.errors import EvaluationError
from repro.experiments.settings import FAST_SETTINGS
from repro.provenance.builder import build_kexample
from repro.query.parser import parse_cq
from repro.store.hashing import job_content_hash

#: The query families the smoke preset exercises, plus the heaviest
#: TPC-H join in the workload catalog.
FAMILIES = ("TPCH-Q3", "TPCH-Q10", "IMDB-Q1")

#: Engines every environment has; duckdb joins via the skipif variants.
ALWAYS_ON = ("naive", "sqlite")

needs_duckdb = pytest.mark.skipif(
    not duckdb_available(), reason="duckdb is not importable here"
)


@pytest.fixture(scope="module")
def databases():
    tpch = generate_tpch(scale=0.02, seed=7)
    imdb = generate_imdb(n_people=60, n_movies=40, seed=7)
    return {"TPCH-Q3": tpch, "TPCH-Q10": tpch, "IMDB-Q1": imdb}


def _engine_pair(name):
    return get_engine("naive"), get_engine(name)


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", [n for n in ALWAYS_ON if n != "naive"])
    def test_results_identical_including_order(self, databases, family, name):
        query, db = get_query(family), databases[family]
        naive, other = _engine_pair(name)
        expected = naive.evaluate(query, db)
        actual = other.evaluate(query, db)
        assert list(expected.items()) == list(actual.items())
        assert len(expected) > 0  # a vacuous pass proves nothing

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", [n for n in ALWAYS_ON if n != "naive"])
    def test_derivation_streams_identical(self, databases, family, name):
        query, db = get_query(family), databases[family]
        naive, other = _engine_pair(name)
        expected = list(naive.derivations(query, db))
        actual = list(other.derivations(query, db))
        assert len(expected) == len(actual)
        for a, b in zip(expected, actual):
            assert a.output() == b.output()
            assert a.monomial() == b.monomial()
            assert a.images == b.images
            assert a.bindings == b.bindings

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kexamples_identical(self, databases, family):
        query, db = get_query(family), databases[family]
        built = [
            build_kexample(query, db, n_rows=2, engine=name)
            for name in ALWAYS_ON
        ]
        assert all(example == built[0] for example in built[1:])
        assert built[0].verify_against(query, db, engine="sqlite")

    @needs_duckdb
    @pytest.mark.parametrize("family", FAMILIES)
    def test_duckdb_matches_naive(self, databases, family):
        query, db = get_query(family), databases[family]
        naive, duck = _engine_pair("duckdb")
        assert list(naive.evaluate(query, db).items()) == list(
            duck.evaluate(query, db).items()
        )


class TestRandomCQProperty:
    """Seeded random CQs: SQL compilation agrees with the naive search."""

    @staticmethod
    def _random_db(rng):
        db = KDatabase(Schema.from_dict({
            "R": ["a", "b"], "S": ["b", "c"], "T": ["c", "d", "e"],
        }))
        pool = list(range(4)) + ["x", "y"]
        for rel, arity in (("R", 2), ("S", 2), ("T", 3)):
            for i in range(rng.randint(3, 8)):
                values = tuple(rng.choice(pool) for _ in range(arity))
                db.insert(rel, values, f"{rel.lower()}{i}")
        return db

    @staticmethod
    def _random_cq(rng):
        arities = {"R": 2, "S": 2, "T": 3}
        variables = ["v0", "v1", "v2", "v3"]
        atoms = []
        used = set()
        for _ in range(rng.randint(1, 3)):
            rel = rng.choice(list(arities))
            terms = []
            for _ in range(arities[rel]):
                if rng.random() < 0.2:
                    terms.append(str(rng.randint(0, 3)))
                else:
                    var = rng.choice(variables)
                    used.add(var)
                    terms.append(var)
            atoms.append(f"{rel}({', '.join(terms)})")
        head = sorted(used)[: max(1, len(used))] or []
        head_text = ", ".join(head) if head else "'c'"
        return parse_cq(f"Q({head_text}) :- {', '.join(atoms)}")

    def test_thirty_seeded_queries_agree(self):
        rng = random.Random(20260808)
        naive, sql = get_engine("naive"), get_engine("sqlite")
        non_empty = 0
        for _ in range(30):
            db = self._random_db(rng)
            query = self._random_cq(rng)
            expected = naive.evaluate(query, db)
            actual = sql.evaluate(query, db)
            assert list(expected.items()) == list(actual.items())
            non_empty += bool(expected)
        assert non_empty >= 5  # the sweep must exercise real joins


class TestHashAndPayloadParity:
    """The engine never leaks into identity: hashes and payloads match."""

    QUERY = "Q(pn) :- person(p, pn, by, co), casts(p, m), movie(m, t, 1995)"

    @pytest.fixture(scope="class")
    def job_parts(self):
        db = generate_imdb(n_people=60, n_movies=40, seed=7)
        query = self.QUERY
        from repro.abstraction.builders import tree_over_annotations

        example = build_kexample(parse_cq(query), db, n_rows=2)
        tree = tree_over_annotations(
            [t.annotation for t in db.tuples()], n_leaves=16, height=3,
            seed=7, must_include=sorted(example.variables()),
        )
        return db, tree, query

    def _job(self, parts, engine):
        db, tree, query = parts
        context = InlineContext.from_objects(db, tree, query=query, n_rows=2)
        config = OptimizerConfig(
            max_candidates=200, max_seconds=None, engine=engine
        )
        return InlineJob(context=context, threshold=2, config=config)

    def test_content_hash_is_engine_independent(self, job_parts):
        hashes = {
            job_content_hash(self._job(job_parts, name), FAST_SETTINGS)
            for name in ALWAYS_ON
        }
        assert len(hashes) == 1

    def test_job_payloads_bit_identical(self, job_parts):
        payloads = []
        for name in ALWAYS_ON:
            result = run_job(self._job(job_parts, name), FAST_SETTINGS)
            assert result.error is None
            payload = result.to_payload()
            # Timing is the one legitimately volatile dimension.
            payload.pop("seconds", None)
            payload.pop("session_reused", None)
            if isinstance(payload.get("stats"), dict):
                payload["stats"].pop("elapsed_seconds", None)
            payloads.append(payload)
        assert all(p == payloads[0] for p in payloads[1:])


class TestEngineRegistry:
    def test_engine_names_and_default(self):
        assert DEFAULT_ENGINE == "naive"
        assert set(ENGINE_NAMES) == {"naive", "sqlite", "duckdb"}
        availability = available_engines()
        assert availability["naive"] and availability["sqlite"]

    def test_instances_are_cached_and_typed(self):
        assert get_engine("naive") is get_engine("naive")
        assert isinstance(get_engine("naive"), NaiveEngine)
        assert isinstance(get_engine("sqlite"), SqlEngine)

    def test_unknown_engine_is_a_clean_error(self):
        with pytest.raises(EvaluationError, match="unknown engine 'bogus'"):
            get_engine("bogus")

    def test_resolve_engine_passthrough_and_default(self):
        engine = NaiveEngine()
        assert resolve_engine(engine) is engine
        assert resolve_engine(None).name == DEFAULT_ENGINE
        assert resolve_engine("sqlite").name == "sqlite"

    @pytest.mark.skipif(
        duckdb_available(), reason="duckdb is importable here"
    )
    def test_missing_duckdb_is_a_clean_error(self):
        with pytest.raises(EvaluationError, match="sqlite"):
            get_engine("duckdb")


class TestEngineCli:
    def test_engines_command_lists_all(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ENGINE_NAMES:
            assert name in out
        assert "(default)" in out

    def test_unknown_engine_flag_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "--engine", "bogus"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.skipif(
        duckdb_available(), reason="duckdb is importable here"
    )
    def test_unavailable_duckdb_exits_2_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.json_io import database_to_json, dumps

        db_path = tmp_path / "db.json"
        db = KDatabase(Schema.from_dict({"R": ["a"]}))
        db.insert("R", (1,), "r1")
        db_path.write_text(dumps(database_to_json(db)))
        code = main([
            "evaluate", "--database", str(db_path),
            "--query", "Q(x) :- R(x)", "--engine", "duckdb",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "duckdb" in err
