"""The declarative scenario matrix and its seeded materialization.

A :class:`ScenarioMatrix` names the axes the paper's evaluation sweeps —
database scale, tree shape (leaf count) and height, query family,
K-example size, and privacy threshold — as plain lists; the cell set is
their cross product.  :func:`materialize` turns every cell into an
:class:`~repro.batch.jobs.InlineJob` whose context is generated by the
seeded generators in :mod:`repro.datasets` and serialized through
:class:`~repro.batch.jobs.InlineContext`, so each cell is
content-addressable: the same (matrix, seed) produces bit-identical
``content_hash`` values in any process on any machine, which is what
lets the persistent result cache dedup repeated cells across runs,
executors, and hosts.

Cells are deliberately **candidate-capped, never wall-clock-capped**
(``max_seconds=None``): a wall-clock cut depends on machine speed, which
would make both the result hashes and the store's caching behavior
machine-dependent (see :mod:`repro.store.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScenarioError

#: Named database scales: one knob that moves both workload families,
#: mirroring how ExperimentSettings couples tpch_scale with the IMDB
#: sizes.  Kept tiny-to-small — the matrix multiplies everything.
SCALES: dict[str, dict] = {
    "xs": {"tpch_scale": 0.01, "imdb_people": 60, "imdb_movies": 40},
    "s": {"tpch_scale": 0.015, "imdb_people": 80, "imdb_movies": 50},
    "m": {"tpch_scale": 0.02, "imdb_people": 120, "imdb_movies": 80},
    # TPC-H SF 0.1 territory (~6k tuples): the scale the SQL engine tier
    # exists for.  Wired into the full preset as a single extra cell, not
    # a scales-axis member — crossing it with every other axis would add
    # dozens of heavyweight cells.
    "sf01": {"tpch_scale": 0.1, "imdb_people": 200, "imdb_movies": 140},
}

_MATRIX_KEYS = frozenset({
    "queries", "scales", "tree_leaves", "tree_heights", "rows",
    "thresholds", "max_candidates", "extra_cells",
})

_CELL_KEYS = ("query", "scale", "tree_leaves", "tree_height", "rows",
              "threshold")


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the matrix; identified by its axes alone."""

    query: str
    scale: str
    tree_leaves: int
    tree_height: int
    rows: int
    threshold: int

    @property
    def cell_id(self) -> str:
        """A stable human-readable id (the diff key across snapshots)."""
        return (
            f"{self.query}|{self.scale}|L{self.tree_leaves}"
            f"|H{self.tree_height}|R{self.rows}|K{self.threshold}"
        )

    def axes(self) -> dict:
        return {
            "query": self.query,
            "scale": self.scale,
            "tree_leaves": self.tree_leaves,
            "tree_height": self.tree_height,
            "rows": self.rows,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class ScenarioMatrix:
    """The declarative axes; ``cells()`` is their cross product in order."""

    queries: tuple[str, ...] = ("TPCH-Q3", "IMDB-Q1")
    scales: tuple[str, ...] = ("xs",)
    tree_leaves: tuple[int, ...] = (24, 48)
    tree_heights: tuple[int, ...] = (3,)
    rows: tuple[int, ...] = (2,)
    thresholds: tuple[int, ...] = (2, 3, 4)
    #: Per-cell candidate budget (the only budget — see module docstring).
    max_candidates: int = 600
    #: Hand-picked cells appended after the cross product — the way to
    #: include one heavyweight coordinate (the full preset's sf01 cell)
    #: without multiplying it into every axis combination.
    extra_cells: tuple[ScenarioCell, ...] = ()

    def cells(self) -> list[ScenarioCell]:
        """Every cell, in deterministic axis order (the snapshot order)."""
        return [
            ScenarioCell(query=q, scale=s, tree_leaves=nl, tree_height=h,
                         rows=r, threshold=k)
            for q in self.queries
            for s in self.scales
            for nl in self.tree_leaves
            for h in self.tree_heights
            for r in self.rows
            for k in self.thresholds
        ] + list(self.extra_cells)

    def to_dict(self) -> dict:
        data = {
            "queries": list(self.queries),
            "scales": list(self.scales),
            "tree_leaves": list(self.tree_leaves),
            "tree_heights": list(self.tree_heights),
            "rows": list(self.rows),
            "thresholds": list(self.thresholds),
            "max_candidates": self.max_candidates,
        }
        # Emitted only when present, so snapshots of extra-cell-free
        # matrices (the committed smoke baseline) keep their exact shape.
        if self.extra_cells:
            data["extra_cells"] = [cell.axes() for cell in self.extra_cells]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioMatrix":
        """Build a matrix from its JSON form, validating every key."""
        if not isinstance(data, dict):
            raise ScenarioError(
                f"scenario matrix must be a JSON object, "
                f"got {type(data).__name__}"
            )
        for key in data:
            if key not in _MATRIX_KEYS:
                raise ScenarioError(
                    f"unknown scenario-matrix key {key!r} "
                    f"(known keys: {', '.join(sorted(_MATRIX_KEYS))})"
                )
        # Integers are taken only exactly: int() would run a threshold of
        # 2.7 as 2, or true as 1.
        from repro.batch.jobs import exact_int

        kwargs: dict = {}
        for key, as_int in (
            ("queries", False), ("scales", False), ("tree_leaves", True),
            ("tree_heights", True), ("rows", True), ("thresholds", True),
        ):
            if key not in data:
                continue
            values = data[key]
            if not isinstance(values, list) or not values:
                raise ScenarioError(
                    f"scenario-matrix {key!r} must be a non-empty list"
                )
            try:
                kwargs[key] = tuple(
                    exact_int(v) if as_int else str(v) for v in values
                )
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"scenario-matrix {key!r} holds a non-"
                    f"{'integer' if as_int else 'string'} value: {values!r}"
                ) from None
        if "max_candidates" in data:
            try:
                kwargs["max_candidates"] = exact_int(data["max_candidates"])
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"scenario-matrix 'max_candidates' must be an integer, "
                    f"got {data['max_candidates']!r}"
                ) from None
        if "extra_cells" in data:
            raw_cells = data["extra_cells"]
            if not isinstance(raw_cells, list):
                raise ScenarioError(
                    "scenario-matrix 'extra_cells' must be a list of "
                    "cell objects"
                )
            cells = []
            for raw in raw_cells:
                if not isinstance(raw, dict) or set(raw) != set(_CELL_KEYS):
                    raise ScenarioError(
                        f"scenario-matrix extra cell must be an object with "
                        f"keys {', '.join(_CELL_KEYS)}; got {raw!r}"
                    )
                try:
                    cells.append(ScenarioCell(
                        query=str(raw["query"]),
                        scale=str(raw["scale"]),
                        tree_leaves=exact_int(raw["tree_leaves"]),
                        tree_height=exact_int(raw["tree_height"]),
                        rows=exact_int(raw["rows"]),
                        threshold=exact_int(raw["threshold"]),
                    ))
                except (TypeError, ValueError):
                    raise ScenarioError(
                        f"scenario-matrix extra cell holds a non-integer "
                        f"axis value: {raw!r}"
                    ) from None
            kwargs["extra_cells"] = tuple(cells)
        matrix = cls(**kwargs)
        matrix.validate()
        return matrix

    def validate(self) -> None:
        """Reject axis values the generators cannot honor."""
        from repro.datasets.queries import all_queries

        known_queries = all_queries()
        for name in self.queries:
            if name not in known_queries:
                raise ScenarioError(
                    f"unknown workload query {name!r} in scenario matrix "
                    f"(known: {', '.join(sorted(known_queries))})"
                )
        for scale in self.scales:
            if scale not in SCALES:
                raise ScenarioError(
                    f"unknown scale {scale!r} in scenario matrix "
                    f"(known scales: {', '.join(SCALES)})"
                )
        for label, values, floor in (
            ("tree_leaves", self.tree_leaves, 1),
            ("tree_heights", self.tree_heights, 1),
            ("rows", self.rows, 1),
            ("thresholds", self.thresholds, 1),
        ):
            for value in values:
                if value < floor:
                    raise ScenarioError(
                        f"scenario-matrix {label!r} must be >= {floor}, "
                        f"got {value}"
                    )
        if self.max_candidates < 1:
            raise ScenarioError(
                f"scenario-matrix 'max_candidates' must be >= 1, "
                f"got {self.max_candidates}"
            )
        for cell in self.extra_cells:
            if cell.query not in known_queries:
                raise ScenarioError(
                    f"unknown workload query {cell.query!r} in scenario-"
                    f"matrix extra cell "
                    f"(known: {', '.join(sorted(known_queries))})"
                )
            if cell.scale not in SCALES:
                raise ScenarioError(
                    f"unknown scale {cell.scale!r} in scenario-matrix "
                    f"extra cell (known scales: {', '.join(SCALES)})"
                )
            for label, value in (
                ("tree_leaves", cell.tree_leaves),
                ("tree_height", cell.tree_height),
                ("rows", cell.rows),
                ("threshold", cell.threshold),
            ):
                if value < 1:
                    raise ScenarioError(
                        f"scenario-matrix extra cell {label!r} must be "
                        f">= 1, got {value}"
                    )


#: The CI/acceptance matrix: 12 cells, small scale, tight budget.
SMOKE_MATRIX = ScenarioMatrix()

#: A broader offline sweep in the spirit of the paper's Figs 9-17.
FULL_MATRIX = ScenarioMatrix(
    queries=("TPCH-Q3", "TPCH-Q10", "IMDB-Q1"),
    scales=("xs", "s"),
    tree_leaves=(24, 48),
    tree_heights=(3, 4),
    rows=(2,),
    thresholds=(2, 4, 6),
    max_candidates=1500,
    # One deliberately heavyweight TPC-H cell at the sf01 scale — the
    # coordinate the SQL engine tier pays off on (see docs/PERFORMANCE.md).
    extra_cells=(
        ScenarioCell(query="TPCH-Q3", scale="sf01", tree_leaves=24,
                     tree_height=3, rows=2, threshold=2),
    ),
)

PRESETS: dict[str, ScenarioMatrix] = {
    "smoke": SMOKE_MATRIX,
    "full": FULL_MATRIX,
}


def materialize(
    matrix: ScenarioMatrix, seed: int, engine: str = "naive"
) -> list[tuple]:
    """``[(cell, InlineJob), ...]`` for every cell, deterministically.

    All generation is explicitly seeded with ``seed`` (databases, tree
    sampling and shuffling) and every intermediate is cached per distinct
    coordinate, so a matrix whose axes repeat a coordinate pays its
    generation cost once.  The returned jobs carry serialized
    :class:`~repro.batch.jobs.InlineContext` payloads — fully
    self-describing, hashable, and picklable — so they run identically
    through the thread and process execution tiers.

    ``engine`` selects the evaluation backend used to build each cell's
    K-example and stamped on the jobs' configs.  It is an execution
    detail: every engine produces bit-identical contexts, content hashes,
    and results (guarded by the engine-smoke CI leg).
    """
    from repro.abstraction.builders import tree_over_annotations
    from repro.batch.jobs import InlineContext, InlineJob
    from repro.core.optimizer import OptimizerConfig
    from repro.datasets.imdb import generate_imdb
    from repro.datasets.queries import get_query
    from repro.datasets.tpch import generate_tpch
    from repro.provenance.builder import build_kexample

    databases: dict = {}
    examples: dict = {}
    contexts: dict = {}
    config = OptimizerConfig(
        max_candidates=matrix.max_candidates, max_seconds=None, engine=engine
    )

    def database_for(query: str, scale: str):
        family = "tpch" if query.startswith("TPCH") else "imdb"
        key = (family, scale)
        if key not in databases:
            knobs = SCALES[scale]
            if family == "tpch":
                databases[key] = generate_tpch(
                    scale=knobs["tpch_scale"], seed=seed
                )
            else:
                databases[key] = generate_imdb(
                    n_people=knobs["imdb_people"],
                    n_movies=knobs["imdb_movies"],
                    seed=seed,
                )
        return databases[key]

    def example_for(query: str, scale: str, rows: int):
        key = (query, scale, rows)
        if key not in examples:
            examples[key] = build_kexample(
                get_query(query), database_for(query, scale), n_rows=rows,
                engine=engine,
            )
        return examples[key]

    def context_for(cell: ScenarioCell) -> InlineContext:
        key = (cell.query, cell.scale, cell.tree_leaves, cell.tree_height,
               cell.rows)
        if key not in contexts:
            database = database_for(cell.query, cell.scale)
            example = example_for(cell.query, cell.scale, cell.rows)
            tree = tree_over_annotations(
                [t.annotation for t in database.tuples()],
                n_leaves=cell.tree_leaves,
                height=cell.tree_height,
                seed=seed,
                must_include=sorted(example.variables()),
            )
            contexts[key] = InlineContext.from_objects(
                database, tree, kexample=example, n_rows=cell.rows,
            )
        return contexts[key]

    return [
        (cell, InlineJob(
            context=context_for(cell), threshold=cell.threshold,
            config=config, tag=cell.cell_id,
        ))
        for cell in matrix.cells()
    ]
