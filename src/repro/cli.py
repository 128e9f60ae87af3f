"""The ``repro`` command-line interface.

Workflow: keep the database as a directory of CSV files (or one JSON file),
the abstraction tree as JSON, and the query as datalog text; then::

    python -m repro.cli optimize \
        --database data/ --tree tree.json \
        --query "Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', s)" \
        --threshold 2 --rows 2 --output result.json

Subcommands
-----------
``optimize``        find the optimal abstraction (Algorithm 2)
``batch-optimize``  run many optimizer jobs in parallel over the
                    experiment workloads or inline contexts (``repro.batch``)
``serve``           run the long-lived job service (``repro.service``);
                    ``--store PATH`` makes it durable and dedup-ing
``submit``          send jobs to a running service
``worker``          join a ``--executor remote`` service's fleet: claim
                    leased jobs over the v1 protocol, run them here,
                    deliver lossless result payloads back
``poll``            poll job status/results or service stats
``jobs``            inspect or prune a persistent job store
                    (``list`` / ``show`` / ``gc``, see ``repro.store``)
``scenarios``       run / list / diff the seeded scenario matrix and its
                    ``BENCH_scenarios.json`` snapshots (``repro.scenarios``)
``lint``            run the invariant-enforcing static-analysis suite
                    (``repro.analysis``); exit 1 on findings, 0 when clean
``trace``           inspect ``repro-trace-v1`` JSONL files written by
                    ``--trace-file`` (``show`` / ``summary``,
                    see ``repro.obs``)
``engines``         list the relational evaluation engines (``repro.engine``)
                    with availability markers
``privacy``         compute the privacy of a K-example / abstraction (Algorithm 1)
``attack``          list the CIM queries an adversary recovers
``evaluate``        run a query with provenance tracking
``show-tree``       pretty-print an abstraction tree

Library errors (missing files, malformed JSON, bad job specs, an
unreachable service) are reported as one-line ``error: ...`` messages
with exit code 2; exit code 1 means the command ran but a search failed
or found nothing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.abstraction.function import AbstractionFunction
from repro.core.optimizer import OptimizerConfig, find_optimal_abstraction
from repro.core.privacy import PrivacyComputer
from repro.db.database import KDatabase
from repro.engine import DEFAULT_ENGINE, ENGINE_NAMES, available_engines, get_engine
from repro.errors import AbstractionError, JobSpecError, ReproError, SchemaError
from repro.io.csv_io import database_from_csv_dir
from repro.io.json_io import (
    abstraction_from_json,
    database_from_json,
    database_to_json,
    dumps,
    kexample_from_json,
    result_to_json,
    tree_from_json,
    tree_to_json,
)
from repro.provenance.builder import build_kexample
from repro.query.parser import parse_cq
from repro.render import render_kexample, render_query, render_result, render_tree


def _read_json_file(path_text: str, what: str, error_cls=SchemaError):
    """Read a JSON file, mapping I/O and syntax failures to repro errors."""
    try:
        with open(path_text) as handle:
            return json.load(handle)
    except OSError as exc:
        raise error_cls(f"cannot read {what} {path_text!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error_cls(
            f"malformed {what} JSON in {path_text!r}: {exc}"
        ) from None


def _load_database(path_text: str) -> KDatabase:
    path = Path(path_text)
    if path.is_dir():
        try:
            return database_from_csv_dir(path)
        except OSError as exc:
            raise SchemaError(
                f"cannot read database directory {path_text!r}: {exc}"
            ) from None
    return database_from_json(_read_json_file(path_text, "database"))


def _load_tree(path_text: str):
    return tree_from_json(
        _read_json_file(path_text, "tree", error_cls=AbstractionError)
    )


def _build_example(args, database: KDatabase):
    if args.kexample:
        return kexample_from_json(
            _read_json_file(args.kexample, "K-example"), database
        )
    query = parse_cq(args.query)
    return build_kexample(
        query, database, n_rows=args.rows,
        engine=getattr(args, "engine", None),
    )


def _add_common(parser: argparse.ArgumentParser, with_tree: bool = True) -> None:
    parser.add_argument("--database", required=True,
                        help="CSV directory or JSON file")
    if with_tree:
        parser.add_argument("--tree", required=True, help="tree JSON file")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="datalog CQ text")
    group.add_argument("--kexample", help="K-example JSON file")
    parser.add_argument("--rows", type=int, default=2,
                        help="K-example rows when building from a query")
    _add_engine_flag(parser)


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default=DEFAULT_ENGINE,
        help="relational evaluation backend (execution detail: every "
             "engine produces bit-identical results and hashes; "
             "see 'repro engines')",
    )


def _tracing_requested(args) -> bool:
    """``--trace-file PATH`` implies ``--trace``."""
    return bool(getattr(args, "trace", False) or
                getattr(args, "trace_file", None))


def _emit_trace(args, payload, *, label, query=None, threshold=None,
                tag=None, seconds=None) -> None:
    """One traced job's spans to ``--trace-file`` (JSONL) or stdout."""
    from repro.obs.trace import TraceWriter, format_record, trace_record

    record = trace_record(
        payload, label=label, query=query, threshold=threshold,
        tag=tag, seconds=seconds,
    )
    if args.trace_file:
        with TraceWriter(args.trace_file) as writer:
            writer.write(record)
    else:
        print(format_record(record))


def cmd_optimize(args) -> int:
    from repro.obs import clock, spans

    database = _load_database(args.database)
    tree = _load_tree(args.tree)
    example = _build_example(args, database)
    config = OptimizerConfig(
        max_candidates=args.max_candidates, max_seconds=args.max_seconds,
        engine=args.engine, trace=_tracing_requested(args),
    )
    tracer = spans.Tracer() if config.trace else None
    start = clock.perf_counter()
    with spans.activate(tracer):
        with spans.span("search", threshold=args.threshold):
            result = find_optimal_abstraction(
                example, tree, args.threshold, config=config
            )
    seconds = clock.perf_counter() - start
    print(render_result(result))
    if tracer is not None:
        _emit_trace(
            args, tracer.to_payload(),
            label=f"optimize@{args.threshold}",
            threshold=args.threshold, seconds=seconds,
        )
        if args.trace_file:
            print(f"(trace appended to {args.trace_file})")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dumps(result_to_json(result)))
        print(f"(written to {args.output})")
    return 0 if result.found else 1


def _positive_int(text: str) -> int:
    """Argparse type for flags that need a count >= 1.

    Raising :class:`argparse.ArgumentTypeError` makes argparse exit 2
    with a message naming the flag — a bad ``serve --workers 0`` used to
    slip through and surface only as a service whose queue never drains.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _settings_for(args):
    """The experiment settings profile with CLI budget overrides applied."""
    import dataclasses

    from repro.experiments.settings import DEFAULT_SETTINGS, FAST_SETTINGS

    settings = FAST_SETTINGS if args.profile == "fast" else DEFAULT_SETTINGS
    overrides = {}
    if args.max_candidates is not None:
        overrides["max_candidates"] = args.max_candidates
    if args.max_seconds is not None:
        overrides["max_seconds"] = args.max_seconds
    if overrides:
        settings = dataclasses.replace(settings, **overrides)
    return settings


def _load_job_specs(path_text: str) -> list:
    specs = _read_json_file(path_text, "job-spec", error_cls=JobSpecError)
    if not isinstance(specs, list):
        raise JobSpecError(
            f"{path_text!r} must hold a JSON list of job specs"
        )
    return specs


def _print_result_line(payload_or_result) -> None:
    """One human line per job outcome (dict payload or BatchJobResult)."""
    if isinstance(payload_or_result, dict):
        p = payload_or_result
        tag, name = p.get("tag"), p.get("query_name")
        threshold = p.get("threshold")
        found, error = p.get("found"), p.get("error")
        privacy, loi = p.get("privacy"), p.get("loi")
        edges, seconds = p.get("edges_used"), p.get("seconds", 0.0)
        state = p.get("state")
    else:
        r = payload_or_result
        tag, name, threshold = r.job.tag, r.job.query_name, r.job.threshold
        found, error = r.found, r.error
        privacy, loi = r.privacy, r.loi
        edges, seconds = r.edges_used, r.seconds
        state = None
    label = tag or f"{name} k={threshold}"
    if state == "cancelled":
        print(f"{label}: CANCELLED")
    elif error is not None:
        print(f"{label}: FAILED ({error})")
    elif found:
        print(
            f"{label}: privacy={privacy} loi={loi:.4f} "
            f"edges={edges} in {seconds:.2f}s"
        )
    else:
        print(f"{label}: no abstraction within budget ({seconds:.2f}s)")


def cmd_batch_optimize(args) -> int:
    from repro.batch import BatchJob, BatchOptimizer, job_from_spec

    settings = _settings_for(args)
    # Matches run_job's config fallback exactly (budgets from settings),
    # so stamping it is content-hash-neutral; it only carries --engine
    # and --trace (both hash-stripped execution details).
    base_config = OptimizerConfig(
        max_candidates=settings.max_candidates,
        max_seconds=settings.max_seconds,
        engine=args.engine,
        trace=_tracing_requested(args),
    )
    if args.jobs:
        jobs = []
        for index, spec in enumerate(_load_job_specs(args.jobs)):
            try:
                jobs.append(job_from_spec(
                    spec, default_rows=args.rows, base_config=base_config,
                ))
            except JobSpecError as exc:
                raise JobSpecError(
                    f"job {index} in {args.jobs}: {exc}"
                ) from None
        # Specs without budget keys come back config-less; stamp the base
        # config so --engine reaches them too.
        import dataclasses

        jobs = [dataclasses.replace(job, config=job.config or base_config)
                for job in jobs]
    else:
        jobs = [
            BatchJob(name, threshold, n_rows=args.rows, config=base_config)
            for name in args.queries
            for threshold in args.thresholds
        ]

    workers = args.workers if args.workers > 0 else None
    batch = BatchOptimizer(
        settings, max_workers=workers, store_path=args.store
    ).run(jobs)

    for result in batch.results:
        _print_result_line(result)
    print(batch.stats.summary())

    if _tracing_requested(args):
        _emit_batch_traces(args, batch.results)

    if args.output:
        payload = [r.to_payload() for r in batch.results]
        with open(args.output, "w") as handle:
            handle.write(dumps(payload))
        print(f"(written to {args.output})")
    return 0 if batch.stats.jobs_failed == 0 else 1


def _emit_batch_traces(args, results) -> None:
    """Traced batch results to ``--trace-file`` (one JSONL line per job)
    or a per-phase summary table on stdout."""
    from repro.obs.trace import (
        TraceWriter, format_summary, summarize, trace_record,
    )

    records = [
        trace_record(
            r.trace,
            label=r.job.tag or f"{r.job.query_name}@{r.job.threshold}",
            query=r.job.query_name, threshold=r.job.threshold,
            tag=r.job.tag or None, seconds=r.seconds,
        )
        for r in results if r.trace
    ]
    if not records:
        return
    if args.trace_file:
        with TraceWriter(args.trace_file) as writer:
            for record in records:
                writer.write(record)
        print(f"({len(records)} traces appended to {args.trace_file})")
    else:
        print(format_summary(summarize(records)))


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def cmd_serve(args) -> int:
    from repro.service.server import JobService, make_server
    from repro.store import JobStore

    store = JobStore(args.store) if args.store else None
    service = JobService(
        settings=_settings_for(args),
        worker_threads=args.workers,
        max_queue=args.queue_size,
        job_timeout=args.job_timeout,
        store=store,
        executor=args.executor,
        engine=args.engine,
        trace=_tracing_requested(args),
        trace_path=args.trace_file,
        lease_seconds=args.lease_seconds,
        lease_attempts=args.lease_attempts,
    ).start()
    server = make_server(service, args.host, args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    traced = ", tracing on" if _tracing_requested(args) else ""
    print(
        f"repro job service on http://{host}:{port} "
        f"({args.workers} {args.executor} worker"
        f"{'s' if args.workers != 1 else ''}, queue {args.queue_size}, "
        f"{args.engine} engine{traced})"
    )
    if args.trace_file:
        print(f"streaming job traces to {args.trace_file}")
    if store is not None:
        stats = service.stats_payload()
        print(
            f"job store {store.path}: {stats['jobs_recovered']} jobs "
            f"recovered, {stats['jobs_requeued']} requeued, "
            f"{stats['results_stored']} results cached"
        )
    # SIGTERM (what `kill` and Popen.terminate() send) must shut down
    # like Ctrl-C: otherwise a process tier's pool workers outlive the
    # server, holding its stdout and stderr open.
    previous_sigterm = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        service.shutdown()
    return 0


def _inline_spec_from_args(args) -> dict:
    """Build one inline job spec from ``submit``'s optimize-style flags."""
    if not args.database or not args.tree or args.threshold is None:
        raise JobSpecError(
            "submit needs either --jobs or --database/--tree/--threshold "
            "with one of --query/--kexample"
        )
    if (args.query is None) == (args.kexample is None):
        raise JobSpecError(
            "submit needs exactly one of --query or --kexample"
        )
    spec: dict = {
        "database": database_to_json(_load_database(args.database)),
        "tree": tree_to_json(_load_tree(args.tree)),
        "threshold": args.threshold,
        "n_rows": args.rows,
    }
    if args.kexample:
        spec["kexample"] = _read_json_file(args.kexample, "K-example")
    else:
        spec["query"] = args.query
    if args.tag:
        spec["tag"] = args.tag
    if args.max_candidates is not None:
        spec["max_candidates"] = args.max_candidates
    if args.max_seconds is not None:
        spec["max_seconds"] = args.max_seconds
    return spec


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server)
    if args.jobs:
        specs = _load_job_specs(args.jobs)
    else:
        specs = [_inline_spec_from_args(args)]
    ids = client.submit_many(specs)
    print(f"submitted {len(ids)} job{'s' if len(ids) != 1 else ''}: "
          f"{', '.join(ids)}")
    if not args.wait:
        return 0

    payloads = client.wait_all(
        ids, timeout=args.timeout, interval=args.poll_interval
    )
    failures = 0
    for payload in payloads:
        _print_result_line(payload)
        if payload.get("state") != "done" or payload.get("error"):
            failures += 1
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dumps(payloads))
        print(f"(written to {args.output})")
    return 0 if failures == 0 else 1


def cmd_worker(args) -> int:
    from repro.service.worker import FleetWorker

    worker = FleetWorker(
        args.server,
        worker_id=args.id,
        store_path=args.store,
        poll_seconds=args.poll_interval,
        idle_exit=args.idle_exit,
        max_jobs=args.max_jobs,
        startup_timeout=args.startup_timeout,
        quiet=args.quiet,
    )
    try:
        summary = worker.run()
    except KeyboardInterrupt:
        print(f"worker {worker.worker_id} interrupted")
        return 0
    print(
        f"worker {summary['worker']} done: {summary['jobs_done']} ok, "
        f"{summary['jobs_failed']} failed, "
        f"{summary['leases_lost']} leases lost"
    )
    return 0


def cmd_poll(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server)
    if args.stats:
        print(dumps(client.stats()))
        return 0
    if not args.id:
        raise JobSpecError("poll needs --id (one or more job ids) or --stats")
    failures = 0
    for job_id in args.id:
        if args.wait:
            payload = client.wait(
                job_id, timeout=args.timeout, interval=args.poll_interval
            )
        else:
            payload = client.status(job_id)
        print(dumps(payload))
        if payload.get("state") == "failed" or payload.get("error"):
            failures += 1
    return 0 if failures == 0 else 1


def _open_store(path_text: str):
    """Open an *existing* job store (inspection must not create files)."""
    from repro.errors import ServiceError
    from repro.store import JobStore

    if path_text != ":memory:" and not Path(path_text).exists():
        raise ServiceError(f"no job store at {path_text!r}")
    return JobStore(path_text)


def cmd_jobs_list(args) -> int:
    store = _open_store(args.store)
    jobs = store.list_jobs(state=args.state)
    for stored in jobs:
        label = stored.spec.get("tag") or stored.label
        print(
            f"{stored.job_id}  {stored.state:<9}  {label} "
            f"k={stored.spec.get('threshold')}  "
            f"hash={stored.content_hash[:12]}"
        )
    suffix = f" in state {args.state!r}" if args.state else ""
    n_results = store.result_count()
    print(f"({len(jobs)} job{'s' if len(jobs) != 1 else ''}{suffix}, "
          f"{n_results} cached result{'s' if n_results != 1 else ''})")
    return 0


def cmd_jobs_show(args) -> int:
    from repro.errors import ServiceError

    store = _open_store(args.store)
    stored = store.get_job(args.id)
    if stored is None:
        raise ServiceError(f"unknown job {args.id!r} in {args.store!r}")
    payload = {
        "id": stored.job_id,
        "state": stored.state,
        "content_hash": stored.content_hash,
        "spec": stored.spec,
        "error": stored.error,
        "submitted_at": stored.submitted_at,
        "started_at": stored.started_at,
        "finished_at": stored.finished_at,
        # peek: inspecting a job must not mark its result recently used.
        "result": store.peek_result(stored.content_hash),
    }
    print(dumps(payload))
    return 0


def cmd_jobs_gc(args) -> int:
    from repro.errors import ServiceError

    if (args.keep_results is None and args.keep_days is None
            and not args.drop_jobs):
        raise ServiceError(
            "jobs gc needs at least one of --keep-results, --keep-days, "
            "or --drop-jobs"
        )
    store = _open_store(args.store)
    counts = store.gc(
        keep_results=args.keep_results,
        max_age_days=args.keep_days,
        drop_terminal_jobs=args.drop_jobs,
    )
    print(
        f"gc {args.store}: deleted {counts['results_deleted']} result"
        f"{'s' if counts['results_deleted'] != 1 else ''} and "
        f"{counts['jobs_deleted']} job record"
        f"{'s' if counts['jobs_deleted'] != 1 else ''}; "
        f"{store.result_count()} results remain"
    )
    return 0


def _scenario_matrix(args):
    """The matrix the ``scenarios`` verbs operate on (preset or file)."""
    from repro.errors import ScenarioError
    from repro.scenarios import PRESETS, ScenarioMatrix

    if getattr(args, "matrix", None):
        data = _read_json_file(
            args.matrix, "scenario-matrix", error_cls=ScenarioError
        )
        return ScenarioMatrix.from_dict(data)
    return PRESETS[args.preset]


def cmd_scenarios_run(args) -> int:
    from repro.scenarios import run_matrix, save

    matrix = _scenario_matrix(args)
    snapshot = run_matrix(
        matrix,
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        store_path=args.store,
        engine=args.engine,
        trace=_tracing_requested(args),
        trace_path=args.trace_file,
        fleet_host=args.fleet_host,
        fleet_port=args.fleet_port,
        lease_seconds=args.lease_seconds,
    )
    for cell in snapshot["cells"]:
        marker = " (cached)" if cell["cache_hit"] else ""
        if cell["found"]:
            line = (f"privacy={cell['privacy']} loi={cell['loi']:.4f} "
                    f"in {cell['seconds']:.2f}s")
        else:
            line = f"no abstraction within budget ({cell['seconds']:.2f}s)"
        print(f"{cell['cell']}: {line}{marker}")
    summary = snapshot["summary"]
    print(
        f"{summary['cells']} cells ({summary['found']} found, "
        f"{summary['cache_hits']} cache hits): "
        f"{summary['job_seconds']:.2f}s search, "
        f"{snapshot['wall_seconds']:.2f}s wall on "
        f"{snapshot['workers']} {snapshot['executor']} worker"
        f"{'s' if snapshot['workers'] != 1 else ''} "
        f"({snapshot['engine']} engine)"
    )
    save(args.output, snapshot)
    print(f"(snapshot written to {args.output})")
    return 0


def cmd_scenarios_list(args) -> int:
    matrix = _scenario_matrix(args)
    matrix.validate()
    cells = matrix.cells()
    for cell in cells:
        print(cell.cell_id)
    print(
        f"({len(cells)} cells; axes: "
        + ", ".join(f"{k}={v!r}" for k, v in sorted(
            matrix.to_dict().items()))
        + ")"
    )
    return 0


def cmd_scenarios_diff(args) -> int:
    from repro.scenarios import diff, load

    report = diff(
        load(args.old), load(args.new), tolerance=args.tolerance
    )
    for line in report.lines():
        print(line)
    if report.has_drift:
        print(
            f"FAIL: {len(report.drifted)} cell"
            f"{'s' if len(report.drifted) != 1 else ''} changed result "
            f"hash on identical inputs", file=sys.stderr,
        )
        return 1
    if args.max_regression is not None:
        fatal = [r for r in report.regressions
                 if r["ratio"] > args.max_regression]
        if fatal:
            print(
                f"FAIL: {len(fatal)} cell"
                f"{'s' if len(fatal) != 1 else ''} slower than "
                f"{args.max_regression:.2f}x", file=sys.stderr,
            )
            return 1
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import all_rules, analyze_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return 0
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        # Default target: the installed repro package itself.
        import repro

        paths = [Path(repro.__file__).parent]
    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
    report = analyze_paths(paths, rule_ids=rule_ids)
    if args.format == "json":
        print(dumps(report.to_dict()))
    else:
        for line in report.render_lines():
            print(line)
    return 0 if report.ok else 1


def cmd_privacy(args) -> int:
    database = _load_database(args.database)
    tree = _load_tree(args.tree)
    example = _build_example(args, database)
    if args.abstraction:
        with open(args.abstraction) as handle:
            function = abstraction_from_json(json.load(handle), tree, example)
    else:
        function = AbstractionFunction.identity(tree, example)
    abstracted = function.apply(example)
    computer = PrivacyComputer(tree, database.registry)
    privacy = computer.privacy(abstracted)
    print(render_kexample(abstracted))
    print(f"privacy: {privacy}")
    return 0


def cmd_attack(args) -> int:
    database = _load_database(args.database)
    tree = _load_tree(args.tree)
    example = _build_example(args, database)
    if args.abstraction:
        with open(args.abstraction) as handle:
            function = abstraction_from_json(json.load(handle), tree, example)
    else:
        function = AbstractionFunction.identity(tree, example)
    abstracted = function.apply(example)
    computer = PrivacyComputer(tree, database.registry)
    cims = sorted(computer.cim_queries(abstracted), key=repr)
    print(f"{len(cims)} CIM quer{'y' if len(cims) == 1 else 'ies'}:")
    for query in cims:
        print(f"  {render_query(query)}")
    return 0


def cmd_engines(args) -> int:
    availability = available_engines()
    for name in ENGINE_NAMES:
        marker = "available" if availability[name] else (
            "unavailable (pip install duckdb)" if name == "duckdb"
            else "unavailable"
        )
        default = "  (default)" if name == DEFAULT_ENGINE else ""
        print(f"{name:<8}{marker}{default}")
    return 0


def cmd_evaluate(args) -> int:
    database = _load_database(args.database)
    query = parse_cq(args.query)
    results = get_engine(args.engine).evaluate(query, database)
    for output, provenance in sorted(results.items(), key=lambda kv: repr(kv[0])):
        print(f"{output} <- {provenance}")
    print(f"({len(results)} rows)")
    return 0


def cmd_show_tree(args) -> int:
    tree = _load_tree(args.tree)
    print(render_tree(tree, max_children=args.max_children))
    return 0


def cmd_trace_show(args) -> int:
    from repro.obs.trace import format_record, read_trace

    records = read_trace(args.file)
    shown = records if args.limit is None else records[:args.limit]
    for index, record in enumerate(shown):
        if index:
            print()
        print(format_record(record))
    if len(shown) < len(records):
        print(f"\n({len(records) - len(shown)} more record"
              f"{'s' if len(records) - len(shown) != 1 else ''}; "
              f"raise --limit to see them)")
    return 0


def cmd_trace_summary(args) -> int:
    from repro.obs.trace import format_summary, read_trace, summarize

    print(format_summary(summarize(read_trace(args.file))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="provenance abstraction for query privacy"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_trace_flags(sp) -> None:
        sp.add_argument("--trace", action="store_true",
                        help="record per-phase spans for each job "
                             "(bit-neutral: result hashes are unchanged)")
        sp.add_argument("--trace-file", default=None,
                        help="append repro-trace-v1 JSONL records here "
                             "(implies --trace); read back with "
                             "'repro trace summary'")

    p_opt = sub.add_parser("optimize", help="find the optimal abstraction")
    _add_common(p_opt)
    p_opt.add_argument("--threshold", type=int, required=True)
    p_opt.add_argument("--max-candidates", type=int, default=None)
    p_opt.add_argument("--max-seconds", type=float, default=None)
    p_opt.add_argument("--output", help="write the result JSON here")
    _add_trace_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_batch = sub.add_parser(
        "batch-optimize",
        help="run many optimizer jobs in parallel over the experiment workloads",
    )
    p_batch.add_argument(
        "--queries", nargs="+", default=["TPCH-Q3", "TPCH-Q10", "IMDB-Q1"],
        help="workload query names (see repro.datasets.queries)",
    )
    p_batch.add_argument(
        "--thresholds", nargs="+", type=int, default=[2],
        help="privacy thresholds; jobs are the queries x thresholds product",
    )
    p_batch.add_argument(
        "--jobs", help="JSON file with a list of job specs, named-workload "
                       "or inline-context (overrides --queries/--thresholds)",
    )
    p_batch.add_argument("--rows", type=int, default=None,
                         help="K-example rows per job (with --jobs: the "
                              "default for specs without n_rows)")
    p_batch.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = one per core, 1 = serial)",
    )
    p_batch.add_argument("--profile", choices=("fast", "default"),
                         default="fast", help="experiment settings profile")
    p_batch.add_argument("--max-candidates", type=int, default=None)
    p_batch.add_argument("--max-seconds", type=float, default=None)
    p_batch.add_argument("--output", help="write per-job results JSON here")
    p_batch.add_argument("--store", default=None,
                         help="persistent result-cache file: identical jobs "
                              "are served from it instead of re-searching, "
                              "across runs (see repro.store)")
    _add_engine_flag(p_batch)
    _add_trace_flags(p_batch)
    p_batch.set_defaults(func=cmd_batch_optimize)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived job service over repro.batch",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="listen port (0 = pick a free port)")
    p_serve.add_argument(
        "--workers", type=_positive_int, default=1,
        help="concurrent job workers (>= 1); with --executor thread "
             "they share one in-process cache, so 1 (the default) "
             "maximizes warm-cache reuse",
    )
    from repro.service.state import EXECUTOR_NAMES

    p_serve.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=EXECUTOR_NAMES[0],
        help="execution tier: 'thread' runs searches in-process "
             "(shared warm caches, GIL-capped at ~1 core), 'process' "
             "fans them out to a pool of --workers processes that "
             "share the --store result cache (scales to all cores)",
    )
    p_serve.add_argument(
        "--lease-seconds", type=float, default=15.0,
        help="with --executor remote: how long a fleet worker may go "
             "without a heartbeat before its job is requeued",
    )
    p_serve.add_argument(
        "--lease-attempts", type=_positive_int, default=3,
        help="with --executor remote: how many leases a job may lose "
             "before it fails visibly",
    )
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="pending-job bound; submissions beyond it "
                              "are rejected with HTTP 503")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         help="per-job wall-clock cap in seconds (clamps "
                              "each job's max_seconds budget)")
    p_serve.add_argument("--profile", choices=("fast", "default"),
                         default="fast", help="experiment settings profile")
    p_serve.add_argument("--max-candidates", type=int, default=None)
    p_serve.add_argument("--max-seconds", type=float, default=None)
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request logging")
    p_serve.add_argument("--store", default=None,
                         help="SQLite job-store file: jobs and results "
                              "persist across restarts, and identical jobs "
                              "are answered from the result cache")
    _add_engine_flag(p_serve)
    _add_trace_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit jobs to a running job service",
    )
    p_submit.add_argument("--server", required=True,
                          help="service base URL, e.g. http://127.0.0.1:8765")
    p_submit.add_argument("--jobs",
                          help="JSON file with a list of job specs "
                               "(named-workload or inline-context)")
    p_submit.add_argument("--database",
                          help="CSV directory or JSON file (inline job)")
    p_submit.add_argument("--tree", help="tree JSON file (inline job)")
    p_submit.add_argument("--query", help="datalog CQ text (inline job)")
    p_submit.add_argument("--kexample",
                          help="K-example JSON file (inline job)")
    p_submit.add_argument("--threshold", type=int, help="privacy threshold "
                                                        "(inline job)")
    p_submit.add_argument("--rows", type=int, default=2,
                          help="K-example rows when building from a query")
    p_submit.add_argument("--tag", default="")
    p_submit.add_argument("--max-candidates", type=int, default=None)
    p_submit.add_argument("--max-seconds", type=float, default=None)
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until every job finishes")
    p_submit.add_argument("--timeout", type=float, default=300.0)
    p_submit.add_argument("--poll-interval", type=float, default=0.2)
    p_submit.add_argument("--output",
                          help="with --wait: write result payloads here")
    p_submit.set_defaults(func=cmd_submit)

    p_worker = sub.add_parser(
        "worker",
        help="join a remote-executor service's fleet and run leased jobs",
    )
    p_worker.add_argument("--server", required=True,
                          help="service base URL, e.g. http://host:8765")
    p_worker.add_argument("--id", default=None,
                          help="worker id (default: hostname-pid); shows "
                               "up in /v1/stats and per-worker metrics")
    p_worker.add_argument("--store", default=None,
                          help="shared result-cache file reachable from "
                               "THIS host (consulted before searching, "
                               "fresh results persisted)")
    p_worker.add_argument("--poll-interval", type=float, default=0.5,
                          help="seconds between claim attempts while idle")
    p_worker.add_argument("--max-jobs", type=int, default=None,
                          help="exit after this many jobs (default: run "
                               "until killed)")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          help="exit after this many consecutive idle "
                               "seconds (default: keep polling)")
    p_worker.add_argument("--startup-timeout", type=float, default=30.0,
                          help="how long to wait for the service to become "
                               "healthy before giving up")
    p_worker.add_argument("--quiet", action="store_true",
                          help="suppress per-job log lines")
    p_worker.set_defaults(func=cmd_worker)

    p_poll = sub.add_parser(
        "poll", help="poll job status/results or service stats",
    )
    p_poll.add_argument("--server", required=True)
    p_poll.add_argument("--id", nargs="+", default=[], help="job ids")
    p_poll.add_argument("--stats", action="store_true",
                        help="print the service stats instead")
    p_poll.add_argument("--wait", action="store_true",
                        help="block until each job is terminal")
    p_poll.add_argument("--timeout", type=float, default=300.0)
    p_poll.add_argument("--poll-interval", type=float, default=0.2)
    p_poll.set_defaults(func=cmd_poll)

    p_jobs = sub.add_parser(
        "jobs", help="inspect or prune a persistent job store",
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    p_jlist = jobs_sub.add_parser("list", help="list persisted job records")
    p_jlist.add_argument("--store", required=True, help="job-store file")
    p_jlist.add_argument("--state", default=None,
                         help="only this state (queued/running/done/"
                              "failed/cancelled)")
    p_jlist.set_defaults(func=cmd_jobs_list)

    p_jshow = jobs_sub.add_parser(
        "show", help="one job's record and cached result payload",
    )
    p_jshow.add_argument("id", help="job id, e.g. job-000001")
    p_jshow.add_argument("--store", required=True, help="job-store file")
    p_jshow.set_defaults(func=cmd_jobs_show)

    p_jgc = jobs_sub.add_parser(
        "gc", help="prune old results and terminal job records",
    )
    p_jgc.add_argument("--store", required=True, help="job-store file")
    p_jgc.add_argument("--keep-results", type=int, default=None,
                       help="keep only the N most-recently-used results")
    p_jgc.add_argument("--keep-days", type=float, default=None,
                       help="drop results unused (and terminal job records "
                            "finished) more than N days ago")
    p_jgc.add_argument("--drop-jobs", action="store_true",
                       help="also drop every done/failed/cancelled job "
                            "record (cached results stay)")
    p_jgc.set_defaults(func=cmd_jobs_gc)

    p_scen = sub.add_parser(
        "scenarios",
        help="run / list / diff the seeded scenario matrix "
             "(BENCH_scenarios.json snapshots)",
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)

    def _add_matrix_flags(sp) -> None:
        sp.add_argument("--preset", choices=("smoke", "full"),
                        default="smoke", help="built-in scenario matrix")
        sp.add_argument("--matrix",
                        help="JSON file with matrix axes (overrides "
                             "--preset; see repro.scenarios.ScenarioMatrix)")

    p_srun = scen_sub.add_parser(
        "run", help="materialize and run every cell, write a snapshot",
    )
    _add_matrix_flags(p_srun)
    p_srun.add_argument("--seed", type=int, default=7,
                        help="generator seed; the whole matrix is a pure "
                             "function of (matrix, seed)")
    p_srun.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=EXECUTOR_NAMES[0],
        help="job-service execution tier the cells fan out on",
    )
    p_srun.add_argument("--workers", type=_positive_int, default=2,
                        help="concurrent workers on the chosen tier")
    p_srun.add_argument("--store", default=None,
                        help="persistent result-cache file: repeated cells "
                             "(this run or any earlier one) are served "
                             "from it instead of re-searching")
    p_srun.add_argument("--fleet-host", default="127.0.0.1",
                        help="with --executor remote: interface to serve "
                             "the fleet endpoints on")
    p_srun.add_argument("--fleet-port", type=int, default=None,
                        help="with --executor remote (required there): "
                             "port to serve the v1 protocol on so "
                             "`repro worker` processes can claim cells")
    p_srun.add_argument("--lease-seconds", type=float, default=15.0,
                        help="with --executor remote: lease length before "
                             "a silent worker's cell is requeued")
    p_srun.add_argument("--output", default="BENCH_scenarios.json",
                        help="snapshot file to write")
    _add_engine_flag(p_srun)
    _add_trace_flags(p_srun)
    p_srun.set_defaults(func=cmd_scenarios_run)

    p_slist = scen_sub.add_parser(
        "list", help="print the matrix's cell ids without running anything",
    )
    _add_matrix_flags(p_slist)
    p_slist.set_defaults(func=cmd_scenarios_list)

    p_sdiff = scen_sub.add_parser(
        "diff", help="compare two snapshots: result-hash drift is fatal, "
                     "timing moves are reported",
    )
    p_sdiff.add_argument("old", help="baseline snapshot JSON")
    p_sdiff.add_argument("new", help="candidate snapshot JSON")
    p_sdiff.add_argument("--tolerance", type=float, default=1.5,
                         help="per-cell slowdown ratio worth reporting")
    p_sdiff.add_argument("--max-regression", type=float, default=None,
                         help="fail (exit 1) when any cell is slower than "
                              "this ratio; default: report only")
    p_sdiff.set_defaults(func=cmd_scenarios_diff)

    p_lint = sub.add_parser(
        "lint",
        help="run the invariant-enforcing static-analysis suite "
             "(repro.analysis); exit 1 on findings",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze "
             "(default: the installed repro package)",
    )
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    p_lint.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all); "
             "unknown ids exit 2",
    )
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.set_defaults(func=cmd_lint)

    p_priv = sub.add_parser("privacy", help="privacy of a (possibly abstracted) K-example")
    _add_common(p_priv)
    p_priv.add_argument("--abstraction", help="abstraction JSON file")
    p_priv.set_defaults(func=cmd_privacy)

    p_att = sub.add_parser("attack", help="list the recoverable CIM queries")
    _add_common(p_att)
    p_att.add_argument("--abstraction", help="abstraction JSON file")
    p_att.set_defaults(func=cmd_attack)

    p_eval = sub.add_parser("evaluate", help="run a query with provenance")
    p_eval.add_argument("--database", required=True)
    p_eval.add_argument("--query", required=True)
    _add_engine_flag(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_eng = sub.add_parser(
        "engines",
        help="list the relational evaluation engines with availability",
    )
    p_eng.set_defaults(func=cmd_engines)

    p_trace = sub.add_parser(
        "trace",
        help="inspect repro-trace-v1 JSONL files written by --trace-file",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tshow = trace_sub.add_parser(
        "show", help="print each traced job as an indented span tree",
    )
    p_tshow.add_argument("file", help="repro-trace-v1 JSONL file")
    p_tshow.add_argument("--limit", type=_positive_int, default=None,
                         help="show at most this many records")
    p_tshow.set_defaults(func=cmd_trace_show)
    p_tsum = trace_sub.add_parser(
        "summary", help="fold every record into a per-phase totals table",
    )
    p_tsum.add_argument("file", help="repro-trace-v1 JSONL file")
    p_tsum.set_defaults(func=cmd_trace_summary)

    p_tree = sub.add_parser("show-tree", help="pretty-print a tree JSON file")
    p_tree.add_argument("--tree", required=True)
    p_tree.add_argument("--max-children", type=int, default=12)
    p_tree.set_defaults(func=cmd_show_tree)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
