"""Tests of the benchmark itself: wrapper removal, self-time arithmetic,
and the correctness gates.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.query.parser import parse_cq  # noqa: E402


def _queries():
    return (parse_cq("Q(x) :- R(x, y), R(y, z)"),
            parse_cq("Q(x) :- R(x, y)"))


def test_wrappers_are_removed_after_the_traced_run():
    import repro.core.privacy as privacy
    import repro.query.containment as containment
    from repro.query.ast import CQ

    originals = (containment.is_strictly_contained_in,
                 privacy.is_strictly_contained_in, CQ.__dict__["canonical"])
    narrow, wide = _queries()
    rec = layers.Recorder()
    with layers.install(rec):
        assert privacy.is_strictly_contained_in is not originals[1]
        assert layers.wrapped_bindings()
        assert containment.is_strictly_contained_in(narrow, wide)
    calls = dict(rec.totals()["calls"])
    assert calls["containment.strict"] == 1
    assert calls["containment.homomorphism"] == 2

    assert layers.wrapped_bindings() == []
    assert (containment.is_strictly_contained_in,
            privacy.is_strictly_contained_in,
            CQ.__dict__["canonical"]) == originals
    # The untraced path reaches the originals: nothing more is recorded.
    assert containment.is_strictly_contained_in(narrow, wide)
    narrow.canonical()
    assert rec.totals()["calls"] == calls


def test_self_time_on_a_synthetic_span_tree():
    # origin=0; a [0, 10] holds b [1, 3] and an aggregate c [4, 7], and
    # b holds a nested frame of its own layer, d [1.5, 2].
    times = iter([0.0, 0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 10.0])
    rec = layers.Recorder(clock=lambda: next(times))
    a = rec.enter("x.a", "x", span=True)
    b = rec.enter("y.b", "y", span=True)
    d = rec.enter("y.d", "y", span=False)
    rec.exit(d)
    rec.exit(b)
    c = rec.enter("z.c", "z", span=False)
    rec.exit(c)
    rec.exit(a)
    totals = rec.totals()
    assert totals["self_seconds"] == {
        "x.a": 10.0 - 2.0 - 3.0, "y.b": 2.0 - 0.5, "y.d": 0.5, "z.c": 3.0,
    }
    assert totals["seconds"]["x.a"] == 10.0
    # A layer's time counts its outermost frames only: d sits inside b.
    assert totals["layer_seconds"] == {"x": 10.0, "y": 2.0, "z": 3.0}
    assert totals["layer_calls"] == {"x": 1, "y": 1, "z": 1}
    assert rec.span_records() == [
        {"name": "x.a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "y.b", "start": 1.0, "end": 3.0, "parent": 0},
    ]


def test_generator_frames_time_only_the_generator():
    times = iter([0.0, 0.0, 1.0, 2.0, 5.0, 6.0, 9.0, 10.0, 12.0])
    rec = layers.Recorder(clock=lambda: next(times))

    def numbers():
        yield 1
        yield 2

    wrapped = layers._wrap_generator(
        rec, numbers, layers.Target("", "", "g.numbers", "generator"))
    outer = rec.enter("o.outer", "o", span=False)          # t=0
    assert list(wrapped()) == [1, 2]   # resumptions [1,2], [5,6], [9,10]
    rec.exit(outer)                                          # t=12
    totals = rec.totals()
    assert totals["calls"]["g.numbers"] == 1
    assert totals["items"]["g.numbers"] == 2
    assert totals["seconds"]["g.numbers"] == 3.0
    assert totals["self_seconds"]["o.outer"] == 12.0 - 3.0


def _imdb_cell():
    cells = workloads.prepare_cells(workloads.alg1_matrix())
    return next(c for c in cells if c.cell_id == "IMDB-Q1|xs|L24|H3|R2|K2")


def test_alg1_gate_accepts_the_real_result_and_rejects_a_tampered_one():
    cell = _imdb_cell()
    baseline = workloads.load_baseline(HERE.parent)
    result = workloads.search(cell, workloads.new_session(cell))
    assert result.found
    assert workloads.verify_result(cell, result, baseline) == []

    tampered = dataclasses.replace(result, loi=result.loi + 1.0)
    errors = workloads.verify_result(cell, tampered, baseline)
    assert any("result hash" in e for e in errors)
    assert any("LOI" in e for e in errors)


def _stream(payload):
    return workloads.StreamRun(
        ids=["job-1"], due_wall=[0.0], lag=[0.0], submit_s=[0.01],
        status={"job-1": {"id": "job-1", "state": "done"}},
        results={"job-1": payload}, metrics={}, window=1.0,
        peak_rss_mb=1.0, submit_errors=[],
    )


def test_stream_gate_rejects_a_tampered_payload_and_a_wrong_cache_flag():
    job = workloads.StreamJob("first", context=0, threshold=2)
    payload = {"id": "job-1", "state": "done", "found": True, "privacy": 2,
               "loi": 1.5, "seconds": 0.1, "cache_hit": False,
               "stats": {"candidates_scanned": 3, "elapsed_seconds": 0.1}}
    references = {(0, 2): workloads.comparable(
        dict(payload, seconds=9.0, stats={"candidates_scanned": 3,
                                          "elapsed_seconds": 9.0}))}
    assert workloads.check_stream(_stream(payload), [job], references) == (0, [])

    failed, errors = workloads.check_stream(
        _stream(dict(payload, loi=1.25)), [job], references)
    assert failed == 0 and "differs" in errors[0]

    failed, errors = workloads.check_stream(
        _stream(dict(payload, cache_hit=True)), [job], references)
    assert "cache_hit=True" in errors[0]


def _timed_run(finished, seconds, window, failed=()):
    ids = [f"job-{i}" for i in range(len(finished))]
    status = {
        job_id: {"state": "failed" if i in failed else "done",
                 "finished_at": 100.0 + done, "seconds": busy}
        for i, (job_id, done, busy) in enumerate(zip(ids, finished, seconds))
    }
    return workloads.StreamRun(
        ids=ids, due_wall=[100.0] * len(ids), lag=[], submit_s=[],
        status=status, results={}, metrics={}, window=window,
        peak_rss_mb=1.0, submit_errors=[],
    )


def test_job_times_take_each_jobs_lower_quartile_and_charge_failures():
    first = _timed_run([0.5, 0.25, 0.375], [0.5, 0.125, 0.25], window=8.0)
    second = _timed_run([0.125, 0.5, 0.0625], [0.25, 0.375, 0.0625],
                        window=9.0, failed={2})
    latency, seconds = workloads._job_times([first, second], [[], []])
    # Two runs: the lower quartile lies a quarter of the way up from the
    # faster run to the slower one.
    assert latency == [0.125 + 0.375 / 4, 0.25 + 0.25 / 4, 9.0]
    assert seconds == [0.25 + 0.25 / 4, 0.125 + 0.25 / 4, 0.25]


def test_stream_schedule_is_seeded_and_keeps_the_mix():
    counts = workloads.stream_counts(40)
    assert counts == {"new": 4, "repeat": 4, "first": 32}
    contexts = [
        workloads.StreamContext("TPCH-Q3", (2,), {}) if i % 8 == 7
        else workloads.StreamContext("IMDB-Q1", (2, 3, 4), {})
        for i in range(counts["first"])
    ]
    jobs = workloads.stream_schedule(contexts, counts, seed=3)
    assert jobs == workloads.stream_schedule(contexts, counts, seed=3)
    assert jobs != workloads.stream_schedule(contexts, counts, seed=4)
    kinds = [job.kind for job in jobs]
    assert {kind: kinds.count(kind) for kind in counts} == counts
    # The seed reorders contexts within a family, never the families.
    firsts = [contexts[job.context].query for job in jobs if job.kind == "first"]
    assert firsts == [context.query for context in contexts]
    sent = set()
    for job in jobs:
        key = (job.context, job.threshold)
        if job.kind == "first":
            assert job.threshold == 2
        elif job.kind == "new":
            assert (job.context, 2) in sent
        else:
            assert key in sent
        sent.add(key)
