"""The analyzer's own acceptance gate: src/repro must lint clean.

This runs the full rule suite over the installed package in-process —
the same check CI's static-analysis job runs via `repro lint` — so a
determinism leak, payload drift, lock violation, swallowed error, or
seed-default regression fails tier-1 immediately, with the findings in
the assertion message.
"""

from pathlib import Path

import repro
from repro.analysis import analyze_paths
from repro.analysis.engine import build_project, collect_files
from repro.analysis.suppress import scan_suppressions

PACKAGE = Path(repro.__file__).parent


def test_package_lints_clean():
    report = analyze_paths([PACKAGE])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found violations in src/repro:\n{rendered}"


def test_self_lint_covers_the_whole_package():
    report = analyze_paths([PACKAGE])
    assert report.files_checked >= 80
    assert report.rules_run == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        "REP007",
    ]


def test_wall_clock_modules_stay_out_of_rep001_scope():
    # The job service, the batch runner and the store's SQLite layer
    # stamp wall-clock times on purpose (record timestamps, leases, gc).
    # None of them may feed a content hash: an import that pulls one
    # into REP001's closure fails here instead of inviting suppressions.
    project = build_project(collect_files([PACKAGE]))
    pulled_in = sorted(
        name for name in project.hash_feeding
        if name.startswith("repro.service")
        or name in ("repro.batch.optimizer", "repro.store.cache",
                    "repro.store.jobstore")
    )
    assert pulled_in == []


def test_no_payload_or_lock_suppressions_in_the_tree():
    # Payload parity and lock discipline must hold without escape
    # hatches anywhere in the package.
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        index = scan_suppressions(path.read_text())
        for (line, rule) in index.by_line:
            if rule in ("REP002", "REP003"):
                offenders.append(f"{path}:{line}: allow[{rule}]")
    assert not offenders, "\n".join(offenders)
