#!/usr/bin/env python
"""Smoke-test the multi-host worker fleet, as CI runs it.

Replays the committed 12-cell smoke matrix (seed 7) on the ``remote``
executor — the scenario driver serves the v1 wire protocol over
localhost HTTP while real ``repro worker`` *processes* claim, execute,
and deliver the cells — and asserts the fleet guarantees:

* **crash recovery** — the first worker is SIGKILLed while it holds a
  lease; the lease expires, the cell is requeued (``lease_requeues``
  and the victim's ``leases_lost`` both observable in ``/v1/stats``),
  and a second worker completes it,
* **bit-identical results** — every per-cell ``result_hash`` (and
  ``content_hash``) from the fleet run equals the thread-tier run of
  the same matrix, so crossing the wire, the worker boundary, and a
  mid-run worker death change nothing the paper's numbers depend on,
* **clean drain** — the surviving worker exits 0 on its own once the
  run is over (an unreachable service is an idle poll, not a crash).

The kill is made deterministic by staging the fleet: the victim worker
starts alone, the smoke waits until ``/v1/stats`` shows it holding an
active lease, kills it dead, waits until the service's own lease tick
has requeued the cell (the sample the requeue checks read), and only
then starts the survivor.

Run from the repo root: ``python scripts/fleet_smoke.py``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs import clock  # noqa: E402
from repro.scenarios import PRESETS, run_matrix  # noqa: E402

SEED = 7
LEASE_SECONDS = 2.0  # short lease -> fast requeue after the SIGKILL


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def ok(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def start_worker(base: str, worker_id: str, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--server", base, "--id", worker_id,
            "--poll-interval", "0.05", "--idle-exit", "5",
            "--startup-timeout", "60", "--quiet",
        ],
        env=env, cwd=REPO_ROOT,
    )


def fleet_sample(base: str):
    """The ``fleet`` section of ``/v1/stats``, or None while unreachable."""
    try:
        with urllib.request.urlopen(base + "/v1/stats", timeout=5) as resp:
            return json.loads(resp.read().decode()).get("fleet")
    except Exception:
        return None


def cell_hashes(snapshot: dict) -> dict:
    return {c["cell"]: c["result_hash"] for c in snapshot["cells"]}


def main() -> int:
    matrix = PRESETS["smoke"]

    print("== thread-tier baseline ==")
    baseline = run_matrix(matrix, seed=SEED, executor="thread", workers=2)
    print(f"baseline: {len(baseline['cells'])} cells on thread tier")

    print("== remote tier: 2 worker processes over localhost HTTP ==")
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    # The scenario driver doubles as the fleet server: run it in a
    # background thread so this (main) thread can stage the workers.
    result: dict = {}

    def drive() -> None:
        try:
            result["snapshot"] = run_matrix(
                matrix, seed=SEED, executor="remote",
                fleet_port=port, lease_seconds=LEASE_SECONDS,
            )
        except BaseException as exc:  # surfaced after join
            result["error"] = exc

    driver = threading.Thread(target=drive, name="fleet-smoke-driver")
    driver.start()

    victim = survivor = None
    requeued = last_fleet = None
    try:
        deadline = clock.monotonic() + 60
        while fleet_sample(base) is None:
            assert clock.monotonic() < deadline, "fleet server never came up"
            time.sleep(0.05)

        # Stage 1: the victim claims alone, so the SIGKILL provably
        # lands while it owns a lease on a cell in flight.
        victim = start_worker(base, "victim", env)
        while True:
            sample = fleet_sample(base)
            if sample and any(
                lease["worker"] == "victim"
                for lease in sample["leases"].values()
            ):
                break
            assert clock.monotonic() < deadline, "victim never claimed a cell"
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        print(f"killed victim (pid {victim.pid}) while it held a lease")
        # No other worker is needed for the requeue: the service
        # requeues the lease once it expires.
        deadline = clock.monotonic() + 30
        while True:
            sample = fleet_sample(base)
            if sample and sample["lease_requeues"] >= 1:
                requeued = sample
                break
            assert clock.monotonic() < deadline, "lease was never requeued"
            time.sleep(0.05)

        # Stage 2: the survivor drains the matrix, including the
        # requeued cell.
        survivor = start_worker(base, "survivor", env)
        while driver.is_alive():
            sample = fleet_sample(base)
            if sample is not None:
                last_fleet = sample
            time.sleep(0.05)
    finally:
        driver.join(timeout=300)
        for proc in (victim, survivor):
            if proc is not None and proc.poll() is None and proc is victim:
                proc.kill()

    if "error" in result:
        raise result["error"]
    snapshot = result["snapshot"]

    ok(last_fleet is not None, "fleet stats were observable during the run")
    ok(
        requeued["lease_requeues"] >= 1,
        f"dead worker's lease was requeued "
        f"(lease_requeues={requeued['lease_requeues']})",
    )
    victim_stats = requeued["workers"].get("victim", {})
    ok(
        victim_stats.get("leases_lost", 0) >= 1,
        f"victim is charged the lost lease "
        f"(leases_lost={victim_stats.get('leases_lost')})",
    )
    ok(
        last_fleet["workers"].get("survivor", {}).get("completed", 0) >= 1,
        "survivor completed cells over the wire",
    )

    ok(snapshot["executor"] == "remote", "snapshot records the remote tier")
    ok(
        {c["cell"]: c["content_hash"] for c in snapshot["cells"]}
        == {c["cell"]: c["content_hash"] for c in baseline["cells"]},
        "per-cell content hashes match the thread tier",
    )
    ok(
        cell_hashes(snapshot) == cell_hashes(baseline),
        f"all {len(baseline['cells'])} per-cell result hashes are "
        "bit-identical to the thread tier",
    )
    # Clean drain: once the run is over the service vanishes; the
    # surviving worker treats that as idle and exits 0 by itself.
    ok(survivor is not None and survivor.wait(timeout=60) == 0,
       "survivor exited 0 after draining the fleet")

    print("fleet smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
