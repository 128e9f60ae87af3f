"""Host speed, measured next to the work, so timings share one scale.

Each vCPU of the shared 2-core host the benchmark was built on runs at one
of two speeds: the same pure-Python loop takes either about 1.75 ms or
about 3.1 ms, by whether the other hardware thread of its core is busy
with another tenant's work.  The speed switches every 0.1-1 s and, in busy
hours, stays slow for minutes, so even the fastest of several repeats of
an operation can be 1.6 times slower in one run than in another.

So the benchmark times a fixed *probe unit* (:func:`unit`, pure Python,
independent of the program) on the same CPU right before and after each
operation, and reports the operation's seconds scaled by
``REFERENCE_UNIT_S / probe seconds``: seconds at the reference speed, the
fast speed of the build host.  A change to the program moves the scaled
time as it moves the real one; a change of host speed moves both the
operation and the probe, and cancels.

``python3 perfbench/speed.py <cpu> <out.json>`` runs an *idle probe*: a
process pinned to ``<cpu>`` under ``SCHED_IDLE`` that runs probe units
whenever that CPU has nothing else to do, and on SIGTERM writes
``[[unix time, unit seconds], ...]`` to ``<out.json>``.  It measures the
speed of a CPU another process (the job server) keeps busy, in the gaps
between that process's work, without taking time from it.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

#: Loop iterations of one probe unit.
UNIT_ITERATIONS = 2000
#: CPU seconds of one unit at the fast speed of the 2-core x86-64 host the
#: benchmark was built on (Python 3.11): the scale of every reported time.
REFERENCE_UNIT_S = 0.00175
#: Units in one :func:`probe`; the probe is their median.
PROBE_UNITS = 3


def _kernel(n: int) -> int:
    table: dict = {}
    seen = set()
    total = 0
    for i in range(n):
        key = (i % 97, i % 13, "x")
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i % 7, i % 11)))
        total += len(sorted((i % 5, i % 3, i % 2)))
    return total + len(table) + len(seen)


def unit() -> float:
    """CPU seconds of one probe unit on the calling thread."""
    start = time.thread_time()
    _kernel(UNIT_ITERATIONS)
    return time.thread_time() - start


def scale(probe_seconds: float) -> float:
    """The factor that turns seconds measured at a moment whose probe unit
    took ``probe_seconds`` into seconds at the reference speed."""
    return REFERENCE_UNIT_S / probe_seconds


def pin(cpu: int, pid: int = 0) -> None:
    """Keep process ``pid`` (0: this one) on ``cpu``."""
    os.sched_setaffinity(pid, {cpu})


def cpus() -> list[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def probe() -> float:
    """Seconds of one probe unit now, on this CPU (pin the process first,
    so the probe and the operation it brackets share a CPU)."""
    return statistics.median(unit() for _ in range(PROBE_UNITS))


def measure(fn: Callable, *args) -> tuple[float, object]:
    """(seconds at the reference speed, result) of ``fn(*args)``, scaled
    by the mean of a probe right before it and one right after."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    measured = time.perf_counter() - start
    return measured * scale((before + probe()) / 2), result


def window_scale(samples: list[tuple[float, float]], start: float,
                 end: float, margin: float = 0.25) -> float:
    """:func:`scale` for the unix-time interval ``[start, end]`` from idle
    probe samples: the median unit in the interval widened by ``margin``
    seconds each side (a busy CPU runs no probe, so the units come from
    the gaps around the work), else the median of all samples."""
    units = [seconds for stamp, seconds in samples
             if start - margin <= stamp <= end + margin]
    return scale(statistics.median(units or [s for _, s in samples]))


class IdleProbe:
    """The idle probe subprocess (see the module docstring) on ``cpu``."""

    def __init__(self, cpu: int, out: Path):
        self.cpu = cpu
        self.out = out
        self.proc: subprocess.Popen | None = None

    def start(self) -> "IdleProbe":
        """Start the probe and wait until it runs at idle priority."""
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.cpu),
             str(self.out)], stdout=subprocess.PIPE)
        if not self.proc.stdout.readline():
            self.stop()
            raise RuntimeError("the idle probe exited before it started")
        return self

    def stop(self) -> list[tuple[float, float]]:
        """Stop the probe, wait for it, and return its samples."""
        if self.proc is None:
            return []
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc = None
        try:
            with open(self.out) as handle:
                return [tuple(sample) for sample in json.load(handle)]
        except (OSError, ValueError):
            return []


class _Stop(Exception):
    pass


def _raise_stop(signum, frame):
    raise _Stop


def idle_probe(cpu: int, out: str) -> int:
    samples: list[tuple[float, float]] = []
    signal.signal(signal.SIGTERM, _raise_stop)
    try:
        pin(cpu)
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        print("ready", flush=True)
        parent = os.getppid()
        while True:
            seconds = unit()
            samples.append((time.time(), seconds))
            if len(samples) % 256 == 0 and os.getppid() != parent:
                break  # orphaned: the benchmark died without stopping us
    except _Stop:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        with open(out, "w") as handle:
            json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(idle_probe(int(sys.argv[1]), sys.argv[2]))
