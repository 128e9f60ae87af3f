"""The sanctioned steady clock.

Every ``perf_counter``/``monotonic`` read in the instrumented packages
goes through this module (lint rule REP007 ``obs-discipline``).  The
names are direct aliases — zero wrapper overhead — but funnelling them
through one module keeps the determinism story auditable: the REP001
hash-feeding closure stays wall-clock-free, and interval timing is
visibly separate from the wall-clock timestamps the job store records.

``wall()`` is *not* exported on purpose: wall-clock reads stay at the
few audited ``time.time()`` sites (job-store and service timestamps,
snapshot ``generated_at``), all outside the hash-feeding closure.
"""

import time

#: Monotonic high-resolution interval clock (seconds, float).
perf_counter = time.perf_counter

#: Monotonic high-resolution interval clock (nanoseconds, int).
perf_counter_ns = time.perf_counter_ns

#: Monotonic deadline clock (seconds, float) — suspend-safe on most
#: platforms; used for client polling deadlines and service uptime.
monotonic = time.monotonic

__all__ = ["perf_counter", "perf_counter_ns", "monotonic"]
