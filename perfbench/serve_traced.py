"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py <out-prefix> serve [serve args]``
with ``src`` on ``PYTHONPATH``.  When the server stops (SIGTERM), the layer
totals go to ``<out-prefix>.layers.json`` and the spans to
``<out-prefix>.spans.jsonl.gz``.
"""

from __future__ import annotations

import json
import signal
import sys

import layers


def _interrupt(signum, frame):
    raise KeyboardInterrupt  # `repro serve` shuts down cleanly on this


def main(argv: list[str]) -> int:
    prefix, serve_args = argv[0], argv[1:]
    # Import the whole serving stack first, so every by-name import of a
    # wrapped function exists before the wrappers go in.
    import repro.batch.optimizer  # noqa: F401
    import repro.cli
    import repro.service.server  # noqa: F401

    signal.signal(signal.SIGTERM, _interrupt)
    recorder = layers.Recorder()
    code = 1
    try:
        with layers.install(recorder):
            code = repro.cli.main(serve_args)
    finally:
        with open(prefix + ".layers.json", "w") as handle:
            json.dump(recorder.totals(), handle)
        recorder.write_spans(prefix + ".spans.jsonl.gz")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
