"""The ``repro serve`` subprocess the service workload drives, and the
plain-HTTP calls the benchmark makes to it.

The server runs as ``python -m repro.cli serve`` or, for a traced run,
under ``serve_traced.py``, which installs the layer wrappers first.  Either
way it sees only the HTTP requests the benchmark sends.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HOST = "127.0.0.1"


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve --executor thread --workers 1`` process over a
    fresh store file in ``workdir``.

    ``traced_out`` names a path prefix: the server then runs under
    ``serve_traced.py`` and writes ``<prefix>.layers.json`` and
    ``<prefix>.spans.jsonl.gz`` when it is stopped.
    """

    def __init__(self, root: Path, workdir: Path,
                 traced_out: Optional[Path] = None):
        self.root = root
        self.workdir = workdir
        self.traced_out = traced_out
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self, timeout: float = 60.0) -> "Server":
        self.workdir.mkdir(parents=True, exist_ok=True)
        store = self.workdir / "store.sqlite"
        for leftover in self.workdir.glob("store.sqlite*"):
            leftover.unlink()
        self.port = _free_port()
        serve_args = [
            "serve", "--host", HOST, "--port", str(self.port),
            "--store", str(store), "--executor", "thread", "--workers", "1",
            "--queue-size", "512", "--quiet",
        ]
        if self.traced_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                str(self.traced_out), *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(self.workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=str(self.root), env=env,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}; "
                    f"see {self.workdir / 'server.log'}"
                )
            try:
                if request(self.port, "GET", "/v1/healthz")[0] == 200:
                    return self
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not become healthy in time")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("no VmHWM in /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """Terminate the server and wait for it.

        SIGTERM, not SIGINT: a process started in the background may
        inherit an ignored SIGINT.  The traced server turns SIGTERM into a
        clean shutdown so it can write its layer totals.
        """
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            timeout: float = 60.0) -> tuple[int, bytes]:
    """One HTTP request on a fresh connection: (status, body)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str):
    status, body = request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')


def parse_metrics(text: str) -> dict[tuple[str, str], float]:
    """Prometheus text exposition -> {(metric name, label text): value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(
                match.group(3))
    return samples


def metric_sum(samples: dict, name: str, label: str = "") -> float:
    """Sum of every sample of ``name`` whose label text contains ``label``."""
    return sum(
        value for (sample, labels), value in samples.items()
        if sample == name and label in labels
    )
