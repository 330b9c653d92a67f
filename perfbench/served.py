"""The served front door, for the traced run's probe: ``swsample serve`` as
a subprocess, driven only through its command-line flags and HTTP routes.

This module never imports the program.  It launches a daemon with
``python -m repro.cli serve`` and the flags of the product's deployment
(process executor, WAL, supervision), sends JSONL bodies to ``POST
/v1/<tenant>/ingest`` and query batches to ``POST /v1/<tenant>/query``.
Every daemon it starts is stopped on every exit path — SIGTERM, then
SIGKILL after a timeout — and its worker processes (listed by
``/healthz``) are killed and waited for.  The fleet runs the default
columnar transport, which creates no shared-memory segments, so the run's
scratch directory is all there is to remove.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import BATCH, Inputs, Workload, jsonl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TENANT = "default"
#: Seconds a daemon gets to drain and exit after SIGTERM.
STOP_TIMEOUT = 60.0
#: Seconds a daemon gets to write its ready file.
START_TIMEOUT = 60.0

#: Every daemon this process started and has not stopped yet, so that any
#: exit path of a run can stop them all.
_started: List["Daemon"] = []


def fleet_workers() -> int:
    """One coordinator plus nproc - 1 workers keeps busy processes at nproc
    while the client only waits."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie has ended: only its parent can reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def leftover_processes(marker: str) -> List[int]:
    """Live ``swsample serve`` daemons and their forked
    ``swsample-shard-worker`` processes whose command line names
    ``marker`` (they all run with paths under the scratch root)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro.cli" not in argv or not any(marker.encode() in arg for arg in argv):
            continue
        if _alive(int(name)):
            pids.append(int(name))
    return pids


def _kill_and_wait(pids: Sequence[int], timeout: float = 10.0) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)


def stop_all() -> None:
    """Stop every daemon this process started and has not stopped yet."""
    while _started:
        _started.pop().stop()


def http(port: int, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    """One request on a fresh connection (the daemon closes after each
    response); returns ``(status, body)``."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=120) as connection:
        connection.sendall(head + body)
        chunks = []
        while True:
            chunk = connection.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    header, _, payload = response.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload


class Daemon:
    """One ``swsample serve`` process with the workload's flags."""

    def __init__(self, workload: Workload, seed: int, tmp: str) -> None:
        self.ready_file = os.path.join(tmp, "ready.json")
        flags = [
            "serve", "--window", workload.window, "-k", str(workload.k),
            "--shards", str(workload.shards), "--workers", str(fleet_workers()),
            "--executor", "process", "--wal-dir", os.path.join(tmp, "daemon-wal"), "--supervise",
            "--port", "0", "--ready-file", self.ready_file, "--seed", str(seed),
        ]
        if workload.window == "sequence":
            flags += ["--n", str(workload.n)]
        else:
            flags += ["--t0", repr(workload.t0)]
        if workload.max_keys_per_shard is not None:
            flags += ["--max-keys-per-shard", str(workload.max_keys_per_shard)]
        self.command = [sys.executable, "-m", "repro.cli", *flags]
        self.log_path = os.path.join(tmp, "daemon.log")
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.workers: List[int] = []

    def start(self) -> None:
        """Launch and wait for the ready file."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command, cwd=ROOT, env=environment, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        _started.append(self)
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                with open(self.ready_file) as handle:
                    self.port = json.load(handle)["http_port"]
                break
            except (FileNotFoundError, ValueError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}: {self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon not ready after {START_TIMEOUT}s")
            time.sleep(0.002)
        self.workers = self.worker_pids()

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-800:].decode(errors="replace")
        except OSError:
            return ""

    def worker_pids(self) -> List[int]:
        status, payload = http(self.port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        liveness = json.loads(payload)["tenants"][TENANT]["liveness"]
        return [worker["pid"] for worker in liveness["workers"]]

    def post(self, action: str, body: bytes = b"") -> Tuple[int, bytes]:
        return http(self.port, "POST", f"/v1/{TENANT}/{action}", body)

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` samples of this tenant, by metric name."""
        status, payload = http(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        samples: Dict[str, float] = {}
        for line in payload.decode().splitlines():
            if line.startswith("#") or f'tenant="{TENANT}"' not in line:
                continue
            sample, _, value = line.rpartition(" ")
            name = sample.split("{", 1)[0]
            samples[name] = samples.get(name, 0.0) + float(value)
        return samples

    def stop(self) -> None:
        """SIGTERM (drain and exit), SIGKILL after a timeout, then kill and
        wait for the workers."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        _kill_and_wait([pid for pid in self.workers if _alive(pid)])
        _kill_and_wait(leftover_processes(self.ready_file))
        if self in _started:
            _started.remove(self)
        self.process = None


def normalise(ops: Sequence[Tuple[Any, ...]], status: int, payload: bytes) -> List[Tuple[str, Any]]:
    """A ``/query`` response in the oracle's shape; a non-2xx response fails
    every op of the batch."""
    if status != 200:
        return [("error", f"HTTP {status}: {payload[:200]!r}")] * len(ops)
    results = json.loads(payload)["results"]
    normalised: List[Tuple[str, Any]] = []
    for op, result in zip(ops, results):
        if not result.get("ok"):
            normalised.append(("error", f"{result.get('error')}: {result.get('message')}"))
        elif op[0] == "sample":
            normalised.append(("ok", [(e["value"], e["index"], e["timestamp"]) for e in result["sample"]]))
        else:
            normalised.append(("ok", [(h["key"], h["arrivals"]) for h in result["hottest"]]))
    return normalised


def start_and_fill(daemon: Daemon, inputs: Inputs, problems: List[str]) -> None:
    """Launch, send the warm fill, and wait until it is applied (the
    ``stats`` op flushes first)."""
    daemon.start()
    warm = inputs.warm()
    for start in range(0, len(warm), BATCH):
        status, payload = daemon.post("ingest", jsonl(warm[start : start + BATCH]))
        if status != 200:
            problems.append(f"warm fill answered {status}: {payload[:200]!r}")
    status, payload = daemon.post("query", json.dumps({"ops": [{"op": "stats"}]}).encode())
    if status != 200:
        problems.append(f"stats query answered {status}: {payload[:200]!r}")


@dataclass
class Phase:
    """What one closed loop over a daemon sent and saw."""

    #: ``(start, end, client thread-CPU seconds, status)`` of every ingest POST.
    posts: List[Tuple[float, float, float, int]] = field(default_factory=list)
    #: ``(start, end, client thread-CPU seconds)`` of every query POST, and
    #: its raw response.
    queries: List[Tuple[float, float, float]] = field(default_factory=list)
    responses: List[Tuple[int, bytes]] = field(default_factory=list)


def closed_loop(daemon: Daemon, bodies: Sequence[bytes], query_bodies: Sequence[bytes],
                problems: List[str]) -> Phase:
    """The closed loop: each ingest body, then its query batch."""
    perf, cpu = time.perf_counter, time.thread_time
    phase = Phase()
    for body, query in zip(bodies, query_bodies):
        spent, posted = cpu(), perf()
        status, payload = daemon.post("ingest", body)
        phase.posts.append((posted, perf(), cpu() - spent, status))
        if status != 200:
            problems.append(f"ingest answered {status}: {payload[:200]!r}")
        spent, asked = cpu(), perf()
        phase.responses.append(daemon.post("query", query))
        phase.queries.append((asked, perf(), cpu() - spent))
    return phase
