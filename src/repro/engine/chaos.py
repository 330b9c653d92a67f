"""Deterministic fault injection for supervised :class:`ProcessEngine` fleets.

Crash-recovery code is only trustworthy if its failure windows can be hit *on
purpose*.  This module provides small, deterministic injectors that kill a
worker process at a chosen point in the dataflow — the Nth dispatched
sub-batch, the middle of a checkpoint write, the middle of a WAL replay — and
that damage on-disk artefacts (checkpoint segments, journal tails) in the
exact ways the recovery path claims to detect.  The chaos tests and the CI
``chaos`` job are built on these; they are equally usable from a REPL to
reproduce a failure by hand.

Every injector is synchronous and deterministic: no random fault schedules,
no background threads.  The kill-at-point injectors are context managers that
wrap one coordinator method on the *instance* (never the class), so they
compose with any fleet shape and never leak across engines::

    with chaos.kill_at_batch(engine, nth=5, worker=1):
        engine.ingest(records)          # worker 1 dies at its 5th sub-batch
    chaos.wait_until_healthy(engine)    # supervisor restores + replays

The file-damage injectors (:func:`corrupt_segment`, :func:`torn_wal_tail`,
:func:`forge_wal_record`) operate on paths, not engines, and model the three
distinct corruption classes the recovery path distinguishes: a segment whose
digest no longer matches (→ :class:`~repro.exceptions.CheckpointError`), a
journal append torn mid-write (→ truncated with a warning, never decoded),
and a checksum-valid journal record the codec rejects
(→ :class:`~repro.exceptions.TransportError` with byte-offset context).
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..exceptions import ConfigurationError
from .wal import frame_record, shard_wal_name

__all__ = [
    "kill_worker",
    "kill_at_batch",
    "kill_at_checkpoint",
    "kill_during_replay",
    "corrupt_segment",
    "torn_wal_tail",
    "forge_wal_record",
    "wait_until_healthy",
]


def kill_worker(engine: Any, index: int, *, join_timeout: float = 10.0) -> None:
    """SIGKILL one worker process *now* and wait for the OS to reap it.

    The most blunt injector: equivalent to an OOM kill landing between
    batches.  The supervisor notices within its poll interval.
    """
    process = engine._processes[index]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=join_timeout)
    if process.is_alive():  # pragma: no cover - kernel refused a SIGKILL
        raise RuntimeError(f"worker {index} (pid {process.pid}) survived SIGKILL")


@contextmanager
def kill_at_batch(engine: Any, nth: int, *, worker: int = 0) -> Iterator[None]:
    """Kill ``worker`` at the moment the coordinator routes its ``nth``
    sub-batch to it (1-based), *before* the journal append for that batch.

    This lands the death in ingest's most delicate window: the killed batch
    itself is parked (or journalled and abandoned) by the dispatch path, so
    after recovery the stream must still be bit-identical.  Fires once.
    """
    if nth < 1:
        raise ConfigurationError(f"nth must be >= 1, got {nth}")
    original = engine._dispatch
    state = {"count": 0, "fired": False}

    def chaotic_dispatch(shard: int, batch: Any) -> None:
        if not state["fired"] and engine._worker_of(shard) == worker:
            state["count"] += 1
            if state["count"] >= nth:
                state["fired"] = True
                kill_worker(engine, worker)
        original(shard, batch)

    engine._dispatch = chaotic_dispatch
    try:
        yield
    finally:
        del engine._dispatch


@contextmanager
def kill_at_checkpoint(engine: Any, *, worker: int = 0) -> Iterator[None]:
    """Kill ``worker`` at the start of the next checkpoint's segment-write
    fan-out — after the manifest plan is fixed, before any worker persists.

    The checkpoint must fail loudly (it cannot cover the dead worker's
    shards), the previous manifest must remain the committed one, and the
    journal must NOT be truncated — a retry after recovery succeeds.  Fires
    once.
    """
    original = engine._checkpoint_segments
    state = {"fired": False}

    def chaotic_segments(path: str, plan: Any) -> Any:
        if not state["fired"]:
            state["fired"] = True
            kill_worker(engine, worker)
        return original(path, plan)

    engine._checkpoint_segments = chaotic_segments
    try:
        yield
    finally:
        del engine._checkpoint_segments


@contextmanager
def kill_during_replay(engine: Any, *, nth: int = 1) -> Iterator[None]:
    """Kill the *replacement* worker after the supervisor has fed it ``nth``
    journal records (1-based) — a double fault, mid-recovery.

    The restart attempt must fail cleanly, burn one unit of the
    :class:`RestartPolicy` budget, and the next attempt must replay the whole
    tail again from the checkpoint baseline (replay is idempotent only
    because each attempt starts from restored state).  Fires once.
    """
    if nth < 1:
        raise ConfigurationError(f"nth must be >= 1, got {nth}")
    original = engine._recovery_put
    state = {"count": 0, "fired": False}

    def chaotic_put(process: Any, inbox: Any, message: Any) -> None:
        original(process, inbox, message)
        if not state["fired"] and message and message[0] == "apply":
            state["count"] += 1
            if state["count"] >= nth:
                state["fired"] = True
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=10.0)

    engine._recovery_put = chaotic_put
    try:
        yield
    finally:
        del engine._recovery_put


def corrupt_segment(path: str, shard: int) -> str:
    """Flip one byte in the middle of the checkpoint segment holding
    ``shard``; returns the damaged file's path.

    Any later restore touching that shard must fail with a digest-mismatch
    :class:`~repro.exceptions.CheckpointError` — never load the bytes.
    """
    manifest_path = os.path.join(path, "MANIFEST.json")
    with open(manifest_path, "r", encoding="utf-8") as reader:
        manifest = json.load(reader)
    for entry in manifest.get("segments", []):
        if isinstance(entry, dict) and int(entry.get("shard", -1)) == shard:
            segment_path = os.path.join(path, str(entry["file"]))
            with open(segment_path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    raise ConfigurationError(f"{segment_path} is empty")
                handle.seek(size // 2)
                byte = handle.read(1)
                handle.seek(size // 2)
                handle.write(bytes([byte[0] ^ 0xFF]))
            return segment_path
    raise ConfigurationError(f"{manifest_path} has no segment for shard {shard}")


def torn_wal_tail(wal_dir: str, shard: int, *, drop_bytes: int = 3) -> int:
    """Tear the final journal record for ``shard`` by chopping ``drop_bytes``
    bytes off the file — a crash mid-``write``.  Returns the new file size.

    Replay must truncate the partial frame with a warning and keep every
    record before it; it must never hand the torn bytes to the codec.
    """
    path = os.path.join(wal_dir, shard_wal_name(shard))
    size = os.path.getsize(path)
    if drop_bytes < 1 or drop_bytes >= size:
        raise ConfigurationError(
            f"drop_bytes must be in [1, {size - 1}] for {path}, got {drop_bytes}"
        )
    os.truncate(path, size - drop_bytes)
    return size - drop_bytes


def forge_wal_record(wal_dir: str, shard: int, payload: bytes = b"not a batch") -> str:
    """Append a checksum-*valid* frame whose payload is not ``encode_batch``
    output; returns the journal path.

    This is the corruption torn-tail handling must NOT swallow: the frame is
    structurally intact, so replay must surface a
    :class:`~repro.exceptions.TransportError` naming the file and offset
    instead of truncating or applying garbage.
    """
    path = os.path.join(wal_dir, shard_wal_name(shard))
    with open(path, "ab") as handle:
        handle.write(frame_record(payload))
    return path


def wait_until_healthy(engine: Any, *, timeout: float = 30.0) -> None:
    """Block until the supervisor reports the fleet fully recovered (every
    worker alive, nothing mid-recovery), or raise after ``timeout`` seconds.

    Purely observational — polls :meth:`ProcessEngine.liveness`, which takes
    no locks, so waiting never perturbs the recovery being waited on.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        live = engine.liveness()
        if not live["degraded"] and all(w["alive"] for w in live["workers"]):
            return
        time.sleep(0.02)
    raise TimeoutError(
        f"fleet did not recover within {timeout:.1f}s: {engine.liveness()!r}"
    )
