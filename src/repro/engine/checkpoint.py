"""Incremental per-shard engine checkpoints: manifest + segment files.

A checkpoint is a **directory** holding one segment file per shard plus a
manifest:

.. code-block:: text

    engine.ckpt/
        MANIFEST.json
        shard-00000-3fb17c2a90d1.seg
        shard-00001-88aa01c0e3f2.seg
        ...

Manifest format (``MANIFEST.json``)
-----------------------------------
A JSON object (Python's ``json`` dialect: the engine clock may legitimately
be ``-Infinity`` before any timestamped record, which ``json`` round-trips):

``magic``
    Always ``"swsample-engine-checkpoint"``.
``version``
    Checkpoint layout version; this module writes ``2``.
``engine``
    The fleet's topology and policy, everything but the per-shard state:
    ``spec`` (the :meth:`~repro.engine.SamplerSpec.to_dict` recipe),
    ``shards``, ``seed``, ``max_keys_per_shard``, ``idle_ttl``,
    ``track_occurrences``, ``now`` (the logical clock) and ``format`` (the
    sampler ``state_dict`` format version, see below).  Worker count is deliberately
    **not** recorded: workers drive shards but own no state, so a manifest
    written with 4 workers loads into 1 or 16.
``segments``
    One entry per shard, in shard order: ``shard`` (index), ``file``
    (segment filename, relative to the directory), ``sha256`` (hex digest of
    the segment bytes, verified on load) and ``bytes`` (segment size).

Segment files
-------------
``shard-<index>-<digest12>.seg`` is the pickled envelope
``{"magic": "swsample-engine-segment", "version": 2, "shard": i,
"pool": <KeyedSamplerPool.state_dict()>}``.  Pickle is the right tool for
the *state* (stream values are arbitrary Python objects); the manifest stays
JSON so operators can inspect a checkpoint with ``cat``.  Only load
checkpoints a process you trust wrote — pickle can execute code.

Who writes the segments
-----------------------
Segments are written by whatever owns the shard's pool, via
:func:`write_shard_segment`: the coordinator for a serial
:class:`~repro.engine.ShardedEngine`, and the **worker processes
themselves** for :class:`~repro.engine.ProcessEngine` — each worker pickles
and atomically writes its resident shards (in parallel across workers) and
ships back only the manifest entries, which the coordinator stitches into
one ``MANIFEST.json``.  The format on disk is identical either way, which
is why a checkpoint round-trips between the two engines and across any
worker count.
A worker that dies mid-save leaves the directory loadable (the manifest
swap never happened) and the save fails loudly with
:class:`~repro.exceptions.CheckpointError`.

Incrementality
--------------
Each pool carries a monotone mutation ``generation``.  The writer remembers,
per engine instance, the generation it last wrote for each shard *to this
directory*; on the next save, shards whose generation is unchanged keep
their existing segment (the manifest re-references it) and only dirty shards
are re-pickled.  Loading seeds that memory, so a just-restored engine's
first save also rewrites nothing.  The memo is in-process only — a fresh
process saving over a directory it did not write rewrites every segment,
which is the conservative (always correct) behaviour.

Crash safety
------------
New segments are written under fresh digest-suffixed names, then the
manifest is atomically replaced (temp file + ``os.replace``), then segments
referenced by neither the new manifest nor the one it replaced are
garbage-collected (along with ``.ckpt-*`` temp files orphaned by interrupted
saves).  A crash at any point leaves the directory loadable: before the
manifest swap the old manifest still references the old (untouched)
segments; after it, the new ones.  Keeping the immediately-prior
generation's segments also protects a concurrent reader that parsed the old
manifest just before the swap; a reader racing two consecutive saves can
still observe a missing segment, so serialise loads against saves if that
window matters.

Every file lands the same way: written to a temp file that is fsynced,
renamed into place, then the directory is fsynced.  So the segments are
durable before the manifest names them, and the manifest is durable before
:func:`write_checkpoint` returns, and before a
:class:`~repro.engine.ProcessEngine` truncates its write-ahead log: a power
loss cannot lose the journal while the checkpoint that covers it is still
only in the page cache.

Sampler state format
--------------------
``format`` is :data:`~repro.core.serialization.STATE_FORMAT`, currently 2:
each sampler stores its 64-bit seed once and a ``[draw counter, coin
cursor]`` pair per random stream, a few dozen bytes per key.  Format 1
stored a 625-int Mersenne-Twister vector per stream (~19 KB per key).  Its
streams cannot be continued by the counter generator, so a format-1
checkpoint fails to load with :class:`~repro.exceptions.CheckpointError`
naming both formats — checked on the manifest, before any segment is read
or any worker is started.

Single-file checkpoints
-----------------------
The first checkpoint layout was one pickled file (version 1).  It is no
longer readable: :func:`load_checkpoint` raises
:class:`~repro.exceptions.CheckpointError` for any path that is not a
checkpoint directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.serialization import STATE_FORMAT
from ..exceptions import CheckpointError, ConfigurationError
from ..obs import get_registry, span
from .engine import ShardedEngine
from .executor import ProcessEngine
from .pool import KeyedSamplerPool
from .spec import SamplerSpec

__all__ = [
    "load_checkpoint",
    "write_checkpoint",
    "write_shard_segment",
    "checkpoint_shards",
    "load_shard_states",
    "forget_saved_segments",
    "CheckpointResult",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "SEGMENT_MAGIC",
    "MANIFEST_NAME",
]

CHECKPOINT_MAGIC = "swsample-engine-checkpoint"
SEGMENT_MAGIC = "swsample-engine-segment"
CHECKPOINT_VERSION = 2
MANIFEST_NAME = "MANIFEST.json"

#: Per-engine, in-process record of the last save: directory plus, per shard,
#: the pool generation and the segment digest written there.  Reuse requires
#: *both* to match — the generation says this engine's pool is unchanged, the
#: digest says the segment on disk is the one this engine wrote (another
#: engine saving to the same directory must not be silently trusted).  Weak
#: keys so the memo never outlives engines.
_SAVE_MEMO: "weakref.WeakKeyDictionary[ShardedEngine, Tuple[str, List[Tuple[int, str]]]]" = (
    weakref.WeakKeyDictionary()
)


def forget_saved_segments(engine: ShardedEngine, shards: Any) -> None:
    """Drop the incremental-save memo for ``shards`` of ``engine``.

    The supervisor calls this when it rebuilds a dead worker's pools: the
    replacement pools restart generation counting, so a matching generation
    number no longer proves the on-disk segment reflects the live state —
    the next save must rewrite those shards, not re-reference them.
    """
    memo = _SAVE_MEMO.get(engine)
    if memo is None:
        return
    path, entries = memo
    refreshed = [
        (-1, "") if index in set(shards) else entry
        for index, entry in enumerate(entries)
    ]
    _SAVE_MEMO[engine] = (path, refreshed)


def load_shard_states(
    path: Union[str, os.PathLike], shards: Any, expected_shards: int
) -> Dict[int, Dict[str, Any]]:
    """Load just ``shards``' pool states from the checkpoint at ``path``
    (digest-verified, same validation as a full restore) — the recovery
    path's restore primitive: a supervisor rebuilding one dead worker needs
    that worker's shard set only, not the whole fleet.

    Raises :class:`~repro.exceptions.CheckpointError` on a missing/corrupt
    manifest or segment, or when the manifest's shard count does not match
    ``expected_shards``.
    """
    path = os.path.abspath(os.fspath(path))
    wanted = set(shards)
    manifest = _read_manifest(path)
    if manifest is None:
        raise CheckpointError(f"{path} has no readable {MANIFEST_NAME}")
    meta = manifest.get("engine")
    declared = meta.get("shards") if isinstance(meta, dict) else None
    if declared != expected_shards:
        raise CheckpointError(
            f"checkpoint at {path} declares {declared!r} shards but this"
            f" engine has {expected_shards} — not the same fleet"
        )
    states: Dict[int, Dict[str, Any]] = {}
    for entry in manifest.get("segments", []):
        if isinstance(entry, dict) and int(entry.get("shard", -1)) in wanted:
            index, pool_state = _load_segment(path, entry, expected_shards)
            states[index] = pool_state
    missing = wanted - set(states)
    if missing:
        raise CheckpointError(
            f"checkpoint at {path} has no segments for shards {sorted(missing)}"
        )
    return states


@dataclass(frozen=True)
class CheckpointResult:
    """What one :func:`write_checkpoint` call did."""

    path: str
    segments_written: int
    segments_reused: int
    bytes_written: int

    @property
    def segments_total(self) -> int:
        return self.segments_written + self.segments_reused


def _atomic_write(directory: str, final_path: str, data: bytes) -> None:
    """Write ``data`` to ``final_path`` so that it survives power loss: the
    temp file is fsynced before the rename and the directory after it, so
    once this returns the new name and its bytes are both on disk."""
    descriptor, temp_path = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, final_path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def _read_manifest(path: str) -> Optional[Dict[str, Any]]:
    """The parsed manifest in ``path``, or ``None`` when absent/unreadable.

    Used by the *writer* to look up reusable segments, so damage degrades to
    a full rewrite instead of an error; the loader validates separately and
    loudly."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("magic") != CHECKPOINT_MAGIC:
        return None
    return manifest


def write_shard_segment(
    path: str, index: int, pool: KeyedSamplerPool, reuse: Optional[Tuple[int, str, Dict[str, Any]]]
) -> Dict[str, Any]:
    """Write (or reuse) shard ``index``'s segment file under ``path``.

    ``reuse`` is the save memo's candidate for this shard — a
    ``(saved_generation, saved_digest, previous_manifest_entry)`` triple, or
    ``None`` when this engine has not saved this shard here before.  The
    segment is reused only when the pool's generation still matches *and*
    the on-disk file is verifiably the one this engine wrote (digest pinned
    in the previous manifest, size intact); anything less rewrites.

    Runs wherever the pool lives: on the coordinator for a serial engine,
    **inside the owning worker process** for
    :class:`~repro.engine.ProcessEngine` — workers persist their own
    resident shards and ship back only the returned manifest entry.
    """
    generation = pool.generation
    if reuse is not None:
        saved_generation, saved_digest, entry = reuse
        segment_path = os.path.join(path, str(entry.get("file", "")))
        if (
            saved_generation == generation
            # The digest pins the on-disk segment to the bytes *this*
            # engine wrote: a foreign engine's save to the same
            # directory changes the digest and forces a rewrite here.
            and entry.get("sha256") == saved_digest
            and os.path.isfile(segment_path)
            and os.path.getsize(segment_path) == entry.get("bytes")
        ):
            return {
                "entry": dict(entry),
                "generation": generation,
                "written": False,
                "bytes": 0,
            }
    envelope = {
        "magic": SEGMENT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "shard": index,
        "pool": pool.state_dict(),
    }
    data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(data).hexdigest()
    filename = f"shard-{index:05d}-{digest[:12]}.seg"
    _atomic_write(path, os.path.join(path, filename), data)
    return {
        "entry": {"shard": index, "file": filename, "sha256": digest, "bytes": len(data)},
        "generation": generation,
        "written": True,
        "bytes": len(data),
    }


def write_checkpoint(engine: ShardedEngine, path: Union[str, os.PathLike]) -> CheckpointResult:
    """Write ``engine``'s state to the directory ``path``, incrementally.

    Creates the directory if needed.  Shards unchanged since this engine's
    previous save to the same directory keep their segment files; only dirty
    shards are re-serialised.  Returns a :class:`CheckpointResult` with the
    written/reused split (benchmarks assert on it).
    """
    path = os.path.abspath(os.fspath(path))
    if os.path.exists(path) and not os.path.isdir(path):
        raise CheckpointError(
            f"{path} exists and is not a directory — checkpoints are directories now;"
            " remove the old single-file checkpoint first"
        )
    os.makedirs(path, exist_ok=True)
    registry = getattr(engine, "_obs", None) or get_registry()
    # The guard flushes (process-backed engines) and keeps concurrent
    # producers out for the duration of the save, so the written pools and
    # the recorded generations describe one consistent fleet.
    with engine._checkpoint_guard():
        with span("checkpoint.write", registry=registry):
            result = _write_checkpoint_locked(engine, path)
        if registry.enabled:
            registry.counter("checkpoint.saves").inc()
            registry.counter("checkpoint.segments.written").inc(result.segments_written)
            registry.counter("checkpoint.segments.reused").inc(result.segments_reused)
            registry.counter("checkpoint.bytes.written").inc(result.bytes_written)
            if result.segments_total:
                registry.gauge("checkpoint.dirty.shard.ratio").set(
                    result.segments_written / result.segments_total
                )
        return result


def _write_checkpoint_locked(engine: ShardedEngine, path: str) -> CheckpointResult:
    memo = _SAVE_MEMO.get(engine)
    previous_manifest = _read_manifest(path)
    previous_entries: Dict[int, Dict[str, Any]] = {}
    if previous_manifest is not None:
        for entry in previous_manifest.get("segments", []):
            if isinstance(entry, dict) and "shard" in entry:
                previous_entries[int(entry["shard"])] = entry
    saved: List[Tuple[int, str]] = memo[1] if memo is not None and memo[0] == path else []

    plan: Dict[int, Tuple[int, str, Dict[str, Any]]] = {}
    for index in range(engine.shards):
        entry = previous_entries.get(index)
        if entry is not None and index < len(saved):
            saved_generation, saved_digest = saved[index]
            plan[index] = (saved_generation, saved_digest, entry)

    # Each shard's owner writes (or re-references) its segment: the local
    # pools for a serial engine, the worker processes for ProcessEngine.
    results = engine._checkpoint_segments(path, plan)
    if len(results) != engine.shards:
        raise CheckpointError(
            f"engine produced {len(results)} segments for {engine.shards} shards"
        )
    segments = [result["entry"] for result in results]
    memo_entries = [
        (result["generation"], str(result["entry"]["sha256"])) for result in results
    ]
    written = sum(1 for result in results if result["written"])
    reused = len(results) - written
    bytes_written = sum(result["bytes"] for result in results)

    manifest = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "engine": {
            "format": STATE_FORMAT,
            "spec": engine.spec.to_dict(),
            "shards": engine.shards,
            "seed": engine.seed,
            "max_keys_per_shard": engine._max_keys_per_shard,
            "idle_ttl": engine._idle_ttl,
            "track_occurrences": engine._track_occurrences,
            "now": engine.now,
        },
        "segments": segments,
    }
    try:
        encoded = json.dumps(manifest, indent=2).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise CheckpointError(
            f"engine configuration is not JSON-encodable for the manifest: {error}"
        ) from error
    _atomic_write(path, os.path.join(path, MANIFEST_NAME), encoded)

    # GC: drop segment files referenced by neither the fresh manifest nor the
    # one it replaced.  Retaining the immediately-prior generation keeps a
    # reader that parsed the old manifest just before the swap loadable; a
    # reader racing *two* consecutive saves can still lose — serialise loads
    # against saves if that window matters.  Orphaned temp files from
    # interrupted saves (.ckpt-*) are swept too.
    referenced = {str(entry["file"]) for entry in segments}
    if previous_manifest is not None:
        for entry in previous_manifest.get("segments", []):
            if isinstance(entry, dict) and "file" in entry:
                referenced.add(str(entry["file"]))
    for name in os.listdir(path):
        stale_segment = name.startswith("shard-") and name.endswith(".seg")
        stale_temp = name.startswith(".ckpt-")
        if (stale_segment and name not in referenced) or stale_temp:
            try:
                os.unlink(os.path.join(path, name))
            except OSError:
                pass

    _SAVE_MEMO[engine] = (path, memo_entries)
    # The manifest swap committed: tell the engine (the supervised process
    # engine records the path for recovery restores and truncates its
    # write-ahead journal, now fully covered by these segments).
    engine._checkpoint_committed(path)
    return CheckpointResult(
        path=path, segments_written=written, segments_reused=reused, bytes_written=bytes_written
    )


def _load_segment(path: str, entry: Dict[str, Any], shards: int) -> Tuple[int, Dict[str, Any]]:
    if not isinstance(entry, dict) or not {"shard", "file", "sha256", "bytes"} <= set(entry):
        raise CheckpointError(f"malformed segment entry in manifest: {entry!r}")
    index = int(entry["shard"])
    if not 0 <= index < shards:
        raise CheckpointError(f"manifest references shard {index} of a {shards}-shard engine")
    filename = str(entry["file"])
    if os.path.sep in filename or filename != os.path.basename(filename):
        raise CheckpointError(f"segment filename {filename!r} escapes the checkpoint directory")
    segment_path = os.path.join(path, filename)
    try:
        with open(segment_path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise CheckpointError(
            f"shard {index} segment {filename!r} is missing or unreadable: {error}"
        ) from error
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry["sha256"]:
        raise CheckpointError(
            f"shard {index} segment {filename!r} is corrupt:"
            f" sha256 {digest[:12]}… does not match the manifest"
        )
    try:
        envelope = pickle.loads(data)
    except Exception as error:  # digest matched, so this is a writer bug / tamper
        raise CheckpointError(
            f"shard {index} segment {filename!r} does not unpickle: {error}"
        ) from error
    if (
        not isinstance(envelope, dict)
        or envelope.get("magic") != SEGMENT_MAGIC
        or envelope.get("version") != CHECKPOINT_VERSION
        or envelope.get("shard") != index
    ):
        raise CheckpointError(f"shard {index} segment {filename!r} has a malformed envelope")
    return index, envelope["pool"]


def _engine_from_state(
    state: Dict[str, Any],
    workers: Optional[int],
    registry: Optional[Any] = None,
    engine_kwargs: Optional[Dict[str, Any]] = None,
) -> ShardedEngine:
    """Build a serial or process-backed engine and load ``state``.

    A process-backed engine is closed again on a failed load so a bad
    checkpoint can never leak worker processes.
    """
    if workers is None:
        return ShardedEngine.from_state_dict(state, registry=registry)
    engine = ProcessEngine(
        SamplerSpec.from_dict(state["spec"]),
        workers=workers,
        **(engine_kwargs or {}),
        shards=int(state["shards"]),
        seed=int(state["seed"]),
        max_keys_per_shard=state.get("max_keys_per_shard"),
        idle_ttl=state.get("idle_ttl"),
        track_occurrences=bool(state.get("track_occurrences", False)),
        registry=registry,
    )
    try:
        engine.load_state_dict(state)
    except BaseException:
        try:
            engine.close()
        except Exception:
            pass
        raise
    return engine


def _load_directory_checkpoint(
    path: str,
    workers: Optional[int],
    registry: Optional[Any] = None,
    engine_kwargs: Optional[Dict[str, Any]] = None,
) -> ShardedEngine:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"{path} has no readable {MANIFEST_NAME}: {error}") from error
    except ValueError as error:
        raise CheckpointError(f"{manifest_path} is not valid JSON: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a swsample engine checkpoint")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {manifest.get('version')!r}"
            f" (expected {CHECKPOINT_VERSION})"
        )
    meta = manifest.get("engine")
    if not isinstance(meta, dict):
        raise CheckpointError(f"{manifest_path} carries no engine metadata")
    missing = [field for field in ("spec", "shards", "seed", "now") if meta.get(field) is None]
    if missing:
        raise CheckpointError(f"{manifest_path} engine metadata is missing {missing}")
    if meta.get("format", STATE_FORMAT) != STATE_FORMAT:
        raise CheckpointError(
            f"{path} holds sampler state format {meta['format']!r}; this version reads"
            f" format {STATE_FORMAT} only (format 1 stored Mersenne-Twister generator"
            f" vectors, format {STATE_FORMAT} stores counter-based streams)"
        )
    shards = int(meta["shards"])
    entries = manifest.get("segments")
    if not isinstance(entries, list) or len(entries) != shards:
        raise CheckpointError(
            f"manifest lists {len(entries) if isinstance(entries, list) else 'no'}"
            f" segments for {shards} declared shards — corrupt checkpoint"
        )
    pool_states: List[Optional[Dict[str, Any]]] = [None] * shards
    digests: List[str] = [""] * shards
    for entry in entries:
        index, pool_state = _load_segment(path, entry, shards)
        if pool_states[index] is not None:
            raise CheckpointError(f"manifest references shard {index} twice")
        pool_states[index] = pool_state
        digests[index] = str(entry["sha256"])
    state = {
        "format": meta.get("format", STATE_FORMAT),
        "spec": meta.get("spec"),
        "shards": shards,
        "seed": meta.get("seed"),
        "max_keys_per_shard": meta.get("max_keys_per_shard"),
        "idle_ttl": meta.get("idle_ttl"),
        "track_occurrences": meta.get("track_occurrences", False),
        "now": meta.get("now"),
        "pools": pool_states,
    }
    engine = _engine_from_state(state, workers, registry, engine_kwargs)
    # Seed the incremental-save memo: a just-restored engine's state *is*
    # the on-disk state, so its next save to this directory rewrites nothing
    # — unless someone else's save changes the digests in between.
    _SAVE_MEMO[engine] = (
        path,
        [
            (generation, digests[index])
            for index, generation in enumerate(engine._segment_generations())
        ],
    )
    # A restored engine's recovery baseline is the checkpoint it came from.
    engine._restored_from(path)
    return engine


def checkpoint_shards(path: Union[str, os.PathLike]) -> Optional[int]:
    """The shard count a checkpoint was written with, from the manifest
    alone — no segment is read, no engine is built.  Returns ``None`` when
    it cannot be determined cheaply (no checkpoint directory at ``path``, or
    a damaged manifest, which :func:`load_checkpoint` will diagnose loudly).

    Lets callers validate topology-dependent choices (e.g. a worker count)
    before paying for a full restore.
    """
    path = os.path.abspath(os.fspath(path))
    if not os.path.isdir(path):
        return None
    manifest = _read_manifest(path)
    if manifest is None:
        return None
    meta = manifest.get("engine")
    if not isinstance(meta, dict) or meta.get("shards") is None:
        return None
    try:
        return int(meta["shards"])
    except (TypeError, ValueError):
        return None


def load_checkpoint(
    path: Union[str, os.PathLike],
    *,
    workers: Optional[int] = None,
    registry: Optional[Any] = None,
    supervise: bool = False,
    wal_dir: Optional[Union[str, os.PathLike]] = None,
    wal_fsync: str = "batch",
    restart_policy: Optional[Any] = None,
) -> ShardedEngine:
    """Rebuild an engine from a checkpoint directory.

    ``workers=None`` returns a serial :class:`ShardedEngine`; any positive
    ``workers`` returns a :class:`~repro.engine.ProcessEngine` driving the
    same shard states from that many worker processes.  The worker count is
    orthogonal to the checkpoint, so a manifest saved by either engine under
    any worker count loads into any other.  A path that is not a directory (such as a single-file v1
    checkpoint, which is no longer readable) raises
    :class:`~repro.exceptions.CheckpointError`.

    Every segment's SHA-256 digest is verified against the manifest before a
    single sampler is rebuilt: a missing, truncated or bit-flipped segment
    fails loudly with :class:`~repro.exceptions.CheckpointError` rather than
    resurrecting part of a fleet.

    Only load checkpoints you (or a process you trust) wrote: like every
    pickle, segment files can execute code when loaded.

    ``registry`` is handed to the restored engine (see
    :class:`~repro.engine.ShardedEngine`); the restore itself is traced as
    a ``checkpoint.restore`` span on that registry (or the process default
    when none is given), so restore latency lands in the
    ``checkpoint.restore.seconds`` histogram.

    ``supervise`` / ``wal_dir`` / ``wal_fsync`` / ``restart_policy``
    (``workers=N`` only) rebuild the engine with the self-healing
    supervision layer attached — the restored checkpoint becomes the
    recovery baseline immediately.  A non-empty journal left in ``wal_dir``
    by the previous coordinator is **not** replayed automatically; call
    :meth:`~repro.engine.ProcessEngine.replay_wal` on the returned engine
    (the CLI/serve resume paths do).
    """
    engine_kwargs: Dict[str, Any] = {}
    if wal_dir is not None or supervise:
        if workers is None:
            raise ConfigurationError(
                "supervise/wal_dir apply to process-backed restores only"
                " (pass workers=N)"
            )
        if wal_dir is not None:
            engine_kwargs["wal_dir"] = os.fspath(wal_dir)
            engine_kwargs["wal_fsync"] = wal_fsync
        if supervise:
            engine_kwargs["supervise"] = True
        if restart_policy is not None:
            engine_kwargs["restart_policy"] = restart_policy
    path = os.path.abspath(os.fspath(path))
    if not os.path.isdir(path):
        raise CheckpointError(
            f"{path} is not a checkpoint directory"
            " (single-file v1 checkpoints are no longer readable)"
        )
    span_registry = registry if registry is not None else get_registry()
    with span("checkpoint.restore", registry=span_registry):
        return _load_directory_checkpoint(path, workers, registry, engine_kwargs)
