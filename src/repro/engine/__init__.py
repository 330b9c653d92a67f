"""Keyed, sharded multi-stream sampling engine.

The paper's samplers serve one logical stream each.  Production keyed traffic
— clickstreams, per-flow packet feeds, per-topic event buses — is millions of
logical streams multiplexed on one feed.  This package turns the paper's
per-stream Θ(k) / Θ(k log n) guarantees into a fleet-scale, per-tenant memory
budget:

* :class:`SamplerSpec` — a declarative description of the per-key sampler
  (window type and parameter, ``k``, replacement, algorithm), shared by every
  key and serialisable into checkpoints.
* :class:`KeyedSamplerPool` — lazily creates one sampler per key (each with a
  deterministic key-derived seed), keeps LRU order, enforces a ``max_keys``
  budget and an idle-key TTL, attaches DGIM window-size counters to
  timestamp samplers that cannot bound their own active count, and
  aggregates ``memory_words()`` across keys.
* :class:`ShardedEngine` — hash-partitions keys over N shards, routes batched
  records (:meth:`ShardedEngine.ingest`), answers per-key sample queries and
  cross-key aggregates (hottest keys, merged frequent items, per-key AMS
  frequency moments), and checkpoints/restores the whole fleet of samplers
  bit-for-bit via the samplers' ``state_dict`` layer.
* :class:`ProcessEngine` — the same engine with its shards driven by worker
  *processes*, the one way to run shards in parallel: batched ingest is
  validated and clock-stamped by the producer, each worker owns its shards'
  pools outright (built in-process from the engine recipe), records travel
  over bounded multiprocessing queues, queries run worker-side via a
  request/reply protocol behind a drain barrier, and checkpoints are written
  by the workers themselves as per-shard segments.  CPU-bound sampler
  updates scale across cores while staying bit-identical to the serial
  engine (``workers`` is a pure throughput knob).  A dead worker process
  surfaces as a sticky
  :class:`~repro.exceptions.WorkerFailure`.
* :func:`write_checkpoint` / :func:`load_checkpoint` — incremental
  per-shard checkpoint directories (JSON manifest + digest-verified segment
  files); repeat saves rewrite only the shards that changed, and a manifest
  loads into a serial engine or a process engine under any worker count.
* :func:`jsonl_records` / :func:`batched` / :func:`ingest_jsonl` — streaming
  ingest sources: JSONL lines from a file, pipe or stdin, fed to an engine
  in bounded batches (the ``swsample engine --input`` path).
* :func:`encode_batch` / :func:`decode_batch` — the columnar record
  transport: every record sub-batch crossing the :class:`ProcessEngine`
  process boundary is struct-packed into one compact buffer instead of
  pickled tuple-by-tuple, and the write-ahead log journals the same bytes
  (format documented in :mod:`repro.engine.transport`).  It is the only
  transport; a malformed payload raises
  :class:`~repro.exceptions.TransportError`.

The whole ingest path is batched end to end, through one of two record
loops in :mod:`repro.engine.engine`.  In-process pools without an eviction
policy take the *grouped* loop: one pass groups records per key (hashing
each distinct key once per chunk) and hands each shard its key runs through
:meth:`KeyedSamplerPool.extend_grouped`.  Everything else — pools with a
``max_keys_per_shard``/``idle_ttl`` policy, and every
:class:`ProcessEngine` — takes the *router*: one pass routes records per
shard and cuts :data:`~repro.engine.transport.SUB_BATCH`-record shard
sub-batches in arrival order, which the serial engine drains into
:meth:`KeyedSamplerPool.extend_batch` and the process engine encodes,
journals and sends to the shard's worker, where ``extend_batch`` groups
them per key.  Every optimal sampler applies a key's run through its
``process_batch`` batched path — bit-identical to per-record appends,
drawing once per reservoir acceptance and taking bucket-merge coins 64 to
a draw.

Sharding is by a *stable* hash (:func:`stable_key_hash`), never Python's
salted ``hash()``, so routing — and therefore every per-key sampler's
randomness — is reproducible across processes and restarts.

Performance
-----------
The engine has one apply path, the python batched path above.  The
vectorized numpy kernels (:mod:`repro.core.kernels`) are a standalone
sampler option (``kernel="numpy"``): they pay off on wide batches (E7), but
a key's sampler sees a few records per sub-batch, where they ran at about
half python's speed, cost ~1 KB more per key and drew differently in the
serial and process engines.  Specs and checkpoints that still name
``kernel`` load as python (see :meth:`SamplerSpec.from_dict`).

* A key's sampler is a few small objects: its random streams are
  :class:`~repro.rng.LaneRng` counters derived from the key's seed, so a
  birth seeds no generator and a checkpoint stores two ints per stream.
  The scalar totals (``key_count``, ``total_arrivals``, ``evictions``)
  read the pools' counters; only ``stats()``, ``memory_words()`` and the
  ``engine.memory.words`` gauge walk every sampler for its words.
* The timestamp merge cascade (the Lemma 3.4 ``Incr`` step) is factored
  into :mod:`repro.core._cascade`.

Querying
--------
Every read is a query op (``sample``, ``contains``, ``hottest``,
``frequent``, ``moments``, ``stats``), and both engines share one read
path:

* **One op, many ops.**  :meth:`ShardedEngine.query` answers one op (its
  value, or the op's own exception); :meth:`ShardedEngine.query_batch`
  answers many, one ``("ok", value)`` / ``("error", type, message)``
  outcome per op, so a missing key never aborts the batch.  The scalar
  reads (``sample``, ``stats``, ``hottest_keys``, the ``key_count``-style
  totals, ...) are thin wrappers over ``query``.  The read path validates
  the ops, flushes, consults the cache and computes the misses; computing
  evaluates the ops in slot order over a ``{shard: pool}`` map and merges
  the per-pool-set partials.  On :class:`ProcessEngine` a whole batch
  costs **one request/reply round per worker**: per-key ops ship only to
  the worker owning their shard, aggregates are computed as per-worker
  partials and merged coordinator-side — the query-side analogue of how
  ``extend_batch`` groups ingest.  Batched, scalar, serial and process
  results are all bit-identical, ties included (ranked reports break ties
  on a stable byte encoding of the key, never on dict order).
  ``sampler_for``, ``keys`` and ``items`` are not ops: they return live
  samplers on the serial engine and detached copies from workers, so
  they are never cached.
* **Result caching.**  Pass ``query_cache=QueryCache(...)`` to any engine
  and the query surface consults it.  Entries are stamped with the
  per-shard ``generation`` tuple — the checkpoint layer's dirty-tracking
  counter, bumped on every append/eviction/advance/restore — so any
  mutation invalidates exactly the answers it could have changed, and a
  TTL (optional) bounds staleness against out-of-band mutation.  Hits,
  misses, invalidations and evictions count into ``querycache.*`` metrics.
  Cached and uncached results are bit-identical.
* **Continuous queries.**  :mod:`repro.serve` builds standing queries on
  top of this: ``POST /v1/<tenant>/subscribe`` registers a query plus an
  interval, an asyncio task re-evaluates it through the tenant's cache
  (unchanged fleets are pure cache hits) and pushes a JSONL delta whenever
  the answer changes, closing the stream cleanly on SIGTERM.

Fault tolerance
---------------
:class:`ProcessEngine` can heal worker death instead of going sticky-failed:

* **Write-ahead journal.**  ``ProcessEngine(wal_dir=...)`` appends every
  dispatched sub-batch — in the columnar transport's exact wire form — to a
  per-shard journal (:mod:`repro.engine.wal`) *before* handing it to the
  worker, so no acknowledged record exists only in a worker's memory.  The
  ``wal_fsync`` knob trades durability for append cost (``"off"`` — worker
  death safe; ``"batch"``, the default — coordinator-crash safe; ``"always"``
  — power-loss safe).  A committed checkpoint covers everything journaled so
  far and truncates the journal; a torn final record (crash mid-append) is
  detected by length+checksum framing and dropped with a warning, while any
  deeper corruption raises :class:`~repro.exceptions.TransportError` with
  file and byte-offset context rather than replaying garbage.
* **Supervised restarts.**  ``ProcessEngine(supervise=True, wal_dir=...)``
  runs a supervisor thread that notices a dead worker, restarts it under a
  bounded :class:`RestartPolicy` (max restarts, exponential backoff),
  rebuilds its shards from the last checkpoint's digest-verified segments,
  replays the journal tail in original dispatch order, and re-admits
  ingest.  Shard routing, per-shard FIFO order and key-derived sampler
  seeds are deterministic, so a recovered fleet is *bit-identical* to one
  that never crashed.  Only when the restart budget is exhausted does the
  engine degrade to the sticky :class:`~repro.exceptions.WorkerFailure`.
* **Degraded-mode queries.**  While a worker is mid-recovery, queries
  touching only healthy shards answer normally; queries needing a
  recovering shard raise the *retryable*
  :class:`~repro.exceptions.ShardRecovering` (carrying the affected shards
  and a ``retry_after`` estimate) instead of blocking or guessing —
  ``swsample serve`` maps it to HTTP 503 with a ``Retry-After`` header.
  ``stats()`` stays available with healthy-worker totals plus a
  ``degraded`` marker, ``liveness()`` reports per-worker health without
  taking any locks, and ``write_checkpoint`` waits briefly for recovery to
  drain rather than snapshotting a half-restored fleet (failing loudly
  with :class:`~repro.exceptions.CheckpointError` if it cannot).
* **Deterministic chaos.**  :mod:`repro.engine.chaos` injects the failure
  windows on purpose — kill at the Nth dispatched sub-batch, kill during a
  checkpoint's segment fan-out, kill the replacement mid-replay, corrupt a
  segment, tear or forge a journal record — so every recovery path above is
  pinned by tests instead of trusted.

Observability
-------------
Every layer reports into a :class:`repro.obs.MetricsRegistry` when handed one
(``registry=`` on any engine constructor or on :func:`load_checkpoint`;
otherwise the process-wide default from :func:`repro.obs.get_registry`, which
is a no-op until :func:`repro.obs.enable`):

* engines count ingested records/batches and per-shard chunk latencies, and
  expose live key/memory gauges via snapshot-time callbacks;
* pools split eviction counters into LRU and TTL
  (``pool.evictions.lru`` / ``pool.evictions.ttl``), also surfaced by
  :meth:`ShardedEngine.stats`;
* worker loops and the process executor count applied batches, queue
  stalls and request/reply round trips; :meth:`ProcessEngine.transport_report` breaks
  transport cost into per-worker encode/dispatch rows;
* the checkpoint layer counts saves, segments written/reused and bytes, and
  times ``checkpoint.write.seconds`` / ``checkpoint.restore.seconds`` spans.

Worker processes build their own registry, and
:meth:`ProcessEngine.metrics_snapshot` fetches each worker's snapshot over
the request/reply protocol and merges the fleet into one dict (tolerating
lost workers — a partial fleet yields a partial snapshot, never a hang).
:meth:`ShardedEngine.metrics_snapshot` reports from the single coordinator
registry.  Render any snapshot with
:func:`repro.obs.to_prometheus_text`.
"""

from . import chaos
from .checkpoint import (
    CheckpointResult,
    checkpoint_shards,
    load_checkpoint,
    write_checkpoint,
)
from .engine import ShardedEngine
from .executor import ProcessEngine, RestartPolicy
from .wal import WriteAheadLog
from .hashing import stable_key_bytes, stable_key_hash
from .pool import KeyedSamplerPool
from .querycache import QueryCache
from .source import batched, freeze_key, ingest_jsonl, jsonl_records
from .spec import SamplerSpec
from .transport import decode_batch, encode_batch

__all__ = [
    "SamplerSpec",
    "KeyedSamplerPool",
    "ShardedEngine",
    "ProcessEngine",
    "RestartPolicy",
    "WriteAheadLog",
    "chaos",
    "QueryCache",
    "load_checkpoint",
    "write_checkpoint",
    "checkpoint_shards",
    "CheckpointResult",
    "jsonl_records",
    "batched",
    "ingest_jsonl",
    "freeze_key",
    "encode_batch",
    "decode_batch",
    "stable_key_hash",
    "stable_key_bytes",
]
