"""repro — optimal random sampling from sliding windows.

A production-quality reproduction of

    Vladimir Braverman, Rafail Ostrovsky, Carlo Zaniolo.
    "Optimal sampling from sliding windows."
    PODS 2009; Journal of Computer and System Sciences 78(1), 2012.

The package provides:

* :mod:`repro.core` — the paper's algorithms: Θ(k)-word samplers for
  fixed-size windows and Θ(k log n)-word samplers for timestamp-based windows,
  with and without replacement (Theorems 2.1, 2.2, 3.9, 4.4).
* :mod:`repro.baselines` — the prior art they are compared against (chain
  sampling, priority sampling, k-highest-priority sampling, over-sampling,
  full-window buffers).
* :mod:`repro.applications` — Section-5 corollaries: frequency moments,
  entropy, triangle counting, quantiles and step-biased sampling over sliding
  windows.
* :mod:`repro.streams`, :mod:`repro.windows`, :mod:`repro.analysis` — the
  substrates used by examples, tests and the experiment harness.
* :mod:`repro.harness` — the experiment registry (E1–E10) behind the
  benchmarks and EXPERIMENTS.md.

Engine
------
:mod:`repro.engine` scales the per-stream guarantees to keyed, multi-tenant
traffic: a :class:`~repro.engine.SamplerSpec` describes one per-key sampler, a
:class:`~repro.engine.KeyedSamplerPool` lazily maintains one sampler per key
(deterministically seeded, with LRU/TTL eviction and aggregate word-RAM
accounting) and a :class:`~repro.engine.ShardedEngine` hash-partitions keys
over shards behind a batched ``ingest``, answering per-key sample queries and
cross-key aggregates (hottest keys, merged frequent items, per-key frequency
moments).  Every sampler supports ``state_dict()`` / ``load_state_dict()``,
and :func:`~repro.engine.write_checkpoint` / :func:`~repro.engine.load_checkpoint`
persist the whole fleet so a restarted engine resumes with identical samples
and identical future randomness.

>>> from repro import SamplerSpec, ShardedEngine
>>> engine = ShardedEngine(SamplerSpec(window="sequence", n=500, k=4), shards=4, seed=7)
>>> engine.ingest([("alice", 1), ("bob", 2), ("alice", 3)])
3
>>> engine.sample_values("alice")  # doctest: +SKIP
[3, 1, 3, 3]

Scaling & persistence
---------------------
Two layers take the engine from one process and one pickle to fleet scale:

* **Process shard workers.**  :class:`~repro.engine.ProcessEngine` drives
  the same shards from ``workers`` worker *processes* — shards are resident
  in the workers (built there from the engine recipe), records arrive over
  bounded multiprocessing queues with producer backpressure, queries are
  answered worker-side through a request/reply protocol, and each worker
  writes its own checkpoint segments.  CPU-bound sampler updates scale
  across cores.  Because each shard is owned by exactly one worker and
  per-key sampler seeds are key-derived, process ingest is *bit-identical*
  to serial ingest — ``workers`` changes throughput, never samples
  (``swsample engine --workers N``).  Queries (``sample``, aggregates,
  ``state_dict``) flush through a drain barrier first, so readers always
  observe a consistent fleet, and the public surface is thread-safe for
  concurrent producers and readers.  A worker process that dies raises a
  sticky :class:`~repro.exceptions.WorkerFailure` instead of serving from a
  fleet that may have lost arrivals.  Streaming feeds plug in via
  :func:`~repro.engine.ingest_jsonl` (JSONL from a file, pipe or stdin, in
  bounded batches — ``swsample engine --input``).

* **Incremental checkpoints.**  :func:`~repro.engine.write_checkpoint` writes
  a checkpoint *directory*: one digest-verified segment file per shard plus
  a JSON manifest (format documented in :mod:`repro.engine.checkpoint`).
  Repeat saves rewrite only the shards whose state changed; a damaged or
  missing segment fails loudly on load; and the worker count is orthogonal
  to the manifest, so a fleet saved by 4 process workers restores serially,
  or under 2 workers — with identical samples and identical future
  randomness (``load_checkpoint(path, workers=N)``).

Fault tolerance
---------------
The process fleet can *heal itself* instead of going sticky-failed.
``ProcessEngine(supervise=True, wal_dir=...)`` (CLI: ``swsample engine/serve
--supervise --wal-dir PATH``) journals every dispatched sub-batch to a
per-shard write-ahead log (:mod:`repro.engine.wal`; columnar wire format,
length+crc32 framing, ``wal_fsync`` durability knob) before the worker sees
it.  A supervisor thread detects worker death, restarts the worker under a
bounded :class:`~repro.engine.RestartPolicy` (exponential backoff), restores
its shards from the last checkpoint's digest-verified segments, replays the
journal tail in dispatch order, and re-admits traffic — the recovered fleet
is bit-identical to one that never crashed, because shard routing and
per-key seeds are deterministic.  While recovery runs, healthy-shard
queries answer normally and recovering-shard queries raise the retryable
:class:`~repro.exceptions.ShardRecovering` (mapped by ``swsample serve`` to
HTTP 503 + ``Retry-After``); a committed checkpoint truncates the journal.
Only an exhausted restart budget degrades to the sticky
:class:`~repro.exceptions.WorkerFailure`.  The failure windows themselves
are testable via the deterministic injectors in :mod:`repro.engine.chaos`.

>>> from repro import ProcessEngine
>>> with ProcessEngine(SamplerSpec(window="sequence", n=500, k=4),
...                    shards=8, workers=2, seed=7) as fleet:
...     fleet.ingest([("alice", 1), ("bob", 2), ("alice", 3)])
...     fleet.sample_values("alice")  # doctest: +SKIP
3
[3, 1, 3, 3]

Performance
-----------
The ingest hot path is batched at every layer, with the per-element code
kept only as the reference semantics:

* **Samplers** expose ``process_batch(values, timestamps)``, which hoists
  attribute lookups out of the inner loop while consuming randomness
  exactly like an ``append`` loop — states, samples and checkpoints are
  bit-identical.  The reservoirs of the sequence samplers store the offer
  number of their next acceptance (Vitter's skip form; Li's Algorithm L for
  the k-reservoir), so both paths draw once per *acceptance*, not once per
  element.  The timestamp samplers — the paper's flagship machinery — batch
  the covering automata themselves: the ``Incr`` merge cascade runs in
  place off a single O(1) merge probe, takes its fair merge coins 64 to a
  generator draw, and window expiry pays one cached-threshold comparison
  per element with a full Lemma 3.5 scan only at actual transitions, which
  takes ``boz-ts-wr``/``boz-ts-wor`` ingest from ~1x to 4–5x over the
  append loop while staying bit-identical.
* **Per-key state.**  Every random stream of an optimal sampler is a
  :class:`~repro.rng.LaneRng` — splitmix64 used as a counter-based
  generator — derived from the sampler's one 64-bit seed and a stream id,
  so a stream costs a counter and a coin cursor instead of a ~2.5 KB
  Mersenne-Twister state, and a key's birth seeds nothing.  A sequence-WR
  key with k=4 and 3 records holds ~1.6 KB resident (tracemalloc) and
  pickles to ~0.5 KB; a timestamp-WR key ~4.3 KB and ~1.4 KB (they were
  16–21 KB and 19–20 KB).  Candidates are ``__slots__`` records whose
  observer ``state`` dict exists only once an observer writes to it.
* **Engines** group each ingest batch per key in a single pass (hashing
  each distinct key once per chunk) and feed every key's run through its
  sampler's batched path; engines with an eviction policy fall back to
  per-record routing so LRU/TTL decisions never change.  The process
  engine applies the same grouping inside each shard worker.
* **Vectorized kernels (optional, standalone samplers).**  ``pip install
  'swsample[fast]'`` pulls in numpy and unlocks :mod:`repro.core.kernels`:
  constructing a sampler with ``kernel="numpy"`` vectorizes the batch
  draws across whole lanes — closed-form reservoir-transition draws for
  seq-WR, hypergeometric splits for WOR, width-weighted canonical rebuilds
  plus searchsorted run-splitting for the timestamp automata.  The
  default ``kernel="python"`` is the bit-identity reference and the only
  path tier-1 CI needs; numpy results are distributionally exact (gated
  by χ²+KS suites) but draw different randomness, and ``kernel="numpy"``
  without numpy fails loudly at construction.  A numpy sampler's snapshot
  carries its numpy generator, so it resumes exactly.  Engines always run
  the python path: a key's sampler sees too few records per call for the
  kernels to pay, and ``import repro`` never loads numpy.
* **Process transport** packs each dispatched sub-batch into one columnar
  struct-packed buffer (:mod:`repro.engine.transport`) instead of pickling
  tuple lists — roughly half the bytes per record on typical int-keyed
  feeds.  It is the only transport, and the write-ahead log journals the
  same bytes; :meth:`~repro.engine.ProcessEngine.transport_report` breaks
  ingest cost into encode / dispatch / decode / apply stages.

The measured trajectory lives in ``BENCH_E7.json`` / ``BENCH_E11.json`` at
the repo root, written by ``benchmarks/record.py`` (per-sampler and
fleet-scale throughput for the per-record and batched paths, plus
transport bytes/record and the process engine's per-stage costs; see that
module's docstring for how to read and regenerate them).  CI's
``bench-smoke`` job fails on a >25% regression of any guarded metric —
including the timestamp-sampler speedups — against those committed
baselines, and the ``--kernel numpy`` rows carry baseline-independent
acceptance floors: the vectorized kernel must stay ≥2x over the python
batched path on seq-WR and ts-WR or the smoke fails.

Observability
-------------
:mod:`repro.obs` is a dependency-free metrics, tracing and structured-logging
layer wired through the whole fleet.  A
:class:`~repro.obs.MetricsRegistry` holds mergeable counters, gauges and
fixed-bucket histograms; the process-wide default is a no-op
:data:`~repro.obs.NULL_REGISTRY`, so uninstrumented runs pay nothing and
ingest stays bit-identical either way (instrumentation observes at batch and
chunk granularity, never per record).  Pass a registry to any engine (or
:func:`~repro.obs.enable` the default) and ``engine.ingest``, the sampler
pools (LRU/TTL eviction splits), the worker loops, the process transport and
the checkpoint reader/writer all report into it.  Worker-process registries
ship back over the request/reply protocol and
:meth:`~repro.engine.ProcessEngine.metrics_snapshot` merges them with the
coordinator's into one fleet-wide snapshot — which
:func:`~repro.obs.to_prometheus_text` renders as Prometheus exposition text
without a client library.  :func:`~repro.obs.span` gives nested wall-time
tracing into histograms, and :func:`~repro.obs.configure_logging` turns on
structured (optionally JSON-lines) logs that worker processes inherit.  The
CLI surfaces all of it: ``swsample engine --metrics-out PATH
[--metrics-format json|prom] --log-level debug --log-json``.

Serving
-------
:mod:`repro.serve` keeps the engine alive between requests: ``swsample
serve`` runs a standing asyncio daemon (stdlib-only — no web framework) with
HTTP and raw-socket JSONL ingest, a per-tenant query API (``sample`` /
``hottest`` / ``frequent`` / ``moments`` / ``stats``), ``/healthz`` and a
Prometheus ``/metrics`` endpoint that folds every tenant's fleet-merged
snapshot into one document via
:func:`~repro.obs.labeled_prometheus_text` (``tenant="..."`` labels).  Each
tenant name gets its own engine built from one shared recipe (the same
spec/shards/workers flags as ``swsample engine``), its own metrics registry
and a single engine thread, so the serial engine stays single-caller under
concurrent traffic.  Backlogs are bounded: HTTP ingest answers ``429`` with
``Retry-After`` once ``--max-pending`` records are in flight, while the raw
socket simply stops reading (TCP pushes back on the sender).  SIGTERM/SIGINT
drain in-flight batches, write one checkpoint directory per tenant under
``--checkpoint-dir``, and ``--resume`` restores them losslessly on restart.
See ``examples/serve_demo.py`` for the end-to-end loop.

Querying
--------
Every read of an engine is a query op, and there is one read path:

* **Ops.**  ``("sample", key)``, ``("contains", key)``, ``("hottest", top)``,
  ``("frequent", threshold[, top])``, ``("moments", order)`` and
  ``("stats",)``.  ``engine.query(op)`` answers one op: its value, or the
  op's own exception (``KeyError``, ``EmptyWindowError``, the retryable
  ``ShardRecovering`` with its ``shards`` and ``retry_after``).
  ``engine.query_batch(ops)`` answers many in one fleet pass — one
  request/reply round per worker instead of one per key — with per-op
  runtime failures captured inline as ``("error", type, message)`` so one
  bad key never aborts the batch.  Malformed op shapes are refused up
  front with :class:`~repro.exceptions.ConfigurationError` before anything
  runs.  ``sample``, ``hottest_keys``, ``merged_frequent_items``,
  ``per_key_moments``, ``stats`` and the scalar totals (``key_count``, ...)
  are thin wrappers over ``query``.  Both engines evaluate a batch in slot
  order, so a timestamp window's per-key query draws happen in the order
  the ops name them, whichever engine answers.
  The daemon exposes one op per ``GET /v1/<tenant>/<op>`` and a batch as
  ``POST /v1/<tenant>/query``; the CLI runs a batch with ``swsample engine
  --query-file OPS.jsonl``.
* **Result caching.**  A :class:`~repro.engine.QueryCache` (attach one via
  ``query_cache=`` on any engine; ``swsample serve`` attaches one per
  tenant) memoises query results keyed on the op *and the per-shard
  ``generation`` counters*, which bump on every mutation — ingest, LRU/TTL
  eviction, restore — so a cached answer is served only while it is
  provably still current; there is no staleness window to tune, and TTL
  plus an LRU bound keep the cache itself small.  Hit/miss/invalidation
  counters flow into the tenant's metrics registry (``querycache.*`` in
  ``/metrics``).
* **Continuous queries.**  ``POST /v1/<tenant>/subscribe`` registers a
  standing query (one op plus an ``interval``); the daemon re-evaluates it
  through the cache and streams JSONL deltas — only when the answer
  changes — until the client disconnects or SIGTERM drains the stream with
  a final ``{"event": "end"}`` line.

Because ranked reports break count ties on a stable byte encoding of the
key, batched, cached and scalar reads are bit-identical across the serial
and process engines.

Quickstart
----------
>>> from repro import sliding_window_sampler
>>> sampler = sliding_window_sampler("sequence", n=1000, k=8, replacement=False, rng=7)
>>> for value in range(10_000):
...     sampler.append(value)
>>> sorted(sampler.sample_values())  # doctest: +SKIP
[9123, 9240, ...]          # eight distinct values, all from the last 1000
>>> sampler.memory_words()  # doctest: +SKIP
53                          # Θ(k), independent of n and of the stream length
"""

from .core import (
    ALGORITHMS,
    CandidateObserver,
    OccurrenceCounter,
    SampleCandidate,
    SequenceSamplerWOR,
    SequenceSamplerWR,
    TimestampSamplerWOR,
    TimestampSamplerWR,
    WindowSampler,
    algorithm_catalog,
    sliding_window_sampler,
)
from .engine import (
    KeyedSamplerPool,
    ProcessEngine,
    QueryCache,
    RestartPolicy,
    SamplerSpec,
    ShardedEngine,
    load_checkpoint,
    write_checkpoint,
)
from .exceptions import (
    CheckpointError,
    ConfigurationError,
    EmptyWindowError,
    ExecutorError,
    InsufficientSampleError,
    SamplingFailureError,
    ShardRecovering,
    StreamOrderError,
    SWSampleError,
    TransportError,
    WorkerFailure,
)
from .streams.element import KeyedRecord, StreamElement

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SamplerSpec",
    "KeyedSamplerPool",
    "ShardedEngine",
    "ProcessEngine",
    "QueryCache",
    "RestartPolicy",
    "load_checkpoint",
    "write_checkpoint",
    "KeyedRecord",
    "sliding_window_sampler",
    "algorithm_catalog",
    "ALGORITHMS",
    "WindowSampler",
    "SequenceSamplerWR",
    "SequenceSamplerWOR",
    "TimestampSamplerWR",
    "TimestampSamplerWOR",
    "SampleCandidate",
    "CandidateObserver",
    "OccurrenceCounter",
    "StreamElement",
    "SWSampleError",
    "EmptyWindowError",
    "InsufficientSampleError",
    "StreamOrderError",
    "ConfigurationError",
    "SamplingFailureError",
    "CheckpointError",
    "ExecutorError",
    "WorkerFailure",
    "ShardRecovering",
    "TransportError",
]
