"""The worker-process shard executor: :class:`ProcessEngine`.

:class:`ProcessEngine` drives the shards of a :class:`ShardedEngine` from a
fleet of worker processes.  It exploits the invariant the shard layer was
built for: shards are *independent* ingest points — no sampler, eviction
list or counter is shared between two shards — so per-shard work can
proceed concurrently as long as each shard's records are applied in arrival
order by exactly one worker.

Each worker process *owns* its shards' pools outright: records are shipped
over bounded multiprocessing queues, queries run worker-side via a
request/reply protocol (the pools are never pickled on the hot path), and
checkpoints are written by the workers themselves as per-shard segment
files.  This clears the GIL ceiling: per-record sampler updates run on as
many cores as there are workers.  The serial :class:`ShardedEngine` and
this class are the only two engines.  There is no thread executor: under
the GIL, pure-Python sampler updates serialise, and thread workers measured
slower than the serial engine on every workload shape tried.

Topology
--------
Shard ``i`` is owned by worker ``i % workers`` for the life of the engine.
Single ownership is what makes parallel ingest deterministic: a shard's
batches are applied sequentially, in dispatch order, by one worker, so every
key sees its records in exactly the order a serial engine would have applied
them — and because per-key sampler seeds are key-derived (not order-derived),
``workers=1``, ``workers=8`` and the serial engine all produce bit-identical
sampler states.  Workers are orthogonal to shard *state*: a checkpoint
written by an engine with 4 workers loads into a serial engine, or into one
with 2 workers.

Dataflow
--------
``ingest()`` runs the serial engine's router on the caller's thread: it
validates records, runs the global clock contract, cuts per-shard
sub-batches, and hands each one to :meth:`ProcessEngine._dispatch`, which
sends it to the shard's owner.  Memory stays bounded: each worker's inbox is
a bounded ``multiprocessing.Queue`` of :data:`_QUEUE_DEPTH` messages, so a
producer outrunning a worker blocks in ``put`` until the worker catches up.

``flush()`` is the drain barrier: it sends a barrier token down every (FIFO)
inbox and waits for the replies, which also carry any worker-side failure.
Every query and aggregate flushes first, so readers always observe a
consistent fleet.  Every worker runs the same :class:`_ShardWorkerLoop`.

Failure model
-------------
A worker failure is **sticky** by default: once a worker raises while
applying records, or a worker process dies (crash, OOM kill, SIGKILL), the
fleet may have lost arrivals, so the engine raises
:class:`~repro.exceptions.WorkerFailure` on all further ingest, flushes and
queries instead of serving from suspect state.  Recover by loading the last
checkpoint into a fresh engine.  ``close()`` always reaps worker processes
(shutdown message, then join, then terminate/kill), and a finalizer
terminates them even if the engine is garbage-collected without ``close()``
— no orphaned processes.

Supervision (``ProcessEngine(supervise=True, wal_dir=...)``) upgrades that
contract to *self-healing*: every dispatched sub-batch is journaled to a
per-shard write-ahead log (:mod:`repro.engine.wal`) before it is sent, and a
supervisor thread detects worker death, restarts the process under a bounded
:class:`RestartPolicy`, restores the dead worker's shards from the last
checkpoint segments, replays their WAL tails in original order — bit-
identical to an uninterrupted run, because per-key sampler seeds are
key-derived — and re-admits ingest.  While a recovery is in flight the fleet
runs *degraded*: healthy-shard queries answer normally, operations touching
recovering shards raise the retryable
:class:`~repro.exceptions.ShardRecovering`, ingest for recovering shards is
parked coordinator-side and drained after replay, and ``stats()`` /
``liveness()`` report ``degraded: true`` with per-worker detail.  Only an
exhausted restart budget degrades to the sticky ``WorkerFailure``.

Thread-safety contract: the engine's public surface is serialised by one
caller lock, so any number of application threads may ``ingest``/``sample``/
``advance_time`` concurrently; the worker fleet runs outside that lock.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import multiprocessing
import os
import pickle
import queue
import threading
import time
import weakref
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.base import WindowSampler
from ..core.tracking import OccurrenceCounter
from ..exceptions import (
    CheckpointError,
    ConfigurationError,
    ExecutorError,
    ShardRecovering,
    TransportError,
    WorkerFailure,
)
from ..obs import MetricsRegistry, NULL_REGISTRY, merge_snapshots, span
from ..obs.logging import apply_logging_config, logging_config
from .engine import _PER_KEY_OPS, ShardedEngine, _evaluate_ops
from .pool import KeyedSamplerPool
from .querycache import QueryCache
from .spec import SamplerSpec
from .transport import decode_batch, encode_batch
from .wal import WriteAheadLog

__all__ = ["ProcessEngine", "RestartPolicy"]

logger = logging.getLogger("repro.engine.executor")

#: How often blocked queue operations wake up to check worker liveness.
_POLL_INTERVAL = 0.2
#: How long ``close()`` waits for a worker process to exit before escalating
#: to ``terminate()`` (and then ``kill()``).
_JOIN_TIMEOUT = 5.0
#: Worker-side inbox poll period (lets an orphaned worker notice that its
#: coordinator process died and exit instead of blocking forever).
_WORKER_POLL = 1.0
#: Supervisor liveness-scan period; worker death is also signalled eagerly
#: by any API thread that trips over it, so this is only the ceiling.
_SUPERVISOR_POLL = 0.05
#: How long ``write_checkpoint`` waits for an in-flight recovery to drain
#: before failing loudly (monkeypatchable in tests).
_CHECKPOINT_DRAIN_TIMEOUT = 10.0
#: Messages one worker's inbox holds before ``ingest`` blocks (backpressure
#: toward the producer; monkeypatchable in tests).
_QUEUE_DEPTH = 8
#: Parked sub-batches per recovering worker before ingest blocks, in units
#: of ``_QUEUE_DEPTH`` (mirrors the bounded-inbox backpressure contract).
_PENDING_DEPTH_FACTOR = 4


@dataclasses.dataclass(frozen=True)
class RestartPolicy:
    """Bounds on supervised worker restarts.

    ``max_restarts`` caps consecutive restart attempts per worker (the
    counter resets after a successful recovery, so a long-lived fleet is
    budgeted per *incident*, not per lifetime).  The delay before attempt
    ``n`` is ``min(backoff_cap, backoff_base * 2**(n - 2))`` — the first
    restart is immediate, later ones back off exponentially.
    """

    max_restarts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts <= 0:
            raise ConfigurationError("max_restarts must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff delays must be non-negative")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before the 1-based ``attempt``-th restart."""
        if attempt <= 1:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 2)))


class _RecoveryAborted(Exception):
    """Internal: the engine closed (or went sticky-failed) mid-recovery."""


def _picklable(error: BaseException) -> BaseException:
    """The error itself if it survives pickling, else a stand-in carrying
    its repr — a worker process must never die trying to report a failure."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ExecutorError(f"worker-side error (unpicklable): {error!r}")


class _ShardWorkerLoop:
    """Owner of a disjoint set of shard pools inside one worker process.

    One loop instance drives its pools from an inbox of messages and answers
    queries over the reply queue.

    Message vocabulary (plain tuples, picklable):

    ``("apply", shard, payload)``
        Apply one sub-batch of ``(key, value, timestamp)`` records, carried
        as one columnar :func:`~repro.engine.transport.encode_batch` payload
        (the form the write-ahead log journals) and decoded worker-side.  No
        reply; completion is observed at the next barrier.  Skipped once
        this worker has failed.
    ``("shutdown",)``
        Exit the loop.
    ``("barrier", rid)``
        Reply ``("barrier", rid, failure_repr_or_None)``.  Because the inbox
        is FIFO, the reply proves every earlier ``apply`` has been applied.
    ``(op, rid, *args)``
        Request/reply — replies ``("ok", rid, value)`` or ``("error", rid,
        exception)``.  The ops:

        * ``qbatch`` ``(routed, now)`` — every read: the routed query ops
          answered in slot order by :func:`~repro.engine.engine._evaluate_ops`
          over this worker's shards, one ``("ok", value)`` / ``("error",
          exception)`` per op (aggregates answer partials);
        * ``sampler`` ``(shard, key)`` / ``items`` / ``keys`` — detached
          samplers and key lists (never cached, so not query ops);
        * ``advance`` ``(now,)`` — broadcast clock advance;
        * ``generations`` / ``perf`` / ``metrics`` — per-shard generations,
          transport stage timings, this worker's registry snapshot;
        * ``get_state`` / ``set_state`` ``(states,)`` / ``checkpoint``
          ``(path, plan)`` — shard snapshots and segment writes.
    """

    def __init__(
        self,
        pools: Dict[int, KeyedSamplerPool],
        spec: SamplerSpec,
        registry: Any,
    ) -> None:
        #: Insertion order is ascending shard index (the constructor sorts),
        #: so iteration over ``pools.values()`` matches the serial engine's
        #: shard order for this worker's share.
        self.pools = dict(sorted(pools.items()))
        self.spec = spec
        self.clocked = spec.is_timestamp
        #: The first apply failure; reported by every later barrier reply.
        self.failure: Optional[BaseException] = None
        # Per-stage transport accounting, reported through the "perf" op.
        self.decode_seconds = 0.0
        self.apply_seconds = 0.0
        self.applied_batches = 0
        self.applied_records = 0
        #: This worker's metrics registry.  The plain attributes above remain
        #: the source for the "perf" op; the registry mirrors them so they
        #: participate in fleet-merged snapshots.
        self.registry = registry
        self._m_apply_seconds = self.registry.counter("worker.apply.seconds")
        self._m_decode_seconds = self.registry.counter("worker.decode.seconds")
        self._m_applied_batches = self.registry.counter("worker.applied.batches")
        self._m_applied_records = self.registry.counter("worker.applied.records")
        self._m_failures = self.registry.counter("worker.failures")

    def run(self, inbox: Any, replies: Any, parent_pid: int) -> None:
        while True:
            try:
                message = inbox.get(timeout=_WORKER_POLL)
            except queue.Empty:
                if os.getppid() != parent_pid:
                    return  # orphaned: the coordinator process is gone
                continue
            kind = message[0]
            if kind == "apply":
                started = time.perf_counter()
                try:
                    batch = decode_batch(message[2])
                except TransportError as error:
                    # A payload this worker cannot read fails it like an
                    # apply error would: sticky, reported at the next
                    # barrier, with the process left alive.
                    self._record_failure(error)
                    continue
                elapsed = time.perf_counter() - started
                self.decode_seconds += elapsed
                self._m_decode_seconds.inc(elapsed)
                self._apply(message[1], batch)
                continue
            if kind == "shutdown":
                return
            if kind == "barrier":
                failure = self.failure
                replies.put(
                    ("barrier", message[1], None if failure is None else repr(failure))
                )
                continue
            rid = message[1]
            try:
                value = self._execute(kind, *message[2:])
            except BaseException as error:
                replies.put(("error", rid, _picklable(error)))
                continue
            replies.put(("ok", rid, value))

    def _apply(self, shard: int, batch: List[Tuple[Any, Any, Optional[float]]]) -> None:
        started = time.perf_counter()
        try:
            if self.failure is None:
                # One pool call for the whole sub-batch: the pool groups
                # records per key and feeds each sampler's batched path.
                self.pools[shard].extend_batch(batch)
        except BaseException as error:  # surfaced at the next barrier
            self._record_failure(error)
        finally:
            elapsed = time.perf_counter() - started
            self.apply_seconds += elapsed
            self.applied_batches += 1
            self.applied_records += len(batch)
            self._m_apply_seconds.inc(elapsed)
            self._m_applied_batches.inc()
            self._m_applied_records.inc(len(batch))

    def _record_failure(self, error: BaseException) -> None:
        if self.failure is None:
            self.failure = error
        self._m_failures.inc()

    # -- request/reply operations (the worker-side query surface) ------------

    def _execute(self, op: str, *args: Any) -> Any:
        pools = self.pools
        if op == "qbatch":
            # One batched-query round over this worker's shards, evaluated
            # in slot order; the coordinator merges the partials.
            routed, now = args
            return [
                outcome if outcome[0] == "ok" else ("error", _picklable(outcome[1]))
                for outcome in _evaluate_ops(pools, routed, now, self.clocked)
            ]
        if op == "metrics":
            # This worker's registry as a plain dict; the coordinator merges
            # every worker's reply into one fleet-wide snapshot.
            return self.registry.snapshot()
        if op == "keys":
            return {shard: pool.keys() for shard, pool in pools.items()}
        if op == "generations":
            return {shard: pool.generation for shard, pool in pools.items()}
        if op == "perf":
            return {
                "decode_seconds": self.decode_seconds,
                "apply_seconds": self.apply_seconds,
                "batches": self.applied_batches,
                "records": self.applied_records,
            }
        if op == "sampler":
            shard, key = args
            # The sampler object itself travels back (pickled by the
            # queue): the caller receives a detached copy.
            return pools[shard].sampler_for(key)
        if op == "items":
            return {
                shard: list(pool.items()) for shard, pool in pools.items()
            }
        if op == "advance":
            (now,) = args
            for pool in pools.values():
                pool.advance_time(now)
            return None
        if op == "get_state":
            return {shard: pool.state_dict() for shard, pool in pools.items()}
        if op == "set_state":
            (states,) = args
            for shard, pool_state in states.items():
                pools[shard].load_state_dict(pool_state)
            return None  # generations are fetched by the "generations" op
        if op == "checkpoint":
            path, plan = args
            from .checkpoint import write_shard_segment  # lazy: import cycle

            return {
                shard: write_shard_segment(path, shard, pool, plan.get(shard))
                for shard, pool in pools.items()
            }
        raise ExecutorError(f"unknown worker operation {op!r}")


def _process_worker_main(config: Dict[str, Any], inbox: Any, replies: Any) -> None:
    """Entry point of one shard-worker process.

    Builds this worker's pools from the engine recipe (same constructor, same
    seed — so a process-resident pool is bit-identical to the pool a serial
    engine would have built) and serves the message loop until shutdown, a
    torn pipe, or coordinator death.  The worker inherits the coordinator's
    logging config (shipped as a plain dict) and, when the coordinator's
    registry is enabled, keeps its own :class:`repro.obs.MetricsRegistry`
    that the coordinator fetches and merges via the ``metrics`` op.
    """
    apply_logging_config(config.get("log"))
    logger = logging.getLogger("repro.engine.worker")
    registry = MetricsRegistry() if config.get("obs") else NULL_REGISTRY
    spec = SamplerSpec.from_dict(config["spec"])
    observer_factory = OccurrenceCounter if config["track_occurrences"] else None
    pools = {
        shard: KeyedSamplerPool(
            spec,
            seed=config["seed"],
            max_keys=config["max_keys_per_shard"],
            idle_ttl=config["idle_ttl"],
            observer_factory=observer_factory,
            registry=registry,
        )
        for shard in config["shard_indexes"]
    }
    loop = _ShardWorkerLoop(pools, spec, registry)
    logger.info(
        "shard worker online: pid=%s shards=%s",
        os.getpid(),
        list(config["shard_indexes"]),
    )
    try:
        loop.run(inbox, replies, config["parent_pid"])
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - torn pipes
        pass
    finally:
        logger.info("shard worker exiting: pid=%s", os.getpid())


def _reap_processes(processes: List[Any]) -> None:
    """Terminate (then kill) any still-running worker processes.  Installed
    as a ``weakref.finalize`` callback so an engine dropped without
    ``close()`` still leaves no orphans behind."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        if process.is_alive():
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - terminate() sufficed so far
                process.kill()


class ProcessEngine(ShardedEngine):
    """A :class:`ShardedEngine` whose shards are *resident in worker
    processes* — the executor that clears the GIL ceiling.

    Each worker process builds its shards' pools from the engine recipe
    (spec, seed, eviction policy) at spawn, applies the sub-batches shipped
    to it over a bounded multiprocessing queue, and answers queries through
    a request/reply protocol: ``sample``/aggregate requests are computed
    *inside* the owning worker and only the results travel back, so the
    pools are never pickled on the hot path.  Because shard ownership,
    per-shard ordering and per-key seeding are identical to the serial
    engine, process ingest is bit-identical to it.

    Every sub-batch crosses to its worker as one columnar payload
    (:func:`~repro.engine.transport.encode_batch`): the queue pickles a
    single ``bytes`` object instead of thousands of small tuples, and the
    write-ahead log journals the same bytes, so recovery replays exactly
    what the live path sent.  :meth:`transport_report` breaks the cost down
    per stage (encode / dispatch / decode / apply).

    Parameters
    ----------
    workers:
        Worker-process count (default: ``min(shards, cpu_count)``; clamped
        to ``shards``).  Each worker owns the shards congruent to its index
        modulo ``workers``.

    Sizing is fixed: one large ``ingest`` call streams through the queues in
    :data:`~repro.engine.transport.SUB_BATCH`-record pieces per shard, and a
    worker's inbox holds :data:`_QUEUE_DEPTH` of them before ``ingest``
    blocks.

    The recipe parameters (``shards``, ``seed``, ``max_keys_per_shard``,
    ``idle_ttl``, ``track_occurrences``, ``registry``, ``query_cache``) are
    those of :class:`ShardedEngine`.

    Keys and values must be picklable (they cross a process boundary); the
    same is already required of anything checkpointable.

    Differences from the serial :class:`ShardedEngine`:

    * ``ingest`` returns once the records are dispatched; :meth:`flush` (or
      any query) is the barrier that waits for them to be applied;
    * ``sampler_for`` returns a **detached copy** of the key's sampler (the
      live object stays in its worker);
    * a *closed* engine cannot answer queries — its state lived in the
      worker processes; query or ``state_dict()``/checkpoint before
      ``close()``;
    * a dead worker process (crash, OOM kill, SIGKILL) surfaces as a sticky
      :class:`~repro.exceptions.WorkerFailure` at the next ingest, flush or
      query instead of a hang.

    ``mp_context`` selects the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"``; default: the platform default).
    """

    def __init__(
        self,
        spec: SamplerSpec,
        *,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        shards: int = 4,
        seed: int = 0,
        max_keys_per_shard: Optional[int] = None,
        idle_ttl: Optional[int] = None,
        track_occurrences: bool = False,
        registry: Optional[Any] = None,
        query_cache: Optional[QueryCache] = None,
        supervise: bool = False,
        wal_dir: Optional[str] = None,
        wal_fsync: str = "batch",
        restart_policy: Optional[RestartPolicy] = None,
    ) -> None:
        super().__init__(
            spec,
            shards=shards,
            seed=seed,
            max_keys_per_shard=max_keys_per_shard,
            idle_ttl=idle_ttl,
            track_occurrences=track_occurrences,
            registry=registry,
            query_cache=query_cache,
        )
        if workers is None:
            workers = min(self.shards, os.cpu_count() or 1)
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if supervise and wal_dir is None:
            raise ConfigurationError(
                "supervise=True requires wal_dir: recovery restores from the"
                " last checkpoint and replays the write-ahead journal tail"
            )
        self._workers = int(min(workers, self.shards))
        self._closed = False
        # Caller lock: serialises the public surface (ingest/flush/queries)
        # across application threads.  RLock because queries call flush().
        self._api_lock = threading.RLock()
        #: Shard indexes owned by each worker (``shard % workers`` routing).
        self._shard_sets: List[Tuple[int, ...]] = [
            tuple(
                shard for shard in range(self.shards) if shard % self._workers == index
            )
            for index in range(self._workers)
        ]
        self._mp_context = multiprocessing.get_context(mp_context)
        self._failure: Optional[str] = None
        self._request_counter = 0
        self._unbarriered = False
        # Coordinator-side memo of the per-shard generation tuple: the
        # query cache reads generations before and after every consult, so
        # without a memo each cached query would pay an extra broadcast.
        # Invalidated by every mutating send (see _NONMUTATING_OPS).
        self._generations_cache: Optional[List[int]] = None
        # Coordinator-side transport accounting lives in a registry so
        # transport_report() and metrics_snapshot() read the same numbers.
        # transport_report() must work on uninstrumented engines too, so a
        # disabled engine gets a private always-real registry for these.
        self._tobs = self._obs if self._obs.enabled else MetricsRegistry()
        self._m_encode_seconds = self._tobs.counter("transport.encode.seconds")
        self._m_encoded_bytes = self._tobs.counter("transport.encoded.bytes")
        self._m_dispatch_seconds = self._tobs.counter("transport.dispatch.seconds")
        self._m_dispatched_batches = self._tobs.counter("executor.dispatched.batches")
        self._m_dispatched_records = self._tobs.counter("executor.dispatched.records")
        self._m_backpressure_seconds = self._tobs.counter("executor.backpressure.seconds")
        self._obs.register_callback("executor.queue.depth", self._queued_messages)
        # Supervision state.  `_recover_cond` guards `_recovering` (worker
        # indexes mid-recovery) and the per-worker `_pending` park buffers;
        # everything else is only touched under the API lock or by the
        # single supervisor thread.
        self._supervise = bool(supervise)
        self._restart_policy = restart_policy or RestartPolicy()
        self._wal: Optional[WriteAheadLog] = (
            WriteAheadLog(wal_dir, fsync=wal_fsync, registry=self._obs)
            if wal_dir is not None
            else None
        )
        self._recover_cond = threading.Condition()
        self._recovering: Set[int] = set()
        self._restart_counts: List[int] = [0] * self._workers
        self._total_restarts = 0
        self._pending: List[List[Tuple[int, bytes]]] = [
            [] for _ in range(self._workers)
        ]
        self._last_checkpoint_path: Optional[str] = None
        self._supervisor_wake = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._m_restarts = self._obs.counter("supervisor.restarts")
        self._obs.register_callback(
            "fleet.workers.recovering", lambda: len(self._recovering)
        )
        config = {
            "spec": spec.to_dict(),
            "seed": self._seed,
            "max_keys_per_shard": self._max_keys_per_shard,
            "idle_ttl": self._idle_ttl,
            "track_occurrences": self._track_occurrences,
            "parent_pid": os.getpid(),
            # Workers mirror the coordinator's observability settings: a
            # real per-process registry when metrics are on, and the same
            # logging level/format on their own stderr.
            "obs": self._obs.enabled,
            "log": logging_config(),
        }
        self._worker_config = config
        self._inboxes = []
        self._replies = []
        self._processes = []
        try:
            for index in range(self._workers):
                inbox, replies, process = self._spawn_worker(index)
                self._inboxes.append(inbox)
                self._replies.append(replies)
                self._processes.append(process)
        except BaseException:
            _reap_processes(self._processes)
            raise
        # Belt and braces against orphans: reap the fleet even if the engine
        # is garbage-collected (or the interpreter exits) without close().
        self._finalizer = weakref.finalize(
            self, _reap_processes, list(self._processes)
        )
        if self._supervise:
            self._supervisor = threading.Thread(
                target=self._supervisor_loop,
                name="swsample-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def _spawn_worker(self, index: int) -> Tuple[Any, Any, Any]:
        """Build one worker's channels and start its process; the caller
        wires the pieces into the fleet lists (initial spawn) or swaps them
        in (recovery)."""
        context = self._mp_context
        inbox = context.Queue(maxsize=_QUEUE_DEPTH)
        replies = context.Queue()
        worker_config = {
            **self._worker_config,
            "shard_indexes": self._shard_sets[index],
        }
        process = context.Process(
            target=_process_worker_main,
            args=(worker_config, inbox, replies),
            name=f"swsample-shard-worker-{index}",
            daemon=True,
        )
        process.start()
        return inbox, replies, process

    def _create_pools(self) -> List[KeyedSamplerPool]:
        # The shards live in the worker processes; the coordinator keeps
        # none.  Any base-class code path that would touch local pools must
        # have been overridden — `pools` below makes a miss fail loudly.
        return []

    @property
    def pools(self) -> Tuple[KeyedSamplerPool, ...]:
        raise ExecutorError(
            "a ProcessEngine's shards are resident in its worker processes;"
            " use the query/aggregate/state_dict surface instead of raw pools"
        )

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    def _worker_of(self, shard: int) -> int:
        return shard % self._workers

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    def _next_rid(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _note_failure(self, text: str) -> None:
        if self._failure is None:
            self._failure = text
            # Wake anything parked on recovery state (parked ingest, the
            # checkpoint drain wait): the fleet just went sticky-failed.
            with self._recover_cond:
                self._recover_cond.notify_all()

    def _raise_failure(self) -> None:
        if self._failure is not None:
            raise WorkerFailure(
                f"a shard worker failed; the fleet may have lost arrivals:"
                f" {self._failure}"
            )

    def _recovering_error(self, indexes: Iterable[int]) -> ShardRecovering:
        """The retryable degraded-mode error for these workers."""
        chosen = sorted(set(indexes))
        shards = tuple(
            sorted(
                shard for index in chosen for shard in self._shard_sets[index]
            )
        )
        attempt = max(self._restart_counts[index] for index in chosen) + 1
        retry_after = self._restart_policy.delay(attempt) + 1.0
        return ShardRecovering(
            f"worker(s) {', '.join(map(str, chosen))} are being restarted;"
            f" shards {list(shards)} are mid-recovery — retry shortly",
            shards=shards,
            retry_after=retry_after,
        )

    def _ensure_alive(self, index: int) -> None:
        self._raise_failure()
        if index in self._recovering:
            raise self._recovering_error((index,))
        process = self._processes[index]
        if not process.is_alive():
            if self._supervise and not self._closed:
                # Kick the supervisor (it also polls) and report the
                # condition as retryable: recovery is about to begin.
                self._supervisor_wake.set()
                raise self._recovering_error((index,))
            self._note_failure(
                f"worker process {index} (pid {process.pid}) died"
                f" with exit code {process.exitcode}"
            )
            self._raise_failure()

    def _queued_messages(self) -> int:
        """Messages currently sitting in worker inboxes (callback gauge).
        Best effort: ``qsize`` is unimplemented on some platforms and the
        queues may already be closed when a late snapshot fires."""
        total = 0
        for inbox in self._inboxes:
            try:
                total += inbox.qsize()
            except (NotImplementedError, OSError, ValueError):
                pass
        return total

    #: Ops that cannot change any shard's generation.  Everything else
    #: ("apply", "advance", "set_state") invalidates the
    #: generation memo, and so does "qbatch" on timestamp windows, whose
    #: sample/frequent ops advance clocks lazily.
    _NONMUTATING_OPS = frozenset(
        {"barrier", "keys", "generations", "sampler", "items", "get_state",
         "checkpoint", "perf", "metrics"}
    )

    def _send(self, index: int, message: Tuple[Any, ...]) -> None:
        if index in self._recovering:
            # Defence in depth: every caller checks first (dispatch parks,
            # queries raise, barriers skip), but nothing may interleave with
            # a recovery drain on the fresh worker's queue.
            raise self._recovering_error((index,))
        kind = message[0]
        if kind not in self._NONMUTATING_OPS and (kind != "qbatch" or self._spec.is_timestamp):
            self._generations_cache = None
        stalled: Optional[float] = None
        while True:
            try:
                self._inboxes[index].put(message, timeout=_POLL_INTERVAL)
                if stalled is not None:
                    self._m_backpressure_seconds.inc(time.perf_counter() - stalled)
                return
            except queue.Full:
                if stalled is None:
                    # Backdate to the start of the first timed-out put: the
                    # stall began when the queue first refused the message.
                    stalled = time.perf_counter() - _POLL_INTERVAL
                self._ensure_alive(index)  # raises once the worker is gone
            except (ValueError, OSError):
                # The channel was torn down (worker death noticed elsewhere,
                # or a recovery replaced the queues under a racing caller).
                self._ensure_alive(index)
                raise ExecutorError(f"channel to worker {index} is closed")

    def _receive(self, index: int, rid: int) -> Tuple[Any, ...]:
        while True:
            try:
                reply = self._replies[index].get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                self._ensure_alive(index)
                continue
            except (ValueError, OSError):
                self._ensure_alive(index)
                raise ExecutorError(f"channel to worker {index} is closed")
            if reply[1] != rid:
                # Stale reply from an exchange interrupted by a failure;
                # everything after a failure raises anyway, so just drop it.
                continue
            return reply

    def _request(self, index: int, op: str, *args: Any) -> Any:
        rid = self._next_rid()
        self._send(index, (op, rid) + args)
        reply = self._receive(index, rid)
        if reply[0] == "error":
            raise reply[2]
        return reply[2]

    def _broadcast(self, op: str, *args: Any) -> List[Any]:
        """Fan one request out to every worker; collect replies in worker
        order.  Workers compute concurrently — the sends all complete before
        the first receive blocks."""
        rid = self._next_rid()
        for index in range(self._workers):
            self._send(index, (op, rid) + args)
        results: List[Any] = []
        errors: List[BaseException] = []
        for index in range(self._workers):
            reply = self._receive(index, rid)
            if reply[0] == "error":
                errors.append(reply[2])
            else:
                results.append(reply[2])
        if errors:
            raise errors[0]
        return results

    def _merged(self, op: str, *args: Any) -> Dict[int, Any]:
        """Broadcast an op whose replies are per-shard dicts; merge them."""
        merged: Dict[int, Any] = {}
        for result in self._broadcast(op, *args):
            merged.update(result)
        return merged

    # -- dataflow ------------------------------------------------------------

    def ingest(self, records: Iterable[Any]) -> int:
        """Validate, clock-stamp and dispatch a batch to the shard workers.

        Same record and clock contract as :meth:`ShardedEngine.ingest`, and
        the same loop: the serial engine's router cuts the per-shard
        sub-batches and hands each to :meth:`_dispatch`.  On a mid-batch
        error the validated prefix is dispatched (and will be applied)
        before the error propagates.  Returns the number of records
        dispatched — call :meth:`flush` (or any query) for a barrier.
        """
        with self._api_lock:
            if self._closed:
                raise ExecutorError("engine is closed")
            self._raise_failure()
            return super().ingest(records)

    def _dispatch(self, shard: int, batch: List[Tuple[Any, Any, Optional[float]]]) -> None:
        perf = time.perf_counter
        started = perf()
        payload = encode_batch(batch)
        self._m_encode_seconds.inc(perf() - started)
        self._m_encoded_bytes.inc(len(payload))
        self._m_dispatched_batches.inc()
        self._m_dispatched_records.inc(len(batch))
        worker = self._worker_of(shard)
        if self._supervise and self._park_dispatch(worker, shard, payload):
            self._unbarriered = True
            return
        # Journal-before-send: once appended, the sub-batch survives worker
        # death — the supervisor's tail read is serialised behind this
        # ingest's API lock, so it replays exactly the journaled prefix.
        # The journal and the queue carry the same payload bytes.
        if self._wal is not None:
            self._wal.append(shard, payload, records=len(batch))
        # The dispatch stage covers the whole hand-off, including any
        # backpressure stall on a full inbox.
        started = perf()
        try:
            self._send(worker, ("apply", shard, payload))
        except ShardRecovering:
            # The worker died under our feet, after the journal append:
            # abandon the send — the record is in the tail the supervisor
            # replays, so delivering it here too would double-apply.
            pass
        finally:
            self._m_dispatch_seconds.inc(perf() - started)
        self._unbarriered = True

    def transport_report(self) -> Dict[str, Any]:
        """Cumulative per-stage transport cost of this fleet's ingest path.

        Returns a dict with the coordinator-side stages (``encode_seconds``
        — columnar packing; ``dispatch_seconds`` — time spent handing
        payloads to the workers, backpressure stalls included) and the
        worker-side stages summed over the fleet (``decode_seconds``,
        ``apply_seconds``), plus batch/record/byte counters.  ``workers``
        breaks the worker-side stages down per worker (in worker order, each
        entry carrying ``worker``/``decode_seconds``/``apply_seconds``/
        ``batches``/``records``), so a straggler hiding inside a healthy
        fleet-wide sum is visible directly.

        All of these numbers live and die with the engine instance: they
        are not checkpointed, and ``close()`` discards them.
        """
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            decode_seconds = 0.0
            apply_seconds = 0.0
            workers: List[Dict[str, Any]] = []
            for index, partial in enumerate(self._broadcast("perf")):
                decode_seconds += partial["decode_seconds"]
                apply_seconds += partial["apply_seconds"]
                workers.append({"worker": index, **partial})
            return {
                "batches": self._m_dispatched_batches.value,
                "records": self._m_dispatched_records.value,
                "encoded_bytes": self._m_encoded_bytes.value,
                "encode_seconds": self._m_encode_seconds.value,
                "dispatch_seconds": self._m_dispatch_seconds.value,
                "decode_seconds": decode_seconds,
                "apply_seconds": apply_seconds,
                "workers": workers,
            }

    def _barrier(self) -> None:
        if self._failure is not None or not self._unbarriered:
            return  # sticky failures re-raise in flush(); nothing in flight
        # Recovering workers are skipped: their parked/journaled work drains
        # through the supervisor, and the fleet stays unbarriered until then
        # so the first post-recovery flush barriers the drained records.
        targets = [
            index
            for index in range(self._workers)
            if index not in self._recovering
        ]
        rid = self._next_rid()
        for index in targets:
            self._send(index, ("barrier", rid))
        for index in targets:
            reply = self._receive(index, rid)
            if reply[2] is not None:
                self._note_failure(
                    f"a shard worker failed while applying records: {reply[2]}"
                )
        self._unbarriered = bool(self._recovering)

    def flush(self) -> None:
        """Block until every dispatched record has been applied, then
        re-raise any worker failure.  The consistency barrier for queries."""
        with self._api_lock:
            self._barrier()
            self._raise_failure()

    def close(self) -> None:
        """Drain outstanding work and reap the worker processes (idempotent).

        A closed engine cannot answer queries — its shard state lived in
        the workers.  Checkpoint (or ``state_dict()``) before closing if the
        state matters.
        """
        with self._api_lock:
            if self._closed:
                return
            try:
                if self._failure is None:
                    try:
                        self._barrier()
                    except ShardRecovering:
                        pass  # recovering worker: reap it without draining
            finally:
                self._closed = True
                with self._recover_cond:
                    self._recover_cond.notify_all()
                self._stop_supervisor()
                self._shutdown_fleet()
                if self._wal is not None:
                    self._wal.close()
            self._raise_failure()

    def _stop_supervisor(self) -> None:
        supervisor = self._supervisor
        if supervisor is None:
            return
        self._supervisor_wake.set()
        if supervisor is not threading.current_thread():
            supervisor.join(timeout=_JOIN_TIMEOUT)
        self._supervisor = None

    def _shutdown_fleet(self) -> None:
        for inbox in self._inboxes:
            try:
                inbox.put(("shutdown",), timeout=_POLL_INTERVAL)
            except (queue.Full, ValueError, OSError):
                pass  # dead or wedged worker: escalate to terminate below
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
        _reap_processes(self._processes)
        self._finalizer.detach()  # fleet reaped; nothing left for GC to do
        for channel in self._inboxes + self._replies:
            channel.close()
            # The queue feeder thread would otherwise block interpreter exit
            # if a dead worker left pipe buffers full.
            channel.cancel_join_thread()

    # -- supervision (self-healing worker restarts) ---------------------------

    def _supervisor_loop(self) -> None:
        """Daemon loop: notice dead workers and recover them in place.

        API threads that trip over a corpse first set ``_supervisor_wake``
        so detection is immediate under traffic; the poll is only the
        ceiling for an otherwise idle fleet.
        """
        while True:
            self._supervisor_wake.wait(timeout=_SUPERVISOR_POLL)
            self._supervisor_wake.clear()
            if self._closed or self._failure is not None:
                return
            for index in range(self._workers):
                if self._closed or self._failure is not None:
                    return
                if index in self._recovering:
                    continue
                if not self._processes[index].is_alive():
                    self._recover_worker(index)

    def _recover_worker(self, index: int) -> None:
        """Restart one dead worker within the restart budget; on success the
        fleet is healthy again, on exhaustion it goes sticky-failed."""
        with span("recovery", registry=self._obs):
            last_error: Optional[BaseException] = None
            while not self._closed and self._failure is None:
                self._restart_counts[index] += 1
                attempt = self._restart_counts[index]
                if attempt > self._restart_policy.max_restarts:
                    self._give_up(
                        index,
                        f"restart budget exhausted after"
                        f" {self._restart_policy.max_restarts} attempt(s)"
                        f" (last error: {last_error})",
                    )
                    return
                self._m_restarts.inc()
                self._total_restarts += 1
                delay = self._restart_policy.delay(attempt)
                if delay:
                    time.sleep(delay)
                try:
                    self._restart_and_replay(index)
                except _RecoveryAborted:
                    return
                except Exception as error:
                    last_error = error
                    logger.warning(
                        "restart attempt %d for worker %d failed: %s",
                        attempt,
                        index,
                        error,
                    )
                    continue
                logger.info("worker %d recovered on attempt %d", index, attempt)
                return

    def _lock_api_for_supervisor(self) -> None:
        """Take the API lock from the supervisor thread, bailing out if the
        engine closes or goes sticky-failed while waiting."""
        while not self._api_lock.acquire(timeout=_POLL_INTERVAL):
            if self._closed or self._failure is not None:
                raise _RecoveryAborted
        if self._closed or self._failure is not None:
            self._api_lock.release()
            raise _RecoveryAborted

    def _restart_and_replay(self, index: int) -> None:
        """One restart attempt: mark, restore from checkpoint, replay the
        journal tail, swap the fresh worker in, drain parked dispatches.

        Exactly-once reasoning: the mark-and-read-tail step holds the API
        lock, so every dispatch either journaled *before* the tail was read
        (its queued copy dies with the old worker and the tail replays it)
        or observes ``recovering`` afterwards and parks.  Parked entries are
        journaled one by one as the drain sends them, keeping the journal in
        true dispatch order for any *subsequent* crash.
        """
        from .checkpoint import forget_saved_segments

        # Phase 1 — mark the worker recovering and freeze its journal tail,
        # serialised against the whole public surface.
        self._lock_api_for_supervisor()
        try:
            with self._recover_cond:
                self._recovering.add(index)
            self._generations_cache = None
            shard_set = self._shard_sets[index]
            tails = {shard: self._wal.tail(shard) for shard in shard_set}
            checkpoint_path = self._last_checkpoint_path
            # The rebuilt pools restart generation counting, so a later
            # incremental save must rewrite these shards' segments rather
            # than reuse entries memoised from the dead worker's lifetime.
            forget_saved_segments(self, shard_set)
        finally:
            self._api_lock.release()
        # Phase 2 — reap the corpse and its channels (outside the API lock:
        # ingest and queries keep flowing to the healthy workers).
        _reap_processes([self._processes[index]])
        for channel in (self._inboxes[index], self._replies[index]):
            try:
                channel.close()
                channel.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover - already torn
                pass
        # Phase 3 — spawn the replacement and rebuild its shard state.
        inbox, replies, process = self._spawn_worker(index)
        swapped = False
        try:
            states: Dict[int, Any] = {}
            if checkpoint_path is not None:
                states = self._segment_states(checkpoint_path, shard_set)
            if states:
                self._recovery_put(process, inbox, ("set_state", -1, states))
                reply = self._recovery_get(process, replies, -1)
                if reply[0] == "error":
                    raise reply[2]
            # Phase 4 — replay the journal tail in original dispatch order.
            for shard in shard_set:
                for payload in tails.get(shard, ()):
                    self._recovery_put(process, inbox, ("apply", shard, payload))
            self._recovery_put(process, inbox, ("barrier", -2))
            reply = self._recovery_get(process, replies, -2)
            if reply[2] is not None:
                raise ExecutorError(
                    f"worker {index} failed while replaying its journal:"
                    f" {reply[2]}"
                )
            # Phase 5 — swap the fresh worker into the fleet.
            with self._recover_cond:
                self._processes[index] = process
                self._inboxes[index] = inbox
                self._replies[index] = replies
                swapped = True
            self._rebuild_finalizer()
        except BaseException:
            if not swapped:
                _reap_processes([process])
                for channel in (inbox, replies):
                    try:
                        channel.close()
                        channel.cancel_join_thread()
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            raise
        # Phase 6 — drain parked dispatches, then mark the worker healthy.
        self._drain_pending(index, process, inbox)

    def _segment_states(
        self, path: str, shard_set: Tuple[int, ...]
    ) -> Dict[int, Any]:
        """Load this worker's shard states from the last checkpoint's
        digest-verified segments (coordinator-side; only these shards)."""
        from .checkpoint import load_shard_states

        return load_shard_states(path, shard_set, self.shards)

    def _recovery_put(self, process: Any, inbox: Any, message: Tuple[Any, ...]) -> None:
        while True:
            if self._closed:
                raise _RecoveryAborted
            try:
                inbox.put(message, timeout=_POLL_INTERVAL)
                return
            except queue.Full:
                if not process.is_alive():
                    raise ExecutorError(
                        f"worker process died again during recovery"
                        f" (exit code {process.exitcode})"
                    )

    def _recovery_get(self, process: Any, replies: Any, rid: int) -> Tuple[Any, ...]:
        while True:
            if self._closed:
                raise _RecoveryAborted
            try:
                reply = replies.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                if not process.is_alive():
                    raise ExecutorError(
                        f"worker process died again during recovery"
                        f" (exit code {process.exitcode})"
                    )
                continue
            if reply[1] != rid:
                continue  # residue from an abandoned earlier exchange
            return reply

    def _drain_pending(self, index: int, process: Any, inbox: Any) -> None:
        """Flush the park buffer to the fresh worker, journaling each entry
        as it goes out, then clear the recovering mark."""
        while True:
            with self._recover_cond:
                pending = self._pending[index]
                if not pending:
                    # Degraded-mode reads never cached, but invalidate too:
                    # the recovered worker's generations restarted.
                    self._generations_cache = None
                    self._unbarriered = True
                    self._recovering.discard(index)
                    self._restart_counts[index] = 0
                    self._recover_cond.notify_all()
                    return
                shard, payload = pending[0]
                # Journal before popping: if the send below fails, the entry
                # is already in the tail the next attempt replays — and no
                # longer pending.  Exactly once either way.
                self._wal.append(shard, payload)
                pending.pop(0)
                self._recover_cond.notify_all()
            self._recovery_put(process, inbox, ("apply", shard, payload))

    def _give_up(self, index: int, reason: str) -> None:
        logger.error("giving up on worker %d: %s", index, reason)
        with self._recover_cond:
            self._note_failure(
                f"supervised worker {index} could not be recovered: {reason}"
            )
            self._recovering.discard(index)
            self._pending[index].clear()
            self._recover_cond.notify_all()

    def _rebuild_finalizer(self) -> None:
        """Re-arm the GC finalizer over the post-recovery fleet (the old one
        captured the dead process)."""
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self, _reap_processes, list(self._processes)
        )

    def _park_dispatch(self, worker: int, shard: int, payload: bytes) -> bool:
        """Hold a sub-batch for a recovering worker (bounded, blocking).

        Parked entries are journaled by the drain, not here, so the journal
        stays in true dispatch order.  Returns ``False`` when the worker is
        healthy (the caller dispatches normally)."""
        with self._recover_cond:
            while True:
                if self._failure is not None:
                    self._raise_failure()
                if worker not in self._recovering:
                    return False
                if len(self._pending[worker]) < _QUEUE_DEPTH * _PENDING_DEPTH_FACTOR:
                    self._pending[worker].append((shard, payload))
                    return True
                started = time.perf_counter()
                self._recover_cond.wait(timeout=_POLL_INTERVAL)
                self._m_backpressure_seconds.inc(time.perf_counter() - started)

    def _check_fleet_ready(self) -> None:
        """Fleet-wide operations need every shard: raise the retryable
        :class:`ShardRecovering` rather than a silently-partial answer."""
        if self._recovering:
            raise self._recovering_error(self._recovering)

    def liveness(self) -> Dict[str, Any]:
        """Lock-free per-worker liveness report (drives ``/healthz``):
        ``degraded`` plus one row per worker with pid / alive / recovering /
        current-incident restart count / owned shards.  Best effort — it
        deliberately does not take the API lock, so a row can be a moment
        stale, but it can never block behind a slow query or a recovery."""
        recovering = set(self._recovering)
        workers: List[Dict[str, Any]] = []
        for index in range(self._workers):
            process = self._processes[index]
            try:
                alive = bool(process.is_alive())
            except (OSError, ValueError):  # pragma: no cover - torn process
                alive = False
            workers.append(
                {
                    "worker": index,
                    "pid": process.pid,
                    "alive": alive,
                    "recovering": index in recovering,
                    "restarts": self._restart_counts[index],
                    "shards": list(self._shard_sets[index]),
                }
            )
        return {
            "degraded": bool(recovering),
            "failed": self._failure is not None,
            "recovering_shards": sorted(
                shard for index in recovering for shard in self._shard_sets[index]
            ),
            "restarts": self._total_restarts,
            "workers": workers,
        }

    def replay_wal(self) -> int:
        """Re-apply every journaled sub-batch left behind by a previous
        coordinator (call after resuming from a checkpoint whose WAL
        directory outlived it).  Returns the number of records re-applied.

        The journal is *not* truncated afterwards — the records are not yet
        covered by a checkpoint; the next committed save truncates it.
        """
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            if self._wal is None:
                return 0
            replayed = 0
            max_ts: Optional[float] = None
            clocked = self._spec.is_timestamp
            for shard, payloads in self._wal.replay():
                if shard >= self.shards:
                    raise ConfigurationError(
                        f"journal names shard {shard} but this engine has"
                        f" {self.shards} shards — the WAL directory belongs"
                        f" to a different engine recipe"
                    )
                worker = self._worker_of(shard)
                for payload in payloads:
                    batch = decode_batch(payload)
                    replayed += len(batch)
                    if clocked and batch:
                        stamp = batch[-1][2]
                        if stamp is not None and (max_ts is None or stamp > max_ts):
                            max_ts = stamp
                    self._send(worker, ("apply", shard, payload))
                    self._unbarriered = True
            if max_ts is not None and max_ts > self._now:
                self._now = max_ts
            self.flush()
            return replayed

    def discard_wal(self) -> int:
        """Drop any journal left behind by a previous coordinator; returns
        the bytes discarded.

        A fresh (non-resuming) start over an old WAL directory must call
        this: the stale records belong to state this fleet never held, and
        a later recovery would otherwise replay them into the wrong window.
        Resume paths call :meth:`replay_wal` instead and keep the journal.
        """
        with self._api_lock:
            self._check_query()
            if self._wal is None:
                return 0
            stale = self._wal.bytes_on_disk()
            if stale:
                logger.warning(
                    "discarding %d byte(s) of stale WAL in %s (fresh start,"
                    " not resuming)",
                    stale,
                    self._wal.directory,
                )
            self._wal.truncate()
            return stale

    def _checkpoint_committed(self, path: str) -> None:
        # Called by write_checkpoint after the manifest swap: the journal is
        # now fully covered by on-disk segments, so recovery restarts from
        # this checkpoint and the journal resets.
        self._last_checkpoint_path = path
        if self._wal is not None:
            self._wal.truncate()

    def _restored_from(self, path: str) -> None:
        self._last_checkpoint_path = path

    # -- queries (request/reply; workers compute, results travel) ------------

    def _check_query(self) -> None:
        if self._closed:
            raise ExecutorError(
                "engine is closed — a ProcessEngine's shards lived in its"
                " worker processes; query (or checkpoint) before close()"
            )
        self._raise_failure()

    @contextlib.contextmanager
    def _read_guard(self):
        with self._api_lock:
            self._check_query()
            self.flush()
            yield

    def _read_cache(self) -> Optional[QueryCache]:
        # Degraded: generations are in flux (and fetching them would need
        # the recovering worker anyway) — compute without memoising.
        return None if self._recovering else self._query_cache

    def advance_time(self, now: float) -> None:
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            if now > self._now:
                self._now = now
            self._broadcast("advance", now)

    def sampler_for(self, key: Any) -> WindowSampler:
        """A **detached copy** of the key's sampler (read-only; ``KeyError``
        when absent).  The live sampler stays resident in its worker —
        mutating the copy does not touch fleet state."""
        with self._api_lock:
            self._check_query()
            self.flush()
            shard = self.shard_of(key)
            worker = self._worker_of(shard)
            if worker in self._recovering:
                raise self._recovering_error((worker,))
            return self._request(worker, "sampler", shard, key)

    def _degraded_stats_fields(self, recovering: List[int]) -> Dict[str, Any]:
        return {
            "degraded": True,
            "workers": {
                "recovering": sorted(recovering),
                "recovering_shards": sorted(
                    shard
                    for index in recovering
                    for shard in self._shard_sets[index]
                ),
                "restarts": self._total_restarts,
            },
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One fleet-wide metrics snapshot: the coordinator's registry
        merged with every worker process's resident registry (fetched over
        the ``metrics`` op).

        Deliberately lenient about worker death: a SIGKILL'd worker cannot
        report, so its metrics are simply missing from the merge, and the
        gauges ``fleet.workers`` / ``fleet.workers.reporting`` /
        ``fleet.workers.lost`` record how complete the snapshot is.  Unlike
        queries, this never raises :class:`WorkerFailure` — a partial
        snapshot of a dying fleet is exactly when metrics matter most.
        Raises :class:`ExecutorError` only on a closed engine.
        """
        with self._api_lock:
            if self._closed:
                raise ExecutorError(
                    "engine is closed — a ProcessEngine's shards lived in its"
                    " worker processes; snapshot metrics before close()"
                )
            try:
                self._barrier()
            except (WorkerFailure, ShardRecovering):
                pass  # dead or healing fleet: merge whatever still answers
            snapshots = [self._obs.snapshot()]
            reporting = 0
            for index in range(self._workers):
                if index in self._recovering:
                    continue  # mid-recovery: nothing to ask yet
                try:
                    snapshots.append(self._request(index, "metrics"))
                    reporting += 1
                except (WorkerFailure, ExecutorError):
                    continue
            merged = merge_snapshots(snapshots)
            if self._obs.enabled:
                merged["gauges"]["fleet.workers"] = self._workers
                merged["gauges"]["fleet.workers.reporting"] = reporting
                merged["gauges"]["fleet.workers.lost"] = self._workers - reporting
            return merged

    def keys(self) -> List[Any]:
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            by_shard = self._merged("keys")
            result: List[Any] = []
            for shard in range(self._shards):
                result.extend(by_shard.get(shard, []))
            return result

    def items(self) -> Iterator[Tuple[Any, WindowSampler]]:
        """Iterate ``(key, sampler)`` over every live key — the samplers are
        **detached copies** (see :meth:`sampler_for`), yielded in the serial
        engine's shard order."""
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            by_shard = self._merged("items")
            result: List[Tuple[Any, WindowSampler]] = []
            for shard in range(self._shards):
                result.extend(by_shard.get(shard, []))
            return iter(result)

    def _compute_query_ops(
        self, plans: List[Tuple[Any, ...]]
    ) -> List[Tuple[Any, Any]]:
        """One ``qbatch`` round: per-key ops ship only to the worker owning
        their shard, aggregates to every worker, and all workers compute
        concurrently (send-all-then-receive).

        While a worker is mid-recovery the batch degrades per op: per-key
        ops for its shards and ranked/merged aggregates (which need every
        shard) answer :class:`ShardRecovering`; ``stats`` answers the
        healthy workers' totals labelled ``degraded``.
        """
        recovering = sorted(self._recovering)
        targets = [index for index in range(self._workers) if index not in recovering]
        outcomes: List[Any] = [None] * len(plans)
        # Per worker: the routed ops it evaluates and the slot each answers.
        routed: Dict[int, List[Tuple[Any, ...]]] = {index: [] for index in targets}
        slots: Dict[int, List[int]] = {index: [] for index in targets}
        for slot, plan in enumerate(plans):
            if plan[0] in _PER_KEY_OPS:
                shard = self.shard_of(plan[1])
                owner = self._worker_of(shard)
                if owner in recovering:
                    outcomes[slot] = ("error", self._recovering_error((owner,)))
                    continue
                plan, owners = plan + (shard,), (owner,)
            elif recovering and plan[0] != "stats":
                # Ranked/merged aggregates need every shard; a partial
                # answer would be silently wrong.
                outcomes[slot] = ("error", self._recovering_error(recovering))
                continue
            else:
                owners = targets
            for index in owners:
                routed[index].append(plan)
                slots[index].append(slot)
        busy = [index for index in targets if routed[index]]
        rid = self._next_rid()
        for index in busy:
            self._send(index, ("qbatch", rid, routed[index], self._now))
        partials: Dict[int, List[Tuple[Any, Any]]] = {}
        errors: List[BaseException] = []
        for index in busy:
            reply = self._receive(index, rid)
            if reply[0] == "error":
                errors.append(reply[2])
                continue
            for slot, outcome in zip(slots[index], reply[2]):
                partials.setdefault(slot, []).append(outcome)
        if errors:
            raise errors[0]
        for slot, plan in enumerate(plans):
            if outcomes[slot] is None:
                outcome = self._merge_outcome(plan, partials.get(slot, []))
                if recovering and plan[0] == "stats" and outcome[0] == "ok":
                    outcome[1].update(self._degraded_stats_fields(recovering))
                outcomes[slot] = outcome
        return outcomes

    # -- state & checkpointing -----------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            by_shard = self._merged("get_state")
            return {
                **self._state_header(),
                "pools": [by_shard[shard] for shard in range(self._shards)],
            }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            self._validate_state(state)
            # Send-all-then-receive (the _broadcast pattern, with per-worker
            # payloads): every worker deserialises and loads its shards
            # concurrently, so restore latency is the slowest worker's, not
            # the sum.
            rid = self._next_rid()
            for index in range(self._workers):
                self._send(
                    index,
                    (
                        "set_state",
                        rid,
                        {shard: state["pools"][shard] for shard in self._shard_sets[index]},
                    ),
                )
            errors: List[BaseException] = []
            for index in range(self._workers):
                reply = self._receive(index, rid)
                if reply[0] == "error":
                    errors.append(reply[2])
            if errors:
                raise errors[0]
            self._now = float(state["now"])

    def _segment_generations(self) -> List[int]:
        with self._api_lock:
            self._check_query()
            self._check_fleet_ready()
            self.flush()
            if self._generations_cache is None:
                by_shard = self._merged("generations")
                self._generations_cache = [
                    by_shard[shard] for shard in range(self._shards)
                ]
            return list(self._generations_cache)

    @contextlib.contextmanager
    def _checkpoint_guard(self):
        with self._api_lock:
            if self._recovering:
                # A snapshot now would capture a stale segment for the
                # recovering shards (their live state is mid-rebuild).  Wait
                # for the drain; if it does not finish in time, fail loudly
                # naming the shards rather than write a wrong checkpoint.
                with self._recover_cond:
                    self._recover_cond.wait_for(
                        lambda: not self._recovering
                        or self._failure is not None
                        or self._closed,
                        timeout=_CHECKPOINT_DRAIN_TIMEOUT,
                    )
                if self._recovering:
                    shards = sorted(
                        shard
                        for index in self._recovering
                        for shard in self._shard_sets[index]
                    )
                    raise CheckpointError(
                        f"cannot checkpoint while shards {shards} are"
                        f" mid-recovery: the snapshot would capture stale"
                        f" segments — wait for recovery to drain and retry"
                    )
            try:
                self._check_query()
                self.flush()
            except ExecutorError as error:
                # A checkpoint attempt against a dead or closed fleet is a
                # checkpoint failure to its caller, whatever the root cause.
                raise CheckpointError(f"cannot checkpoint this fleet: {error}") from error
            yield

    def _checkpoint_segments(self, path: str, plan: Dict[int, Any]) -> List[Dict[str, Any]]:
        # Workers persist their own resident shards — the pickling happens
        # in parallel across processes and only manifest entries come back.
        rid = self._next_rid()
        try:
            for index in range(self._workers):
                worker_plan = {
                    shard: plan[shard]
                    for shard in self._shard_sets[index]
                    if shard in plan
                }
                self._send(index, ("checkpoint", rid, path, worker_plan))
            by_shard: Dict[int, Dict[str, Any]] = {}
            for index in range(self._workers):
                reply = self._receive(index, rid)
                if reply[0] == "error":
                    raise reply[2]
                by_shard.update(reply[2])
        except CheckpointError:
            raise
        except (ExecutorError, OSError) as error:
            raise CheckpointError(
                f"checkpoint failed: a worker could not write its shard"
                f" segments ({error})"
            ) from error
        return [by_shard[shard] for shard in range(self._shards)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessEngine(workers={self._workers}, shards={self.shards}, "
            f"spec={self._spec.describe()!r})"
        )
