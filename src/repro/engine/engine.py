"""The sharded keyed engine: batched ingest, per-key queries, aggregates.

:class:`ShardedEngine` hash-partitions the keyspace over N
:class:`~repro.engine.pool.KeyedSamplerPool` shards.  Shard routing uses the
stable hash of :mod:`repro.engine.hashing` with a fixed salt, so a key's
shard is a pure function of ``(key, shard_count)`` — independent of the
engine seed, of ingest order, and of process restarts.

The shard layer exists for scale-out: each shard is an independent ingest
point with its own eviction bookkeeping, so
:class:`~repro.engine.ProcessEngine` hosts shards in worker processes without
touching the per-key machinery.  It also bounds per-shard key-table sizes and
keeps eviction sweeps shard-local.

Every read is a query op: :meth:`ShardedEngine.query` answers one,
:meth:`ShardedEngine.query_batch` many, and the scalar reads are thin
wrappers over ``query``.  :func:`_evaluate_ops` answers ops over a
``{shard: pool}`` map — all shards on the serial engine, a worker's own
shards in a worker process — and :meth:`ShardedEngine._merge_outcome` turns
the partials into answers for both engines.

Cross-key aggregates reuse the Section-5 application estimators: merged
frequent items use the sample-and-count heavy-hitter argument (one weighted
pool over every key's window sample), and per-key frequency moments feed the
samplers' :class:`~repro.core.tracking.OccurrenceCounter` statistics through
:func:`repro.applications.ams_estimate_from_counts`.
"""

from __future__ import annotations

import contextlib
import heapq
import time
from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.base import SequenceWindowSampler, WindowSampler
from ..core.serialization import STATE_FORMAT, require_state_fields
from ..core.tracking import OccurrenceCounter
from ..exceptions import (
    ConfigurationError,
    EmptyWindowError,
    InsufficientSampleError,
    SamplingFailureError,
    StreamOrderError,
    WorkerFailure,
)
from ..obs import get_registry
from ..streams.element import StreamElement
from .hashing import stable_key_bytes, stable_key_hash
from .pool import KeyedSamplerPool
from .querycache import QueryCache
from .spec import SamplerSpec
from .transport import SUB_BATCH

__all__ = ["ShardedEngine"]

#: Fixed salt for shard routing (kept distinct from the per-key seed salt so
#: shard placement and sampler randomness are independent hash families).
_ROUTE_SALT = 0x51A2DED

#: Records buffered by the grouped loop before its per-key groups are
#: flushed into the pools.  Bounds the transient grouping memory on
#: arbitrarily long record iterables; pool state is chunk-boundary-invariant
#: (see :meth:`KeyedSamplerPool.extend_batch`), so the value only affects
#: locality, never results.
_INGEST_CHUNK = 32768

#: Records per shard sub-batch cut by the router: one
#: :meth:`KeyedSamplerPool.extend_batch` call on the serial engine, one
#: columnar payload on :class:`~repro.engine.ProcessEngine`.  A module
#: constant, read once per ingest call, so tests can monkeypatch it to cut
#: small sub-batches.
_SUB_BATCH = SUB_BATCH

#: Distinct keys the router's per-call shard memo holds before it is
#: cleared, so one long ingest call cannot grow it without bound.
_SHARD_MEMO_KEYS = 65536


def _unpack_record(record: Any) -> Tuple[Any, Any, Optional[float]]:
    """Normalise one keyed record to ``(key, value, timestamp_or_None)``.

    The slow path of both ingest loops, which unpack plain tuples inline and
    hand anything else here.  Clock semantics (stamping missing timestamps,
    the global non-decreasing check) stay with the caller.
    """
    if isinstance(record, (str, bytes)):
        # Strings are sized and unpackable, so they would silently shred
        # into per-character records.
        raise ConfigurationError(
            f"keyed records must be (key, value[, timestamp]) tuples, got {record!r}"
        )
    try:
        width = len(record)
    except TypeError:
        raise ConfigurationError(
            f"keyed records must be (key, value[, timestamp]) tuples, got {record!r}"
        ) from None
    if width == 3:
        key, value, timestamp = record
        return key, value, timestamp
    if width == 2:
        key, value = record
        return key, value, None
    raise ConfigurationError(
        f"keyed records must have 2 or 3 fields, got {width}: {record!r}"
    )


#: Per-key sampling failures that must not take down a fleet aggregate:
#: expired windows, strict (allow_partial=False) windows below k, and the
#: probabilistic failures of baseline backends.  The affected key is
#: skipped; every other key still contributes.
_SKIPPABLE_SAMPLE_ERRORS = (EmptyWindowError, InsufficientSampleError, SamplingFailureError)


def _window_size_estimate(
    sampler: WindowSampler, sample_len: int, counter: Optional[Any] = None
) -> int:
    """Best available active-window-size estimate for one sampler.

    Sequence windows know their active size exactly.  The optimal timestamp
    samplers expose a covering-decomposition bound (exact in Lemma 3.5 case
    1, within half the straddler width in case 2).  Baseline timestamp
    samplers have neither, so the pool attaches a per-key
    exponential-histogram counter (DGIM) whose (1 ± ε) estimate stands in;
    the bare sample size remains only as the last-resort fallback for
    counter-less legacy snapshots mid-refill.
    """
    if isinstance(sampler, SequenceWindowSampler):
        return sampler.window_size
    estimate = getattr(sampler, "active_count_estimate", None)
    if estimate is not None:
        return estimate()
    if counter is not None:
        estimated = counter.estimate()
        if estimated > 0:
            return estimated
    return sample_len


def _advance_and_sample(
    pool: KeyedSamplerPool, key: Any, now: float, clocked: bool
) -> List[StreamElement]:
    """One key's window sample, with the engine-clock lazy advance applied.

    Called by :func:`_evaluate_ops`, so an engine-hosted sampler sees exactly
    the same advance/mark-dirty sequence whether its pool lives on the
    caller's thread or in a worker process.
    """
    sampler = pool.sampler_for(key)
    if clocked and now != float("-inf"):
        # The lazy advance mutates checkpointable state (clock fields,
        # expiry) only when this sampler's clock actually moves.
        changed = getattr(sampler, "now", None) != now
        sampler.advance_time(now)
        counter = pool.counter_for(key)
        if counter is not None:
            if counter.now != now:
                changed = True
            counter.advance_time(now)
        if changed:
            pool.mark_dirty()
    return sampler.sample()


def _tie_break_bytes(value: Any) -> bytes:
    """A deterministic total-order tiebreak for ranked reports.

    Keys engine-routable values through :func:`stable_key_bytes` (the same
    canonical encoding shard routing hashes), and falls back to ``repr`` for
    arbitrary sampled *values* outside that domain — deterministic for any
    value with a content-based repr, which is what makes tied ranks order
    identically whether a report was computed serially or merged from
    worker partials.
    """
    try:
        return stable_key_bytes(value)
    except ConfigurationError:
        return repr(value).encode("utf-8", "backslashreplace")


def _hottest_order(pair: Tuple[Any, int]) -> Tuple[int, bytes]:
    """Selection key for hottest-keys ranking: arrival count, then the
    stable tiebreak — a total order, so top-N of worker-local top-Ns equals
    top-N of the union (keys are shard-partitioned, hence distinct)."""
    return (pair[1], _tie_break_bytes(pair[0]))


def _rank_hottest(pairs: Iterable[Tuple[Any, int]], top: int) -> List[Tuple[Any, int]]:
    """Select and order the ``top`` hottest pairs deterministically:
    hottest first, ties in ascending tiebreak order."""
    result = heapq.nlargest(top, pairs, key=_hottest_order)
    result.sort(key=lambda pair: (-pair[1], _tie_break_bytes(pair[0])))
    return result


def _hottest_partial(
    pools: Iterable[KeyedSamplerPool], top: int
) -> List[Tuple[Any, int]]:
    """The ``top`` hottest keys across ``pools`` (one worker's share).

    Selects by count first: the ``top``-th largest count is a floor no
    answer falls below, so only the keys at or above it are ranked with the
    full ``(count, tiebreak)`` order — the same answer, boundary ties and
    display order included, without encoding a tiebreak per live key.  The
    pass over the keys fills two flat lists (the keys themselves and bare
    counts), not a ``(key, count)`` pair per key, so it leaves nothing new
    for the cyclic collector to track.
    """
    if top <= 0:
        return []
    keys: List[Any] = []
    counts: List[int] = []
    for pool in pools:
        for key, sampler in pool.items():
            keys.append(key)
            counts.append(sampler.total_arrivals)
    # Arrival counts are non-negative, so a floor of 0 keeps every key.
    floor = heapq.nlargest(top, counts)[-1] if top < len(counts) else 0
    pairs = [(key, count) for key, count in zip(keys, counts) if count >= floor]
    return _rank_hottest(pairs, top)


def _frequent_partial(
    pools: Iterable[KeyedSamplerPool], now: float, clocked: bool
) -> Tuple[Counter, float]:
    """The merged-frequent-items accumulator over ``pools``.

    Returns ``(pooled_mass, total_weight)``; partials from disjoint shard
    sets merge additively, which is what lets worker processes compute their
    share locally and ship only the counters.
    """
    pooled: Counter = Counter()
    total_weight = 0.0
    for pool in pools:
        if clocked:
            pool.advance_time(now)
        for _, sampler, counter in pool.entries():
            try:
                values = sampler.sample_values()
            except _SKIPPABLE_SAMPLE_ERRORS:
                continue
            if not values:
                continue
            weight = _window_size_estimate(sampler, len(values), counter) / len(values)
            for value in values:
                pooled[value] += weight
            total_weight += weight * len(values)
    return pooled, total_weight


def _frequent_report(
    pooled: Counter, total_weight: float, threshold: float, top: Optional[int]
) -> List[Tuple[Any, float]]:
    """Turn a merged-frequent-items accumulator into the sorted report."""
    if total_weight == 0.0:
        return []
    report = [
        (value, mass / total_weight)
        for value, mass in pooled.items()
        if mass / total_weight >= threshold
    ]
    # Most frequent first; tied frequencies order by the stable tiebreak so
    # serial and worker-merged reports are identical (Counter iteration
    # order would otherwise leak shard-partitioning into tie order).
    report.sort(key=lambda item: (-item[1], _tie_break_bytes(item[0])))
    return report if top is None else report[:top]


def _moment_partial(pools: Iterable[KeyedSamplerPool], order: float) -> Dict[Any, float]:
    """Per-key AMS moment estimates over ``pools`` (one worker's share)."""
    from ..applications import ams_estimate_from_counts

    estimates: Dict[Any, float] = {}
    for pool in pools:
        for key, sampler in pool.items():
            try:
                counts = [
                    OccurrenceCounter.count_of(candidate)
                    for candidate in sampler.sample_candidates()
                ]
            except _SKIPPABLE_SAMPLE_ERRORS:
                continue
            window_size = _window_size_estimate(sampler, len(counts))
            if not counts or window_size <= 0:
                continue
            estimates[key] = ams_estimate_from_counts(counts, window_size, order)
    return estimates


def _sum_rows(rows: Iterable[Sequence[int]]) -> List[int]:
    """Column sums of the six-wide ``stats`` rows (zeros for no rows)."""
    return [sum(column) for column in zip(*rows)] or [0] * 6


def _stats_partial(pools: Iterable[KeyedSamplerPool], words: bool) -> List[int]:
    """The ``stats`` totals over ``pools``: live keys, arrivals, memory
    words, and evictions (total, LRU, TTL) — additive across pool sets.
    Memory words walk every live sampler, so without ``words`` they read 0
    and the totals cost O(pools)."""
    return _sum_rows(
        (len(pool), pool.ticks, pool.memory_words() if words else 0, pool.evictions,
         pool.evictions_lru, pool.evictions_ttl)
        for pool in pools
    )


#: Ops answered by one key's sampler; routing appends the owning shard.
_PER_KEY_OPS = ("sample", "contains")


def _evaluate_ops(
    pools: Dict[int, KeyedSamplerPool],
    routed: Iterable[Tuple[Any, ...]],
    now: float,
    clocked: bool,
) -> List[Tuple[Any, Any]]:
    """Answer routed query ops in slot order against ``{shard: pool}``.

    ``routed`` holds normalised ops, per-key ops with their owning shard
    appended (``("sample", key, shard)``).  A per-key op answers its value,
    an aggregate the partial of these pools.  Each outcome is ``("ok",
    value)`` or ``("error", exception)``.  Slot order matters on timestamp
    windows: ``sample`` and ``frequent`` both draw from a key's query
    generator, so reordering them would change the draws.
    """
    shard_pools = pools.values()
    frequent_clocked = clocked and now != float("-inf")
    outcomes: List[Tuple[Any, Any]] = []
    for op in routed:
        kind = op[0]
        try:
            if kind == "sample":
                value: Any = _advance_and_sample(pools[op[2]], op[1], now, clocked)
            elif kind == "contains":
                value = op[1] in pools[op[2]]
            elif kind == "hottest":
                value = _hottest_partial(shard_pools, op[1])
            elif kind == "frequent":
                value = _frequent_partial(shard_pools, now, frequent_clocked)
            elif kind == "moments":
                value = _moment_partial(shard_pools, op[1])
            else:  # "stats"; the internal ("stats", False) skips the word walk
                value = _stats_partial(shard_pools, len(op) == 1)
        except Exception as error:
            outcomes.append(("error", error))
        else:
            outcomes.append(("ok", value))
    return outcomes


def _query_error(error: BaseException) -> Tuple[str, str, str]:
    """The per-op error encoding of :meth:`ShardedEngine.query_batch`:
    ``("error", type_name, message)`` — picklable, JSON-mappable, and
    comparable across executors (unlike exception instances)."""
    return ("error", type(error).__name__, str(error))


def _copy_query_result(value: Any) -> Any:
    """A defensive copy of a cached query result.

    Cached values must not alias what callers receive (a caller sorting a
    hottest-keys list in place would otherwise poison every later hit).
    Query results are lists of immutable rows (samples, reports) or one
    level of dict (moments, stats with its nested eviction split), so a
    shallow copy with one nested-dict level is exact.
    """
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return {
            key: dict(item) if isinstance(item, dict) else item
            for key, item in value.items()
        }
    return value


def _stamp_timestamp(timestamp: Any, now: float) -> float:
    """Apply the global clock contract to one clocked record's timestamp.

    A missing timestamp means "now" (zero before any timestamped record);
    an explicit one must be numeric and globally non-decreasing.  The slow
    path of both ingest loops, which accept a float at or past the clock
    inline — one contract, one implementation.
    """
    if timestamp is None:
        # "Now" must be the engine's clock, not the key-local sampler's
        # (a fresh key's sampler has seen no time).
        return now if now != float("-inf") else 0.0
    try:
        timestamp = float(timestamp)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"record timestamp must be a number, got {timestamp!r}"
        ) from None
    if timestamp < now:
        raise StreamOrderError(
            f"batch timestamps must be globally non-decreasing: {timestamp} < {now}"
        )
    return timestamp


class ShardedEngine:
    """Thousands of per-key sliding-window samplers behind one ingest API.

    Parameters
    ----------
    spec:
        The per-key sampler recipe (shared by every key).
    shards:
        Number of hash partitions.
    seed:
        Root seed; per-key sampler seeds are derived from it and a stable
        hash of the key, so results are reproducible end to end.
    max_keys_per_shard, idle_ttl:
        Eviction policy, enforced independently by each shard's pool (see
        :class:`~repro.engine.pool.KeyedSamplerPool`).
    track_occurrences:
        Attach an :class:`~repro.core.tracking.OccurrenceCounter` to every
        per-key sampler, enabling :meth:`per_key_moments` /
        :meth:`aggregate_moment` at one extra word per retained candidate.
    registry:
        A :class:`repro.obs.MetricsRegistry` receiving the engine's
        instrumentation (ingest counters, chunk latencies, eviction counts,
        active-key/memory gauges).  Defaults to the process-wide registry
        from :func:`repro.obs.get_registry` — the no-op null registry unless
        :func:`repro.obs.enable` was called.  Instrumentation lives at
        batch/chunk granularity, never per record, and never touches sampler
        randomness: ingest results are bit-identical with metrics on or off.
    query_cache:
        An optional :class:`~repro.engine.querycache.QueryCache` consulted
        by every read (:meth:`query`, :meth:`query_batch` and the scalar
        reads over them).
        Entries are stamped with the per-shard ``generation`` tuple, so any
        mutation (ingest, eviction, clock advance, restore) invalidates
        exactly the answers it could have changed; cached and uncached
        results are bit-identical.  ``None`` (default) disables caching.
    """

    def __init__(
        self,
        spec: SamplerSpec,
        *,
        shards: int = 4,
        seed: int = 0,
        max_keys_per_shard: Optional[int] = None,
        idle_ttl: Optional[int] = None,
        track_occurrences: bool = False,
        registry: Optional[Any] = None,
        query_cache: Optional[QueryCache] = None,
    ) -> None:
        if shards <= 0:
            raise ConfigurationError("shards must be positive")
        self._spec = spec
        self._shards = int(shards)
        self._seed = int(seed)
        self._max_keys_per_shard = max_keys_per_shard
        self._idle_ttl = idle_ttl
        self._track_occurrences = bool(track_occurrences)
        self._obs = registry if registry is not None else get_registry()
        self._m_ingest_records = self._obs.counter("engine.ingest.records")
        self._m_ingest_batches = self._obs.counter("engine.ingest.batches")
        self._m_chunks_grouped = self._obs.counter("engine.ingest.chunks.grouped")
        self._m_chunks_partitioned = self._obs.counter("engine.ingest.chunks.partitioned")
        self._m_chunk_seconds = self._obs.histogram("engine.ingest.chunk.seconds")
        self._query_cache = query_cache
        self._pools = self._create_pools()
        # Eviction-free in-process pools take the grouped loop; pools with an
        # eviction policy, or resident in worker processes, take the router.
        self._grouped = bool(self._pools) and max_keys_per_shard is None and idle_ttl is None
        self._now = float("-inf")

    def _create_pools(self) -> List[KeyedSamplerPool]:
        """Build the per-shard pools.  :class:`ProcessEngine` overrides this
        to return no pools at all — its shards are resident in worker
        processes, built there by the same recipe."""
        observer_factory = OccurrenceCounter if self._track_occurrences else None
        return [
            KeyedSamplerPool(
                self._spec,
                seed=self._seed,
                max_keys=self._max_keys_per_shard,
                idle_ttl=self._idle_ttl,
                observer_factory=observer_factory,
                registry=self._obs,
            )
            for _ in range(self._shards)
        ]

    # -- topology ------------------------------------------------------------

    @property
    def spec(self) -> SamplerSpec:
        return self._spec

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def pools(self) -> Tuple[KeyedSamplerPool, ...]:
        """The per-shard pools (read-only view)."""
        return tuple(self._pools)

    @property
    def now(self) -> float:
        """The engine's logical clock: the latest timestamp ingested or
        advanced to.  Only meaningful for timestamp-window specs (stays
        ``-inf`` otherwise — sequence windows have no clock)."""
        return self._now

    def shard_of(self, key: Any) -> int:
        """The shard index that owns ``key`` (stable across processes)."""
        return stable_key_hash(key, salt=_ROUTE_SALT) % self._shards

    def _pool_of(self, key: Any) -> KeyedSamplerPool:
        # Deliberately uncached: a routing memo would silently retain every
        # key ever seen (including evicted ones) outside the memory budget
        # the engine exists to enforce.  One BLAKE2b over a short key costs
        # well under a microsecond.
        return self._pools[stable_key_hash(key, salt=_ROUTE_SALT) % self._shards]

    # -- ingest --------------------------------------------------------------

    def ingest(self, records: Iterable[Any]) -> int:
        """Route a batch of keyed records to their per-key samplers.

        Every record is a :class:`~repro.streams.element.KeyedRecord` or a
        plain ``(key, value)`` / ``(key, value, timestamp)`` tuple.  Returns
        the number of records ingested.

        For timestamp-window specs, timestamps must be **globally**
        non-decreasing across the whole feed — the engine runs one logical
        clock, so every key's window expires against the same "now" (a key
        that goes quiet for ``t0`` has an empty window), and queries may
        safely advance any key's sampler to that clock.  A missing timestamp
        means "now": the record is stamped with the engine's clock (zero
        before any timestamped record).  Sequence-window specs treat
        timestamps as inert metadata and skip the contract.  An out-of-order
        or malformed record raises mid-batch; everything before it has been
        ingested and the clock reflects exactly the ingested prefix.

        Two loops run the batch, and the pools' policy picks one:

        * **grouped** (in-process pools without an eviction policy): one pass
          groups the records per key, hashing each distinct key once per
          chunk, and each key's run is applied through its sampler's batched
          ``process_batch`` path — identical to per-record routing;
        * **the router** (pools with a ``max_keys_per_shard``/``idle_ttl``
          policy, and every :class:`~repro.engine.ProcessEngine`): one pass
          routes each record to its shard through a per-call shard memo and
          cuts per-shard sub-batches in arrival order, each handed to
          :meth:`_dispatch` as it fills and the rest at the end of the
          call.  The serial engine drains a sub-batch into
          :meth:`KeyedSamplerPool.extend_batch`, whose per-record fallback
          keeps eviction decisions exact; the process engine ships it to
          the shard's worker.
        """
        if self._grouped:
            count = self._ingest_grouped(records)
        else:
            count = self._ingest_routed(records)
        if self._obs.enabled:
            self._m_ingest_batches.inc()
            self._m_ingest_records.inc(count)
        return count

    def _ingest_grouped(self, records: Iterable[Any]) -> int:
        """The eviction-free hot path: one grouping pass, batched samplers."""
        count = 0
        clocked = self._spec.is_timestamp
        now = self._now
        shard_count = self._shards
        route = stable_key_hash
        # NOTE: the inlined record-unpack + clock-stamp block below is
        # mirrored in _ingest_routed — both inline it because a shared
        # helper costs a function call per record on the hottest loop in the
        # codebase.  Change one, change the other.
        # key -> [shard, last pool-local position, values, stamps-or-None];
        # one flat dict per chunk, so each distinct key is hashed once.
        groups: Dict[Any, List[Any]] = {}
        get_group = groups.get
        shard_counts = [0] * shard_count
        pending = 0
        # Sized chunks bound the transient grouping memory on unbounded
        # iterables; list inputs are already materialised, so one chunk.
        chunk_limit = len(records) if isinstance(records, (list, tuple)) else _INGEST_CHUNK
        try:
            for record in records:
                if isinstance(record, tuple):
                    width = len(record)
                    if width == 3:
                        key, value, timestamp = record
                    elif width == 2:
                        key, value = record
                        timestamp = None
                    else:
                        raise ConfigurationError(
                            f"keyed records must have 2 or 3 fields, got {width}: {record!r}"
                        )
                else:
                    key, value, timestamp = _unpack_record(record)
                if clocked:
                    if type(timestamp) is float and timestamp >= now:
                        now = timestamp
                    else:
                        timestamp = _stamp_timestamp(timestamp, now)
                        now = timestamp
                group = get_group(key)
                if group is None:
                    shard = route(key, salt=_ROUTE_SALT) % shard_count
                    position = shard_counts[shard] = shard_counts[shard] + 1
                    groups[key] = [
                        shard,
                        position,
                        [value],
                        None if timestamp is None else [timestamp],
                    ]
                else:
                    shard = group[0]
                    group[1] = shard_counts[shard] = shard_counts[shard] + 1
                    group[2].append(value)
                    stamps = group[3]
                    if stamps is not None:
                        stamps.append(timestamp)
                    elif timestamp is not None:
                        # Back-fill the missing prefix; mixed runs are rare.
                        group[3] = [None] * (len(group[2]) - 1) + [timestamp]
                count += 1
                pending += 1
                if pending >= chunk_limit:
                    self._flush_groups(groups, shard_counts)
                    pending = 0
        finally:
            self._now = now
            if pending or groups:
                self._flush_groups(groups, shard_counts)
        return count

    def _flush_groups(self, groups: Dict[Any, List[Any]], shard_counts: List[int]) -> None:
        """Hand one chunk's per-key groups to their shards' pools.

        The chunk state is consumed *before* the pools run, so a pool error
        mid-flush can never lead to the same group being applied twice (the
        ``finally`` in :meth:`_ingest_grouped` re-flushes on error paths).
        """
        started = time.perf_counter() if self._obs.enabled else 0.0
        per_shard: List[List[Tuple[Any, int, List[Any], Optional[List[Any]]]]] = [
            [] for _ in shard_counts
        ]
        for key, (shard, last, values, stamps) in groups.items():
            per_shard[shard].append((key, last, values, stamps))
        groups.clear()
        for shard, shard_groups in enumerate(per_shard):
            if shard_groups:
                count = shard_counts[shard]
                shard_counts[shard] = 0
                self._pools[shard].extend_grouped(shard_groups, count)
        if self._obs.enabled:
            self._m_chunks_grouped.inc()
            self._m_chunk_seconds.observe(time.perf_counter() - started)

    def _ingest_routed(self, records: Iterable[Any]) -> int:
        """The router: partition records per shard in arrival order and hand
        each shard's sub-batch of :data:`_SUB_BATCH` records to
        :meth:`_dispatch` as it fills.  On a mid-batch error the validated
        prefix is dispatched before the error propagates."""
        count = 0
        clocked = self._spec.is_timestamp
        now = self._now
        shard_count = self._shards
        route = stable_key_hash
        limit = _SUB_BATCH
        # Looked up per call: the chaos harness swaps it on the instance.
        dispatch = self._dispatch
        # NOTE: the inlined record-unpack + clock-stamp block below is
        # mirrored in _ingest_grouped.  Change one, change the other.
        # Per-call shard memo: repeated keys hash once.  Bounded, and gone
        # when the call returns, so unlike a persistent routing cache it
        # cannot retain evicted keys outside the memory budget.
        shard_memo: Dict[Any, int] = {}
        buffers: Dict[int, List[Tuple[Any, Any, Optional[float]]]] = {}
        # Every sub-batch is one partitioned chunk, timed from the previous
        # hand-off (routing plus hand-off).
        instrumented = self._obs.enabled
        chunk_started = time.perf_counter() if instrumented else 0.0
        try:
            for record in records:
                if isinstance(record, tuple):
                    width = len(record)
                    if width == 3:
                        key, value, timestamp = record
                    elif width == 2:
                        key, value = record
                        timestamp = None
                    else:
                        raise ConfigurationError(
                            f"keyed records must have 2 or 3 fields, got {width}: {record!r}"
                        )
                else:
                    key, value, timestamp = _unpack_record(record)
                if clocked:
                    if type(timestamp) is float and timestamp >= now:
                        now = timestamp
                    else:
                        timestamp = _stamp_timestamp(timestamp, now)
                        now = timestamp
                shard = shard_memo.get(key, -1)
                if shard < 0:
                    if len(shard_memo) >= _SHARD_MEMO_KEYS:
                        shard_memo.clear()
                    shard = shard_memo[key] = route(key, salt=_ROUTE_SALT) % shard_count
                buffer = buffers.get(shard)
                if buffer is None:
                    buffer = buffers[shard] = []
                buffer.append((key, value, timestamp))
                count += 1
                if len(buffer) >= limit:
                    del buffers[shard]
                    dispatch(shard, buffer)
                    if instrumented:
                        chunk_started = self._observe_chunk(chunk_started)
        finally:
            self._now = now
            # Popped one at a time, so each drained sub-batch is freed before
            # the next shard's pool allocates.
            while buffers:
                shard, buffer = buffers.popitem()
                dispatch(shard, buffer)
                if instrumented:
                    chunk_started = self._observe_chunk(chunk_started)
        return count

    def _observe_chunk(self, started: float) -> float:
        """Count one routed sub-batch and time it from ``started``; returns
        the start of the next."""
        now = time.perf_counter()
        self._m_chunks_partitioned.inc()
        self._m_chunk_seconds.observe(now - started)
        return now

    def _dispatch(self, shard: int, batch: List[Tuple[Any, Any, Optional[float]]]) -> None:
        """Apply one routed shard sub-batch.  The serial engine drains it
        into the shard's pool; :class:`ProcessEngine` encodes it, journals
        it and sends it to the shard's worker."""
        self._pools[shard].extend_batch(batch)

    def append(self, key: Any, value: Any, timestamp: Optional[float] = None) -> None:
        """Single-record convenience form of :meth:`ingest` (same contract)."""
        self.ingest(((key, value, timestamp),))

    def advance_time(self, now: float) -> None:
        """Broadcast a clock advance to every key's timestamp sampler.

        O(live keys); per-key queries already advance lazily, so this is only
        needed when a caller wants every shard's expiry state settled at once
        (e.g. right before a checkpoint of a quiescent engine).
        """
        if now > self._now:
            self._now = now
        for pool in self._pools:
            pool.advance_time(now)

    def flush(self) -> None:
        """Wait until every ingested record is applied.  The serial engine
        applies records synchronously, so this is a no-op;
        :class:`ProcessEngine` overrides it with a real drain barrier.
        Callers that may hold either engine can call it unconditionally."""

    def _checkpoint_guard(self):
        """Context manager under which pool state may be read consistently.

        The serial engine needs no locking (single caller by contract);
        :class:`ProcessEngine` overrides this to hold its API lock across the
        whole save so concurrent producers cannot tear a checkpoint.
        """
        return contextlib.nullcontext()

    def _read_guard(self):
        """Context manager every read runs under: the engine has applied
        every ingested record.  :class:`ProcessEngine` overrides this to
        hold its API lock and refuse a closed or failed fleet."""
        self.flush()
        return contextlib.nullcontext()

    # -- per-key queries -----------------------------------------------------

    def sampler_for(self, key: Any) -> WindowSampler:
        """The key's live sampler (read-only; ``KeyError`` when absent —
        samplers are created by ingest, never by lookup).  Not a query op:
        the serial engine hands out the live object, so it is never cached."""
        return self._pool_of(key).sampler_for(key)

    def __contains__(self, key: Any) -> bool:
        return self.query(("contains", key))

    def sample(self, key: Any) -> List[StreamElement]:
        """The current window sample of one key.

        Raises ``KeyError`` for a key with no live sampler (never seen, or
        evicted) and :class:`~repro.exceptions.EmptyWindowError` when the
        key's window has expired.
        """
        return self.query(("sample", key))

    def sample_values(self, key: Any) -> List[Any]:
        """Values-only form of :meth:`sample`."""
        return [element.value for element in self.sample(key)]

    # -- fleet introspection ---------------------------------------------------

    def _fleet_total(self, field: str) -> Any:
        """One field of the ``stats`` op.  A bare total cannot say that it
        is partial, so unlike :meth:`stats` it refuses a degraded fleet.
        Only ``memory_words`` walks the samplers; the other totals are read
        from the pools' counters through the internal ``("stats", False)``
        plan, which the public op vocabulary cannot spell."""
        plan = ("stats",) if field == "memory_words" else ("stats", False)
        with self._read_guard():
            self._check_fleet_ready()
            ((status, value),) = self._answer_plans([plan])
        if status == "error":
            raise value
        return value[field]

    @property
    def key_count(self) -> int:
        """Number of live per-key samplers across all shards."""
        return self._fleet_total("keys")

    @property
    def total_arrivals(self) -> int:
        """Total records ingested (including records of evicted keys)."""
        return self._fleet_total("arrivals")

    @property
    def evictions(self) -> int:
        """Total keys evicted across all shards."""
        return self._fleet_total("evictions")["total"]

    def memory_words(self) -> int:
        """Aggregate word-RAM footprint of the whole fleet."""
        return self._fleet_total("memory_words")

    def stats(self) -> Dict[str, Any]:
        """One fleet-wide statistics dict: live keys, arrivals, memory, and
        the eviction breakdown (``total`` / ``lru`` / ``ttl`` — discards via
        :meth:`KeyedSamplerPool.discard` count only toward the total).

        Unlike :meth:`metrics_snapshot` this needs no registry: the numbers
        come from the pools' own bookkeeping, so eviction pressure is
        visible even on fully uninstrumented engines.
        """
        return self.query(("stats",))

    def liveness(self) -> Dict[str, Any]:
        """Degradation/liveness report for health endpoints.  In-process
        engines are never degraded; the supervised :class:`ProcessEngine`
        overrides this with per-worker rows (lock-free, best effort)."""
        return {
            "degraded": False,
            "failed": False,
            "recovering_shards": [],
            "restarts": 0,
            "workers": [],
        }

    def discard_wal(self) -> int:
        """Drop a stale write-ahead journal.  Only the process executor
        keeps one; everywhere else this is a no-op so fresh-start paths can
        call it unconditionally."""
        return 0

    def replay_wal(self) -> int:
        """Re-apply a write-ahead journal left by a previous run.  Only the
        process executor keeps one; everywhere else this is a no-op so
        resume paths can call it unconditionally."""
        return 0

    def _checkpoint_committed(self, path: str) -> None:
        """Hook: a checkpoint manifest for this engine just swapped into
        place at ``path`` (the supervised engine truncates its journal)."""

    def _restored_from(self, path: str) -> None:
        """Hook: this engine's state was just loaded from the checkpoint at
        ``path`` (recovery restores dead workers' shards from it)."""

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The engine's metrics registry snapshot (counters / gauges /
        histograms as plain dicts).  Flushes first so queued work is
        reflected; a dead worker fleet still yields the coordinator's view
        rather than raising.  :class:`ProcessEngine` overrides this to merge
        worker-resident registries into one fleet-wide snapshot."""
        try:
            self.flush()
        except WorkerFailure:
            pass
        return self._obs.snapshot()

    def keys(self) -> List[Any]:
        """Every live key (shard by shard; no global order guarantee)."""
        result: List[Any] = []
        for pool in self._pools:
            result.extend(pool.keys())
        return result

    def items(self) -> Iterator[Tuple[Any, WindowSampler]]:
        """Iterate ``(key, sampler)`` over every live key."""
        for pool in self._pools:
            yield from pool.items()

    # -- cross-key aggregates --------------------------------------------------

    #: Delegates to the module-level helper so worker loops (which have no
    #: engine) and the engine share one estimator.
    _window_size_estimate = staticmethod(_window_size_estimate)

    def hottest_keys(self, top: int = 10) -> List[Tuple[Any, int]]:
        """The ``top`` keys by lifetime arrival count, hottest first.

        Counts are per-sampler arrivals, so they reset when a key is evicted
        and recreated — by construction the engine retains no state at all
        for evicted keys.
        """
        return self.query(("hottest", top))

    def merged_frequent_items(
        self, threshold: float, *, top: Optional[int] = None
    ) -> List[Tuple[Any, float]]:
        """Frequent values across *all* keys' windows, most frequent first.

        Pools every key's window sample, weighting each key by its (estimated)
        window size, and reports values whose estimated global frequency
        reaches ``threshold`` — the same sample-and-count estimate as
        :class:`repro.applications.SlidingHeavyHitters`, lifted from one
        window to the union of every key's window.
        """
        return self.query(("frequent", threshold, top))

    def _check_moment_config(self) -> None:
        if not self._track_occurrences:
            raise ConfigurationError(
                "per-key moments need track_occurrences=True at engine construction"
            )
        if not self._spec.replacement:
            raise ConfigurationError("per-key moments need a with-replacement spec")
        if self._spec.is_timestamp:
            raise ConfigurationError(
                "per-key moments need a sequence window (timestamp window sizes are not tracked)"
            )

    def per_key_moments(self, order: float) -> Dict[Any, float]:
        """Per-key AMS frequency-moment estimates ``F_order`` (Corollary 5.2).

        Requires ``track_occurrences=True`` (the observer maintains each
        candidate's occurrence count ``r``), a with-replacement spec (the AMS
        position sample must be uniform and independent) and a sequence
        window (whose exact size the estimator needs).  Keys with empty
        windows are omitted.
        """
        return self.query(("moments", order))

    def aggregate_moment(self, order: float) -> float:
        """The summed per-key moment — ``sum_key F_order(key's window)``.

        Values are namespaced per key (the same payload under two keys counts
        as two tenants' values), which is the per-tenant analytics reading of
        "total moment" and keeps the sum exact in expectation.
        """
        return sum(self.per_key_moments(order).values())

    # -- the read path: query ops, cache, evaluation -----------------------------

    @property
    def query_cache(self) -> Optional[QueryCache]:
        """The engine's result cache, or ``None`` when caching is off."""
        return self._query_cache

    @query_cache.setter
    def query_cache(self, cache: Optional[QueryCache]) -> None:
        # Settable so hosts that build engines through factories that do not
        # thread the constructor argument (``load_checkpoint``, the serve
        # daemon's recipe) can still attach a cache before serving traffic.
        self._query_cache = cache

    #: Operations understood by :meth:`query` and :meth:`query_batch`, with
    #: their canonical argument shapes (after normalisation).
    _QUERY_OPS = ("sample", "contains", "hottest", "frequent", "moments", "stats")

    def _normalize_query_op(self, op: Any) -> Tuple[Any, ...]:
        """Validate one query op and return its canonical tuple.

        Accepted shapes (``op`` may be a tuple or list):

        * ``("sample", key)`` — the key's window sample
        * ``("contains", key)`` — whether the key has a live sampler
        * ``("hottest", top)`` — fleet-wide hottest keys
        * ``("frequent", threshold[, top])`` — merged frequent items
        * ``("moments", order)`` — per-key AMS moments
        * ``("stats",)`` — the fleet statistics dict

        Malformed ops raise :class:`~repro.exceptions.ConfigurationError`
        before anything executes (a batch is all-or-nothing on shape);
        per-key *runtime* failures are captured per op instead.
        """
        if isinstance(op, list):
            op = tuple(op)
        if not isinstance(op, tuple) or not op or not isinstance(op[0], str):
            raise ConfigurationError(
                f"query ops must be (name, *args) tuples, got {op!r}"
            )
        kind = op[0]

        def number(index: int, convert: Any) -> Any:
            try:
                return convert(op[index])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{kind!r} needs a number at position {index}, got {op!r}"
                ) from None

        if kind in ("sample", "contains"):
            if len(op) != 2:
                raise ConfigurationError(f"{kind!r} takes exactly one key, got {op!r}")
            return (kind, op[1])
        if kind == "hottest":
            if len(op) != 2:
                raise ConfigurationError(f"'hottest' takes (top,), got {op!r}")
            top = number(1, int)
            if top <= 0:
                raise ConfigurationError("top must be positive")
            return ("hottest", top)
        if kind == "frequent":
            if len(op) not in (2, 3):
                raise ConfigurationError(
                    f"'frequent' takes (threshold[, top]), got {op!r}"
                )
            threshold = number(1, float)
            if not 0 < threshold < 1:
                raise ConfigurationError("threshold must lie strictly between 0 and 1")
            top = None if len(op) == 2 or op[2] is None else number(2, int)
            if top is not None and top <= 0:
                raise ConfigurationError("top must be positive")
            return ("frequent", threshold, top)
        if kind == "moments":
            if len(op) != 2:
                raise ConfigurationError(f"'moments' takes (order,), got {op!r}")
            self._check_moment_config()
            return ("moments", number(1, float))
        if kind == "stats":
            if len(op) != 1:
                raise ConfigurationError(f"'stats' takes no arguments, got {op!r}")
            return ("stats",)
        raise ConfigurationError(
            f"unknown query op {kind!r} (expected one of {self._QUERY_OPS})"
        )

    def query(self, op: Any) -> Any:
        """Answer one query op (see :meth:`_normalize_query_op`): its value,
        or the op's own exception — ``KeyError``, ``EmptyWindowError``, or
        :class:`~repro.exceptions.ShardRecovering` with its ``shards`` and
        ``retry_after``, which the :meth:`query_batch` encoding drops."""
        ((status, value),) = self._query_outcomes((op,))
        if status == "error":
            raise value
        return value

    def query_batch(self, ops: Iterable[Any]) -> List[Tuple[Any, ...]]:
        """Resolve many queries in one pass over the fleet.

        ``ops`` is a sequence of ``(name, *args)`` tuples (see
        :meth:`_normalize_query_op` for the vocabulary).  Returns one result
        per op, in order: ``("ok", value)`` on success or ``("error",
        type_name, message)`` for per-op runtime failures (unknown key,
        empty window) — one missing key never aborts the rest of the batch.

        This is the fleet-wide query hot path: the whole batch pays one
        flush barrier, one cache-generation fetch, and — on the process
        executor — **one request/reply round per worker** instead of one
        per key, with per-key ops shipped only to the worker owning their
        shard and aggregates merged coordinator-side from per-worker
        partials (the query-side analogue of how ``extend_batch`` groups
        ingest).  Ops are evaluated in slot order, so results are
        bit-identical to the same :meth:`query` calls made in order (a query
        cache answers a repeated op from its first evaluation, though).
        """
        return [
            outcome if outcome[0] == "ok" else _query_error(outcome[1])
            for outcome in self._query_outcomes(ops)
        ]

    def _query_outcomes(self, ops: Iterable[Any]) -> List[Tuple[Any, Any]]:
        """The one read path: validate, guard and flush, consult the cache,
        compute the misses; outcomes are ``("ok", value)`` or ``("error",
        exception)``.

        Lookups use the *pre*-compute generation tuple; stores use the
        *post*-compute tuple when the spec is clocked, because the lazy
        clock advance inside ``sample``/``frequent`` may legitimately bump
        generations while computing (the engine clock is fixed for the
        duration of a query).  Errors are never cached; values handed out
        are copies, so callers cannot mutate cache contents.
        """
        return self._answer_plans([self._normalize_query_op(op) for op in ops])

    def _answer_plans(self, plans: List[Tuple[Any, ...]]) -> List[Tuple[Any, Any]]:
        """:meth:`_query_outcomes` after validation: the guard, the flush,
        the cache and the computation of normalised plans."""
        with self._read_guard():
            cache = self._read_cache()
            if cache is None:
                return self._compute_query_ops(plans)
            generations = tuple(self._segment_generations())
            outcomes: List[Any] = [None] * len(plans)
            misses: List[int] = []
            for index, plan in enumerate(plans):
                hit, value = cache.lookup(plan, generations)
                if hit:
                    outcomes[index] = ("ok", _copy_query_result(value))
                else:
                    misses.append(index)
            if misses:
                computed = self._compute_query_ops([plans[i] for i in misses])
                if self._spec.is_timestamp:
                    generations = tuple(self._segment_generations())
                for index, outcome in zip(misses, computed):
                    if outcome[0] == "ok":
                        cache.store(plans[index], generations, outcome[1])
                        outcome = ("ok", _copy_query_result(outcome[1]))
                    outcomes[index] = outcome
            return outcomes

    def _read_cache(self) -> Optional[QueryCache]:
        """The cache this read may use.  :class:`ProcessEngine` bypasses it
        while degraded."""
        return self._query_cache

    def _check_fleet_ready(self) -> None:
        """Raise when a fleet-wide answer would be partial.  In-process pools
        never are; :class:`ProcessEngine` raises
        :class:`~repro.exceptions.ShardRecovering` mid-recovery."""

    def _compute_query_ops(
        self, plans: List[Tuple[Any, ...]]
    ) -> List[Tuple[Any, Any]]:
        """Answer normalised ops against the in-process pools.
        :class:`ProcessEngine` overrides this with its one-round fan-out to
        the worker processes."""
        routed = [
            plan + (self.shard_of(plan[1]),) if plan[0] in _PER_KEY_OPS else plan
            for plan in plans
        ]
        outcomes = _evaluate_ops(
            dict(enumerate(self._pools)), routed, self._now, self._spec.is_timestamp
        )
        return [
            self._merge_outcome(plan, [outcome])
            for plan, outcome in zip(plans, outcomes)
        ]

    def _merge_outcome(
        self, plan: Tuple[Any, ...], outcomes: List[Tuple[Any, Any]]
    ) -> Tuple[Any, Any]:
        """One op's answer from its :func:`_evaluate_ops` outcomes, one per
        pool set (its owning shard's for a per-key op).  Aggregates merge
        under total orders, so the answer does not depend on how the shards
        were split.  The first error wins."""
        for outcome in outcomes:
            if outcome[0] == "error":
                return outcome
        kind = plan[0]
        if kind in _PER_KEY_OPS:
            return outcomes[0]
        partials = [outcome[1] for outcome in outcomes]
        if kind == "hottest":
            pairs = (pair for partial in partials for pair in partial)
            value: Any = _rank_hottest(pairs, plan[1])
        elif kind == "frequent":
            pooled: Counter = Counter()
            total_weight = 0.0
            for partial, weight in partials:
                pooled.update(partial)
                total_weight += weight
            value = _frequent_report(pooled, total_weight, plan[1], plan[2])
        elif kind == "moments":
            value = {}
            for partial in partials:
                value.update(partial)
        else:  # "stats"
            keys, arrivals, memory, evictions, lru, ttl = _sum_rows(partials)
            value = {
                "shards": self._shards,
                "keys": keys,
                "arrivals": arrivals,
                "memory_words": memory,
                "evictions": {"total": evictions, "lru": lru, "ttl": ttl},
                # In-process pools can never be mid-recovery; the supervised
                # ProcessEngine flips this while a worker restart is in flight.
                "degraded": False,
            }
        return ("ok", value)

    # -- checkpointing ---------------------------------------------------------

    def _state_header(self) -> Dict[str, Any]:
        """The topology/policy half of :meth:`state_dict` (everything but
        the pools) — shared with executors whose pools live elsewhere."""
        return {
            "format": STATE_FORMAT,
            "spec": self._spec.to_dict(),
            "shards": self._shards,
            "seed": self._seed,
            "max_keys_per_shard": self._max_keys_per_shard,
            "idle_ttl": self._idle_ttl,
            "track_occurrences": self._track_occurrences,
            "now": self._now,
        }

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the engine: topology, policy and every shard's pool."""
        return {
            **self._state_header(),
            "pools": [pool.state_dict() for pool in self._pools],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore an engine snapshot in place (topology must match)."""
        self._validate_state(state)
        for pool, pool_state in zip(self._pools, state["pools"]):
            pool.load_state_dict(pool_state)
        self._now = float(state["now"])

    def _validate_state(self, state: Dict[str, Any]) -> None:
        """Check a snapshot against this engine's topology and policy.

        Shared by the in-process restore above and by executors that ship
        pool states elsewhere (worker processes) instead of loading them
        into local pools.
        """
        require_state_fields(
            state,
            ("format", "spec", "shards", "seed", "now", "pools"),
            "ShardedEngine",
        )
        if state["format"] != STATE_FORMAT:
            raise ConfigurationError(
                f"unsupported snapshot format {state['format']!r} (expected {STATE_FORMAT})"
            )
        if SamplerSpec.from_dict(state["spec"]) != self._spec:
            raise ConfigurationError("snapshot spec does not match this engine's spec")
        if int(state["shards"]) != self._shards:
            raise ConfigurationError(
                f"snapshot has {state['shards']} shards, engine has {self._shards}"
                " (resharding a snapshot is not supported)"
            )
        if int(state["seed"]) != self._seed:
            raise ConfigurationError(
                f"snapshot seed {state['seed']} does not match engine seed {self._seed}"
            )
        for field in ("max_keys_per_shard", "idle_ttl", "track_occurrences"):
            if field in state and state[field] != getattr(self, f"_{field}"):
                raise ConfigurationError(
                    f"snapshot {field}={state[field]!r} does not match this engine's"
                    f" {getattr(self, f'_{field}')!r} (restore via from_state_dict, or"
                    " build the engine with the snapshot's policy)"
                )
        if len(state["pools"]) != self._shards:
            raise ConfigurationError(
                f"snapshot carries {len(state['pools'])} pool states for {state['shards']}"
                " declared shards — corrupt checkpoint"
            )

    # -- checkpoint hooks ------------------------------------------------------

    def _checkpoint_segments(self, path: str, plan: Dict[int, Any]) -> List[Dict[str, Any]]:
        """Write (or reuse) one checkpoint segment per shard under ``path``.

        ``plan`` maps shard index to the reuse candidate recorded by the last
        save (see :func:`repro.engine.checkpoint.write_shard_segment`).  The
        serial engine writes from its in-process pools;
        :class:`ProcessEngine` overrides this so each worker *process* writes
        its own shards' segments and ships back only the manifest entries.
        """
        from .checkpoint import write_shard_segment  # lazy: avoids an import cycle

        return [
            write_shard_segment(path, index, pool, plan.get(index))
            for index, pool in enumerate(self._pools)
        ]

    def _segment_generations(self) -> List[int]:
        """Current per-shard checkpoint generations (memo seeding on load)."""
        return [pool.generation for pool in self._pools]

    @classmethod
    def from_state_dict(
        cls, state: Dict[str, Any], *, registry: Optional[Any] = None
    ) -> "ShardedEngine":
        """Rebuild a full engine from :meth:`state_dict` output."""
        require_state_fields(
            state,
            ("format", "spec", "shards", "seed", "now", "pools"),
            "ShardedEngine",
        )
        engine = cls(
            SamplerSpec.from_dict(state["spec"]),
            shards=int(state["shards"]),
            seed=int(state["seed"]),
            max_keys_per_shard=state.get("max_keys_per_shard"),
            idle_ttl=state.get("idle_ttl"),
            track_occurrences=bool(state.get("track_occurrences", False)),
            registry=registry,
        )
        engine.load_state_dict(state)
        return engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngine(shards={self._shards}, keys={self.key_count}, "
            f"arrivals={self.total_arrivals}, spec={self._spec.describe()!r})"
        )
