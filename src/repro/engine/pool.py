"""A pool of lazily-created per-key samplers with eviction and accounting.

One :class:`KeyedSamplerPool` owns every sampler of one shard.  Samplers are
created on a key's first record, seeded deterministically from the pool seed
and a stable hash of the key — so key ``"alice"`` gets the *same* sampler
randomness no matter when she first appears, which shard count the engine
runs with, or how often the process restarts.

Memory is the whole point of the paper, so the pool treats it as a budget:

* ``max_keys`` caps the number of live samplers, evicting the least recently
  *ingested* key when a new key would exceed the cap (LRU);
* ``idle_ttl`` evicts keys that have not received a record for the given
  number of pool-wide ingest ticks (swept opportunistically every
  :data:`_SWEEP_INTERVAL` ticks, or explicitly via :meth:`sweep`);
* :meth:`memory_words` aggregates the per-sampler word-RAM footprints plus
  the pool's own bookkeeping, giving the per-tenant budget arithmetic
  ``keys × Θ(k)`` (sequence) / ``keys × Θ(k log n)`` (timestamp) in one call.

Eviction discards sampler state irrevocably — a returning key starts a fresh
window, exactly like a new key.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.base import WindowSampler
from ..core.serialization import STATE_FORMAT, require_state_fields
from ..core.tracking import CandidateObserver
from ..exceptions import ConfigurationError
from ..memory import MemoryMeter, WORD_MODEL
from ..obs import NULL_REGISTRY
from ..sketches import ExponentialHistogramCounter
from .hashing import stable_key_hash
from .spec import SamplerSpec

__all__ = ["KeyedSamplerPool"]

#: Salt mixed into per-key sampler seeds so they are independent of the hash
#: family used for shard routing.
_SEED_SALT = 0x5EEDFACE

#: Relative error of the per-key window-size counters attached to timestamp
#: samplers that cannot bound their own active count (the baselines).
_COUNTER_EPSILON = 0.1

#: Ingest ticks between opportunistic ``idle_ttl`` sweeps (monkeypatchable
#: in tests).
_SWEEP_INTERVAL = 4096


class _KeyEntry:
    """Per-key bookkeeping: the sampler, its last-ingest tick, and (for
    timestamp samplers without an ``active_count_estimate`` of their own) an
    exponential-histogram window-size counter."""

    __slots__ = ("sampler", "last_tick", "counter")

    def __init__(
        self,
        sampler: WindowSampler,
        last_tick: int,
        counter: Optional[ExponentialHistogramCounter] = None,
    ) -> None:
        self.sampler = sampler
        self.last_tick = last_tick
        self.counter = counter


class KeyedSamplerPool:
    """Per-key samplers behind one ingest point, with LRU/TTL eviction."""

    def __init__(
        self,
        spec: SamplerSpec,
        *,
        seed: int = 0,
        max_keys: Optional[int] = None,
        idle_ttl: Optional[int] = None,
        observer_factory: Optional[Callable[[], CandidateObserver]] = None,
        registry: Optional[Any] = None,
    ) -> None:
        if max_keys is not None and max_keys <= 0:
            raise ConfigurationError("max_keys must be positive (or None for no cap)")
        if idle_ttl is not None and idle_ttl <= 0:
            raise ConfigurationError("idle_ttl must be positive (or None for no TTL)")
        self._spec = spec
        self._seed = int(seed)
        self._max_keys = max_keys
        self._idle_ttl = idle_ttl
        self._observer_factory = observer_factory
        self._entries: "OrderedDict[Any, _KeyEntry]" = OrderedDict()
        self._ticks = 0
        self._evictions = 0
        self._evictions_lru = 0
        self._evictions_ttl = 0
        self._generation = 0
        obs = registry if registry is not None else NULL_REGISTRY
        self._m_evict_lru = obs.counter("pool.evictions.lru")
        self._m_evict_ttl = obs.counter("pool.evictions.ttl")
        # Live values are callback gauges: evaluated only when a snapshot is
        # taken, so ingest pays nothing for them.
        obs.register_callback("engine.keys.active", lambda: len(self._entries))
        obs.register_callback("engine.memory.words", self.memory_words)
        # Whether per-key samplers need a companion window-size counter
        # (timestamp spec, sampler lacks active_count_estimate).  Decided
        # lazily at the first sampler build — None means "not yet known".
        self._needs_counter: Optional[bool] = None if spec.is_timestamp else False

    # -- introspection -------------------------------------------------------

    @property
    def spec(self) -> SamplerSpec:
        return self._spec

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def ticks(self) -> int:
        """Total records ingested by this pool (including evicted keys')."""
        return self._ticks

    @property
    def evictions(self) -> int:
        """Number of keys evicted so far (LRU cap, TTL sweeps, discards)."""
        return self._evictions

    @property
    def evictions_lru(self) -> int:
        """Keys evicted by the ``max_keys`` LRU cap."""
        return self._evictions_lru

    @property
    def evictions_ttl(self) -> int:
        """Keys evicted by ``idle_ttl`` sweeps."""
        return self._evictions_ttl

    @property
    def generation(self) -> int:
        """Monotone mutation counter: bumps on every state change (append,
        eviction, clock advance, snapshot restore).  The incremental
        checkpoint writer compares it against the generation it last wrote
        for this shard to decide whether the segment needs rewriting."""
        return self._generation

    def mark_dirty(self) -> None:
        """Record an out-of-band mutation (e.g. the engine advanced one of
        this pool's samplers directly during a query)."""
        self._generation += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def keys(self) -> List[Any]:
        """Live keys, least recently ingested first."""
        return list(self._entries)

    def items(self) -> Iterator[Tuple[Any, WindowSampler]]:
        """Iterate ``(key, sampler)`` pairs (least recently ingested first)."""
        for key, entry in self._entries.items():
            yield key, entry.sampler

    def arrival_counts(self) -> Tuple[List[Any], List[int]]:
        """The live keys and their samplers' arrival counts, as two lists in
        the same order (least recently ingested first), built in one pass
        over the entries without a ``(key, sampler)`` pair per key.  The
        counts are read from ``WindowSampler._arrivals`` directly: the
        ``total_arrivals`` property call would be half the pass's cost."""
        entries = self._entries
        return list(entries), [entry.sampler._arrivals for entry in entries.values()]

    def entries(
        self,
    ) -> Iterator[Tuple[Any, WindowSampler, Optional[ExponentialHistogramCounter]]]:
        """Iterate ``(key, sampler, window_size_counter)`` triples.

        The counter is ``None`` for sequence windows and for timestamp
        samplers that expose their own ``active_count_estimate`` (the optimal
        algorithms' covering-decomposition bound)."""
        for key, entry in self._entries.items():
            yield key, entry.sampler, entry.counter

    def counter_for(self, key: Any) -> Optional[ExponentialHistogramCounter]:
        """The key's window-size counter, or ``None`` (no counter attached,
        or no live sampler for the key)."""
        entry = self._entries.get(key)
        return entry.counter if entry is not None else None

    # -- sampler lifecycle ---------------------------------------------------

    def _sampler_seed(self, key: Any) -> int:
        return stable_key_hash(key, salt=self._seed ^ _SEED_SALT)

    def _create(self, key: Any) -> _KeyEntry:
        observer = self._observer_factory() if self._observer_factory is not None else None
        sampler = self._spec.build(rng=self._sampler_seed(key), observer=observer)
        if self._needs_counter is None:
            # Decided once per pool: the optimal timestamp samplers bound
            # their own active count (Lemma 3.5's covering decomposition);
            # baseline timestamp samplers need the DGIM counter companion.
            self._needs_counter = not hasattr(sampler, "active_count_estimate")
        counter = (
            ExponentialHistogramCounter(self._spec.t0, epsilon=_COUNTER_EPSILON)
            if self._needs_counter
            else None
        )
        entry = _KeyEntry(sampler, self._ticks, counter)
        if self._max_keys is not None and len(self._entries) >= self._max_keys:
            self._entries.popitem(last=False)  # least recently ingested
            self._evictions += 1
            self._evictions_lru += 1
            self._m_evict_lru.inc()
        self._entries[key] = entry
        return entry

    def sampler_for(self, key: Any) -> WindowSampler:
        """The key's live sampler; raises ``KeyError`` when there is none.

        Strictly read-only: samplers are created by ingest, never by lookup,
        so a probe of an unknown key (a dashboard querying a typo) can
        neither allocate memory nor — at the ``max_keys`` cap — evict a live
        key's window state.  Lookups also do not refresh the key's LRU/TTL
        position, so read-heavy queries cannot keep a dead key alive.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"no live sampler for key {key!r} (never ingested, or evicted)")
        return entry.sampler

    def discard(self, key: Any) -> bool:
        """Drop one key's sampler outright. Returns whether it existed."""
        if self._entries.pop(key, None) is None:
            return False
        self._evictions += 1
        self._generation += 1
        return True

    # -- ingest --------------------------------------------------------------

    def append(self, key: Any, value: Any, timestamp: Optional[float] = None) -> None:
        """Route one record to its key's sampler (creating it if needed)."""
        entries = self._entries  # bound once: this is the pool's hottest path
        entry = entries.get(key)
        if entry is None:
            entry = self._create(key)
        elif self._max_keys is not None:
            entries.move_to_end(key)
        entry.sampler.append(value, timestamp)
        if entry.counter is not None:
            entry.counter.append(timestamp)
        ticks = self._ticks + 1
        self._ticks = ticks
        self._generation += 1
        entry.last_tick = ticks
        if self._idle_ttl is not None and ticks % _SWEEP_INTERVAL == 0:
            self.sweep()

    def extend_batch(self, batch: Sequence[Tuple[Any, Any, Optional[float]]]) -> int:
        """Route a batch of ``(key, value, timestamp)`` records in one call.

        Records are grouped per key first, so each key's dict lookup, LRU
        touch and sampler-attribute resolution happen once per batch instead
        of once per record, and the key's sampler ingests its records through
        :meth:`~repro.core.base.WindowSampler.process_batch`.  For an
        *unbounded* pool (no ``max_keys``, no ``idle_ttl``) the resulting
        state — samplers, tick bookkeeping, entry order, checkpoint bytes —
        is identical to per-record :meth:`append` calls, and is independent
        of how a record stream is chunked into batches.  Pools with an
        eviction policy fall back to the per-record path, because eviction
        decisions are defined record by record (which key the LRU victim is
        can depend on the exact interleaving).

        Returns the number of records routed.
        """
        count = len(batch)
        if count == 0:
            return 0
        if self._max_keys is not None or self._idle_ttl is not None:
            append = self.append
            for key, value, timestamp in batch:
                append(key, value, timestamp)
            return count
        # Group per key: [last 1-based position, values, timestamps, any_ts].
        groups: Dict[Any, List[Any]] = {}
        get_group = groups.get
        position = 0
        for key, value, timestamp in batch:
            position += 1
            group = get_group(key)
            if group is None:
                groups[key] = [position, [value], [timestamp], timestamp is not None]
            else:
                group[0] = position
                group[1].append(value)
                group[2].append(timestamp)
                if timestamp is not None:
                    group[3] = True
        self.extend_grouped(
            [
                (key, last, values, stamps if any_ts else None)
                for key, (last, values, stamps, any_ts) in groups.items()
            ],
            count,
        )
        return count

    def extend_grouped(
        self,
        groups: Sequence[Tuple[Any, int, List[Any], Optional[List[Optional[float]]]]],
        count: int,
    ) -> None:
        """Apply pre-grouped per-key record runs (the engine's fastest path).

        ``groups`` holds ``(key, last_position, values, timestamps_or_None)``
        entries, where ``last_position`` is the 1-based position (within this
        pool's slice of the batch, in arrival order) of the key's last
        record, and ``count`` is the total number of records across all
        groups.  Only valid for pools without an eviction policy — callers
        that may hold a capped/TTL pool must go through
        :meth:`extend_batch`, which enforces the fallback.
        """
        if self._max_keys is not None or self._idle_ttl is not None:
            raise ConfigurationError(
                "extend_grouped requires an eviction-free pool; use extend_batch"
            )
        entries = self._entries
        base = self._ticks
        create = self._create
        for key, last, values, stamps in groups:
            entry = entries.get(key)
            if entry is None:
                entry = create(key)
            if len(values) == 1:
                entry.sampler.append(values[0], None if stamps is None else stamps[0])
            else:
                entry.sampler.process_batch(values, stamps)
            counter = entry.counter
            if counter is not None:
                counter_append = counter.append
                if stamps is None:
                    for _ in values:
                        counter_append(None)
                else:
                    for timestamp in stamps:
                        counter_append(timestamp)
            entry.last_tick = base + last
        self._ticks = base + count
        self._generation += 1

    def sweep(self) -> int:
        """Evict every key idle for more than ``idle_ttl`` ticks.

        Returns the number of keys evicted.  A no-op when no TTL is set.
        """
        if self._idle_ttl is None:
            return 0
        horizon = self._ticks - self._idle_ttl
        stale = [key for key, entry in self._entries.items() if entry.last_tick < horizon]
        for key in stale:
            del self._entries[key]
        self._evictions += len(stale)
        self._evictions_ttl += len(stale)
        if stale:
            self._m_evict_ttl.inc(len(stale))
            self._generation += 1
        return len(stale)

    def advance_time(self, now: float) -> None:
        """Broadcast a clock advance to every timestamp-window sampler.

        Only bumps the checkpoint generation when some sampler's clock
        actually moves (a re-advance to the current time leaves every
        snapshot byte unchanged, so clean shards stay checkpoint-clean)."""
        changed = False
        for entry in self._entries.values():
            sampler = entry.sampler
            if hasattr(sampler, "advance_time"):
                # Samplers without a readable clock are advanced blind, so
                # they must be considered dirtied (conservative).
                if getattr(sampler, "now", None) != now:
                    changed = True
                sampler.advance_time(now)
            if entry.counter is not None:
                if entry.counter.now != now:
                    changed = True
                entry.counter.advance_time(now)
        if changed:
            self._generation += 1

    # -- accounting ----------------------------------------------------------

    def memory_words(self) -> int:
        """Aggregate word-RAM footprint: every live sampler plus bookkeeping.

        Bookkeeping charges one word per key (the last-ingest tick) and the
        pool's two counters; the per-key *key itself* is charged one element
        word, mirroring how the samplers charge stored values.
        """
        meter = MemoryMeter(WORD_MODEL)
        meter.add_counters(2)  # tick and eviction counters
        for entry in self._entries.values():
            meter.add_elements()  # the key
            meter.add_counters()  # last-ingest tick
            meter.add_words(entry.sampler.memory_words())
            if entry.counter is not None:
                meter.add_words(entry.counter.memory_words())
        return meter.total

    def memory_words_by_key(self) -> Dict[Any, int]:
        """Per-key sampler footprints (budget attribution / hottest-memory)."""
        return {key: entry.sampler.memory_words() for key, entry in self._entries.items()}

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the pool: config fingerprint plus every live sampler.

        Keys are stored in LRU order so a restored pool evicts in the same
        order as the original would have.
        """
        return {
            "format": STATE_FORMAT,
            "spec": self._spec.to_dict(),
            "seed": self._seed,
            "ticks": self._ticks,
            "evictions": self._evictions,
            "evictions_lru": self._evictions_lru,
            "evictions_ttl": self._evictions_ttl,
            "entries": [
                {
                    "key": key,
                    "last_tick": entry.last_tick,
                    "sampler": entry.sampler.state_dict(),
                    "counter": (
                        entry.counter.state_dict() if entry.counter is not None else None
                    ),
                }
                for key, entry in self._entries.items()
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a pool snapshot in place (replacing all live samplers)."""
        require_state_fields(
            state, ("format", "spec", "seed", "ticks", "evictions", "entries"), "KeyedSamplerPool"
        )
        if state["format"] != STATE_FORMAT:
            raise ConfigurationError(
                f"unsupported snapshot format {state['format']!r} (expected {STATE_FORMAT})"
            )
        if SamplerSpec.from_dict(state["spec"]) != self._spec:
            raise ConfigurationError("snapshot spec does not match this pool's spec")
        if int(state["seed"]) != self._seed:
            raise ConfigurationError(
                f"snapshot seed {state['seed']} does not match pool seed {self._seed}"
                " (future keys would draw different randomness)"
            )
        entries: "OrderedDict[Any, _KeyEntry]" = OrderedDict()
        for encoded in state["entries"]:
            require_state_fields(encoded, ("key", "last_tick", "sampler"), "KeyedSamplerPool entry")
            key = encoded["key"]
            observer = self._observer_factory() if self._observer_factory is not None else None
            sampler = self._spec.build(rng=self._sampler_seed(key), observer=observer)
            sampler.load_state_dict(encoded["sampler"])
            if self._needs_counter is None:
                self._needs_counter = not hasattr(sampler, "active_count_estimate")
            counter = None
            if self._needs_counter:
                counter = ExponentialHistogramCounter(self._spec.t0, epsilon=_COUNTER_EPSILON)
                encoded_counter = encoded.get("counter")
                if encoded_counter is not None:
                    counter.load_state_dict(encoded_counter)
                # A snapshot from a build without counters restores with an
                # empty counter: estimates recover as the window refills.
            entries[key] = _KeyEntry(sampler, int(encoded["last_tick"]), counter)
        # A snapshot may come from a pool with a looser (or no) cap; enforce
        # this pool's budget immediately rather than leaking the overshoot
        # forever (inserts evict one-for-one and would never drain it).
        overflow = 0
        if self._max_keys is not None:
            while len(entries) > self._max_keys:
                entries.popitem(last=False)
                overflow += 1
        self._entries = entries
        self._ticks = int(state["ticks"])
        self._evictions = int(state["evictions"]) + overflow
        # Pre-split snapshots carry only the total; the breakdown restarts
        # from whatever they recorded (0 for legacy snapshots).  Overflow
        # evictions above are LRU-cap evictions by definition.
        self._evictions_lru = int(state.get("evictions_lru", 0)) + overflow
        self._evictions_ttl = int(state.get("evictions_ttl", 0))
        self._generation += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KeyedSamplerPool(keys={len(self._entries)}, ticks={self._ticks}, "
            f"evictions={self._evictions})"
        )
