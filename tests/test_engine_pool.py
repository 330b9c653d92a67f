"""SamplerSpec and KeyedSamplerPool: lazy creation, determinism, eviction,
memory accounting."""

import pytest

from repro.engine import KeyedSamplerPool, SamplerSpec
from repro.engine.hashing import stable_key_bytes, stable_key_hash
from repro.exceptions import ConfigurationError


def seq_spec(**overrides):
    defaults = dict(window="sequence", n=20, k=3, replacement=True)
    defaults.update(overrides)
    return SamplerSpec(**defaults)


class TestSamplerSpec:
    def test_structural_validation(self):
        with pytest.raises(ConfigurationError):
            SamplerSpec(window="hopping", n=5)
        with pytest.raises(ConfigurationError):
            SamplerSpec(window="sequence")  # missing n
        with pytest.raises(ConfigurationError):
            SamplerSpec(window="sequence", n=0)
        with pytest.raises(ConfigurationError):
            SamplerSpec(window="timestamp")  # missing t0
        with pytest.raises(ConfigurationError):
            SamplerSpec(window="timestamp", t0=-1.0)
        with pytest.raises(ConfigurationError):
            SamplerSpec(window="sequence", n=5, k=0)

    def test_algorithm_errors_surface_at_build(self):
        spec = SamplerSpec(window="timestamp", t0=5.0, algorithm="chain")
        with pytest.raises(ConfigurationError):
            spec.build(rng=1)

    def test_dict_round_trip(self):
        spec = SamplerSpec(
            window="timestamp", t0=7.5, k=4, replacement=False, options={"allow_partial": False}
        )
        assert SamplerSpec.from_dict(spec.to_dict()) == spec

    def test_describe_mentions_the_essentials(self):
        text = seq_spec().describe()
        assert "n=20" in text and "k=3" in text and "optimal" in text

    def test_specs_are_hashable_value_objects(self):
        with_options = SamplerSpec(
            window="sequence", n=20, k=3, replacement=False, options={"allow_partial": False}
        )
        same = SamplerSpec(
            window="sequence", n=20, k=3, replacement=False, options={"allow_partial": False}
        )
        assert with_options == same
        assert len({with_options, same, seq_spec()}) == 2  # usable in sets


class TestStableHashing:
    def test_hash_is_stable_and_salt_sensitive(self):
        assert stable_key_hash("alice") == stable_key_hash("alice")
        assert stable_key_hash("alice") != stable_key_hash("alice", salt=1)

    def test_type_tagged_encodings_keep_types_distinct(self):
        assert stable_key_bytes("1") != stable_key_bytes(1)
        assert stable_key_bytes(1) != stable_key_bytes(True)
        assert stable_key_bytes(b"x") != stable_key_bytes("x")
        assert stable_key_bytes(1) != stable_key_bytes(1.0)
        # tuples (flow 5-tuples etc.) are encoded recursively ...
        assert stable_key_hash(("10.0.0.1", 443)) == stable_key_hash(("10.0.0.1", 443))
        assert stable_key_hash((("a", 1), "b")) == stable_key_hash((("a", 1), "b"))
        # ... with length framing, so item boundaries cannot alias
        assert stable_key_bytes(("ab", "c")) != stable_key_bytes(("a", "bc"))

    def test_types_without_a_stable_encoding_are_refused(self):
        # A default repr() embeds the object address; hashing it would route
        # equal keys to different shards and strand checkpointed state.
        class FlowKey:
            def __eq__(self, other):
                return isinstance(other, FlowKey)

            def __hash__(self):
                return 7

        with pytest.raises(ConfigurationError):
            stable_key_bytes(FlowKey())
        with pytest.raises(ConfigurationError):
            stable_key_hash(["lists", "either"])


class TestLazyCreationAndDeterminism:
    def test_samplers_created_on_first_record_only(self):
        pool = KeyedSamplerPool(seq_spec(), seed=1)
        assert len(pool) == 0 and "a" not in pool
        pool.append("a", 1)
        assert len(pool) == 1 and "a" in pool
        pool.append("a", 2)
        assert len(pool) == 1

    def test_per_key_randomness_is_independent_of_arrival_order(self):
        feed_a = [("a", value) for value in range(100)]
        feed_b = [("b", value * 7) for value in range(100)]

        interleaved = KeyedSamplerPool(seq_spec(), seed=9)
        for (key1, value1), (key2, value2) in zip(feed_a, feed_b):
            interleaved.append(key1, value1)
            interleaved.append(key2, value2)

        sequential = KeyedSamplerPool(seq_spec(), seed=9)
        for key, value in feed_a + feed_b:
            sequential.append(key, value)

        assert interleaved.sampler_for("a").sample() == sequential.sampler_for("a").sample()
        assert interleaved.sampler_for("b").sample() == sequential.sampler_for("b").sample()

    def test_different_seeds_give_different_randomness(self):
        samples = []
        for seed in (1, 2):
            pool = KeyedSamplerPool(seq_spec(n=1000, k=8), seed=seed)
            for value in range(1000):
                pool.append("key", value)
            samples.append(pool.sampler_for("key").sample_values())
        assert samples[0] != samples[1]


class TestEviction:
    def test_lru_cap_evicts_least_recently_ingested(self):
        pool = KeyedSamplerPool(seq_spec(), seed=1, max_keys=3)
        for key in ("a", "b", "c"):
            pool.append(key, 1)
        pool.append("a", 2)  # refresh a; b is now the oldest
        pool.append("d", 1)
        assert "b" not in pool
        assert set(pool.keys()) == {"a", "c", "d"}
        assert pool.evictions == 1

    def test_lookup_does_not_refresh_lru(self):
        pool = KeyedSamplerPool(seq_spec(), seed=1, max_keys=2)
        pool.append("a", 1)
        pool.append("b", 1)
        pool.sampler_for("a")  # read-only: must not rescue "a"
        pool.append("c", 1)
        assert "a" not in pool and "b" in pool and "c" in pool

    def test_ttl_sweep_evicts_idle_keys(self, sizing):
        sizing(sweep_interval=1)
        pool = KeyedSamplerPool(seq_spec(), seed=1, idle_ttl=10)
        pool.append("idle", 1)
        for tick in range(15):
            pool.append("busy", tick)
        assert "idle" not in pool and "busy" in pool
        assert pool.evictions == 1

    def test_explicit_sweep_and_discard(self, sizing):
        sizing(sweep_interval=10**9)
        pool = KeyedSamplerPool(seq_spec(), seed=1, idle_ttl=5)
        pool.append("x", 1)
        for tick in range(8):
            pool.append("y", tick)
        assert "x" in pool  # interval not reached, nothing swept yet
        assert pool.sweep() == 1
        assert "x" not in pool
        assert pool.discard("y") is True
        assert pool.discard("y") is False
        assert pool.evictions == 2  # one swept + one discarded

    def test_eviction_config_validation(self):
        with pytest.raises(ConfigurationError):
            KeyedSamplerPool(seq_spec(), max_keys=0)
        with pytest.raises(ConfigurationError):
            KeyedSamplerPool(seq_spec(), idle_ttl=-1)
        # The sweep interval is a module constant, not an option.
        with pytest.raises(TypeError):
            KeyedSamplerPool(seq_spec(), sweep_interval=4096)


class TestMemoryAccounting:
    def test_memory_grows_per_key_and_shrinks_on_eviction(self):
        pool = KeyedSamplerPool(seq_spec(), seed=1)
        empty = pool.memory_words()
        pool.append("a", 1)
        one_key = pool.memory_words()
        assert one_key > empty
        pool.append("b", 1)
        two_keys = pool.memory_words()
        assert two_keys > one_key
        pool.discard("b")
        assert pool.memory_words() == one_key

    def test_aggregate_matches_sum_of_parts(self):
        pool = KeyedSamplerPool(seq_spec(), seed=1)
        for key in ("a", "b", "c"):
            for value in range(30):
                pool.append(key, value)
        by_key = pool.memory_words_by_key()
        assert set(by_key) == {"a", "b", "c"}
        overhead = pool.memory_words() - sum(by_key.values())
        # 2 pool counters + (key word + tick counter) per key
        assert overhead == 2 + 2 * len(pool)

    def test_memory_stays_bounded_under_a_key_cap(self):
        pool = KeyedSamplerPool(seq_spec(), seed=1, max_keys=10)
        for value in range(2000):
            pool.append(f"key-{value % 100}", value)
        assert len(pool) == 10
        assert pool.ticks == 2000
        # 10 keys x (Θ(k) sampler + 2 words bookkeeping) + 2 pool counters.
        assert pool.memory_words() < 10 * 60
