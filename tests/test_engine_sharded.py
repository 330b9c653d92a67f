"""ShardedEngine: routing, batched ingest, per-key queries, aggregates."""

import pytest

from repro.engine import SamplerSpec, ShardedEngine
from repro.engine.hashing import stable_key_hash
from repro.engine.pool import _SEED_SALT
from repro.exceptions import ConfigurationError, EmptyWindowError, StreamOrderError
from repro.streams.element import KeyedRecord
from repro.streams.workloads import available_keyed_workloads, build_keyed_workload


def seq_engine(**overrides):
    config = dict(shards=4, seed=5)
    config.update(overrides)
    spec = config.pop("spec", SamplerSpec(window="sequence", n=50, k=4, replacement=True))
    return ShardedEngine(spec, **config)


class TestRouting:
    def test_shard_assignment_is_stable_and_total(self):
        engine = seq_engine()
        for key in ["alice", 42, ("10.0.0.1", 443), b"raw"]:
            shard = engine.shard_of(key)
            assert 0 <= shard < engine.shards
            assert shard == engine.shard_of(key)

    def test_records_land_on_their_shard(self):
        engine = seq_engine()
        engine.ingest([(f"user-{index}", index) for index in range(200)])
        for shard, pool in enumerate(engine.pools):
            for key in pool.keys():
                assert engine.shard_of(key) == shard

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            seq_engine(shards=0)


class TestIngest:
    def test_accepts_all_record_forms(self):
        engine = seq_engine()
        count = engine.ingest(
            [
                KeyedRecord("a", 1, 0.5),
                ("a", 2),
                ("b", 3, 1.5),
            ]
        )
        assert count == 3
        assert engine.total_arrivals == 3
        assert engine.key_count == 2
        # Sequence windows have no clock; timestamps are inert metadata.
        assert engine.now == float("-inf")

    def test_clock_tracks_timestamp_specs(self):
        engine = seq_engine(spec=SamplerSpec(window="timestamp", t0=100.0, k=2))
        engine.ingest([KeyedRecord("a", 1, 0.5), ("a", 2), ("b", 3, 1.5)])
        assert engine.now == 1.5

    def test_rejects_malformed_records(self):
        engine = seq_engine()
        with pytest.raises(ConfigurationError):
            engine.ingest([("just-a-key",)])
        with pytest.raises(ConfigurationError):
            engine.ingest([12])  # unsized record: ConfigurationError, not TypeError

    def test_string_records_are_rejected_not_shredded(self):
        engine = seq_engine()
        with pytest.raises(ConfigurationError):
            engine.ingest(["ab", "cd"])  # sized and unpackable, but not records
        assert engine.total_arrivals == 0

    def test_missing_timestamps_are_stamped_with_the_engine_clock(self):
        engine = seq_engine(spec=SamplerSpec(window="timestamp", t0=10.0, k=2))
        engine.ingest([("a", "x", 100.0)])
        engine.ingest([("b", "y")])  # "now" = the engine's clock, not b's local one
        assert engine.sample_values("b") == ["y", "y"]
        engine.append("c", "z")
        assert engine.sample_values("c") == ["z", "z"]
        assert engine.now == 100.0

    def test_non_numeric_timestamps_are_rejected(self):
        engine = seq_engine(spec=SamplerSpec(window="timestamp", t0=10.0, k=2))
        with pytest.raises(ConfigurationError):
            engine.ingest([("a", 1, "not-a-time")])
        with pytest.raises(ConfigurationError):
            engine.append("a", 1, object())
        # Numeric strings coerce, matching the core samplers' float() handling.
        engine.ingest([("a", 1, "10.5")])
        assert engine.now == 10.5

    def test_timestamps_must_be_globally_non_decreasing(self):
        # One logical clock for the whole feed: every key's window expires
        # against the same "now", so queries may safely advance any key's
        # sampler to the high-water mark.
        engine = seq_engine(spec=SamplerSpec(window="timestamp", t0=1000.0, k=2))
        engine.ingest([("a", 1, 100.0)])
        with pytest.raises(StreamOrderError):
            engine.ingest([("b", 2, 50.0)])
        with pytest.raises(StreamOrderError):
            engine.append("b", 2, 50.0)
        engine.ingest([("b", 2, 100.0)])  # equal timestamps are fine
        # Query-then-ingest must not poison any key's sampler.
        engine.sample("b")
        engine.ingest([("b", 3, 101.0)])

    def test_failed_batch_keeps_the_clock_of_the_ingested_prefix(self):
        engine = seq_engine(spec=SamplerSpec(window="timestamp", t0=1000.0, k=2))
        with pytest.raises(ConfigurationError):
            engine.ingest([("a", 1, 5.0), ("bad",)])
        assert engine.total_arrivals == 1
        assert engine.now == 5.0  # high-water mark covers what was ingested

    def test_per_key_sampler_equals_a_standalone_sampler(self):
        """The engine is a transparent multiplexer: each key's sampler behaves
        exactly like a hand-built sampler with the key-derived seed fed only
        that key's substream."""
        spec = SamplerSpec(window="sequence", n=30, k=3, replacement=False)
        engine = seq_engine(spec=spec, seed=21)
        records = build_keyed_workload("keyed-uniform", 3000, num_keys=10, rng=3)
        engine.ingest(records)

        key = records[0].key
        standalone = spec.build(rng=stable_key_hash(key, salt=21 ^ _SEED_SALT))
        for record in records:
            if record.key == key:
                standalone.append(record.value, record.timestamp)
        assert engine.sample(key) == standalone.sample()

    def test_eviction_policy_is_enforced_per_shard(self):
        engine = seq_engine(max_keys_per_shard=5)
        engine.ingest([(f"user-{index}", index) for index in range(200)])
        assert engine.key_count <= 5 * engine.shards
        assert engine.evictions > 0
        for pool in engine.pools:
            assert len(pool) <= 5


class TestPerKeyQueries:
    def test_sample_for_unknown_key_raises_key_error(self):
        engine = seq_engine()
        with pytest.raises(KeyError):
            engine.sample("ghost")

    def test_sampler_lookup_is_read_only(self):
        # A probe of a mistyped key must neither allocate a sampler nor — at
        # the cap — evict a live key's window state.
        engine = seq_engine(shards=1, max_keys_per_shard=2)
        engine.ingest([("a", 1), ("b", 2)])
        with pytest.raises(KeyError):
            engine.sampler_for("ghost-typo")
        assert engine.key_count == 2
        assert "a" in engine and "b" in engine
        assert engine.evictions == 0

    def test_active_count_estimate_tracks_the_true_window_size(self):
        spec = SamplerSpec(window="timestamp", t0=64.0, k=2, replacement=True)
        engine = seq_engine(spec=spec)
        engine.ingest([("key", index, float(index)) for index in range(500)])
        estimate = engine.sampler_for("key").active_count_estimate()
        # True active count is 64; the covering bound is exact in case 1 and
        # off by at most half the straddler width in case 2.
        assert 32 <= estimate <= 128

    def test_sample_values_and_contains(self):
        engine = seq_engine()
        engine.ingest([("a", value) for value in range(100)])
        assert "a" in engine and "b" not in engine
        values = engine.sample_values("a")
        assert len(values) == 4
        assert all(50 <= value < 100 for value in values)  # window is the last 50

    def test_timestamp_windows_expire_at_query_time(self):
        spec = SamplerSpec(window="timestamp", t0=10.0, k=2, replacement=True)
        engine = seq_engine(spec=spec)
        engine.ingest([("a", "old", 0.0), ("b", "fresh", 100.0)])
        assert engine.sample_values("b") == ["fresh", "fresh"]
        with pytest.raises(EmptyWindowError):
            engine.sample("a")  # a's whole window expired at now=100

    def test_advance_time_broadcasts(self):
        spec = SamplerSpec(window="timestamp", t0=10.0, k=2, replacement=True)
        engine = seq_engine(spec=spec)
        engine.ingest([("a", 1, 0.0)])
        engine.advance_time(50.0)
        assert engine.now == 50.0
        with pytest.raises(EmptyWindowError):
            engine.sample("a")


class TestAggregates:
    def test_hottest_keys_match_ground_truth(self):
        engine = seq_engine()
        truth = {"a": 50, "b": 30, "c": 10, "d": 5}
        records = [(key, index) for key, count in truth.items() for index in range(count)]
        engine.ingest(records)
        assert engine.hottest_keys(2) == [("a", 50), ("b", 30)]
        assert dict(engine.hottest_keys(4)) == truth
        with pytest.raises(ConfigurationError):
            engine.hottest_keys(0)

    def test_merged_frequent_items_find_a_planted_global_heavy_hitter(self):
        engine = seq_engine(spec=SamplerSpec(window="sequence", n=100, k=32, replacement=False))
        records = []
        for key in range(40):
            for index in range(100):
                value = "hot" if index % 2 == 0 else f"noise-{key}-{index}"
                records.append((f"user-{key}", value, None))
        engine.ingest(records)
        report = engine.merged_frequent_items(0.25)
        assert report and report[0][0] == "hot"
        assert report[0][1] == pytest.approx(0.5, abs=0.1)
        assert sum(frequency for _, frequency in engine.merged_frequent_items(0.0001)) <= 1.0 + 1e-9
        with pytest.raises(ConfigurationError):
            engine.merged_frequent_items(1.5)

    def test_merged_frequent_items_skip_strict_partial_windows(self):
        # A key below k under allow_partial=False must not take down the
        # whole fleet aggregate — it is skipped, everyone else contributes.
        spec = SamplerSpec(
            window="sequence", n=50, k=8, replacement=False, options={"allow_partial": False}
        )
        engine = seq_engine(spec=spec)
        engine.ingest([("full", "hot") for _ in range(60)])
        engine.ingest([("tiny", "x"), ("tiny", "y")])
        report = engine.merged_frequent_items(0.5)
        assert report == [("hot", 1.0)]

    def test_merged_frequent_items_weight_timestamp_keys_by_window_size(self):
        # A one-element tenant must not outvote a hundred-element tenant just
        # because both return k samples (the WR timestamp sampler always
        # does): weights come from the covering-decomposition size estimate.
        spec = SamplerSpec(window="timestamp", t0=10_000.0, k=8, replacement=True)
        engine = seq_engine(spec=spec)
        records = [("dense", "Y", float(index)) for index in range(100)]
        records.append(("sparse", "X", 100.0))
        engine.ingest(records)
        frequencies = dict(engine.merged_frequent_items(0.001))
        assert frequencies["Y"] > 0.9
        assert frequencies["X"] < 0.1

    def test_per_key_first_moment_is_exact_window_size(self):
        # AMS with order=1 collapses to the window size: every sampled count r
        # contributes window * (r - (r-1)) = window.  A deterministic check of
        # the whole moment pipeline.
        engine = seq_engine(
            spec=SamplerSpec(window="sequence", n=25, k=3, replacement=True),
            track_occurrences=True,
        )
        engine.ingest([("a", value) for value in range(100)] + [("b", value) for value in range(7)])
        moments = engine.per_key_moments(1.0)
        assert moments == {"a": 25.0, "b": 7.0}
        assert engine.aggregate_moment(1.0) == 32.0

    def test_second_moment_detects_a_skewed_key(self):
        engine = seq_engine(
            spec=SamplerSpec(window="sequence", n=64, k=48, replacement=True),
            track_occurrences=True,
        )
        engine.ingest([("constant", 1) for _ in range(64)])
        engine.ingest([("diverse", value) for value in range(64)])
        moments = engine.per_key_moments(2.0)
        # F2 of a constant window is n^2 = 4096; of an all-distinct window, n = 64.
        assert moments["constant"] == pytest.approx(4096, rel=0.35)
        assert moments["diverse"] == pytest.approx(64, rel=0.35)
        assert moments["constant"] > 10 * moments["diverse"]

    def test_moment_preconditions_are_enforced(self):
        plain = seq_engine()
        plain.ingest([("a", 1)])
        with pytest.raises(ConfigurationError):
            plain.per_key_moments(2.0)
        wor = seq_engine(
            spec=SamplerSpec(window="sequence", n=10, k=2, replacement=False),
            track_occurrences=True,
        )
        with pytest.raises(ConfigurationError):
            wor.per_key_moments(2.0)
        timestamped = seq_engine(
            spec=SamplerSpec(window="timestamp", t0=10.0, k=2, replacement=True),
            track_occurrences=True,
        )
        with pytest.raises(ConfigurationError):
            timestamped.per_key_moments(2.0)


class TestKeyedWorkloads:
    def test_registry_and_unknown_name(self):
        assert available_keyed_workloads() == ["keyed-hotset", "keyed-uniform", "keyed-zipf"]
        with pytest.raises(KeyError):
            build_keyed_workload("keyed-nope", 10, num_keys=2)

    @pytest.mark.parametrize("name", ["keyed-uniform", "keyed-zipf", "keyed-hotset"])
    def test_workloads_are_reproducible_and_well_formed(self, name):
        first = build_keyed_workload(name, 500, num_keys=20, rng=4)
        second = build_keyed_workload(name, 500, num_keys=20, rng=4)
        assert first == second
        assert len(first) == 500
        assert all(0 <= record.key < 20 for record in first)
        timestamps = [record.timestamp for record in first]
        assert timestamps == sorted(timestamps)

    def test_hotset_skew_is_real(self):
        records = build_keyed_workload("keyed-hotset", 5000, num_keys=100, rng=9)
        hot_traffic = sum(record.key < 10 for record in records)
        assert hot_traffic > 0.8 * len(records)


class TestWindowSizeCounters:
    """Per-key DGIM counters back the window-size weights of timestamp
    samplers that cannot bound their own active count (the baselines)."""

    def test_baseline_timestamp_keys_get_counters(self):
        spec = SamplerSpec(window="timestamp", t0=100.0, k=4, algorithm="priority")
        engine = seq_engine(spec=spec)
        engine.ingest([("flow", index, float(index)) for index in range(50)])
        pool = engine.pools[engine.shard_of("flow")]
        counter = pool.counter_for("flow")
        assert counter is not None
        assert counter.estimate() == 50  # exact while the window is young

    def test_optimal_and_sequence_keys_get_no_counter(self):
        optimal_ts = seq_engine(spec=SamplerSpec(window="timestamp", t0=100.0, k=4))
        optimal_ts.ingest([("a", 1, 1.0)])
        assert optimal_ts.pools[optimal_ts.shard_of("a")].counter_for("a") is None
        sequence = seq_engine()
        sequence.ingest([("a", 1)])
        assert sequence.pools[sequence.shard_of("a")].counter_for("a") is None

    def test_counter_tracks_true_active_count_within_epsilon(self):
        spec = SamplerSpec(window="timestamp", t0=64.0, k=4, algorithm="priority")
        engine = seq_engine(spec=spec)
        # One record per unit of time: at time T the true active count is
        # min(T+1, 64) (elements with timestamp > T - 64).
        engine.ingest([("flow", index, float(index)) for index in range(1_000)])
        counter = engine.pools[engine.shard_of("flow")].counter_for("flow")
        truth = 64
        estimate = counter.estimate()
        assert abs(estimate - truth) <= max(1.0, 0.1 * truth), (estimate, truth)

    def test_counters_expire_with_advance_time(self):
        spec = SamplerSpec(window="timestamp", t0=10.0, k=2, algorithm="priority")
        engine = seq_engine(spec=spec)
        engine.ingest([("flow", index, float(index)) for index in range(20)])
        engine.advance_time(1_000.0)
        assert engine.pools[engine.shard_of("flow")].counter_for("flow").estimate() == 0

    def test_merged_frequent_items_weight_baseline_keys_by_counter(self):
        # Both tenants answer k=4 samples; without the counters they would
        # carry equal weight and X would tie Y.  The dense tenant has 100
        # active elements vs the sparse tenant's 1, so Y must dominate.
        spec = SamplerSpec(window="timestamp", t0=10_000.0, k=4, algorithm="priority")
        engine = seq_engine(spec=spec)
        records = [("dense", "Y", float(index)) for index in range(100)]
        records.append(("sparse", "X", 100.0))
        engine.ingest(records)
        frequencies = dict(engine.merged_frequent_items(0.001))
        assert frequencies["Y"] > 0.9
        assert frequencies["X"] < 0.1

    def test_window_size_estimate_fallback_chain(self):
        # Priority of evidence: the sampler's own covering bound, then the
        # DGIM counter, then (counter empty, e.g. restored from a PR-1 era
        # snapshot mid-refill) the bare sample length.
        from repro.sketches import ExponentialHistogramCounter

        spec = SamplerSpec(window="timestamp", t0=50.0, k=2, algorithm="priority")
        engine = seq_engine(spec=spec)
        engine.ingest([("flow", index, float(index)) for index in range(30)])
        sampler = engine.sampler_for("flow")
        assert not hasattr(sampler, "active_count_estimate")
        full = ExponentialHistogramCounter(50.0)
        for timestamp in range(30):
            full.append(float(timestamp))
        assert engine._window_size_estimate(sampler, 2, full) == full.estimate() == 30
        empty = ExponentialHistogramCounter(50.0)
        assert engine._window_size_estimate(sampler, 2, empty) == 2
        assert engine._window_size_estimate(sampler, 2, None) == 2


class TestScalarTotals:
    """The scalar totals read the pools' counters; only the word total walks
    every live sampler."""

    def test_totals_over_many_keys_never_walk_the_samplers(self, monkeypatch):
        from repro.engine.pool import KeyedSamplerPool

        engine = ShardedEngine(SamplerSpec(window="sequence", n=256, k=4), shards=8, seed=3)
        engine.ingest([(f"key-{index}", index) for index in range(20_000)])
        calls = []
        original = KeyedSamplerPool.memory_words

        def counted(pool):
            calls.append(pool)
            return original(pool)

        monkeypatch.setattr(KeyedSamplerPool, "memory_words", counted)
        assert engine.key_count == 20_000
        assert engine.total_arrivals == 20_000
        assert engine.evictions == 0
        assert calls == []
        stats = engine.stats()
        assert len(calls) == 8
        assert stats["keys"] == 20_000 and stats["memory_words"] == engine.memory_words() > 0
