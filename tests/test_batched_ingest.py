"""The batched hot path: equivalence, chunk-invariance, and statistical gating.

Three layers of guarantees are pinned here:

1. **Bit-identity of the default path.**  ``process_batch`` (samplers),
   ``extend_batch``/``extend_grouped`` (pools) and the grouped
   ``ShardedEngine.ingest`` consume randomness exactly like the per-element
   code they replace, so checkpoints, samples and generator positions are
   byte-for-byte unchanged — for all four optimal samplers, across the serial
   and process engines, and independently of how a record stream is chunked
   into batches.

2. **Exact eviction semantics.**  Pools with a ``max_keys``/``idle_ttl``
   policy fall back to per-record routing, so batching can never change
   which key an LRU or TTL sweep evicts.

3. **Distributional exactness.**  The batched path draws once per
   reservoir acceptance and takes merge coins from a bit stream, so besides
   the bit-identity above it is gated statistically: χ² uniformity and a KS
   test over window positions, for all four optimal samplers and through
   the serial and process engines.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import assess_uniformity, ks_uniformity
from repro.core import (
    OccurrenceCounter,
    SequenceSamplerWOR,
    SequenceSamplerWR,
    TimestampSamplerWOR,
    TimestampSamplerWR,
    sliding_window_sampler,
)
from repro.engine import (
    KeyedSamplerPool,
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
)
from repro.exceptions import ConfigurationError, EmptyWindowError, StreamOrderError


def poisson_timestamps(length, seed=23, rate=1.0):
    source = random.Random(seed)
    current, stamps = 0.0, []
    for _ in range(length):
        current += source.expovariate(rate)
        stamps.append(current)
    return stamps


SAMPLER_CASES = [
    pytest.param(lambda **kw: SequenceSamplerWR(n=37, k=4, rng=11, **kw), False, id="seq-wr"),
    pytest.param(lambda **kw: SequenceSamplerWOR(n=37, k=5, rng=11, **kw), False, id="seq-wor"),
    pytest.param(lambda **kw: TimestampSamplerWR(t0=30.0, k=3, rng=11, **kw), True, id="ts-wr"),
    pytest.param(lambda **kw: TimestampSamplerWOR(t0=30.0, k=3, rng=11, **kw), True, id="ts-wor"),
]


class TestProcessBatchBitIdentity:
    @pytest.mark.parametrize("make, clocked", SAMPLER_CASES)
    def test_batch_equals_append_loop_and_is_chunk_invariant(self, make, clocked):
        values = list(range(500))
        stamps = poisson_timestamps(500) if clocked else None
        by_append, whole, chunked = make(), make(), make()
        for position, value in enumerate(values):
            by_append.append(value, None if stamps is None else stamps[position])
        whole.process_batch(values, stamps)
        for low in range(0, 500, 83):  # uneven chunks crossing bucket bounds
            chunked.process_batch(
                values[low : low + 83], None if stamps is None else stamps[low : low + 83]
            )
        assert by_append.state_dict() == whole.state_dict() == chunked.state_dict()
        assert by_append.sample() == whole.sample() == chunked.sample()

    @pytest.mark.parametrize("make, clocked", SAMPLER_CASES)
    def test_batch_then_append_interleaving_is_identical(self, make, clocked):
        """Mixing single appends and batches must not change the state."""
        values = list(range(200))
        stamps = poisson_timestamps(200) if clocked else None
        reference, mixed = make(), make()
        reference.process_batch(values, stamps)
        mixed.process_batch(values[:90], None if stamps is None else stamps[:90])
        for position in range(90, 110):
            mixed.append(values[position], None if stamps is None else stamps[position])
        mixed.process_batch(values[110:], None if stamps is None else stamps[110:])
        assert reference.state_dict() == mixed.state_dict()

    def test_empty_batch_is_a_no_op(self):
        sampler = SequenceSamplerWR(n=8, k=2, rng=1)
        before = sampler.state_dict()
        assert sampler.process_batch([]) == 0
        assert sampler.state_dict() == before

    @pytest.mark.parametrize("make, clocked", SAMPLER_CASES)
    def test_mismatched_timestamp_length_rejected_loudly(self, make, clocked):
        sampler = make()
        with pytest.raises(ConfigurationError, match="length"):
            sampler.process_batch([1, 2, 3], [0.5])
        assert sampler.total_arrivals == 0  # nothing was silently applied

    def test_wor_batches_smaller_than_k(self):
        """Regression: a batched slice ending inside the fill phase (count
        < k) must not touch the skip machinery (lgamma is undefined there)."""
        sampler = SequenceSamplerWOR(n=100, k=4, rng=1)
        sampler.process_batch([1, 2])  # fill phase only
        sampler.process_batch([3])
        sampler.process_batch([4, 5, 6, 7, 8])  # crosses fill -> skip phase
        assert sampler.total_arrivals == 8
        assert len(sampler.sample()) == 4
        # And through the engine: sparse keys produce per-key runs < k.
        spec = SamplerSpec(window="sequence", n=256, k=4, replacement=False)
        engine = ShardedEngine(spec, shards=2, seed=1)
        engine.ingest([("a", 1), ("a", 2), ("b", 1)])
        assert engine.total_arrivals == 3

    @pytest.mark.parametrize("make, clocked", SAMPLER_CASES)
    def test_observer_fallback_keeps_counting(self, make, clocked):
        """Observer-carrying samplers take the per-element path — occurrence
        counts must match a plain append loop exactly."""
        values = [v % 7 for v in range(150)]
        stamps = poisson_timestamps(150) if clocked else None
        del make  # the case only supplies clockedness; build with observers
        if clocked:
            batched = TimestampSamplerWR(t0=30.0, k=3, rng=5, observer=OccurrenceCounter())
            looped = TimestampSamplerWR(t0=30.0, k=3, rng=5, observer=OccurrenceCounter())
        else:
            batched = SequenceSamplerWR(n=37, k=3, rng=5, observer=OccurrenceCounter())
            looped = SequenceSamplerWR(n=37, k=3, rng=5, observer=OccurrenceCounter())
        batched.process_batch(values, stamps)
        for position, value in enumerate(values):
            looped.append(value, None if stamps is None else stamps[position])
        assert batched.state_dict() == looped.state_dict()
        counts = [OccurrenceCounter.count_of(c) for c in batched.sample_candidates()]
        assert counts == [OccurrenceCounter.count_of(c) for c in looped.sample_candidates()]

    def test_timestamp_batch_validates_before_applying(self):
        sampler = TimestampSamplerWR(t0=10.0, k=2, rng=3)
        sampler.process_batch([1, 2], [1.0, 2.0])
        before = sampler.state_dict()
        with pytest.raises(StreamOrderError):
            sampler.process_batch([3, 4], [5.0, 1.0])  # goes backwards mid-batch
        assert sampler.state_dict() == before  # batch validation is atomic


class TestPoolBatchedIngest:
    SPEC = SamplerSpec(window="sequence", n=32, k=3)

    def records(self, count=400, keys=17, seed=2):
        source = random.Random(seed)
        return [(f"key-{source.randrange(keys)}", source.randrange(100), None) for _ in range(count)]

    def test_extend_batch_matches_append_loop_uncapped(self):
        batch = self.records()
        by_append = KeyedSamplerPool(self.SPEC, seed=9)
        for key, value, timestamp in batch:
            by_append.append(key, value, timestamp)
        batched = KeyedSamplerPool(self.SPEC, seed=9)
        batched.extend_batch(batch)
        assert by_append.state_dict() == batched.state_dict()

    def test_extend_batch_is_chunk_invariant(self):
        batch = self.records()
        whole = KeyedSamplerPool(self.SPEC, seed=9)
        whole.extend_batch(batch)
        chunked = KeyedSamplerPool(self.SPEC, seed=9)
        for low in range(0, len(batch), 61):
            chunked.extend_batch(batch[low : low + 61])
        assert whole.state_dict() == chunked.state_dict()

    def test_capped_pool_falls_back_to_exact_per_record_eviction(self):
        batch = self.records(count=300, keys=40)
        capped_loop = KeyedSamplerPool(self.SPEC, seed=9, max_keys=8)
        for key, value, timestamp in batch:
            capped_loop.append(key, value, timestamp)
        capped_batch = KeyedSamplerPool(self.SPEC, seed=9, max_keys=8)
        capped_batch.extend_batch(batch)
        assert capped_loop.state_dict() == capped_batch.state_dict()
        assert capped_loop.evictions == capped_batch.evictions > 0

    def test_ttl_pool_falls_back_to_exact_sweep_timing(self, sizing):
        batch = self.records(count=9000, keys=30)
        sizing(sweep_interval=128)
        ttl_loop = KeyedSamplerPool(self.SPEC, seed=9, idle_ttl=500)
        for key, value, timestamp in batch:
            ttl_loop.append(key, value, timestamp)
        ttl_batch = KeyedSamplerPool(self.SPEC, seed=9, idle_ttl=500)
        ttl_batch.extend_batch(batch)
        assert ttl_loop.state_dict() == ttl_batch.state_dict()

    def test_extend_grouped_rejects_eviction_pools(self):
        pool = KeyedSamplerPool(self.SPEC, seed=9, max_keys=8)
        with pytest.raises(ConfigurationError):
            pool.extend_grouped([("a", 1, [1], None)], 1)


class TestEngineBatchedIngest:
    def records(self, count=6000, keys=150, seed=7, clocked=False):
        source = random.Random(seed)
        out, clock = [], 0.0
        for _ in range(count):
            clock += source.random()
            key = f"key-{source.randrange(keys)}"
            out.append((key, source.randrange(1024), clock if clocked else None))
        return out

    @pytest.mark.parametrize("clocked", [False, True], ids=["sequence", "timestamp"])
    def test_grouped_ingest_equals_per_record_appends(self, clocked):
        spec = (
            SamplerSpec(window="timestamp", t0=40.0, k=3)
            if clocked
            else SamplerSpec(window="sequence", n=64, k=4)
        )
        records = self.records(clocked=clocked)
        batched = ShardedEngine(spec, shards=8, seed=3)
        batched.ingest(records)
        per_record = ShardedEngine(spec, shards=8, seed=3)
        for record in records:
            per_record.append(*record)
        assert batched.state_dict() == per_record.state_dict()

    def test_grouped_ingest_is_chunk_invariant(self):
        spec = SamplerSpec(window="sequence", n=64, k=4)
        records = self.records()
        whole = ShardedEngine(spec, shards=8, seed=3)
        whole.ingest(records)
        chunked = ShardedEngine(spec, shards=8, seed=3)
        for low in range(0, len(records), 977):
            chunked.ingest(records[low : low + 977])
        streamed = ShardedEngine(spec, shards=8, seed=3)
        streamed.ingest(iter(records))  # the iterator (chunked-internally) path
        assert whole.state_dict() == chunked.state_dict() == streamed.state_dict()

    def test_mid_batch_error_still_ingests_the_prefix(self):
        spec = SamplerSpec(window="sequence", n=64, k=2)
        engine = ShardedEngine(spec, shards=4, seed=3)
        bad = [("a", 1), ("b", 2), ("too", "many", "fields", "here"), ("c", 3)]
        with pytest.raises(ConfigurationError):
            engine.ingest(bad)
        assert engine.total_arrivals == 2
        assert "a" in engine and "b" in engine and "c" not in engine

    @pytest.mark.parametrize(
        "fleet", ["columnar", "supervised-wal", "one-worker", "small-batch"]
    )
    def test_executors_stay_bit_identical_under_batched_path(self, fleet, fleet_options):
        spec = SamplerSpec(window="sequence", n=64, k=4)
        records = self.records()
        serial = ShardedEngine(spec, shards=8, seed=3)
        serial.ingest(records)
        with ProcessEngine(
            spec, **fleet_options(fleet, shards=8, seed=3, workers=3, sub_batch=256)
        ) as engine:
            engine.ingest(records)
            assert engine.state_dict() == serial.state_dict()

    def test_eviction_engine_matches_across_executors(self, sizing):
        """Capped engines route through the per-record fallback everywhere,
        so serial and process fleets still agree bit-for-bit."""
        spec = SamplerSpec(window="sequence", n=32, k=2)
        records = [(f"key-{index % 64}", index) for index in range(4000)]
        serial = ShardedEngine(spec, shards=4, seed=5, max_keys_per_shard=6)
        serial.ingest(records)
        sizing(sub_batch=128)
        with ProcessEngine(
            spec, shards=4, seed=5, workers=2, max_keys_per_shard=6
        ) as process:
            process.ingest(records)
            assert process.state_dict() == serial.state_dict()
        assert serial.evictions > 0


class TestSpecSamplers:
    def test_fast_is_not_an_option(self):
        with pytest.raises(TypeError):
            SamplerSpec(window="sequence", n=16, k=2, fast=True)
        for algorithm in ("optimal", "chain"):
            with pytest.raises(TypeError):
                sliding_window_sampler("sequence", n=16, k=2, algorithm=algorithm, fast=True)
        for make in (
            lambda: SequenceSamplerWR(n=16, k=2, fast=True),
            lambda: SequenceSamplerWOR(n=16, k=2, fast=True),
            lambda: TimestampSamplerWR(t0=16.0, k=2, fast=True),
            lambda: TimestampSamplerWOR(t0=16.0, k=2, fast=True),
        ):
            with pytest.raises(TypeError):
                make()

    def test_spec_sampler_checkpoints_round_trip(self):
        spec = SamplerSpec(window="sequence", n=16, k=3)
        sampler = spec.build(rng=4)
        sampler.process_batch(list(range(100)))
        clone = spec.build(rng=4)
        clone.load_state_dict(sampler.state_dict())
        assert clone.sample() == sampler.sample()


@pytest.mark.slow
class TestBatchedPathStatisticalGating:
    """χ² + KS gates for the batched path over all four optimal samplers.

    The per-acceptance reservoirs and bit-stream merge coins must keep every
    sampler's output uniform over the active window.  Each case runs many independently seeded samplers, feeds
    them through ``process_batch``, and pools the drawn window positions.
    """

    WINDOW = 20
    STREAM = 50  # 30-element discarded prefix, then the live window

    def _gate(self, observations, categories):
        report = assess_uniformity(observations, categories)
        assert report.passes, report
        width = len(categories)
        fractions = [(observation + 0.5) / width for observation in observations]
        # Discretisation alone contributes 1/(2*width) to the KS statistic.
        bound = 0.5 / width + 1.7 / (len(fractions) ** 0.5)
        assert ks_uniformity(fractions) < bound

    def test_sequence_wr_batched_uniform(self):
        observations = []
        for trial in range(2500):
            sampler = SequenceSamplerWR(n=self.WINDOW, k=1, rng=10_000 + trial)
            sampler.process_batch(list(range(self.STREAM)))
            observations.append(sampler.sample()[0].value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_sequence_wor_batched_uniform_inclusions(self):
        observations = []
        for trial in range(900):
            sampler = SequenceSamplerWOR(n=self.WINDOW, k=6, rng=20_000 + trial)
            sampler.process_batch(list(range(self.STREAM)))
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 6  # without replacement
            for element in drawn:
                observations.append(element.value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_timestamp_wr_batched_uniform(self):
        # Integer timestamps = indexes: a span of WINDOW keeps exactly the
        # last WINDOW elements active.
        stamps = [float(position) for position in range(self.STREAM)]
        observations = []
        for trial in range(2500):
            sampler = TimestampSamplerWR(t0=float(self.WINDOW), k=1, rng=30_000 + trial)
            sampler.process_batch(list(range(self.STREAM)), stamps)
            observations.append(sampler.sample()[0].value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_timestamp_wor_batched_uniform_inclusions(self):
        stamps = [float(position) for position in range(self.STREAM)]
        observations = []
        for trial in range(900):
            sampler = TimestampSamplerWOR(t0=float(self.WINDOW), k=6, rng=40_000 + trial)
            sampler.process_batch(list(range(self.STREAM)), stamps)
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 6
            for element in drawn:
                observations.append(element.value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_engine_ingest_uniform_across_keys(self):
        """End to end: an engine's per-key draws stay uniform."""
        spec = SamplerSpec(window="sequence", n=self.WINDOW, k=1)
        engine = ShardedEngine(spec, shards=8, seed=29)
        keys = 2000
        engine.ingest(
            [(f"lane-{key}", value) for value in range(self.STREAM) for key in range(keys)]
        )
        observations = [
            engine.sample(f"lane-{key}")[0].value - (self.STREAM - self.WINDOW)
            for key in range(keys)
        ]
        self._gate(observations, list(range(self.WINDOW)))


class TestBatchedExpiry:
    """Chunk-boundary invariance of the batched expiry threshold.

    ``WindowCoverage.observe_batch`` replaces the per-arrival Lemma 3.5 scan
    with a cached threshold that triggers one full transition scan exactly
    when the per-element path would have transitioned.  These streams force
    every transition mid-batch — straddler re-anchoring (case 2c) and
    whole-window expiry (case 2b) — and pin state equality against the
    append loop under several chunkings.
    """

    T0 = 30.0

    def bursty(self, count=600, seed=31):
        source = random.Random(seed)
        clock, stamps = 0.0, []
        for position in range(count):
            if position % 97 == 96:
                clock += 2.5 * self.T0  # empties the window mid-batch (2b)
            elif position % 13 == 12:
                clock += 0.3 * self.T0  # straddler churn (2c)
            else:
                clock += source.random()
            stamps.append(clock)
        return list(range(count)), stamps

    TS_CASES = [
        pytest.param(lambda: TimestampSamplerWR(t0=30.0, k=3, rng=17), id="ts-wr"),
        pytest.param(lambda: TimestampSamplerWOR(t0=30.0, k=3, rng=17), id="ts-wor"),
    ]

    @pytest.mark.parametrize("make", TS_CASES)
    def test_expiry_transitions_are_chunk_invariant(self, make):
        values, stamps = self.bursty()
        by_append = make()
        for position, value in enumerate(values):
            by_append.append(value, stamps[position])
        whole = make()
        whole.process_batch(values, stamps)
        tiny, big = make(), make()
        for low in range(0, len(values), 7):
            tiny.process_batch(values[low : low + 7], stamps[low : low + 7])
        for low in range(0, len(values), 256):
            big.process_batch(values[low : low + 256], stamps[low : low + 256])
        reference = by_append.state_dict()
        assert whole.state_dict() == reference
        assert tiny.state_dict() == reference
        assert big.state_dict() == reference
        assert whole.sample() == by_append.sample()

    @pytest.mark.parametrize("make", TS_CASES)
    def test_advance_time_between_batches_is_identical(self, make):
        """A clock jump that expires the whole window between chunks must
        leave the sampler exactly where the per-element path lands."""
        values, stamps = self.bursty(count=200)
        batched, looped = make(), make()
        batched.process_batch(values[:120], stamps[:120])
        for position in range(120):
            looped.append(values[position], stamps[position])
        jump = stamps[119] + 4 * self.T0
        batched.advance_time(jump)
        looped.advance_time(jump)
        with pytest.raises(EmptyWindowError):  # the jump expired everything
            batched.sample()
        later = [stamp + jump - stamps[119] for stamp in stamps[120:]]
        batched.process_batch(values[120:], later)
        for position in range(80):
            looped.append(values[120 + position], later[position])
        assert batched.state_dict() == looped.state_dict()


@pytest.mark.slow
class TestTimestampEngineGating:
    """Engine-level χ² + KS gates for timestamp specs, per executor.

    The bit-stream merge coins must keep every per-key timestamp sampler
    uniform over its active window whichever engine hosts the pool — serial
    or worker processes (they share the batched `extend_batch` path, so one
    biased coin stream would show up in both; separate seeds keep the gates
    independent)."""

    WINDOW = 20
    STREAM = 50
    KEYS = 1000

    def _observations(self, engine):
        engine.ingest(
            [
                (f"lane-{key}", value, float(value))
                for value in range(self.STREAM)
                for key in range(self.KEYS)
            ]
        )
        shift = self.STREAM - self.WINDOW
        return [
            engine.sample(f"lane-{key}")[0].value - shift for key in range(self.KEYS)
        ]

    def _gate(self, observations):
        report = assess_uniformity(observations, list(range(self.WINDOW)))
        assert report.passes, report
        fractions = [(observation + 0.5) / self.WINDOW for observation in observations]
        bound = 0.5 / self.WINDOW + 1.7 / (len(fractions) ** 0.5)
        assert ks_uniformity(fractions) < bound

    def spec(self):
        return SamplerSpec(window="timestamp", t0=float(self.WINDOW), k=1)

    def test_serial_engine(self):
        self._gate(self._observations(ShardedEngine(self.spec(), shards=8, seed=101)))

    def test_process_engine(self):
        with ProcessEngine(self.spec(), shards=8, seed=303, workers=2) as engine:
            self._gate(self._observations(engine))
