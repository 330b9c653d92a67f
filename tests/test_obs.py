"""The repro.obs observability layer, end to end.

Three layers of claims, tested in order:

* the **primitives** (counter/gauge/histogram, the null registry, snapshot
  merging, Prometheus exposition, spans, logging config) behave and compose
  as documented;
* **instrumentation changes nothing**: ingest through every executor stays
  bit-identical to the uninstrumented serial engine with a live registry
  attached, and a disabled (default) registry records nothing at all;
* the **fleet story holds**: one ``ProcessEngine.metrics_snapshot()`` call
  merges coordinator and worker registries into a single snapshot carrying
  dispatch/apply/transport accounting, eviction splits and checkpoint
  durations, renders as parseable Prometheus text, and degrades to a
  partial snapshot (never a hang) when a worker is SIGKILL'd.
"""

import io
import json
import logging
import math
import os
import pickle
import signal

import pytest

from repro.engine import (
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    load_checkpoint,
    write_checkpoint,
)
from repro.engine.pool import KeyedSamplerPool
from repro.exceptions import ExecutorError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    configure_logging,
    disable,
    enable,
    get_registry,
    labeled_prometheus_text,
    logging_config,
    merge_snapshots,
    parse_prometheus_text,
    reset_logging,
    sanitize_metric_name,
    span,
    to_prometheus_text,
)
from repro.streams.workloads import build_keyed_workload

SPEC = SamplerSpec(window="sequence", n=32, k=4, replacement=True)


def keyed_records(count, keys=37, seed=5):
    return [(record.key, record.value) for record in
            build_keyed_workload("keyed-zipf", count, num_keys=keys, rng=seed)]


def kill_worker(engine, index):
    """SIGKILL one worker process and wait for the OS to reap it."""
    process = engine._processes[index]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


class TestPrimitives:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        # Lazily cached: same name, same instrument.
        assert registry.counter("c") is counter

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_histogram_buckets_are_inclusive_le(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 99.0):
            histogram.observe(value)
        # le semantics: 1.0 lands in the first bucket, 4.0 in the third,
        # 99.0 in the +Inf overflow cell.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(106.0)

    def test_histogram_default_buckets_accepted(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.bounds == DEFAULT_LATENCY_BUCKETS

    def test_histogram_rejects_bad_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("bad2", buckets=(2.0, 1.0))
        # Empty bounds fall back to the defaults at the registry layer, but
        # the raw constructor refuses them.
        import threading

        from repro.obs.registry import Histogram

        with pytest.raises(ValueError):
            Histogram("bad3", (), threading.Lock())

    def test_histogram_bound_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        assert registry.histogram("h", buckets=(1.0, 2.0)) is registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_name_cannot_change_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name")
        with pytest.raises(ValueError):
            registry.register_callback("name", lambda: 1)

    def test_callback_gauges_sum_at_snapshot_time(self):
        registry = MetricsRegistry()
        live = {"a": 3, "b": 4}
        registry.register_callback("keys", lambda: live["a"])
        registry.register_callback("keys", lambda: live["b"])
        assert registry.snapshot()["gauges"]["keys"] == 7
        live["a"] = 10  # evaluated fresh on every snapshot
        assert registry.snapshot()["gauges"]["keys"] == 14

    def test_broken_callback_does_not_poison_snapshot(self):
        registry = MetricsRegistry()
        registry.register_callback("keys", lambda: 1 / 0)
        registry.register_callback("keys", lambda: 5)
        registry.counter("ok").inc()
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["keys"] == 5
        assert snapshot["counters"]["ok"] == 1

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())


class TestNullRegistry:
    def test_disabled_and_shared_noops(self):
        assert NULL_REGISTRY.enabled is False
        counter = NULL_REGISTRY.counter("x")
        assert counter is NULL_REGISTRY.gauge("y") is NULL_REGISTRY.histogram("z")
        counter.inc(5)
        counter.dec()
        counter.set(3)
        counter.observe(1.0)
        assert counter.value == 0
        NULL_REGISTRY.register_callback("k", lambda: 1)
        assert NULL_REGISTRY.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_module_default_enable_disable(self):
        assert get_registry() is NULL_REGISTRY
        try:
            registry = enable()
            assert registry.enabled and get_registry() is registry
            mine = MetricsRegistry()
            assert enable(mine) is mine and get_registry() is mine
        finally:
            disable()
        assert get_registry() is NULL_REGISTRY


class TestMergeSnapshots:
    def test_counters_and_gauges_sum_histograms_fold(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        for registry, factor in ((first, 1), (second, 10)):
            registry.counter("records").inc(5 * factor)
            registry.gauge("depth").set(2 * factor)
            histogram = registry.histogram("lat", buckets=(1.0, 2.0))
            histogram.observe(0.5 * factor)  # 0.5 -> bucket 0; 5.0 -> +Inf
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"]["records"] == 55
        assert merged["gauges"]["depth"] == 22
        assert merged["histograms"]["lat"]["counts"] == [1, 0, 1]
        assert merged["histograms"]["lat"]["count"] == 2
        assert merged["histograms"]["lat"]["sum"] == pytest.approx(5.5)

    def test_disjoint_names_union(self):
        first = MetricsRegistry()
        first.counter("only.first").inc()
        second = MetricsRegistry()
        second.counter("only.second").inc(2)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"] == {"only.first": 1, "only.second": 2}

    def test_bucket_mismatch_raises(self):
        first = MetricsRegistry()
        first.histogram("h", buckets=(1.0,)).observe(0.5)
        second = MetricsRegistry()
        second.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([first.snapshot(), second.snapshot()])

    def test_empty_and_identity(self):
        assert merge_snapshots([]) == {"counters": {}, "gauges": {}, "histograms": {}}
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        snapshot = registry.snapshot()
        assert merge_snapshots([snapshot]) == snapshot


class TestExposition:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("engine.ingest.records", "swsample") == (
            "swsample_engine_ingest_records"
        )
        assert sanitize_metric_name("weird name-1%") == "weird_name_1_"

    def test_round_trip_through_the_parser(self):
        registry = MetricsRegistry()
        registry.counter("engine.ingest.records").inc(1234)
        registry.gauge("executor.queue.depth").set(3)
        histogram = registry.histogram("chunk.seconds", buckets=(0.001, 0.01))
        histogram.observe(0.0005)
        histogram.observe(0.005)
        histogram.observe(5.0)
        text = to_prometheus_text(registry.snapshot())
        parsed = parse_prometheus_text(text)
        assert parsed["types"]["swsample_engine_ingest_records"] == "counter"
        assert parsed["types"]["swsample_executor_queue_depth"] == "gauge"
        assert parsed["types"]["swsample_chunk_seconds"] == "histogram"
        samples = {
            (name, labels.get("le")): value for name, labels, value in parsed["samples"]
        }
        assert samples[("swsample_engine_ingest_records", None)] == 1234
        assert samples[("swsample_executor_queue_depth", None)] == 3
        # Cumulative buckets: 1, then 2, then +Inf carries all 3.
        assert samples[("swsample_chunk_seconds_bucket", "0.001")] == 1
        assert samples[("swsample_chunk_seconds_bucket", "0.01")] == 2
        assert samples[("swsample_chunk_seconds_bucket", "+Inf")] == 3
        assert samples[("swsample_chunk_seconds_count", None)] == 3
        assert samples[("swsample_chunk_seconds_sum", None)] == pytest.approx(5.0055)

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus_text(MetricsRegistry().snapshot()) == ""
        assert parse_prometheus_text("") == {"types": {}, "samples": []}

    def test_parser_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE broken\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE m wibble\nm 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE m counter\n# TYPE m counter\nm 1\n")
        # Histogram consistency: buckets must cumulate and end at +Inf.
        with pytest.raises(ValueError):
            parse_prometheus_text(
                '# TYPE h histogram\nh_bucket{le="1"} 2\nh_bucket{le="+Inf"} 1\n'
                "h_sum 1\nh_count 1\n"
            )
        with pytest.raises(ValueError):
            parse_prometheus_text(
                '# TYPE h histogram\nh_bucket{le="1"} 1\nh_sum 1\nh_count 1\n'
            )
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE h histogram\nh_sum 1\nh_count 1\n")

    def test_parser_reads_special_values(self):
        parsed = parse_prometheus_text("# TYPE g gauge\ng +Inf\n")
        assert parsed["samples"][0][2] == math.inf


class TestLabeledExposition:
    @staticmethod
    def snapshots():
        out = {}
        for name, count in (("acme", 41), ("beta", 7)):
            registry = MetricsRegistry()
            registry.counter("engine.ingest.records").inc(count)
            histogram = registry.histogram("chunk.seconds", buckets=(0.01,))
            histogram.observe(0.001)
            histogram.observe(1.0)
            out[name] = registry.snapshot()
        return out

    def test_one_document_many_tenants(self):
        text = labeled_prometheus_text(self.snapshots(), "tenant")
        # A single TYPE declaration per metric (duplicates are a parse error,
        # which is the whole reason naive per-tenant concatenation fails)...
        assert text.count("# TYPE swsample_engine_ingest_records counter") == 1
        assert text.count("# TYPE swsample_chunk_seconds histogram") == 1
        # ... with each tenant's samples distinguished by the label.
        parsed = parse_prometheus_text(text)
        values = {
            (name, labels.get("tenant"), labels.get("le")): value
            for name, labels, value in parsed["samples"]
        }
        assert values[("swsample_engine_ingest_records", "acme", None)] == 41
        assert values[("swsample_engine_ingest_records", "beta", None)] == 7
        assert values[("swsample_chunk_seconds_bucket", "acme", "+Inf")] == 2
        assert values[("swsample_chunk_seconds_count", "beta", None)] == 2

    def test_uneven_snapshots_and_escaping(self):
        lean = MetricsRegistry()
        lean.gauge("only.here").set(1)
        snapshots = dict(self.snapshots())
        snapshots['we"ird\\ten\nant'] = lean.snapshot()
        text = labeled_prometheus_text(snapshots, "tenant")
        parsed = parse_prometheus_text(text)
        tenants = {labels.get("tenant") for _, labels, _ in parsed["samples"]}
        assert 'we"ird\\ten\nant' in tenants
        only = [s for s in parsed["samples"] if s[0] == "swsample_only_here"]
        assert len(only) == 1 and only[0][2] == 1

    def test_rejects_bad_label_name(self):
        with pytest.raises(ValueError):
            labeled_prometheus_text({}, "not-a-label")
        assert labeled_prometheus_text({}, "tenant") == ""

    def test_parser_checks_histograms_per_label_set(self):
        # Two interleaved labeled series, each internally cumulative — valid.
        good = (
            "# TYPE h histogram\n"
            'h_bucket{tenant="a",le="1"} 5\nh_bucket{tenant="a",le="+Inf"} 5\n'
            'h_sum{tenant="a"} 1\nh_count{tenant="a"} 5\n'
            'h_bucket{tenant="b",le="1"} 1\nh_bucket{tenant="b",le="+Inf"} 2\n'
            'h_sum{tenant="b"} 1\nh_count{tenant="b"} 2\n'
        )
        parse_prometheus_text(good)
        # One series broken (non-cumulative) must still be caught.
        with pytest.raises(ValueError, match="cumulative"):
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{tenant="a",le="1"} 5\nh_bucket{tenant="a",le="+Inf"} 4\n'
                'h_count{tenant="a"} 4\n'
            )
        # A labeled series missing its _count must be caught per label set.
        with pytest.raises(ValueError, match="_count"):
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{tenant="a",le="+Inf"} 1\nh_count{tenant="a"} 1\n'
                'h_bucket{tenant="b",le="+Inf"} 1\n'
            )


class TestSpans:
    def test_span_records_into_named_histogram(self):
        registry = MetricsRegistry()
        with span("checkpoint.write", registry=registry) as opened:
            pass
        assert opened.path == "checkpoint.write"
        assert opened.seconds >= 0.0
        histograms = registry.snapshot()["histograms"]
        assert histograms["checkpoint.write.seconds"]["count"] == 1

    def test_spans_nest_into_dotted_paths(self):
        registry = MetricsRegistry()
        with span("outer", registry=registry):
            with span("inner", registry=registry) as inner:
                pass
        assert inner.path == "outer.inner"
        histograms = registry.snapshot()["histograms"]
        assert histograms["outer.seconds"]["count"] == 1
        assert histograms["outer.inner.seconds"]["count"] == 1

    def test_span_exception_still_records_and_unwinds(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with span("boom", registry=registry):
                raise RuntimeError("inside")
        assert registry.snapshot()["histograms"]["boom.seconds"]["count"] == 1
        # The stack unwound: a following span is not nested under "boom".
        with span("after", registry=registry) as after:
            pass
        assert after.path == "after"

    def test_span_on_null_registry_is_harmless(self):
        with span("free") as opened:
            pass
        assert opened.seconds >= 0.0

    def test_span_requires_a_name(self):
        with pytest.raises(ValueError):
            span("")


class TestLogging:
    def teardown_method(self):
        reset_logging()

    def test_configure_produces_picklable_config(self):
        assert logging_config() is None
        config = configure_logging(level="debug", stream=io.StringIO())
        assert config == {"level": "debug", "json": False}
        assert logging_config() == config
        pickle.dumps(logging_config())

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_reconfigure_replaces_rather_than_stacks(self):
        configure_logging(level="info", stream=io.StringIO())
        configure_logging(level="debug", stream=io.StringIO())
        logger = logging.getLogger("repro")
        tagged = [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(tagged) == 1
        assert logger.level == logging.DEBUG

    def test_json_lines_carry_extras(self):
        stream = io.StringIO()
        configure_logging(level="debug", json_lines=True, stream=stream)
        logging.getLogger("repro.engine.worker").info(
            "shard worker online: pid=%s", 123, extra={"shards": [0, 1]}
        )
        payload = json.loads(stream.getvalue().strip())
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.engine.worker"
        assert payload["message"] == "shard worker online: pid=123"
        assert payload["shards"] == [0, 1]
        assert isinstance(payload["pid"], int)

    def test_spans_emit_debug_lines(self):
        stream = io.StringIO()
        configure_logging(level="debug", json_lines=True, stream=stream)
        with span("traced", registry=MetricsRegistry()):
            pass
        payload = json.loads(stream.getvalue().strip())
        assert payload["span"] == "traced"
        assert payload["failed"] is False
        assert payload["seconds"] >= 0.0

    def test_reset_forgets_everything(self):
        configure_logging(level="info", stream=io.StringIO())
        reset_logging()
        assert logging_config() is None
        logger = logging.getLogger("repro")
        assert not [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]


class TestEngineInstrumentation:
    def test_serial_engine_counts_batches_and_records(self):
        registry = MetricsRegistry()
        engine = ShardedEngine(SPEC, shards=4, seed=1, registry=registry)
        records = keyed_records(3000)
        engine.ingest(records[:2000])
        engine.ingest(records[2000:])
        counters = registry.snapshot()["counters"]
        assert counters["engine.ingest.records"] == 3000
        assert counters["engine.ingest.batches"] == 2
        assert (
            counters["engine.ingest.chunks.grouped"]
            + counters["engine.ingest.chunks.partitioned"]
        ) >= 2

    def test_live_gauges_reflect_the_fleet(self):
        registry = MetricsRegistry()
        engine = ShardedEngine(SPEC, shards=4, seed=1, registry=registry)
        engine.ingest(keyed_records(2000))
        gauges = registry.snapshot()["gauges"]
        assert gauges["engine.keys.active"] == engine.key_count
        assert gauges["engine.memory.words"] == engine.memory_words()

    def test_default_registry_is_null_and_records_nothing(self):
        engine = ShardedEngine(SPEC, shards=4, seed=1)
        engine.ingest(keyed_records(1000))
        assert engine.metrics_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_pool_eviction_split_lru_vs_ttl(self, sizing):
        registry = MetricsRegistry()
        sizing(sweep_interval=1)
        pool = KeyedSamplerPool(SPEC, seed=1, max_keys=2, idle_ttl=3, registry=registry)
        for key in ("a", "b", "c"):  # third key trips the LRU cap
            pool.append(key, 1)
        assert pool.evictions_lru == 1
        # Park "b" idle past the TTL while "c" keeps arriving.
        for _ in range(6):
            pool.append("c", 1)
        assert pool.evictions_ttl >= 1
        assert pool.evictions == pool.evictions_lru + pool.evictions_ttl
        counters = registry.snapshot()["counters"]
        assert counters["pool.evictions.lru"] == pool.evictions_lru
        assert counters["pool.evictions.ttl"] == pool.evictions_ttl

    def test_engine_stats_exposes_the_split(self):
        registry = MetricsRegistry()
        engine = ShardedEngine(
            SPEC, shards=2, seed=1, max_keys_per_shard=3, registry=registry
        )
        engine.ingest(keyed_records(4000, keys=50))
        stats = engine.stats()
        assert stats["shards"] == 2
        assert stats["arrivals"] == 4000
        assert stats["evictions"]["lru"] > 0
        assert stats["evictions"]["ttl"] == 0
        assert stats["evictions"]["total"] == (
            stats["evictions"]["lru"] + stats["evictions"]["ttl"]
        )
        assert stats["evictions"]["total"] == engine.evictions

    def test_eviction_split_survives_state_round_trip(self):
        engine = ShardedEngine(SPEC, shards=2, seed=1, max_keys_per_shard=3)
        engine.ingest(keyed_records(4000, keys=50))
        restored = ShardedEngine.from_state_dict(engine.state_dict())
        assert restored.stats()["evictions"] == engine.stats()["evictions"]

    def test_checkpoint_write_and_restore_record_metrics(self, tmp_path):
        registry = MetricsRegistry()
        engine = ShardedEngine(SPEC, shards=4, seed=1, registry=registry)
        engine.ingest(keyed_records(2000))
        path = str(tmp_path / "engine.ckpt")
        write_checkpoint(engine, path)
        engine.ingest([("a", 1)])
        write_checkpoint(engine, path)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["checkpoint.saves"] == 2
        assert snapshot["counters"]["checkpoint.segments.written"] == 5  # 4 + 1
        assert snapshot["counters"]["checkpoint.segments.reused"] == 3
        assert snapshot["counters"]["checkpoint.bytes.written"] > 0
        assert snapshot["histograms"]["checkpoint.write.seconds"]["count"] == 2
        # The second save only rewrote the one dirty shard.
        assert snapshot["gauges"]["checkpoint.dirty.shard.ratio"] == pytest.approx(0.25)

        restore_registry = MetricsRegistry()
        restored = load_checkpoint(path, registry=restore_registry)
        assert restored.state_dict() == engine.state_dict()
        restore_snapshot = restore_registry.snapshot()
        assert restore_snapshot["histograms"]["checkpoint.restore.seconds"]["count"] == 1
        # The restored engine reports into the registry it was handed.
        restored.ingest([("b", 2)])
        assert restore_registry.snapshot()["counters"]["engine.ingest.records"] == 1


class TestExecutorEquivalence:
    """Instrumentation on = bit-identical results, merge-equivalent metrics."""

    def _state_and_counters(self, engine_class, records, registry, **kwargs):
        if engine_class is ShardedEngine:
            engine = ShardedEngine(SPEC, shards=4, seed=7, registry=registry)
            engine.ingest(records)
            return engine.state_dict(), engine.metrics_snapshot()
        with engine_class(SPEC, shards=4, seed=7, workers=2, registry=registry,
                          **kwargs) as engine:
            engine.ingest(records)
            engine.flush()
            state = engine.state_dict()
            snapshot = engine.metrics_snapshot()
        return state, snapshot

    def test_all_executors_bit_identical_with_metrics_on(self):
        records = keyed_records(6000)
        reference = ShardedEngine(SPEC, shards=4, seed=7)  # uninstrumented
        reference.ingest(records)
        expected = reference.state_dict()

        flavours = [(ShardedEngine, {}), (ProcessEngine, {})]
        for engine_class, kwargs in flavours:
            state, snapshot = self._state_and_counters(
                engine_class, records, MetricsRegistry(), **kwargs
            )
            label = (engine_class.__name__, kwargs)
            assert state == expected, label
            counters = snapshot["counters"]
            assert counters["engine.ingest.records"] == len(records), label
            # Process flavours: everything dispatched was applied.
            if engine_class is not ShardedEngine:
                assert counters["executor.dispatched.records"] == len(records), label
                assert counters["worker.applied.records"] == len(records), label
                assert counters["worker.failures"] == 0, label
                assert counters["worker.applied.batches"] == (
                    counters["executor.dispatched.batches"]
                ), label

    def test_worker_registries_merge_into_one_snapshot(self):
        records = keyed_records(5000)
        registry = MetricsRegistry()
        with ProcessEngine(SPEC, shards=4, seed=7, workers=2, registry=registry) as engine:
            engine.ingest(records)
            engine.flush()
            snapshot = engine.metrics_snapshot()
            live_keys = engine.key_count
        # Coordinator-side counters and worker-resident counters land in the
        # same snapshot; the coordinator's own registry never saw worker.*.
        assert "transport.encoded.bytes" in snapshot["counters"]
        assert snapshot["counters"]["worker.applied.records"] == len(records)
        assert "worker.applied.records" not in registry.snapshot()["counters"]
        assert snapshot["gauges"]["fleet.workers"] == 2
        assert snapshot["gauges"]["fleet.workers.reporting"] == 2
        assert snapshot["gauges"]["fleet.workers.lost"] == 0
        # Worker pools report their live keys through the merged gauges.
        assert snapshot["gauges"]["engine.keys.active"] == live_keys


class TestProcessFleet:
    def test_fleet_snapshot_acceptance(self, tmp_path):
        """The PR's acceptance scenario: one ProcessEngine snapshot carries
        worker-merged queue/backpressure/apply metrics, eviction counters,
        checkpoint durations, and renders as valid Prometheus text."""
        registry = MetricsRegistry()
        records = keyed_records(8000, keys=120)
        with ProcessEngine(
            SPEC, shards=4, seed=7, workers=2,
            max_keys_per_shard=5, registry=registry,
        ) as engine:
            engine.ingest(records)
            engine.flush()
            write_checkpoint(engine, str(tmp_path / "fleet.ckpt"))
            evictions = engine.stats()["evictions"]
            snapshot = engine.metrics_snapshot()

        counters = snapshot["counters"]
        assert counters["executor.dispatched.records"] == len(records)
        assert counters["worker.applied.records"] == len(records)
        assert counters["worker.apply.seconds"] > 0
        assert counters["executor.backpressure.seconds"] >= 0
        assert evictions["lru"] > 0
        assert counters["pool.evictions.lru"] == evictions["lru"]
        assert counters["pool.evictions.ttl"] == evictions["ttl"] == 0
        assert counters["checkpoint.saves"] == 1
        assert snapshot["histograms"]["checkpoint.write.seconds"]["count"] == 1
        assert "executor.queue.depth" in snapshot["gauges"]

        text = to_prometheus_text(snapshot)
        parsed = parse_prometheus_text(text)  # the validator raises on bad text
        assert parsed["types"]["swsample_worker_applied_records"] == "counter"
        assert parsed["types"]["swsample_checkpoint_write_seconds"] == "histogram"
        by_name = {name: value for name, labels, value in parsed["samples"] if not labels}
        assert by_name["swsample_worker_applied_records"] == len(records)

    def test_transport_report_per_worker_breakdown(self):
        registry = MetricsRegistry()
        records = keyed_records(6000)
        with ProcessEngine(SPEC, shards=4, seed=7, workers=2, registry=registry) as engine:
            engine.ingest(records)
            engine.flush()
            report = engine.transport_report()
        assert report["records"] == len(records)
        assert len(report["workers"]) == 2
        assert {row["worker"] for row in report["workers"]} == {0, 1}
        assert sum(row["records"] for row in report["workers"]) == len(records)
        assert sum(row["batches"] for row in report["workers"]) == report["batches"]
        for row in report["workers"]:
            assert row["apply_seconds"] >= 0.0
            assert row["decode_seconds"] >= 0.0

    def test_transport_report_works_without_a_registry(self):
        # Transport accounting must not depend on metrics being enabled.
        records = keyed_records(3000)
        with ProcessEngine(SPEC, shards=4, seed=7, workers=2) as engine:
            engine.ingest(records)
            engine.flush()
            report = engine.transport_report()
            assert engine.metrics_snapshot() == {
                "counters": {}, "gauges": {}, "histograms": {},
            }
        assert report["records"] == len(records)
        assert report["encoded_bytes"] > 0

    def test_sigkilled_worker_yields_partial_snapshot_not_hang(self):
        registry = MetricsRegistry()
        records = keyed_records(4000)
        engine = ProcessEngine(SPEC, shards=4, seed=7, workers=2, registry=registry)
        try:
            engine.ingest(records)
            engine.flush()
            kill_worker(engine, 0)
            snapshot = engine.metrics_snapshot()
            assert snapshot["gauges"]["fleet.workers"] == 2
            assert snapshot["gauges"]["fleet.workers.reporting"] == 1
            assert snapshot["gauges"]["fleet.workers.lost"] == 1
            # The surviving worker's share is present, the dead one's is
            # simply missing — records reflect a partial fleet.
            assert 0 < snapshot["counters"]["worker.applied.records"] < len(records)
            # Coordinator-side accounting is intact.
            assert snapshot["counters"]["executor.dispatched.records"] == len(records)
        finally:
            # Closing a fleet with a dead worker raises the sticky failure.
            try:
                engine.close()
            except ExecutorError:
                pass


class TestWorkerLoggingInheritance:
    def teardown_method(self):
        reset_logging()

    def test_worker_processes_apply_the_shipped_config(self, capfd):
        configure_logging(level="debug", json_lines=True)
        with ProcessEngine(SPEC, shards=2, seed=7, workers=2) as engine:
            engine.ingest(keyed_records(500))
            engine.flush()
        captured = capfd.readouterr().err
        online = [
            json.loads(line) for line in captured.splitlines()
            if '"shard worker online' in line
        ]
        assert len(online) == 2
        for payload in online:
            assert payload["logger"] == "repro.engine.worker"
            assert payload["level"] == "info"
