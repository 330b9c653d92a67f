"""Experiment E11 — keyed-engine ingest throughput at fleet scale.

Drives ≥1M keyed records spread over ≥10k keys through
:class:`repro.engine.ShardedEngine` in one run, timing the batched ingest
path (stable-hash routing + per-key Θ(k) sampler updates) and reporting the
fleet's aggregate word-RAM footprint.  Also times the two auxiliary paths a
production deployment exercises continuously: cross-key aggregation and
checkpoint serialisation — and the scaling layers:

* a **process-workers sweep** over :class:`repro.engine.ProcessEngine`
  (1/2/4 worker processes).  Process workers *do* clear the GIL — sampler
  updates run on real cores — but only when cores exist: on a single-core
  container the sweep is flat, so each run prints the detected core count
  *and* the per-stage transport breakdown (encode / dispatch / decode /
  apply seconds from :meth:`ProcessEngine.transport_report`) next to its
  throughput — the caveat comes with numbers, not just a caption.  The
  safety net stays the same: the process fleet must be bit-identical to
  the serial fleet.
* a **batched-path comparison**: the serial 1M-record ingest through the
  per-record reference loop and the grouped batched path (bit-identical) —
  the two numbers ``benchmarks/record.py`` tracks in ``BENCH_E11.json``.
* **incremental checkpoints**: a second save after touching ~1% of keys
  (clustered on ≤10% of shards) must rewrite ≤10% of the shard segments.

Run with ``pytest benchmarks/bench_e11_engine.py --benchmark-only``.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import (
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    load_checkpoint,
    write_checkpoint,
)
from repro.streams.workloads import build_keyed_workload

RECORDS = 1_000_000
KEYS = 10_000
SHARDS = 8
#: Shard count for the incremental-checkpoint scenario: per-shard segments
#: only pay off when a key touch dirties a small *fraction* of shards, so
#: the persistence fleet runs many small shards (the production shape for
#: rebalancing anyway).
CHECKPOINT_SHARDS = 64


def _spec() -> SamplerSpec:
    return SamplerSpec(window="sequence", n=256, k=4, replacement=True)


@pytest.fixture(scope="module")
def records():
    # One warm-up record per key (a Zipf tail this long leaves a handful of
    # keys undrawn even in 1M records), then the skewed bulk.  The warm-up
    # uses the bare (key, value) record form, the bulk the 3-field form.
    warmup = [(key, key % 1024) for key in range(KEYS)]
    bulk = build_keyed_workload("keyed-zipf", RECORDS - len(warmup), num_keys=KEYS, rng=11)
    return warmup + bulk


def test_e11_engine_ingest_1m_records(benchmark, records):
    """The headline number: 1M keyed records through 10k per-key samplers."""

    def ingest():
        engine = ShardedEngine(_spec(), shards=SHARDS, seed=3)
        engine.ingest(records)
        return engine

    engine = benchmark.pedantic(ingest, rounds=1, iterations=1, warmup_rounds=0)
    assert engine.total_arrivals >= 1_000_000
    assert engine.key_count >= 10_000
    benchmark.extra_info["records"] = engine.total_arrivals
    benchmark.extra_info["keys"] = engine.key_count
    benchmark.extra_info["memory_words"] = engine.memory_words()
    benchmark.extra_info["words_per_key"] = engine.memory_words() / engine.key_count
    print(
        f"\n[E11] {engine.total_arrivals:,} records, {engine.key_count:,} keys, "
        f"{engine.shards} shards, fleet memory {engine.memory_words():,} words "
        f"(~{engine.memory_words() // engine.key_count} words/key)"
    )


@pytest.fixture(scope="module")
def loaded_engine(records):
    engine = ShardedEngine(_spec(), shards=SHARDS, seed=3)
    engine.ingest(records)
    return engine


def test_e11_engine_aggregates(benchmark, loaded_engine):
    """Cross-key aggregation cost over the full 10k-key fleet."""

    def aggregate():
        hottest = loaded_engine.hottest_keys(10)
        merged = loaded_engine.merged_frequent_items(0.01, top=10)
        return hottest, merged

    hottest, merged = benchmark(aggregate)
    assert len(hottest) == 10
    assert merged, "the Zipf head must clear a 1% frequency threshold"


def test_e11_engine_checkpoint_round_trip(benchmark, loaded_engine, tmp_path):
    """Serialise + restore the whole fleet; restored samples must be identical."""
    path = tmp_path / "engine.ckpt"

    def round_trip():
        write_checkpoint(loaded_engine, path)
        return load_checkpoint(path)

    restored = benchmark.pedantic(round_trip, rounds=1, iterations=1, warmup_rounds=0)
    assert restored.key_count == loaded_engine.key_count
    probe = [key for key, _ in loaded_engine.hottest_keys(50)]
    assert all(restored.sample(key) == loaded_engine.sample(key) for key in probe)
    benchmark.extra_info["checkpoint_bytes"] = sum(
        entry.stat().st_size for entry in path.iterdir()
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_e11_process_ingest_workers_sweep(benchmark, records, workers):
    """The same 1M-record fleet through 1/2/4 shard-worker *processes*.

    Process workers run sampler updates on real cores — but the speed-up is
    bounded by the cores actually present, and every record pays transport
    freight across the queue.  The caveat is printed with the
    number so a flat sweep on a 1-core container reads as what it is.
    """

    def ingest():
        with ProcessEngine(_spec(), shards=SHARDS, seed=3, workers=workers) as engine:
            engine.ingest(records)
            engine.flush()
            return engine.total_arrivals, engine.transport_report()

    arrivals, report = benchmark.pedantic(ingest, rounds=1, iterations=1, warmup_rounds=0)
    assert arrivals >= 1_000_000
    cores = os.cpu_count() or 1
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["executor"] = "process"
    benchmark.extra_info["cores"] = cores
    for stage in ("encode_seconds", "dispatch_seconds", "decode_seconds", "apply_seconds"):
        benchmark.extra_info[stage] = round(report[stage], 3)
    benchmark.extra_info["encoded_bytes_per_record"] = round(
        report["encoded_bytes"] / report["records"], 2
    )
    print(
        f"\n[E11] process sweep: workers={workers} on {cores} core(s) — "
        + (
            "single-core host: expect a flat sweep (no CPU parallelism to claim)"
            if cores == 1
            else "multi-core host: sampler updates run concurrently"
        )
    )
    print(
        f"[E11]   stages: encode {report['encode_seconds']:.2f}s"
        f" | dispatch {report['dispatch_seconds']:.2f}s (incl. backpressure)"
        f" | decode {report['decode_seconds']:.2f}s"
        f" | apply {report['apply_seconds']:.2f}s (summed over workers)"
        f" | {report['encoded_bytes'] / report['records']:.1f} B/rec on the wire"
    )


def test_e11_process_matches_serial_fleet(records):
    """Safety net under the process sweep: bit-identical through worker
    processes (same invariant E5/E9 rest on, crossing a pickle boundary)."""
    serial = ShardedEngine(_spec(), shards=SHARDS, seed=3)
    serial.ingest(records[:100_000])
    with ProcessEngine(_spec(), shards=SHARDS, seed=3, workers=4) as process:
        process.ingest(records[:100_000])
        assert process.state_dict() == serial.state_dict()


def test_e11_incremental_checkpoint_rewrites_only_dirty_shards(benchmark, records, tmp_path):
    """Touch ~1% of keys (clustered on ≤10% of shards, the hot-tenant
    shape); the follow-up save must rewrite ≤10% of the shard segments."""
    engine = ShardedEngine(_spec(), shards=CHECKPOINT_SHARDS, seed=3)
    engine.ingest(records)
    path = tmp_path / "engine.ckpt"
    first = write_checkpoint(engine, path)
    assert first.segments_written == CHECKPOINT_SHARDS

    hot_shards = max(1, CHECKPOINT_SHARDS // 10)
    touched = [
        key for key in range(KEYS) if engine.shard_of(key) < hot_shards
    ][: KEYS // 100]
    assert len(touched) == KEYS // 100
    engine.ingest([(key, key % 1024) for key in touched])

    second = benchmark.pedantic(
        lambda: write_checkpoint(engine, path), rounds=1, iterations=1, warmup_rounds=0
    )
    assert second.segments_written <= CHECKPOINT_SHARDS // 10
    assert second.segments_reused == CHECKPOINT_SHARDS - second.segments_written
    restored = load_checkpoint(path)
    assert all(restored.sample(key) == engine.sample(key) for key in touched[:25])
    benchmark.extra_info["segments_written"] = second.segments_written
    benchmark.extra_info["segments_total"] = CHECKPOINT_SHARDS
    print(
        f"\n[E11] incremental checkpoint: {second.segments_written}/{CHECKPOINT_SHARDS}"
        f" segments rewritten after touching {len(touched)} of {KEYS} keys"
        f" ({second.bytes_written:,} bytes)"
    )
