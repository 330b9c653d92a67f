"""Process-based shard workers: equivalence, faults, crash recovery.

The load-bearing claim of :class:`repro.engine.ProcessEngine` is that
``workers`` is a pure throughput knob: because shard ownership, per-shard
FIFO order and key-derived sampler seeds are all identical, ingest through
worker *processes* must be bit-identical to the serial engine — same
samples, same generator positions, same future randomness — while the pools
themselves never leave their workers on the query hot path.  These tests
pin the equivalence for all four optimal samplers over every fleet shape
on the dispatch path (journaled, one worker, small sub-batches) and worker
count, then exercise the request/reply query
protocol, worker-written checkpoint segments, the caller-lock contract
under concurrent application threads, and the failure model (a killed worker process must surface as a sticky ``WorkerFailure``,
never a hang, an orphan, or silent data loss).
"""

import os
import signal
import threading
import time

import pytest

from repro.engine import (
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    encode_batch,
    load_checkpoint,
    write_checkpoint,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    EmptyWindowError,
    ExecutorError,
    StreamOrderError,
    WorkerFailure,
)
from repro.obs import MetricsRegistry
from repro.streams.workloads import build_keyed_workload

SEQ_SPEC = SamplerSpec(window="sequence", n=32, k=4, replacement=True)
TS_SPEC = SamplerSpec(window="timestamp", t0=64.0, k=3, replacement=False)

#: The paper's four optimal samplers — equivalence must hold for each.
OPTIMAL_SPECS = [
    pytest.param(SamplerSpec(window="sequence", n=40, k=4, replacement=True), id="seq-wr"),
    pytest.param(SamplerSpec(window="sequence", n=40, k=4, replacement=False), id="seq-wor"),
    pytest.param(SamplerSpec(window="timestamp", t0=60.0, k=3, replacement=True), id="ts-wr"),
    pytest.param(SamplerSpec(window="timestamp", t0=60.0, k=3, replacement=False), id="ts-wor"),
]

#: The shapes a fleet's dispatch path can take: plain, supervised with a WAL
#: journal, one worker owning every shard, small sub-batches (the
#: ``fleet_options`` fixture in conftest.py applies each column).  Results
#: must not depend on the fleet shape.
FLEETS = ["columnar", "supervised-wal", "one-worker", "small-batch"]


def keyed_records(count, keys=37, seed=5):
    return [(record.key, record.value) for record in
            build_keyed_workload("keyed-zipf", count, num_keys=keys, rng=seed)]


def spec_records(spec, count, seed=4):
    if spec.is_timestamp:
        return [(f"key-{index % 19}", index % 7, index * 0.5) for index in range(count)]
    return keyed_records(count, keys=19, seed=seed)


def kill_worker(engine, index):
    """SIGKILL one worker process and wait for the OS to reap it."""
    process = engine._processes[index]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


class TestConstruction:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessEngine(SEQ_SPEC, workers=0)

    def test_sizing_is_not_an_option(self):
        # The sub-batch and inbox sizes are module constants; the options
        # are gone, so passing one fails before any worker is spawned.
        with pytest.raises(TypeError):
            ProcessEngine(SEQ_SPEC, workers=1, queue_depth=8)
        with pytest.raises(TypeError):
            ProcessEngine(SEQ_SPEC, workers=1, max_batch=4096)

    def test_workers_clamped_to_shard_count(self):
        with ProcessEngine(SEQ_SPEC, shards=2, workers=16) as engine:
            assert engine.workers == 2

    def test_raw_pools_are_refused(self):
        with ProcessEngine(SEQ_SPEC, shards=2, workers=1) as engine:
            with pytest.raises(ExecutorError, match="resident"):
                engine.pools

    def test_context_manager_closes_and_reaps(self):
        with ProcessEngine(SEQ_SPEC, shards=2, workers=2) as engine:
            engine.ingest([("a", 1)])
            processes = list(engine._processes)
        assert engine.closed
        assert all(not process.is_alive() for process in processes)
        engine.close()  # idempotent
        with pytest.raises(ExecutorError):
            engine.ingest([("a", 2)])

    def test_closed_engine_refuses_queries(self):
        # The state lived in the (now reaped) workers: a closed
        # ProcessEngine cannot answer — loudly.
        with ProcessEngine(SEQ_SPEC, shards=2, workers=2, seed=9) as engine:
            engine.ingest([("a", value) for value in range(100)])
            assert engine.total_arrivals == 100  # queries fine before close
        with pytest.raises(ExecutorError, match="closed"):
            engine.sample("a")
        with pytest.raises(ExecutorError, match="closed"):
            engine.total_arrivals

    def test_garbage_collected_engine_leaves_no_orphans(self):
        engine = ProcessEngine(SEQ_SPEC, shards=2, workers=2)
        engine.ingest([("a", 1)])
        engine.flush()
        processes = list(engine._processes)
        del engine
        deadline = time.monotonic() + 10
        while any(process.is_alive() for process in processes):
            assert time.monotonic() < deadline, "finalizer left orphan processes"
            time.sleep(0.05)


class TestCrossExecutorEquivalence:
    """Serial and process ingest must be bit-identical per key."""

    @pytest.mark.parametrize("fleet", FLEETS)
    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    def test_two_executors_one_fleet_state(self, spec, fleet, fleet_options):
        records = spec_records(spec, 6_000)
        serial = ShardedEngine(spec, shards=8, seed=13)
        serial.ingest(records)
        expected = serial.state_dict()
        with ProcessEngine(
            spec, **fleet_options(fleet, shards=8, seed=13, workers=3, sub_batch=64)
        ) as process:
            process.ingest(records)
            # state_dict captures every candidate, counter and generator
            # position, so equality means identical samples *and* identical
            # future randomness — through a process boundary.
            assert process.state_dict() == expected
            assert process.now == serial.now

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_every_worker_count_matches_serial(self, workers, sizing):
        # 8 shards over 3 or 5 workers is an uneven split: some workers own
        # two shards, some one.  Ownership must never show in the state.
        records = keyed_records(3_000)
        serial = ShardedEngine(SEQ_SPEC, shards=8, seed=21)
        serial.ingest(records)
        sizing(sub_batch=32)
        with ProcessEngine(
            SEQ_SPEC, shards=8, seed=21, workers=workers
        ) as engine:
            assert engine.workers == workers
            engine.ingest(records)
            assert engine.state_dict() == serial.state_dict()

    def test_one_worker_equals_many_workers(self, sizing):
        records = keyed_records(4_000)
        states = []
        sizing(sub_batch=32)
        for workers in (1, 3):
            with ProcessEngine(
                SEQ_SPEC, shards=8, seed=21, workers=workers
            ) as engine:
                for start in range(0, len(records), 500):
                    engine.ingest(records[start : start + 500])
                states.append(engine.state_dict())
        assert states[0] == states[1]

    def test_per_key_samples_and_membership_match_serial(self):
        records = keyed_records(3_000)
        serial = ShardedEngine(SEQ_SPEC, shards=4, seed=2)
        serial.ingest(records)
        with ProcessEngine(SEQ_SPEC, shards=4, seed=2, workers=3) as process:
            process.ingest(records)
            assert process.keys() == serial.keys()  # shard order preserved
            for key in serial.keys():
                assert key in process
                assert process.sample(key) == serial.sample(key)
                assert process.sample_values(key) == serial.sample_values(key)
            assert "never-seen" not in process
            with pytest.raises(KeyError):
                process.sample("never-seen")

    def test_fleet_statistics_match_serial(self):
        records = keyed_records(3_000, keys=50)
        serial = ShardedEngine(SEQ_SPEC, shards=4, seed=2)
        serial.ingest(records)
        with ProcessEngine(SEQ_SPEC, shards=4, seed=2, workers=2) as process:
            process.ingest(records)
            assert process.key_count == serial.key_count
            assert process.total_arrivals == serial.total_arrivals
            assert process.evictions == serial.evictions
            assert process.memory_words() == serial.memory_words()

    def test_fleet_statistics_refresh_after_every_mutation(self):
        # The stats broadcast is cached between reads; every mutating path
        # (ingest, advance_time, load_state_dict) must invalidate it.
        with ProcessEngine(SEQ_SPEC, shards=4, seed=2, workers=2) as engine:
            engine.ingest(keyed_records(500))
            assert engine.total_arrivals == 500
            before = engine.memory_words()
            engine.ingest(keyed_records(500, seed=9))
            assert engine.total_arrivals == 1_000
            assert engine.memory_words() >= before
            state = engine.state_dict()
        with ProcessEngine(SEQ_SPEC, shards=4, seed=2, workers=1) as other:
            assert other.total_arrivals == 0
            other.load_state_dict(state)
            assert other.total_arrivals == 1_000

    def test_timestamp_statistics_refresh_after_lazy_clock_advance(self):
        # sample()/merged_frequent_items() advance worker-side clocks, which
        # can expire stored elements and shrink memory — the cache must not
        # serve the pre-advance footprint.
        serial = ShardedEngine(TS_SPEC, shards=2, seed=4)
        with ProcessEngine(TS_SPEC, shards=2, seed=4, workers=2) as engine:
            records = [("a", index, float(index)) for index in range(200)]
            records += [("b", 0, 200.0)]
            engine.ingest(records)
            serial.ingest(records)
            assert engine.memory_words() == serial.memory_words()
            engine.sample("a")  # lazy-advances a's sampler to now=200
            serial.sample("a")
            assert engine.memory_words() == serial.memory_words()

    def test_eviction_policy_applies_inside_workers(self):
        serial = ShardedEngine(SEQ_SPEC, shards=2, seed=7, max_keys_per_shard=5)
        records = [(f"key-{index}", index) for index in range(200)]
        serial.ingest(records)
        with ProcessEngine(
            SEQ_SPEC, shards=2, seed=7, workers=2, max_keys_per_shard=5
        ) as process:
            process.ingest(records)
            assert process.key_count == serial.key_count <= 10
            assert process.evictions == serial.evictions > 0
            assert process.state_dict() == serial.state_dict()

    def test_sampler_for_returns_detached_copy(self):
        with ProcessEngine(SEQ_SPEC, shards=2, seed=3, workers=2) as engine:
            engine.ingest([("a", value) for value in range(100)])
            sampler = engine.sampler_for("a")
            assert sampler.total_arrivals == 100
            before = engine.sample("a")
            sampler.append(12345)  # mutating the copy must not touch the fleet
            assert engine.sample("a") == before
            assert engine.sampler_for("a").total_arrivals == 100
            with pytest.raises(KeyError):
                engine.sampler_for("never-seen")

    def test_items_yields_detached_samplers_in_shard_order(self):
        records = keyed_records(2_000)
        serial = ShardedEngine(SEQ_SPEC, shards=4, seed=2)
        serial.ingest(records)
        with ProcessEngine(SEQ_SPEC, shards=4, seed=2, workers=3) as process:
            process.ingest(records)
            serial_items = list(serial.items())
            process_items = list(process.items())
            assert [key for key, _ in process_items] == [key for key, _ in serial_items]
            for (_, ours), (_, theirs) in zip(process_items, serial_items):
                assert ours.sample() == theirs.sample()

    def test_spawn_context_is_supported(self):
        # The default context (fork on Linux) is fastest; spawn must work
        # too since it is the default on macOS/Windows.
        records = keyed_records(500)
        serial = ShardedEngine(SEQ_SPEC, shards=2, seed=4)
        serial.ingest(records)
        with ProcessEngine(
            SEQ_SPEC, shards=2, seed=4, workers=2, mp_context="spawn"
        ) as engine:
            engine.ingest(records)
            assert engine.state_dict() == serial.state_dict()


class TestAggregates:
    def test_hottest_keys_match_serial(self):
        # Distinct arrival counts so the ranking has no cross-worker ties
        # (tie order is the one documented non-guarantee).
        records = []
        for round_number in range(30):
            for rank in range(23):
                records.extend([(f"key-{rank}", round_number)] * (rank + 1))
        serial = ShardedEngine(SEQ_SPEC, shards=8, seed=2)
        serial.ingest(records)
        with ProcessEngine(SEQ_SPEC, shards=8, seed=2, workers=3) as process:
            process.ingest(records)
            assert process.hottest_keys(7) == serial.hottest_keys(7)
            with pytest.raises(ConfigurationError):
                process.hottest_keys(0)

    def test_merged_frequent_items_agree_with_serial(self):
        records = keyed_records(5_000, keys=40)
        serial = ShardedEngine(SEQ_SPEC, shards=8, seed=11)
        serial.ingest(records)
        with ProcessEngine(SEQ_SPEC, shards=8, seed=11, workers=3) as process:
            process.ingest(records)
            ours = dict(process.merged_frequent_items(0.01))
            theirs = dict(serial.merged_frequent_items(0.01))
            assert ours.keys() == theirs.keys()
            for value, frequency in ours.items():
                # Worker partials are summed in a different float order than
                # the serial scan — identical up to accumulation rounding.
                assert frequency == pytest.approx(theirs[value], rel=1e-9)
            with pytest.raises(ConfigurationError):
                process.merged_frequent_items(1.5)

    def test_merged_frequent_items_timestamp_window(self):
        records = [(f"flow-{index % 9}", index % 5, index * 0.25) for index in range(4_000)]
        serial = ShardedEngine(TS_SPEC, shards=4, seed=3)
        serial.ingest(records)
        with ProcessEngine(TS_SPEC, shards=4, seed=3, workers=2) as process:
            process.ingest(records)
            ours = dict(process.merged_frequent_items(0.05))
            theirs = dict(serial.merged_frequent_items(0.05))
            assert ours.keys() == theirs.keys()
            for value, frequency in ours.items():
                assert frequency == pytest.approx(theirs[value], rel=1e-9)

    def test_per_key_moments_match_serial(self):
        spec = SamplerSpec(window="sequence", n=25, k=3, replacement=True)
        records = keyed_records(3_000, keys=20)
        serial = ShardedEngine(spec, shards=4, seed=5, track_occurrences=True)
        serial.ingest(records)
        with ProcessEngine(
            spec, shards=4, seed=5, workers=2, track_occurrences=True
        ) as process:
            process.ingest(records)
            assert process.per_key_moments(2.0) == serial.per_key_moments(2.0)
            assert process.aggregate_moment(1.0) == pytest.approx(
                serial.aggregate_moment(1.0)
            )

    def test_per_key_moments_config_errors_raise_coordinator_side(self):
        with ProcessEngine(SEQ_SPEC, shards=2, workers=1) as engine:
            with pytest.raises(ConfigurationError, match="track_occurrences"):
                engine.per_key_moments(2.0)


class TestClockContract:
    @pytest.mark.parametrize("fleet", FLEETS)
    def test_missing_timestamps_stamped_with_engine_clock(self, fleet, fleet_options):
        # The coordinator stamps before encoding, so every payload (and its
        # journal copy) must carry the stamped clock, not the caller's
        # missing one.
        with ProcessEngine(
            TS_SPEC, **fleet_options(fleet, shards=2, workers=2, seed=1)
        ) as engine:
            engine.ingest([("a", 1, 10.0), ("b", 2)])  # b stamped at 10.0
            assert engine.now == 10.0
            serial = ShardedEngine(TS_SPEC, shards=2, seed=1)
            serial.ingest([("a", 1, 10.0), ("b", 2)])
            assert engine.state_dict() == serial.state_dict()

    def test_out_of_order_batch_raises_and_keeps_prefix(self):
        with ProcessEngine(TS_SPEC, shards=2, workers=2, seed=1) as engine:
            with pytest.raises(StreamOrderError):
                engine.ingest([("a", 1, 5.0), ("b", 2, 9.0), ("c", 3, 4.0)])
            assert engine.now == 9.0
            assert engine.total_arrivals == 2  # the validated prefix landed

    def test_advance_time_is_a_barrier(self):
        with ProcessEngine(TS_SPEC, shards=2, workers=2, seed=1) as engine:
            engine.ingest([("a", value, float(value)) for value in range(200)])
            engine.advance_time(1_000.0)
            with pytest.raises(EmptyWindowError):
                engine.sample("a")

    @pytest.mark.parametrize("fleet", FLEETS)
    def test_advance_time_matches_serial_state(self, fleet, fleet_options):
        records = [(f"k{index % 5}", index, index * 1.0) for index in range(500)]
        serial = ShardedEngine(TS_SPEC, shards=2, seed=6)
        serial.ingest(records)
        serial.advance_time(600.0)
        with ProcessEngine(
            TS_SPEC, **fleet_options(fleet, shards=2, seed=6, workers=2)
        ) as process:
            process.ingest(records)
            process.advance_time(600.0)
            assert process.state_dict() == serial.state_dict()


class TestBackpressureAndBarrier:
    @pytest.mark.parametrize("fleet", FLEETS)
    def test_tiny_queues_lose_nothing(self, fleet, fleet_options):
        # One-message inboxes and 8-record sub-batches force constant
        # producer blocking on the bounded multiprocessing inboxes.
        with ProcessEngine(
            SEQ_SPEC,
            **fleet_options(
                fleet, shards=4, workers=2, seed=3, queue_depth=1, sub_batch=8
            ),
        ) as engine:
            records = keyed_records(5_000, keys=50)
            assert engine.ingest(records) == 5_000
            assert engine.total_arrivals == 5_000

    def test_flush_is_reentrant_and_repeatable(self):
        with ProcessEngine(SEQ_SPEC, shards=2, workers=2) as engine:
            engine.ingest([("a", 1)])
            engine.flush()
            engine.flush()
            assert engine.total_arrivals == 1

    def test_queue_depth_gauge_counts_undrained_messages(self, sizing):
        # Stopped workers cannot drain their inboxes, so every sub-batch the
        # coordinator sends must show in the executor.queue.depth gauge.
        registry = MetricsRegistry()
        sizing(queue_depth=16, sub_batch=8)
        engine = ProcessEngine(
            SEQ_SPEC, shards=2, workers=2, seed=3, registry=registry,
        )
        depth = lambda: registry.snapshot()["gauges"]["executor.queue.depth"]
        try:
            engine.flush()
            assert depth() == 0
            for process in engine._processes:
                os.kill(process.pid, signal.SIGSTOP)
                # Block until the stop has landed, so no worker can still
                # take a message off its inbox.
                _, status = os.waitpid(process.pid, os.WUNTRACED)
                assert os.WIFSTOPPED(status)
            try:
                engine.ingest([("a", value) for value in range(40)])
                assert depth() == 5  # 40 records in sub-batches of 8, one shard
            finally:
                for process in engine._processes:
                    os.kill(process.pid, signal.SIGCONT)
            engine.flush()
            assert depth() == 0
            assert engine.total_arrivals == 40
        finally:
            engine.close()

    def test_worker_side_apply_error_is_sticky(self):
        engine = ProcessEngine(TS_SPEC, shards=2, workers=2, seed=3)
        try:
            engine.ingest([("a", 1, 5.0), ("b", 2, 6.0)])
            engine.flush()
            # White-box fault injection: a well-formed payload the pool
            # rejects — its timestamps run backwards, which the coordinator's
            # clock contract would never let through.
            payload = encode_batch([("a", 3, 9.0), ("a", 4, 1.0)])
            shard = engine.shard_of("a")
            engine._send(engine._worker_of(shard), ("apply", shard, payload))
            engine._unbarriered = True
            with pytest.raises(WorkerFailure):
                engine.flush()
            with pytest.raises(WorkerFailure):
                engine.ingest([("c", 3, 10.0)])
            with pytest.raises(WorkerFailure):
                engine.sample("a")
        finally:
            try:
                engine.close()
            except ExecutorError:
                pass
        assert engine.closed
        assert all(not process.is_alive() for process in engine._processes)


    def test_undecodable_payload_is_sticky_and_keeps_the_worker(self):
        """A payload the worker cannot decode becomes its sticky failure,
        named at the next barrier, instead of killing the process."""
        engine = ProcessEngine(SEQ_SPEC, shards=2, workers=1, seed=3)
        try:
            engine.ingest([("a", 1), ("b", 2)])
            engine.flush()
            engine._send(0, ("apply", 0, b"SWT1\x01\x00\x00\x00z"))
            engine._unbarriered = True
            with pytest.raises(WorkerFailure, match="TransportError"):
                engine.flush()
            assert all(process.is_alive() for process in engine._processes)
            with pytest.raises(WorkerFailure, match="TransportError"):
                engine.ingest([("c", 3)])
        finally:
            try:
                engine.close()
            except ExecutorError:
                pass
        assert engine.closed


class TestThreadedStress:
    @pytest.mark.parametrize("fleet", FLEETS)
    def test_concurrent_ingest_sample_advance_loses_nothing(self, fleet, fleet_options):
        """Four producer threads, a sampler thread and a clock thread share
        one engine through its caller lock; every arrival must land and
        nothing may deadlock, whatever the fleet's shape."""
        producers = 4
        batches = 30
        batch_size = 100
        engine = ProcessEngine(
            TS_SPEC,
            **fleet_options(
                fleet, shards=8, workers=4, seed=11, queue_depth=2, sub_batch=64
            ),
        )
        errors = []
        stop = threading.Event()

        def produce(worker_index):
            try:
                for batch_number in range(batches):
                    records = [
                        (f"p{worker_index}-k{record % 13}", record)
                        for record in range(batch_size)
                    ]
                    engine.ingest(records)  # stamped at the engine clock
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        def read():
            while not stop.is_set():
                try:
                    engine.sample(f"p0-k{len(errors) % 13}")
                except (KeyError, EmptyWindowError):
                    pass
                engine.hottest_keys(3)

        def tick():
            now = 0.0
            while not stop.is_set():
                now += 1.0
                engine.advance_time(now)

        threads = [
            threading.Thread(target=produce, args=(index,)) for index in range(producers)
        ] + [threading.Thread(target=read), threading.Thread(target=tick)]
        for thread in threads:
            thread.start()
        for thread in threads[:producers]:
            thread.join(timeout=60)
            assert not thread.is_alive(), "producer deadlocked"
        stop.set()
        for thread in threads[producers:]:
            thread.join(timeout=60)
            assert not thread.is_alive(), "reader/clock thread deadlocked"
        try:
            assert not errors, f"worker raised: {errors!r}"
            assert engine.total_arrivals == producers * batches * batch_size
        finally:
            engine.close()


class TestWorkerDeath:
    """SIGKILL a worker: sticky WorkerFailure, clean close, no hangs."""

    def test_killed_worker_surfaces_as_sticky_failure(self):
        engine = ProcessEngine(SEQ_SPEC, shards=4, workers=2, seed=3)
        try:
            engine.ingest(keyed_records(1_000))
            engine.flush()
            kill_worker(engine, 0)
            engine.ingest(keyed_records(500, seed=9))  # may or may not raise
            with pytest.raises(WorkerFailure, match="died"):
                engine.flush()
            with pytest.raises(WorkerFailure):
                engine.sample("anything")
            with pytest.raises(WorkerFailure):
                engine.ingest([("c", 3)])
        finally:
            try:
                engine.close()
            except ExecutorError:
                pass
        assert engine.closed
        assert all(not process.is_alive() for process in engine._processes)

    def test_killed_worker_under_backpressure_does_not_deadlock(self, sizing):
        # The victim's inbox is full and never drains; the producer must
        # detect the death inside its blocking put and raise, not hang.
        sizing(queue_depth=1, sub_batch=4)
        engine = ProcessEngine(SEQ_SPEC, shards=2, workers=2, seed=3)
        try:
            engine.ingest(keyed_records(200))
            engine.flush()
            kill_worker(engine, 0)
            kill_worker(engine, 1)
            started = time.monotonic()
            with pytest.raises(WorkerFailure):
                engine.ingest(keyed_records(5_000, seed=9))
                engine.flush()
            assert time.monotonic() - started < 30
        finally:
            try:
                engine.close()
            except ExecutorError:
                pass

    def test_checkpoint_against_dead_fleet_is_a_checkpoint_error(self, tmp_path):
        engine = ProcessEngine(SEQ_SPEC, shards=4, workers=2, seed=3)
        try:
            engine.ingest(keyed_records(1_000))
            engine.flush()
            kill_worker(engine, 1)
            with pytest.raises(CheckpointError):
                write_checkpoint(engine, tmp_path / "engine.ckpt")
        finally:
            try:
                engine.close()
            except ExecutorError:
                pass

    def test_checkpoint_against_closed_fleet_is_a_checkpoint_error(self, tmp_path):
        with ProcessEngine(SEQ_SPEC, shards=2, workers=2, seed=3) as engine:
            engine.ingest([("a", 1)])
        with pytest.raises(CheckpointError, match="closed"):
            write_checkpoint(engine, tmp_path / "engine.ckpt")

    def test_segment_left_by_a_dead_worker_fails_loudly_on_load(self, tmp_path):
        # Simulates a worker dying mid-write after the manifest swap of a
        # *previous* save: the manifest references a segment whose bytes are
        # not what the digest promises.
        path = tmp_path / "engine.ckpt"
        with ProcessEngine(SEQ_SPEC, shards=4, workers=2, seed=3) as engine:
            engine.ingest(keyed_records(1_000))
            write_checkpoint(engine, path)
        import json

        manifest = json.loads((path / "MANIFEST.json").read_text())
        victim = path / manifest["segments"][2]["file"]
        victim.write_bytes(victim.read_bytes()[:-32])  # truncated by the crash
        with pytest.raises(CheckpointError):
            load_checkpoint(path, workers=2)


class TestCrashRecovery:
    """checkpoint → SIGKILL the fleet → load_checkpoint resumes losslessly."""

    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    def test_kill_fleet_and_resume_from_checkpoint(self, spec, tmp_path):
        prefix = spec_records(spec, 2_500)
        suffix = spec_records(spec, 800, seed=9)
        if spec.is_timestamp:  # keep the suffix clock moving forward
            shift = prefix[-1][2]
            suffix = [(key, value, timestamp + shift) for key, value, timestamp in suffix]

        # The reference run never crashes.
        reference = ShardedEngine(spec, shards=4, seed=17)
        reference.ingest(prefix)
        checkpoint_state = reference.state_dict()
        reference.ingest(suffix)

        path = tmp_path / "engine.ckpt"
        engine = ProcessEngine(spec, shards=4, seed=17, workers=2)
        try:
            engine.ingest(prefix)
            write_checkpoint(engine, path)
            for index in range(engine.workers):
                kill_worker(engine, index)
            with pytest.raises(WorkerFailure):
                engine.ingest(suffix)
                engine.flush()
        finally:
            try:
                engine.close()
            except ExecutorError:
                pass

        recovered = load_checkpoint(path, workers=2)
        try:
            assert recovered.state_dict() == checkpoint_state
            recovered.ingest(suffix)
            # Identical future randomness: the recovered fleet's suffix run
            # reproduces the never-crashed reference bit for bit.
            assert recovered.state_dict() == reference.state_dict()
        finally:
            recovered.close()


class TestCheckpointOrthogonality:
    """Checkpoints round-trip between engines and across worker counts."""

    def test_process_written_checkpoint_loads_everywhere(self, tmp_path):
        records = keyed_records(2_000)
        path = tmp_path / "engine.ckpt"
        with ProcessEngine(SEQ_SPEC, shards=4, seed=8, workers=3) as source:
            source.ingest(records)
            result = write_checkpoint(source, path)
            expected = source.state_dict()
        assert result.segments_written == 4
        serial = load_checkpoint(path)
        assert serial.state_dict() == expected
        for workers in (2, 4):
            with load_checkpoint(path, workers=workers) as process:
                assert isinstance(process, ProcessEngine)
                assert process.workers == workers
                assert process.state_dict() == expected

    def test_incremental_resave_through_worker_processes(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        with ProcessEngine(SEQ_SPEC, shards=8, seed=8, workers=3) as engine:
            engine.ingest(keyed_records(2_000))
            first = write_checkpoint(engine, path)
            assert first.segments_written == 8
            # Clean resave: the workers recognise their generations and
            # rewrite nothing.
            again = write_checkpoint(engine, path)
            assert again.segments_written == 0
            assert again.segments_reused == 8
            # Touch one key: only its shard's worker rewrites.
            engine.ingest([("key-3", 12345)])
            third = write_checkpoint(engine, path)
            assert third.segments_written == 1
            assert third.segments_reused == 7
            assert load_checkpoint(path).state_dict() == engine.state_dict()

    def test_restored_process_engine_resaves_incrementally(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        with ProcessEngine(SEQ_SPEC, shards=4, seed=8, workers=2) as engine:
            engine.ingest(keyed_records(1_000))
            write_checkpoint(engine, path)
        with load_checkpoint(path, workers=2) as restored:
            # The loader seeds the save memo from worker-side generations: a
            # just-restored fleet's immediate resave writes nothing.
            assert write_checkpoint(restored, path).segments_written == 0
            restored.ingest([("key-3", 1)])
            assert write_checkpoint(restored, path).segments_written == 1

    def test_state_dict_round_trips_between_live_engines(self):
        records = keyed_records(2_000)
        with ProcessEngine(SEQ_SPEC, shards=4, seed=8, workers=3) as source:
            source.ingest(records)
            state = source.state_dict()
        with ProcessEngine(SEQ_SPEC, shards=4, seed=8, workers=1) as narrow:
            narrow.load_state_dict(state)
            assert narrow.state_dict() == state
        serial = ShardedEngine.from_state_dict(state)
        assert serial.state_dict() == state

    def test_load_state_dict_rejects_topology_mismatch(self):
        with ProcessEngine(SEQ_SPEC, shards=4, seed=8, workers=2) as engine:
            engine.ingest(keyed_records(200))
            state = engine.state_dict()
            state["shards"] = 8
            with pytest.raises(ConfigurationError):
                engine.load_state_dict(state)
