"""Supervised recovery under deterministic fault injection.

The self-healing claim is strong: a SIGKILL'd worker is restarted, its
shards restored from the last checkpoint and the journal tail replayed, and
because shard routing, per-shard FIFO order and key-derived sampler seeds
are all deterministic the recovered fleet is **bit-identical** to one that
never crashed — same candidates, same counters, same generator positions.
These tests drive every scheduled fault the :mod:`repro.engine.chaos`
helpers can stage (kill mid-ingest at the first, an early and a late
sub-batch, kill during a checkpoint write, kill the *replacement* mid-replay,
a corrupted segment that exhausts the restart budget) and pin the
degraded-mode query contract while a restart is in flight.

Bit-identity is asserted through ``state_dict()``, which captures candidate
sets, counters and generator positions without consuming any randomness —
``sample()`` advances the per-key generators, so a mid-stream sample would
itself fork the timelines being compared.
"""

import os
import threading
import time

import pytest

from repro.engine import (
    ProcessEngine,
    RestartPolicy,
    SamplerSpec,
    ShardedEngine,
    chaos,
    load_checkpoint,
    write_checkpoint,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ShardRecovering,
    TransportError,
    WorkerFailure,
)
from repro.obs import MetricsRegistry
from repro.streams.workloads import build_keyed_workload

SPEC = SamplerSpec(window="sequence", n=40, k=4, replacement=False)

#: Tight backoff so a full recovery cycle stays well under a second.
FAST_POLICY = RestartPolicy(max_restarts=5, backoff_base=0.01, backoff_cap=0.05)


def keyed_records(count, keys=37, seed=5):
    return [(record.key, record.value) for record in
            build_keyed_workload("keyed-zipf", count, num_keys=keys, rng=seed)]


@pytest.fixture(autouse=True)
def small_sub_batches(sizing):
    """Every fleet here cuts 64-record sub-batches, so a few thousand
    records cross as dozens of dispatches for the kill points to land in."""
    sizing(sub_batch=64)


def supervised(tmp_path, **overrides):
    config = dict(
        shards=8,
        seed=1,
        workers=2,
        supervise=True,
        wal_dir=str(tmp_path / "wal"),
        restart_policy=FAST_POLICY,
    )
    config.update(overrides)
    return ProcessEngine(SPEC, **config)


def oracle_state(records, shards=8, seed=1):
    """state_dict of a never-crashed serial run over the same stream."""
    serial = ShardedEngine(SPEC, shards=shards, seed=seed)
    serial.ingest(records)
    return serial.state_dict()


def ingest_chunked(engine, records, chunk=500):
    for start in range(0, len(records), chunk):
        engine.ingest(records[start : start + chunk])


class TestKillMidIngest:
    #: (nth sub-batch routed to the worker, worker) — the worker's first
    #: sub-batch, an early one, and one late in the 4,000-record stream.
    @pytest.mark.parametrize(
        "nth, worker", [(1, 1), (3, 1), (25, 0)], ids=["first-batch", "early-batch", "late-batch"]
    )
    def test_recovers_bit_identical(self, tmp_path, nth, worker):
        records = keyed_records(4_000)
        registry = MetricsRegistry()
        with supervised(tmp_path, registry=registry) as engine:
            with chaos.kill_at_batch(engine, nth, worker=worker):
                ingest_chunked(engine, records)
            chaos.wait_until_healthy(engine)
            assert engine.state_dict() == oracle_state(records)
            assert engine.total_arrivals == len(records)
            liveness = engine.liveness()
            assert not liveness["degraded"] and not liveness["failed"]
            assert liveness["restarts"] >= 1
            assert all(worker["alive"] for worker in liveness["workers"])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["supervisor.restarts"] >= 1
        assert snapshot["counters"]["wal.records"] >= len(records)
        assert snapshot["gauges"]["fleet.workers.recovering"] == 0

    def test_kill_first_worker_then_keep_ingesting(self, tmp_path):
        records = keyed_records(3_000)
        extra = keyed_records(1_000, seed=11)
        with supervised(tmp_path) as engine:
            with chaos.kill_at_batch(engine, 2, worker=0):
                ingest_chunked(engine, records)
            chaos.wait_until_healthy(engine)
            # The healed fleet is a normal fleet: later ingest stays exact.
            ingest_chunked(engine, extra)
            assert engine.state_dict() == oracle_state(records + extra)


class TestKillDuringCheckpoint:
    def test_checkpoint_fails_loudly_then_retry_succeeds(self, tmp_path):
        records = keyed_records(3_000)
        path = str(tmp_path / "ckpt")
        with supervised(tmp_path) as engine:
            ingest_chunked(engine, records)
            with chaos.kill_at_checkpoint(engine, worker=0):
                with pytest.raises(CheckpointError, match="mid-recovery"):
                    write_checkpoint(engine, path)
            # The journal must survive the failed checkpoint: truncation
            # is only legal once a manifest actually commits.
            assert engine._wal.bytes_on_disk() > 0
            chaos.wait_until_healthy(engine)
            result = write_checkpoint(engine, path)
            assert result.segments_total == engine.shards
            assert engine._wal.bytes_on_disk() == 0
            assert engine.state_dict() == oracle_state(records)


class TestDoubleFault:
    def test_replacement_killed_mid_replay(self, tmp_path):
        records = keyed_records(4_000)
        with supervised(tmp_path) as engine:
            with chaos.kill_during_replay(engine, nth=2):
                with chaos.kill_at_batch(engine, 3, worker=0):
                    ingest_chunked(engine, records)
                chaos.wait_until_healthy(engine)
            liveness = engine.liveness()
            # The first replacement died mid-replay, so at least two restart
            # attempts were burned — and the third timeline still converged.
            assert liveness["restarts"] >= 2
            assert engine.state_dict() == oracle_state(records)


class TestRestartBudgetExhaustion:
    def test_unrecoverable_segment_goes_sticky(self, tmp_path):
        records = keyed_records(2_000)
        path = str(tmp_path / "ckpt")
        policy = RestartPolicy(max_restarts=2, backoff_base=0.01, backoff_cap=0.02)
        engine = supervised(tmp_path, restart_policy=policy)
        try:
            ingest_chunked(engine, records)
            write_checkpoint(engine, path)
            # Poison the only restore source for worker 0's shards, then
            # kill it: every restart attempt must fail the sha256 check.
            chaos.corrupt_segment(path, shard=0)
            chaos.kill_worker(engine, 0)
            deadline = time.monotonic() + 30
            while not engine.liveness()["failed"]:
                assert time.monotonic() < deadline, "engine never went sticky"
                time.sleep(0.02)
            with pytest.raises(WorkerFailure, match="restart budget exhausted"):
                engine.sample(records[0][0])
            with pytest.raises(WorkerFailure):
                engine.ingest([("more", 1)])
        finally:
            # Sticky failure is sticky everywhere: even close() reports it.
            with pytest.raises(WorkerFailure):
                engine.close()


class TestDegradedMode:
    """The query contract while a restart is in flight: healthy shards
    answer, recovering shards raise retryable ``ShardRecovering``, nothing
    ever silently answers wrong."""

    def hold_recovery(self, engine):
        """Gate the supervisor inside the restore/replay phase (it holds no
        locks there) so the degraded window is observable deterministically.
        Returns ``(reached, gate)`` events; set ``gate`` to let it finish."""
        reached = threading.Event()
        gate = threading.Event()
        original = engine._recovery_put

        def gated(process, inbox, message):
            reached.set()
            gate.wait(timeout=60)
            return original(process, inbox, message)

        engine._recovery_put = gated
        return reached, gate

    def keys_by_worker(self, engine, records):
        """One ingested key per worker, via the engine's own routing."""
        chosen = {}
        for key, _ in records:
            chosen.setdefault(engine._worker_of(engine.shard_of(key)), key)
            if len(chosen) == engine.workers:
                break
        return chosen

    def test_query_surface_during_recovery(self, tmp_path, monkeypatch):
        records = keyed_records(2_000)
        with supervised(tmp_path) as engine:
            ingest_chunked(engine, records)
            keys = self.keys_by_worker(engine, records)
            healthy_answer = None
            reached, gate = self.hold_recovery(engine)
            try:
                chaos.kill_worker(engine, 0)
                assert reached.wait(timeout=30), "supervisor never restarted"
                # Per-key ops on a recovering shard: retryable, with the
                # shard set and a retry hint attached.
                with pytest.raises(ShardRecovering) as info:
                    engine.sample(keys[0])
                error = info.value
                assert engine.shard_of(keys[0]) in error.shards
                assert error.retry_after > 0
                with pytest.raises(ShardRecovering):
                    keys[0] in engine  # noqa: B015 - membership probe raises
                # Healthy shards keep answering.
                healthy_answer = engine.sample(keys[1])
                assert len(healthy_answer) > 0
                # Fleet-wide aggregates need every shard: retryable too.
                with pytest.raises(ShardRecovering):
                    engine.hottest_keys(3)
                # stats() stays lenient: healthy totals, labelled degraded.
                stats = engine.stats()
                assert stats["degraded"] is True
                assert stats["arrivals"] < len(records)
                assert stats["workers"]["recovering"] == [0]
                # Bare totals cannot say they are partial: they refuse.
                for total in ("key_count", "total_arrivals", "evictions"):
                    with pytest.raises(ShardRecovering):
                        getattr(engine, total)
                with pytest.raises(ShardRecovering):
                    engine.memory_words()
                assert engine.stats()["degraded"] is True
                # Batched queries degrade per op, never as a whole.
                outcomes = engine.query_batch(
                    [("sample", keys[0]), ("contains", keys[1]), ("hottest", 2)]
                )
                assert outcomes[0][:2] == ("error", "ShardRecovering")
                assert outcomes[1] == ("ok", True)
                assert outcomes[2][:2] == ("error", "ShardRecovering")
                # Checkpoints refuse to snapshot a half-restored fleet.
                monkeypatch.setattr(
                    "repro.engine.executor._CHECKPOINT_DRAIN_TIMEOUT", 0.2
                )
                with pytest.raises(CheckpointError, match="mid-recovery"):
                    write_checkpoint(engine, str(tmp_path / "ckpt"))
                # Liveness names the incident.
                liveness = engine.liveness()
                assert liveness["degraded"] is True
                assert liveness["workers"][0]["recovering"] is True
                assert liveness["recovering_shards"] == list(
                    liveness["workers"][0]["shards"]
                )
                # Ingest for a recovering shard parks instead of blocking.
                engine.ingest([(keys[0], 999_999)])
            finally:
                gate.set()
            chaos.wait_until_healthy(engine)
            # The parked record landed; healthy-shard state never moved.
            assert engine.total_arrivals == len(records) + 1
            assert engine.sample(keys[1]) == healthy_answer
            assert engine.stats()["degraded"] is False


class TestJournalLifecycle:
    def test_checkpoint_truncates_wal(self, tmp_path):
        records = keyed_records(1_500)
        with supervised(tmp_path) as engine:
            ingest_chunked(engine, records)
            assert engine._wal.bytes_on_disk() > 0
            write_checkpoint(engine, str(tmp_path / "ckpt"))
            assert engine._wal.bytes_on_disk() == 0
            engine.ingest(records[:100])
            engine.flush()
            assert engine._wal.bytes_on_disk() > 0

    def test_resume_replays_journal_bit_identical(self, tmp_path):
        records = keyed_records(3_000)
        path = str(tmp_path / "ckpt")
        wal_dir = str(tmp_path / "wal")
        with supervised(tmp_path) as engine:
            ingest_chunked(engine, records[:2_000])
            write_checkpoint(engine, path)
            ingest_chunked(engine, records[2_000:])
            engine.flush()
        # Graceful close leaves the journal: the checkpoint covers the first
        # 2000 records, the WAL tail the final 1000.
        resumed = load_checkpoint(
            path,
            workers=2,
            supervise=True,
            wal_dir=wal_dir,
            restart_policy=FAST_POLICY,
        )
        with resumed:
            assert resumed.replay_wal() == 1_000
            assert resumed.state_dict() == oracle_state(records)

    def test_fresh_start_discards_stale_journal(self, tmp_path):
        records = keyed_records(1_000)
        with supervised(tmp_path) as engine:
            ingest_chunked(engine, records)
        with supervised(tmp_path) as fresh:
            assert fresh.discard_wal() > 0
            assert fresh._wal.bytes_on_disk() == 0
            ingest_chunked(fresh, records)
            assert fresh.state_dict() == oracle_state(records)

    def test_forged_journal_record_refuses_to_replay(self, tmp_path):
        records = keyed_records(1_000)
        wal_dir = str(tmp_path / "wal")
        with supervised(tmp_path) as engine:
            ingest_chunked(engine, records)
        chaos.forge_wal_record(wal_dir, 0)
        with supervised(tmp_path) as victim:
            with pytest.raises(TransportError, match="undecodable"):
                victim.replay_wal()

    def test_torn_journal_tail_is_survivable(self, tmp_path):
        records = keyed_records(1_000)
        path = str(tmp_path / "ckpt")
        wal_dir = str(tmp_path / "wal")
        with supervised(tmp_path) as engine:
            write_checkpoint(engine, path)  # empty baseline
            ingest_chunked(engine, records)
            engine.flush()
        # Simulate a coordinator crash mid-append: shear the final record.
        shard = sorted(
            int(name[len("shard-") : -len(".wal")])
            for name in os.listdir(wal_dir)
            if name.endswith(".wal") and os.path.getsize(os.path.join(wal_dir, name))
        )[-1]
        chaos.torn_wal_tail(wal_dir, shard)
        resumed = load_checkpoint(
            path, workers=2,
            supervise=True, wal_dir=wal_dir, restart_policy=FAST_POLICY,
        )
        with resumed:
            # The torn record is dropped, every intact one replays.
            assert 0 < resumed.replay_wal() < len(records)


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(max_restarts=0)
        with pytest.raises(ConfigurationError):
            RestartPolicy(backoff_base=-0.1)
        with pytest.raises(ConfigurationError):
            RestartPolicy(backoff_cap=-1.0)

    def test_backoff_schedule(self):
        policy = RestartPolicy(max_restarts=5, backoff_base=0.1, backoff_cap=0.5)
        assert policy.delay(1) == 0.0  # first restart is immediate
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.2)
        assert policy.delay(10) == 0.5  # capped

    def test_supervise_requires_wal_dir(self):
        with pytest.raises(ConfigurationError, match="wal_dir"):
            ProcessEngine(SPEC, shards=2, workers=1, supervise=True)
