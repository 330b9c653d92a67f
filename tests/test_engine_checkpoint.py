"""Engine snapshot/restore: state dicts and checkpoint files.

The acceptance bar: a checkpoint/restore round trip yields *identical*
per-key samples — and, because generator positions are captured, identical
behaviour on any identical suffix of the stream.
"""

import hashlib
import json
import multiprocessing
import os
import pickle
import stat

import pytest

from repro.engine import (
    KeyedSamplerPool,
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    WriteAheadLog,
    load_checkpoint,
    write_checkpoint,
)
from repro.exceptions import CheckpointError, ConfigurationError
from repro.streams.workloads import build_keyed_workload


def make_engine(spec=None, **overrides):
    config = dict(shards=3, seed=17, max_keys_per_shard=64, idle_ttl=100_000)
    config.update(overrides)
    if spec is None:
        spec = SamplerSpec(window="sequence", n=40, k=4, replacement=False)
    return ShardedEngine(spec, **config)


class TestPoolStateDict:
    def test_round_trip_preserves_samples_ticks_and_order(self):
        pool = KeyedSamplerPool(SamplerSpec(window="sequence", n=10, k=2), seed=3, max_keys=8)
        for index in range(300):
            pool.append(f"key-{index % 10}", index)
        restored = KeyedSamplerPool(SamplerSpec(window="sequence", n=10, k=2), seed=3, max_keys=8)
        restored.load_state_dict(pool.state_dict())
        assert restored.keys() == pool.keys()  # LRU order preserved
        assert restored.ticks == pool.ticks
        assert restored.evictions == pool.evictions
        for key in pool.keys():
            assert restored.sampler_for(key).sample() == pool.sampler_for(key).sample()

    def test_restore_enforces_this_pools_key_cap(self):
        spec = SamplerSpec(window="sequence", n=10, k=2)
        uncapped = KeyedSamplerPool(spec, seed=3)
        for index in range(20):
            uncapped.append(f"key-{index}", index)
        capped = KeyedSamplerPool(spec, seed=3, max_keys=5)
        capped.load_state_dict(uncapped.state_dict())
        assert len(capped) == 5
        assert capped.evictions == 15
        # The most recently ingested keys survive.
        assert capped.keys() == [f"key-{index}" for index in range(15, 20)]
        capped.append("fresh", 1)
        assert len(capped) == 5  # the cap holds under further inserts

    def test_spec_and_seed_mismatches_rejected(self):
        pool = KeyedSamplerPool(SamplerSpec(window="sequence", n=10, k=2), seed=3)
        pool.append("a", 1)
        state = pool.state_dict()
        other_spec = KeyedSamplerPool(SamplerSpec(window="sequence", n=11, k=2), seed=3)
        with pytest.raises(ConfigurationError):
            other_spec.load_state_dict(state)
        other_seed = KeyedSamplerPool(SamplerSpec(window="sequence", n=10, k=2), seed=4)
        with pytest.raises(ConfigurationError):
            other_seed.load_state_dict(state)


class TestEngineStateDict:
    def test_round_trip_is_identical_now_and_in_the_future(self):
        engine = make_engine()
        records = build_keyed_workload("keyed-zipf", 20_000, num_keys=150, rng=2)
        engine.ingest(records)

        restored = ShardedEngine.from_state_dict(engine.state_dict())
        assert restored.key_count == engine.key_count
        assert restored.total_arrivals == engine.total_arrivals
        assert restored.memory_words() == engine.memory_words()
        for key in engine.keys():
            assert pickle.dumps(restored.sample(key)) == pickle.dumps(engine.sample(key))

        suffix = build_keyed_workload("keyed-zipf", 5_000, num_keys=150, rng=8)
        engine.ingest(suffix)
        restored.ingest(suffix)
        for key, _ in engine.hottest_keys(25):
            assert restored.sample(key) == engine.sample(key)

    def test_topology_mismatches_rejected(self):
        engine = make_engine()
        engine.append("a", 1)
        state = engine.state_dict()
        with pytest.raises(ConfigurationError):
            make_engine(shards=4).load_state_dict(state)
        with pytest.raises(ConfigurationError):
            make_engine(seed=99).load_state_dict(state)
        with pytest.raises(ConfigurationError):
            make_engine(spec=SamplerSpec(window="sequence", n=41, k=4, replacement=False)).load_state_dict(state)

    def test_truncated_pool_list_rejected(self):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(40)])
        state = engine.state_dict()
        state["pools"] = state["pools"][:1]  # corrupt: fewer pools than shards
        with pytest.raises(ConfigurationError):
            ShardedEngine.from_state_dict(state)

    def test_eviction_policy_mismatches_rejected(self):
        engine = make_engine()
        engine.append("a", 1)
        state = engine.state_dict()
        with pytest.raises(ConfigurationError):
            make_engine(max_keys_per_shard=10).load_state_dict(state)
        with pytest.raises(ConfigurationError):
            make_engine(idle_ttl=5).load_state_dict(state)
        with pytest.raises(ConfigurationError):
            make_engine(track_occurrences=True).load_state_dict(state)

    def test_eviction_policy_survives_a_restore(self):
        engine = make_engine(max_keys_per_shard=2, idle_ttl=None)
        engine.ingest([(f"key-{index}", index) for index in range(50)])
        restored = ShardedEngine.from_state_dict(engine.state_dict())
        assert restored.key_count == engine.key_count <= 2 * engine.shards
        restored.ingest([(f"new-{index}", index) for index in range(50)])
        assert restored.key_count <= 2 * restored.shards


class TestCheckpointFiles:
    def test_file_round_trip_with_timestamp_windows(self, tmp_path):
        spec = SamplerSpec(window="timestamp", t0=30.0, k=3, replacement=True)
        engine = make_engine(spec=spec)
        engine.ingest(
            [(f"flow-{index % 9}", index, index * 0.25) for index in range(4_000)]
        )
        path = write_checkpoint(engine, tmp_path / "engine.ckpt").path
        restored = load_checkpoint(path)
        assert restored.now == engine.now
        for key in engine.keys():
            assert restored.sample(key) == engine.sample(key)

    def test_save_overwrites_atomically(self, tmp_path):
        engine = make_engine()
        engine.append("a", 1)
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        engine.append("a", 2)
        write_checkpoint(engine, path)
        assert load_checkpoint(path).sampler_for("a").total_arrivals == 2
        assert list(tmp_path.iterdir()) == [path]  # no temp files left behind

    def test_garbage_files_are_rejected(self, tmp_path):
        not_a_checkpoint = tmp_path / "garbage.ckpt"
        not_a_checkpoint.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ConfigurationError):
            load_checkpoint(not_a_checkpoint)
        wrong_version = tmp_path / "future.ckpt"
        wrong_version.write_bytes(
            pickle.dumps({"magic": "swsample-engine-checkpoint", "version": 999, "engine": {}})
        )
        with pytest.raises(ConfigurationError):
            load_checkpoint(wrong_version)

    def test_occurrence_tracking_survives_checkpoint(self, tmp_path):
        spec = SamplerSpec(window="sequence", n=25, k=3, replacement=True)
        engine = make_engine(spec=spec, track_occurrences=True)
        engine.ingest([("a", value) for value in range(100)])
        path = write_checkpoint(engine, tmp_path / "engine.ckpt").path
        restored = load_checkpoint(path)
        assert restored.per_key_moments(1.0) == engine.per_key_moments(1.0) == {"a": 25.0}


#: The paper's four optimal samplers — every crash-recovery property below
#: must hold for each of them.
OPTIMAL_SPECS = [
    pytest.param(SamplerSpec(window="sequence", n=40, k=4, replacement=True), id="seq-wr"),
    pytest.param(SamplerSpec(window="sequence", n=40, k=4, replacement=False), id="seq-wor"),
    pytest.param(SamplerSpec(window="timestamp", t0=60.0, k=3, replacement=True), id="ts-wr"),
    pytest.param(SamplerSpec(window="timestamp", t0=60.0, k=3, replacement=False), id="ts-wor"),
]


def spec_records(spec, count, seed=4):
    if spec.is_timestamp:
        return [(f"key-{index % 19}", index % 7, index * 0.5) for index in range(count)]
    return [
        (record.key, record.value)
        for record in build_keyed_workload("keyed-zipf", count, num_keys=19, rng=seed)
    ]


class TestIncrementalCheckpoints:
    """Per-shard segments + manifest: only dirty shards rewrite."""

    def test_layout_manifest_and_segments(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(500)])
        result = write_checkpoint(engine, tmp_path / "engine.ckpt")
        root = tmp_path / "engine.ckpt"
        assert root.is_dir()
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["magic"] == "swsample-engine-checkpoint"
        assert manifest["version"] == 2
        assert manifest["engine"]["shards"] == engine.shards
        assert len(manifest["segments"]) == engine.shards
        assert result.segments_written == engine.shards
        for entry in manifest["segments"]:
            segment = root / entry["file"]
            assert segment.is_file()
            assert segment.stat().st_size == entry["bytes"]
            assert hashlib.sha256(segment.read_bytes()).hexdigest() == entry["sha256"]

    def test_clean_resave_rewrites_nothing(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(500)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        again = write_checkpoint(engine, path)
        assert again.segments_written == 0
        assert again.segments_reused == engine.shards
        assert load_checkpoint(path).state_dict() == engine.state_dict()

    def test_only_dirty_shards_rewrite(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(500)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        key = "key-3"
        engine.append(key, 12345)
        result = write_checkpoint(engine, path)
        assert result.segments_written == 1
        assert result.segments_reused == engine.shards - 1
        restored = load_checkpoint(path)
        assert restored.sample(key) == engine.sample(key)
        assert restored.state_dict() == engine.state_dict()

    def test_restored_engine_resaves_incrementally(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(500)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        restored = load_checkpoint(path)
        # The loader seeds the save memo: a just-restored engine's state IS
        # the on-disk state, so an immediate re-save writes nothing.
        result = write_checkpoint(restored, path)
        assert result.segments_written == 0
        restored.append("key-3", 1)
        assert write_checkpoint(restored, path).segments_written == 1

    def test_saving_to_a_new_directory_is_a_full_save(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(200)])
        write_checkpoint(engine, tmp_path / "first.ckpt")
        elsewhere = write_checkpoint(engine, tmp_path / "second.ckpt")
        assert elsewhere.segments_written == engine.shards
        assert load_checkpoint(tmp_path / "second.ckpt").state_dict() == engine.state_dict()

    def test_stale_segments_are_garbage_collected(self, tmp_path):
        engine = make_engine()
        path = tmp_path / "engine.ckpt"
        manifests = []
        for round_number in range(3):
            engine.ingest(
                [(f"key-{index}", index) for index in range(200 * round_number, 200 * (round_number + 1))]
            )
            write_checkpoint(engine, path)
            manifests.append(json.loads((path / "MANIFEST.json").read_text()))
        files = lambda manifest: {entry["file"] for entry in manifest["segments"]}
        on_disk = {name for name in os.listdir(path) if name.endswith(".seg")}
        # The current and the immediately-prior generation are retained (so a
        # reader that parsed the old manifest mid-save still loads) ...
        assert files(manifests[-1]) <= on_disk
        # ... but generation n-2's segments are gone.
        assert not (files(manifests[0]) - files(manifests[1])) & on_disk
        assert on_disk <= files(manifests[-1]) | files(manifests[-2])

    def test_interrupted_save_temp_files_are_swept(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(100)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        (path / ".ckpt-orphan").write_bytes(b"left behind by a crash")
        engine.append("key-0", 1)
        write_checkpoint(engine, path)
        assert not (path / ".ckpt-orphan").exists()

    def test_two_engines_sharing_a_directory_never_cross_contaminate(self, tmp_path):
        # Segment reuse is pinned by digest: after engine B overwrites shard
        # segments, clean engine A must notice its segments are gone and
        # rewrite them rather than silently re-referencing B's state.
        path = tmp_path / "engine.ckpt"
        a = make_engine()
        a.ingest([(f"key-{index}", index) for index in range(200)])
        write_checkpoint(a, path)
        b = load_checkpoint(path)
        b.append("key-3", 999)
        write_checkpoint(b, path)
        result = write_checkpoint(a, path)  # A unchanged, but disk is B's
        assert result.segments_written >= 1
        assert load_checkpoint(path).state_dict() == a.state_dict()

    def test_refuses_to_overwrite_a_foreign_file(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("not a checkpoint")
        engine = make_engine()
        engine.append("a", 1)
        with pytest.raises(CheckpointError):
            write_checkpoint(engine, target)

    def test_timestamp_query_dirties_the_shard_it_advances(self, tmp_path):
        spec = SamplerSpec(window="timestamp", t0=30.0, k=3, replacement=True)
        engine = make_engine(spec=spec)
        engine.ingest([(f"flow-{index % 9}", index, index * 0.25) for index in range(2_000)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        # flow-4's last record is not the stream's last, so its sampler clock
        # lags the engine clock: the query's lazy advance mutates it.
        assert engine.sampler_for("flow-4").now < engine.now
        engine.sample("flow-4")
        result = write_checkpoint(engine, path)
        # Precise dirtiness: only the queried key's shard rewrites.
        assert result.segments_written == 1
        assert load_checkpoint(path).state_dict() == engine.state_dict()

    def test_querying_an_up_to_date_key_keeps_shards_clean(self, tmp_path):
        spec = SamplerSpec(window="timestamp", t0=30.0, k=3, replacement=True)
        engine = make_engine(spec=spec)
        engine.ingest([(f"flow-{index % 9}", index, index * 0.25) for index in range(2_000)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        # The final record belongs to flow-1 (1999 % 9 == 1), so its sampler
        # clock equals the engine clock and the query changes nothing.
        assert engine.sampler_for("flow-1").now == engine.now
        engine.sample("flow-1")
        assert write_checkpoint(engine, path).segments_written == 0


class TestCrashRecovery:
    """Checkpoint mid-stream, damage the directory, and recovery semantics."""

    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    def test_corrupt_segment_fails_loudly(self, spec, tmp_path):
        engine = make_engine(spec=spec)
        engine.ingest(spec_records(spec, 3_000))
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        victim = path / manifest["segments"][1]["file"]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one bit mid-file
        victim.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    def test_missing_segment_fails_loudly(self, spec, tmp_path):
        engine = make_engine(spec=spec)
        engine.ingest(spec_records(spec, 3_000))
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        (path / manifest["segments"][0]["file"]).unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_truncated_segment_fails_loudly(self, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(500)])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        victim = path / manifest["segments"][0]["file"]
        victim.write_bytes(victim.read_bytes()[:-20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_malformed_manifest_fails_loudly(self, tmp_path):
        engine = make_engine()
        engine.append("a", 1)
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        (path / "MANIFEST.json").write_text("{ not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        (path / "MANIFEST.json").write_text(json.dumps({"magic": "nope"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        (path / "MANIFEST.json").write_text(
            json.dumps({"magic": "swsample-engine-checkpoint", "version": 99})
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_format_1_checkpoint_is_refused_before_any_worker_starts(
        self, tmp_path, monkeypatch, workers
    ):
        """Format 1 held Mersenne-Twister vectors the counter streams cannot
        continue: the manifest alone refuses it, naming both formats."""
        engine = make_engine()
        engine.append("a", 1)
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        assert manifest["engine"]["format"] == 2
        manifest["engine"]["format"] = 1
        (path / "MANIFEST.json").write_text(json.dumps(manifest))

        def no_workers(*args, **kwargs):
            raise AssertionError("a worker fleet was started for a refused checkpoint")

        monkeypatch.setattr(ProcessEngine, "__init__", no_workers)
        with pytest.raises(CheckpointError, match=r"format 1.*format 2"):
            load_checkpoint(path, workers=workers)

    def test_segment_paths_may_not_escape_the_directory(self, tmp_path):
        engine = make_engine()
        engine.append("a", 1)
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        manifest["segments"][0]["file"] = "../outside.seg"
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="escapes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    def test_clean_restore_is_byte_identical_with_identical_future(self, spec, tmp_path):
        """Checkpoint mid-stream; the restored fleet must match byte for
        byte *and* draw the same randomness on an identical suffix."""
        prefix = spec_records(spec, 2_500)
        suffix = spec_records(spec, 800, seed=9)
        if spec.is_timestamp:  # keep the suffix clock moving forward
            shift = prefix[-1][2]
            suffix = [(key, value, timestamp + shift) for key, value, timestamp in suffix]
        engine = make_engine(spec=spec)
        engine.ingest(prefix)
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        restored = load_checkpoint(path)
        assert pickle.dumps(restored.state_dict()) == pickle.dumps(engine.state_dict())
        engine.ingest(suffix)
        restored.ingest(suffix)
        assert restored.state_dict() == engine.state_dict()
        for key in engine.keys():
            assert restored.sample(key) == engine.sample(key)

    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    def test_restore_into_parallel_engine(self, spec, tmp_path):
        engine = make_engine(spec=spec)
        engine.ingest(spec_records(spec, 2_000))
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        restored = load_checkpoint(path, workers=2)
        try:
            assert isinstance(restored, ProcessEngine)
            assert restored.workers == 2
            assert restored.state_dict() == engine.state_dict()
        finally:
            restored.close()

    @pytest.mark.parametrize("loader_kwargs", [{}, {"workers": 2}], ids=["serial", "process"])
    @pytest.mark.parametrize("content", ["v1-envelope", "garbage", "missing"])
    def test_single_file_v1_checkpoint_is_rejected(self, tmp_path, content, loader_kwargs):
        # Whatever sits at a non-directory path, the loader refuses it by
        # path before it unpickles a byte or starts a worker.
        v1_file = tmp_path / "v1.ckpt"
        if content == "v1-envelope":
            engine = make_engine()
            engine.ingest([(f"key-{index}", index) for index in range(300)])
            v1_file.write_bytes(
                pickle.dumps(
                    {
                        "magic": "swsample-engine-checkpoint",
                        "version": 1,
                        "engine": engine.state_dict(),
                    }
                )
            )
        elif content == "garbage":
            v1_file.write_bytes(b"\x00not a pickle\xff" * 8)
        children = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(CheckpointError, match="no longer readable") as raised:
            load_checkpoint(v1_file, **loader_kwargs)
        assert str(v1_file) in str(raised.value)
        assert {child.pid for child in multiprocessing.active_children()} == children

    def test_supervised_restore_needs_workers(self, tmp_path):
        engine = make_engine()
        engine.append("a", 1)
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        with pytest.raises(ConfigurationError, match="workers=N"):
            load_checkpoint(path, supervise=True, wal_dir=tmp_path / "wal")


def record_durability_calls(monkeypatch):
    """Record, in call order, every ``os.fsync`` (of a file or a directory),
    ``os.replace`` (by target name) and ``WriteAheadLog.truncate`` made in
    this process from now on."""
    events = []
    fsync, replace, truncate = os.fsync, os.replace, WriteAheadLog.truncate

    def recording_fsync(fd):
        events.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        fsync(fd)

    def recording_replace(source, target, *args, **kwargs):
        replace(source, target, *args, **kwargs)
        events.append(("replace", os.path.basename(target)))

    def recording_truncate(self, *args, **kwargs):
        events.append(("truncate", None))
        truncate(self, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(WriteAheadLog, "truncate", recording_truncate)
    return events


def assert_each_replace_is_durable(events):
    """Every rename sits between the fsync of the file it renames and the
    fsync of its directory, so its bytes and its name both reach the disk."""
    renames = [index for index, event in enumerate(events) if event[0] == "replace"]
    assert renames, events
    for index in renames:
        assert events[index - 1 : index + 2] == [
            ("fsync", "file"), events[index], ("fsync", "dir")
        ], events


class TestDurableCommit:
    """A checkpoint survives power loss once written: each file is fsynced
    before its rename and its directory after, and the write-ahead log is
    truncated only after the manifest is durable."""

    def test_segments_and_manifest_are_fsynced_around_each_rename(self, monkeypatch, tmp_path):
        engine = make_engine()
        engine.ingest([(f"key-{index}", index) for index in range(100)])
        events = record_durability_calls(monkeypatch)
        write_checkpoint(engine, tmp_path / "engine.ckpt")
        assert_each_replace_is_durable(events)
        renamed = [target for kind, target in events if kind == "replace"]
        assert renamed[-1] == "MANIFEST.json"
        assert len(renamed) == engine.shards + 1

    def test_journal_is_truncated_after_the_manifest_is_durable(self, monkeypatch, tmp_path):
        spec = SamplerSpec(window="sequence", n=40, k=4)
        with ProcessEngine(spec, shards=2, seed=3, workers=2, wal_dir=str(tmp_path / "wal")) as engine:
            engine.ingest([(f"key-{index % 9}", index) for index in range(500)])
            engine.flush()
            # Workers write their segments in their own processes; this
            # process writes the manifest and truncates the journal.
            events = record_durability_calls(monkeypatch)
            write_checkpoint(engine, tmp_path / "engine.ckpt")
        assert_each_replace_is_durable(events)
        manifest = events.index(("replace", "MANIFEST.json"))
        assert events.count(("truncate", None)) == 1
        assert events.index(("truncate", None)) > manifest + 1


#: (loader kwargs, expected engine class) — the serial/process axis of the
#: restore matrix.  ``make_engine`` writes three shards, so the process
#: targets cover one worker owning every shard, an uneven split, and one
#: shard per worker.
RESTORE_TARGETS = [
    pytest.param({}, ShardedEngine, id="serial"),
    pytest.param({"workers": 2}, ProcessEngine, id="process"),
    pytest.param({"workers": 1}, ProcessEngine, id="process-1"),
    pytest.param({"workers": 3}, ProcessEngine, id="process-3"),
]


class TestMixedRestoreMatrix:
    """Every checkpoint loads into both engines, under any worker count.

    Four targets (serial; process workers owning all, some or one of the
    shards) × the paper's four optimal samplers — every path must restore
    the identical fleet, because operators switch engines and worker counts
    independently of the checkpoints they keep.
    """

    @pytest.mark.parametrize("spec", OPTIMAL_SPECS)
    @pytest.mark.parametrize("loader_kwargs,engine_class", RESTORE_TARGETS)
    def test_directory_checkpoint_loads_into_every_flavour(
        self, spec, loader_kwargs, engine_class, tmp_path
    ):
        engine = make_engine(spec=spec)
        engine.ingest(spec_records(spec, 2_000))
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        restored = load_checkpoint(path, **loader_kwargs)
        try:
            assert isinstance(restored, engine_class)
            if loader_kwargs:
                assert restored.workers == loader_kwargs["workers"]
            assert restored.state_dict() == engine.state_dict()
        finally:
            if loader_kwargs:
                restored.close()

    def test_restored_flavours_continue_identically(self, tmp_path):
        """The switch end to end: a serial checkpoint restored into a
        process fleet keeps drawing the randomness the serial engine would
        have drawn."""
        spec = SamplerSpec(window="sequence", n=40, k=4, replacement=True)
        engine = make_engine(spec=spec)
        engine.ingest(spec_records(spec, 2_000))
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        suffix = spec_records(spec, 600, seed=9)
        restored = load_checkpoint(path, workers=2)
        try:
            restored.ingest(suffix)
            engine.ingest(suffix)
            assert restored.state_dict() == engine.state_dict()
        finally:
            restored.close()
