"""The columnar record transport: exact round-trips and real freight savings.

:class:`~repro.engine.ProcessEngine` ships record sub-batches as one
struct-packed buffer per sub-batch (:mod:`repro.engine.transport`).  Two
things must hold for the engine's bit-identity story to survive the wire:
``decode(encode(batch)) == batch`` for every batch the engine can dispatch,
and the engine's results must not depend on which transport carried the
records.  The freight claim (fewer bytes per record than pickling the tuple
list) is asserted for the engine's typical record shapes.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine import ProcessEngine, SamplerSpec, ShardedEngine, decode_batch, encode_batch
from repro.exceptions import ConfigurationError, TransportError


def round_trip(batch):
    encoded = encode_batch(batch)
    assert isinstance(encoded, bytes)
    decoded = decode_batch(encoded)
    assert decoded == batch
    return encoded


class TestRoundTrip:
    def test_int_columns_pack_to_narrowest_width(self):
        batch = [(key % 100, key % 1024, None) for key in range(500)]
        encoded = round_trip(batch)
        # keys fit int8, values int16, timestamps are the 1-byte None tag:
        # ~3 bytes of column payload per record plus constant framing.
        assert len(encoded) < 500 * 4 + 64

    def test_wide_ints_floats_and_strings(self):
        round_trip([(1 << 40, -(1 << 40), 0.5), (2, 3, 1e300)])
        round_trip([("alice", "x" * 1000, 1.0), ("böb", "", 2.0)])
        round_trip([("", "", None)])

    def test_heterogeneous_columns_fall_back_to_pickle(self):
        batch = [
            (("composite", 1), {"payload": 2}, 1.5),
            (True, None, 2.5),  # bool must survive as bool, not int
            (3, [1, 2], None),
        ]
        decoded = decode_batch(encode_batch(batch))
        assert decoded == batch
        assert decoded[1][0] is True

    def test_bigints_fall_back_to_pickle(self):
        round_trip([(1 << 100, -(1 << 80), None)])

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_batch(b"NOPE" + b"\x00" * 8)

    def test_float_columns_round_trip_exactly(self):
        batch = [(0, 0, 0.1 + 0.2), (1, 1, 2.0**-1074), (2, 2, 1.7976931348623157e308)]
        assert decode_batch(encode_batch(batch)) == batch

    def test_extreme_ints_and_utf8_edges(self):
        batch = [
            ("k", -(2**63), None),
            ("k", 2**63 - 1, 0.5),
            ("\U0001f9ea", "", 1.5),
            ("k", "\x00퟿", 2.5),
            ("k", True, 3.5),
            ("k", False, 4.5),
        ]
        decoded = decode_batch(encode_batch(batch))
        assert decoded == batch
        assert [type(value) for _, value, _ in decoded] == [type(value) for _, value, _ in batch]

    def test_randomized_batches_round_trip(self):
        rng = random.Random(2024)
        pools = [
            lambda: rng.randint(-(2**62), 2**62),
            lambda: rng.randint(-128, 127),
            lambda: rng.random() * 1e9 - 5e8,
            lambda: rng.choice([True, False]),
            lambda: None,
            lambda: "uni-é中\U0001f600-" + str(rng.randint(0, 99)),
            lambda: ("pickle", rng.randint(0, 9)),  # no columnar tag: fallback
        ]
        for trial in range(150):
            count = rng.randint(1, 40)
            if trial % 2 == 0:  # single-type columns take the packed paths
                maker = rng.choice(pools[:4])
                values = [maker() for _ in range(count)]
            else:
                values = [rng.choice(pools)() for _ in range(count)]
            keys = [rng.choice(["alpha", "ß-key", 7, -3, ("tuple", 1)]) for _ in range(count)]
            stamps = [None if rng.random() < 0.3 else rng.random() * 100.0 for _ in range(count)]
            if rng.random() < 0.5:
                stamps = [None] * count
            batch = list(zip(keys, values, stamps))
            decoded = decode_batch(encode_batch(batch))
            assert decoded == batch, trial
            # bool == int in Python: pin the decoded types too.
            assert [type(value) for _, value, _ in decoded] == [type(value) for value in values]

    @pytest.mark.parametrize("cut", [1, 5, 40])
    def test_truncated_payload_raises_transport_error(self, cut):
        # A worker must reject a short buffer with the transport's own
        # error, never a bare struct.error or a silently short batch.
        for batch in (
            [("k", value, None) for value in range(50)],
            [("k", "x" * value, 0.5) for value in range(50)],
        ):
            payload = encode_batch(batch)
            with pytest.raises(TransportError):
                decode_batch(payload[: len(payload) - cut])


class TestFreight:
    def test_int_records_beat_pickle_by_2x(self):
        """The E11 record shape: small int keys/values, no timestamps."""
        batch = [(key % 10_000, key % 1024, None) for key in range(4096)]
        columnar = len(encode_batch(batch)) / len(batch)
        pickled = len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)) / len(batch)
        assert columnar * 2 <= pickled, (columnar, pickled)

    def test_string_keyed_records_beat_pickle(self):
        batch = [(f"user-{key % 5000}", key % 1024, None) for key in range(4096)]
        columnar = len(encode_batch(batch))
        pickled = len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
        assert columnar < pickled


class TestProcessEngineTransport:
    SPEC = SamplerSpec(window="sequence", n=64, k=3)

    def records(self):
        return [(f"key-{index % 97}", index % 512) for index in range(8000)]

    def test_both_transports_bit_identical_to_serial(self):
        serial = ShardedEngine(self.SPEC, shards=4, seed=7)
        serial.ingest(self.records())
        reference = serial.state_dict()
        for transport in ("columnar", "pickle"):
            with ProcessEngine(
                self.SPEC, shards=4, seed=7, workers=2, max_batch=512, transport=transport
            ) as engine:
                engine.ingest(self.records())
                assert engine.state_dict() == reference, transport

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            ProcessEngine(self.SPEC, shards=2, workers=1, transport="carrier-pigeon")

    def test_transport_report_breaks_down_stages(self):
        with ProcessEngine(
            self.SPEC, shards=4, seed=7, workers=2, max_batch=512
        ) as engine:
            engine.ingest(self.records())
            report = engine.transport_report()
        assert report["transport"] == "columnar"
        assert report["records"] == 8000
        assert report["batches"] >= 4  # 8000 records / 512 max_batch over shards
        assert report["encoded_bytes"] > 0
        for stage in ("encode_seconds", "dispatch_seconds", "decode_seconds", "apply_seconds"):
            assert report[stage] >= 0.0
        assert report["apply_seconds"] > 0.0

    def test_pickle_transport_reports_no_encoded_bytes(self):
        with ProcessEngine(
            self.SPEC, shards=2, seed=7, workers=1, transport="pickle"
        ) as engine:
            engine.ingest(self.records()[:1000])
            report = engine.transport_report()
        assert report["encoded_bytes"] == 0
        assert report["encode_seconds"] == 0.0
        assert report["records"] == 1000


class TestShmRing:
    """The shared-memory payload ring under a single process: space
    accounting, wraparound padding, and byte-level backpressure."""

    def setup_method(self):
        import multiprocessing

        self.context = multiprocessing.get_context()

    def make_pair(self, capacity):
        from repro.engine.transport import ShmRingReader, ShmRingWriter

        writer = ShmRingWriter(self.context, capacity)
        reader = ShmRingReader(*writer.worker_config())
        return writer, reader

    def test_shared_memory_available_here(self):
        from repro.engine.transport import HAS_SHARED_MEMORY

        assert HAS_SHARED_MEMORY  # CI and the bench container both have it

    def test_round_trip_through_the_mapping(self):
        writer, reader = self.make_pair(256)
        try:
            payload = bytes(range(100))
            slot = writer.offer(payload)
            assert slot is not None
            start, end_counter = slot
            assert reader.read(start, len(payload)) == payload
            reader.release(end_counter)
        finally:
            reader.close()
            writer.close()

    def test_backpressure_then_release_frees_space(self):
        writer, reader = self.make_pair(64)
        try:
            first = writer.offer(b"a" * 40)
            assert first is not None
            # 24 bytes left and the next payload would straddle the end, so
            # the ring is effectively full until the reader releases.
            assert writer.offer(b"b" * 40) is None
            reader.release(first[1])
            second = writer.offer(b"b" * 40)
            assert second is not None
            assert reader.read(second[0], 40) == b"b" * 40
        finally:
            reader.close()
            writer.close()

    def test_wraparound_pads_to_the_start(self):
        writer, reader = self.make_pair(64)
        try:
            for cycle in range(20):  # > capacity/payload cycles force wraps
                payload = bytes([cycle]) * 24
                slot = writer.offer(payload)
                assert slot is not None, cycle
                start, end_counter = slot
                # Payloads are stored contiguously: never split by the end.
                assert start + len(payload) <= 64
                assert reader.read(start, len(payload)) == payload
                reader.release(end_counter)
        finally:
            reader.close()
            writer.close()

    def test_fits_and_oversize_payloads(self):
        writer, reader = self.make_pair(64)
        try:
            assert writer.fits(64)
            assert not writer.fits(65)
        finally:
            reader.close()
            writer.close()

    def test_writer_close_is_idempotent(self):
        writer, reader = self.make_pair(64)
        reader.close()
        writer.close()
        writer.close()

    def test_invalid_capacity_rejected(self):
        from repro.engine.transport import ShmRingWriter

        with pytest.raises(ValueError):
            ShmRingWriter(self.context, 0)


class TestShmEngineTransport:
    """transport="shm" end to end: bit-identity, fallback, and reporting."""

    SEQ_SPEC = SamplerSpec(window="sequence", n=64, k=3)
    TS_SPEC = SamplerSpec(window="timestamp", t0=40.0, k=3)

    def records(self, clocked=False):
        if clocked:
            return [
                (f"key-{index % 97}", index % 512, index * 0.25) for index in range(8000)
            ]
        return [(f"key-{index % 97}", index % 512) for index in range(8000)]

    @pytest.mark.parametrize("clocked", [False, True], ids=["sequence", "timestamp"])
    def test_shm_bit_identical_to_serial(self, clocked):
        spec = self.TS_SPEC if clocked else self.SEQ_SPEC
        serial = ShardedEngine(spec, shards=4, seed=7)
        serial.ingest(self.records(clocked))
        with ProcessEngine(
            spec, shards=4, seed=7, workers=2, max_batch=512, transport="shm"
        ) as engine:
            engine.ingest(self.records(clocked))
            assert engine.state_dict() == serial.state_dict()
            report = engine.transport_report()
        assert report["transport"] == "shm"
        assert report["requested_transport"] == "shm"
        assert report["ring_fallbacks"] == 0

    def test_oversize_payloads_fall_back_to_the_queue(self):
        serial = ShardedEngine(self.SEQ_SPEC, shards=4, seed=7)
        serial.ingest(self.records())
        with ProcessEngine(
            self.SEQ_SPEC,
            shards=4,
            seed=7,
            workers=2,
            max_batch=512,
            transport="shm",
            shm_ring_bytes=64,  # smaller than any encoded sub-batch
        ) as engine:
            engine.ingest(self.records())
            assert engine.state_dict() == serial.state_dict()
            report = engine.transport_report()
        assert report["ring_fallbacks"] == report["batches"] > 0

    def test_shm_ring_bytes_validated(self):
        with pytest.raises(ConfigurationError, match="shm_ring_bytes"):
            ProcessEngine(self.SEQ_SPEC, shards=2, workers=1, shm_ring_bytes=0)

    def test_unavailable_shared_memory_downgrades_to_columnar(self, monkeypatch):
        import repro.engine.executor as executor_module

        monkeypatch.setattr(executor_module, "HAS_SHARED_MEMORY", False)
        with ProcessEngine(
            self.SEQ_SPEC, shards=2, seed=7, workers=1, transport="shm"
        ) as engine:
            engine.ingest(self.records()[:1000])
            report = engine.transport_report()
        assert report["transport"] == "columnar"
        assert report["requested_transport"] == "shm"

    def test_rings_are_unlinked_on_close(self):
        engine = ProcessEngine(
            self.SEQ_SPEC, shards=2, seed=7, workers=2, transport="shm"
        )
        engine.ingest(self.records()[:2000])
        engine.flush()
        names = [ring._shm.name for ring in engine._rings]
        assert len(names) == 2
        engine.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_killed_worker_surfaces_not_hangs(self):
        import os
        import signal

        from repro.exceptions import WorkerFailure

        engine = ProcessEngine(
            self.SEQ_SPEC, shards=2, seed=7, workers=2, transport="shm"
        )
        try:
            engine.ingest(self.records()[:2000])
            engine.flush()
            victim = engine._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(WorkerFailure):
                for _ in range(200):  # enough dispatches to hit the dead inbox
                    engine.ingest(self.records())
                    engine.flush()
        finally:
            with pytest.raises(WorkerFailure):
                engine.close()
