"""The columnar record transport: exact round-trips and real freight savings.

:class:`~repro.engine.ProcessEngine` ships every record sub-batch as one
struct-packed buffer (:mod:`repro.engine.transport`).  Three things must
hold for the engine's bit-identity and durability stories to survive the
wire: ``decode(encode(batch)) == batch`` for every batch the engine can
dispatch, a fleet fed through the codec must end bit-identical to the serial
engine, and every malformed payload (the WAL reads them back from disk) must
raise :class:`~repro.exceptions.TransportError`.  The freight claim (fewer
bytes per record than pickling the tuple list) is asserted for the engine's
typical record shapes.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine import ProcessEngine, SamplerSpec, ShardedEngine, decode_batch, encode_batch
from repro.exceptions import TransportError


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

    def test_malformed_payload_raises_transport_error(self, malformed_payload):
        # Never a bare ValueError/MemoryError/TypeError out of the pickle
        # fallback, and never a silently different batch.
        with pytest.raises(TransportError):
            decode_batch(malformed_payload)


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

    def test_columnar_fleet_bit_identical_to_serial(self, sizing):
        serial = ShardedEngine(self.SPEC, shards=4, seed=7)
        serial.ingest(self.records())
        sizing(sub_batch=512)
        with ProcessEngine(self.SPEC, shards=4, seed=7, workers=2) as engine:
            engine.ingest(self.records())
            assert engine.state_dict() == serial.state_dict()

    @pytest.mark.parametrize("transport", ["columnar", "shm", "pickle"])
    def test_transport_option_is_gone(self, transport):
        # Columnar is the only wire form: there is nothing left to select.
        with pytest.raises(TypeError):
            ProcessEngine(self.SPEC, shards=2, workers=1, transport=transport)

    def test_transport_report_breaks_down_stages(self, sizing):
        sizing(sub_batch=512)
        with ProcessEngine(self.SPEC, shards=4, seed=7, workers=2) as engine:
            engine.ingest(self.records())
            report = engine.transport_report()
        assert set(report) == {
            "batches", "records", "encoded_bytes", "encode_seconds",
            "dispatch_seconds", "decode_seconds", "apply_seconds", "workers",
        }
        assert report["records"] == 8000
        assert report["batches"] >= 4  # 8000 records in 512-record sub-batches
        assert report["encoded_bytes"] > 0
        for stage in ("encode_seconds", "dispatch_seconds", "decode_seconds", "apply_seconds"):
            assert report[stage] >= 0.0
        assert report["apply_seconds"] > 0.0
