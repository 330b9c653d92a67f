"""The per-shard write-ahead log: framing, torn tails, corruption classes.

The WAL's one job is to make worker death lossless without ever replaying
garbage.  That splits into three distinct on-disk damage classes the module
must keep apart: a *torn tail* (crash mid-append — structurally detectable,
silently truncated with a warning), a *mid-journal* checksum mismatch (not
explainable as a torn append — fail loudly), and a checksum-valid frame the
columnar codec rejects (a forged or misdirected record — fail loudly with
byte-offset context, never "helpfully" truncate).  These tests pin each
class, plus the append/replay round trip, the fsync knob and the metrics.
"""

import os
import struct

import pytest

from repro.engine.transport import decode_batch, encode_batch
from repro.engine.wal import (
    FSYNC_MODES,
    RECORD_HEADER,
    WriteAheadLog,
    frame_record,
    shard_wal_name,
)
from repro.exceptions import ConfigurationError, TransportError
from repro.obs import MetricsRegistry


def batch_payload(start, count, shardkey="k"):
    return encode_batch(
        [(f"{shardkey}-{i % 3}", start + i, None) for i in range(count)]
    )


class TestRoundTrip:
    def test_append_tail_replay(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        first = batch_payload(0, 5)
        second = batch_payload(5, 7)
        other = batch_payload(100, 2)
        wal.append(3, first)
        wal.append(3, second)
        wal.append(1, other)
        assert wal.tail(3) == [first, second]
        assert wal.tail(1) == [other]
        assert wal.tail(2) == []  # never written
        assert dict(wal.replay()) == {1: [other], 3: [first, second]}
        assert wal.shards_on_disk() == [1, 3]
        wal.close()

    def test_payloads_decode_to_original_batches(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        batch = [("alpha", 1, None), ("beta", 2, None)]
        wal.append(0, encode_batch(batch))
        (payload,) = wal.tail(0)
        assert decode_batch(payload) == batch
        wal.close()

    def test_append_survives_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        payload = batch_payload(0, 4)
        wal.append(2, payload)
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.tail(2) == [payload]
        reopened.append(2, payload)
        assert reopened.tail(2) == [payload, payload]
        reopened.close()

    def test_truncate_resets_all_shards(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(0, batch_payload(0, 3))
        wal.append(4, batch_payload(3, 3))
        assert wal.bytes_on_disk() > 0
        wal.truncate()
        assert wal.bytes_on_disk() == 0
        assert wal.shards_on_disk() == []
        # Handles stay usable after a truncation (checkpoint mid-life).
        wal.append(0, batch_payload(6, 3))
        assert len(wal.tail(0)) == 1
        wal.close()

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(ConfigurationError):
            wal.append(0, batch_payload(0, 1))


class TestDurabilityKnob:
    @pytest.mark.parametrize("mode", FSYNC_MODES)
    def test_modes_round_trip(self, tmp_path, mode):
        wal = WriteAheadLog(str(tmp_path), fsync=mode)
        payload = batch_payload(0, 3)
        wal.append(0, payload)
        wal.sync()
        assert wal.tail(0) == [payload]
        wal.close()

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(str(tmp_path), fsync="eventually")


class TestTornTail:
    """Crash mid-append: structurally incomplete tails truncate, quietly
    keeping every record before them — and only genuinely *tail* damage
    qualifies."""

    @pytest.mark.parametrize("drop", [1, 3, RECORD_HEADER.size + 1])
    def test_torn_final_record_is_truncated_with_warning(self, tmp_path, drop, caplog):
        wal = WriteAheadLog(str(tmp_path))
        keep = batch_payload(0, 4)
        torn = batch_payload(4, 4)
        wal.append(7, keep)
        wal.append(7, torn)
        wal.close()
        path = os.path.join(str(tmp_path), shard_wal_name(7))
        os.truncate(path, os.path.getsize(path) - drop)
        reopened = WriteAheadLog(str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.engine.wal"):
            assert reopened.tail(7) == [keep]
        assert any("torn WAL tail" in record.message for record in caplog.records)
        # The truncation is physical: a second read is clean, no re-warning.
        frame = frame_record(keep)
        assert os.path.getsize(path) == len(frame)
        assert reopened.tail(7) == [keep]
        reopened.close()

    def test_torn_header_only_file(self, tmp_path):
        path = os.path.join(str(tmp_path), shard_wal_name(0))
        with open(path, "wb") as handle:
            handle.write(b"\x01\x02\x03")  # shorter than one header
        wal = WriteAheadLog(str(tmp_path))
        assert wal.tail(0) == []
        assert os.path.getsize(path) == 0
        wal.close()

    def test_checksum_damage_on_final_frame_counts_as_torn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        keep = batch_payload(0, 4)
        wal.append(2, keep)
        wal.append(2, batch_payload(4, 4))
        wal.close()
        path = os.path.join(str(tmp_path), shard_wal_name(2))
        # Flip the last payload byte: checksum mismatch confined to the tail.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.tail(2) == [keep]
        reopened.close()


class TestCorruption:
    """Damage that cannot be a torn append must fail loudly with context —
    truncating it would silently lose acknowledged records."""

    def test_mid_journal_checksum_mismatch_raises_with_offset(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        first = batch_payload(0, 4)
        wal.append(5, first)
        wal.append(5, batch_payload(4, 4))
        wal.close()
        # Corrupt the FIRST record: bytes follow it, so this is not a tear.
        path = os.path.join(str(tmp_path), shard_wal_name(5))
        with open(path, "r+b") as handle:
            handle.seek(RECORD_HEADER.size + 2)
            handle.write(b"\xff")
        reopened = WriteAheadLog(str(tmp_path))
        with pytest.raises(TransportError, match="offset 0"):
            reopened.tail(5)
        with pytest.raises(TransportError, match="not a torn tail"):
            reopened.tail(5)
        reopened.close()

    def test_checksum_valid_but_undecodable_record_raises(self, tmp_path, malformed_payload):
        wal = WriteAheadLog(str(tmp_path))
        good = batch_payload(0, 4)
        wal.append(1, good)
        wal.close()
        path = os.path.join(str(tmp_path), shard_wal_name(1))
        offset = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(frame_record(malformed_payload))
        reopened = WriteAheadLog(str(tmp_path))
        with pytest.raises(TransportError, match=f"offset {offset}"):
            reopened.tail(1)
        with pytest.raises(TransportError, match="checksum valid"):
            reopened.tail(1)
        reopened.close()


class TestMetrics:
    def test_counters(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), registry=registry)
        wal.append(0, batch_payload(0, 5))
        wal.append(0, batch_payload(5, 2), records=2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["wal.records"] == 7
        assert snapshot["counters"]["wal.bytes"] == wal.bytes_on_disk()
        wal.close()
        path = os.path.join(str(tmp_path), shard_wal_name(0))
        os.truncate(path, os.path.getsize(path) - 1)
        reopened = WriteAheadLog(str(tmp_path), registry=registry)
        reopened.tail(0)
        assert registry.snapshot()["counters"]["wal.truncations"] == 1
        reopened.close()

    def test_record_count_read_from_payload_header(self, tmp_path):
        # append() with records=None must parse the SWT1 record count.
        registry = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), registry=registry)
        payload = batch_payload(0, 9)
        (expected,) = struct.unpack_from("<I", payload, 4)
        wal.append(0, payload)
        assert registry.snapshot()["counters"]["wal.records"] == expected == 9
        wal.close()
