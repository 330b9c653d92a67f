"""Compact columnar encoding for cross-process record batches.

:class:`~repro.engine.executor.ProcessEngine` ships every sub-batch of
``(key, value, timestamp)`` records through a multiprocessing queue, and
this encoding is the only form a sub-batch takes on that path.  The queue
pickles whatever it is given, and pickling a list of thousands of *small
tuples of small objects* pays per-object framing on both sides — the
dominant transport cost for the engine's typical records (short keys, small
payloads).  The columnar batch encoding avoids it: the batch is split into
its three columns, each column is type-sniffed once and struct-packed as a
single homogeneous buffer, and the queue then pickles one ``bytes`` object
(a memcpy) instead of N tuples.  The write-ahead log
(:mod:`repro.engine.wal`) journals the same payloads, so recovery replays
exactly the bytes the live path sent.

Wire format (version ``SWT1``, little-endian)::

    b"SWT1" | uint32 record_count | keys column | values column | timestamps column

    column  := tag (1 byte) | payload
    tag "b"/"h"/"i"/"q" : record_count signed ints of width 1/2/4/8 bytes
                          (the narrowest width containing the column's range)
    tag "d"             : record_count float64s
    tag "u"             : utf-8 strings — uint32 per-string *character*
                          lengths, then uint32 blob byte-length, then the
                          joined utf-8 blob
    tag "n"             : every entry is None (no payload)
    tag "p"             : pickle fallback — uint32 byte-length, then the
                          pickled list (heterogeneous or exotic columns)

The encoding is exact: ``decode_batch(encode_batch(batch)) == batch`` for
every picklable batch (``bool`` deliberately falls through to the pickle tag
so it round-trips as ``bool``, not ``int``), so engine results are
bit-identical to the serial engine's.

Decoding is strict, because journal payloads are read back from disk: a
payload claiming more records than both its own byte length and
:data:`SUB_BATCH` (every column but ``n`` spends at least a byte per
record, and the ingest router never cuts a larger sub-batch) is refused
before any column is built, and a payload whose columns do not each hold
exactly ``record_count`` entries, whose utf-8 lengths do not consume the
whole blob, whose pickle column does not unpickle to a list, or which
carries bytes after the third column raises
:class:`~repro.exceptions.TransportError` — never another exception type and
never a silently different batch.

Accounting
----------
This module stays measurement-free on purpose: encode/decode run on the
hot path and the codec has no stable home for counters (it is called from
both coordinator and workers).  Transport-stage accounting — encode time,
encoded bytes, dispatch time — lives in the coordinator's metrics registry,
maintained by :class:`~repro.engine.executor.ProcessEngine` and exposed via
``transport_report()`` / ``metrics_snapshot()`` (see :mod:`repro.obs`).
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional, Sequence, Tuple

from ..exceptions import TransportError

__all__ = ["encode_batch", "decode_batch", "decode_columns", "MAGIC", "SUB_BATCH"]

#: Format magic; bump the digit on incompatible changes.
MAGIC = b"SWT1"

#: Records per shard sub-batch: the ingest router of
#: :class:`~repro.engine.ShardedEngine` never cuts a larger one, so no
#: payload it sends or journals holds more.
SUB_BATCH = 4096

#: Signed-integer tags, narrowest first, with their inclusive ranges.
_INT_WIDTHS = (
    (b"b", "b", -(1 << 7), (1 << 7) - 1),
    (b"h", "h", -(1 << 15), (1 << 15) - 1),
    (b"i", "i", -(1 << 31), (1 << 31) - 1),
    (b"q", "q", -(1 << 63), (1 << 63) - 1),
)
_INT_SIZE = {"b": 1, "h": 2, "i": 4, "q": 8}


def _pickle_column(column: Sequence[Any]) -> bytes:
    payload = pickle.dumps(list(column), protocol=pickle.HIGHEST_PROTOCOL)
    return b"p" + struct.pack("<I", len(payload)) + payload


def _encode_column(column: Sequence[Any], count: int) -> bytes:
    kinds = set(map(type, column))
    if kinds == {int}:
        low = min(column)
        high = max(column)
        for tag, fmt, fmt_low, fmt_high in _INT_WIDTHS:
            if fmt_low <= low and high <= fmt_high:
                return tag + struct.pack(f"<{count}{fmt}", *column)
        return _pickle_column(column)  # bigints beyond int64
    if kinds == {float}:
        return b"d" + struct.pack(f"<{count}d", *column)
    if kinds == {str}:
        try:
            blob = "".join(column).encode("utf-8")
            lengths = struct.pack(f"<{count}I", *map(len, column))
            header = struct.pack("<I", len(blob))
        except (UnicodeEncodeError, struct.error):
            return _pickle_column(column)  # lone surrogates / absurd lengths
        return b"u" + lengths + header + blob
    if kinds == {type(None)}:
        return b"n"
    return _pickle_column(column)


def encode_batch(batch: Sequence[Tuple[Any, Any, Optional[float]]]) -> bytes:
    """Encode a batch of ``(key, value, timestamp)`` records into one buffer."""
    count = len(batch)
    if count == 0:
        return MAGIC + struct.pack("<I", 0)
    keys, values, stamps = zip(*batch)
    return b"".join(
        (
            MAGIC,
            struct.pack("<I", count),
            _encode_column(keys, count),
            _encode_column(values, count),
            _encode_column(stamps, count),
        )
    )


#: Decode-side failures that get the column name and offset attached:
#: truncated fixed-width columns (``struct.error``), corrupt utf-8 blobs, and
#: the structural checks :func:`_decode_column` raises itself.
_DECODE_ERRORS = (struct.error, UnicodeDecodeError, TransportError)


def _decode_column(buffer: bytes, offset: int, count: int) -> Tuple[Sequence[Any], int]:
    fmt = chr(buffer[offset])
    offset += 1
    if fmt in _INT_SIZE:
        size = _INT_SIZE[fmt] * count
        column = struct.unpack_from(f"<{count}{fmt}", buffer, offset)
        return column, offset + size
    if fmt == "d":
        column = struct.unpack_from(f"<{count}d", buffer, offset)
        return column, offset + 8 * count
    if fmt == "u":
        lengths = struct.unpack_from(f"<{count}I", buffer, offset)
        offset += 4 * count
        (blob_length,) = struct.unpack_from("<I", buffer, offset)
        offset += 4
        blob = buffer[offset : offset + blob_length]
        if len(blob) != blob_length:
            raise TransportError(
                f"truncated utf-8 column blob at offset {offset}:"
                f" need {blob_length} bytes, have {len(blob)}"
            )
        text = blob.decode("utf-8")
        if sum(lengths) != len(text):
            raise TransportError(
                f"utf-8 string lengths add up to {sum(lengths)} characters"
                f" but the blob holds {len(text)}"
            )
        column_list: List[str] = []
        cursor = 0
        for length in lengths:
            column_list.append(text[cursor : cursor + length])
            cursor += length
        return column_list, offset + blob_length
    if fmt == "n":
        return (None,) * count, offset
    if fmt == "p":
        (payload_length,) = struct.unpack_from("<I", buffer, offset)
        offset += 4
        payload = buffer[offset : offset + payload_length]
        if len(payload) != payload_length:
            raise TransportError(
                f"truncated pickle column at offset {offset}:"
                f" need {payload_length} bytes, have {len(payload)}"
            )
        try:
            column = pickle.loads(payload)
        except Exception as error:
            # Unpickling hostile bytes can fail in any exception type
            # (ValueError, MemoryError, OverflowError, TypeError, ...).
            raise TransportError(
                f"pickle column does not unpickle: {type(error).__name__}: {error}"
            ) from error
        if type(column) is not list:
            raise TransportError(
                f"pickle column unpickles to {type(column).__name__!r}, not a list"
            )
        return column, offset + payload_length
    raise TransportError(f"unknown transport column tag {fmt!r} at offset {offset - 1}")


def decode_columns(
    buffer: bytes,
) -> Tuple[Sequence[Any], Sequence[Any], Sequence[Any], int]:
    """Decode one payload into its three raw columns plus the record count.

    The column-major half of :func:`decode_batch`.  Raises
    :class:`~repro.exceptions.TransportError` (a ``ValueError``) on a bad
    magic, a record count above both the payload length and
    :data:`SUB_BATCH`, a malformed or truncated column, or trailing bytes,
    with byte-offset context.
    """
    if len(buffer) < 8:
        raise TransportError(
            f"truncated transport header: {len(buffer)} bytes (need >= 8)"
        )
    if buffer[:4] != MAGIC:
        raise TransportError(
            f"bad transport magic {buffer[:4]!r} (expected {MAGIC!r})"
        )
    (count,) = struct.unpack_from("<I", buffer, 4)
    if count > len(buffer) and count > SUB_BATCH:
        # Checked before any column is built: an all-``n`` payload of a few
        # bytes would otherwise allocate ``count`` entries per column.
        raise TransportError(
            f"record count {count} exceeds both the payload's {len(buffer)}"
            f" bytes and the {SUB_BATCH}-record sub-batch"
        )
    if count == 0:
        _check_consumed(buffer, 8)
        return (), (), (), 0
    offset = 8
    columns: List[Sequence[Any]] = []
    for name in ("keys", "values", "timestamps"):
        started = offset
        try:
            column, offset = _decode_column(buffer, offset, count)
            if len(column) != count:
                raise TransportError(f"column holds {len(column)} entries")
        except IndexError:
            raise TransportError(
                f"truncated {name} column: tag byte missing at offset {started}"
                f" (buffer is {len(buffer)} bytes)"
            ) from None
        except _DECODE_ERRORS as error:
            raise TransportError(
                f"malformed {name} column at offset {started}"
                f" (buffer is {len(buffer)} bytes, {count} records): {error}"
            ) from error
        columns.append(column)
    _check_consumed(buffer, offset)
    return columns[0], columns[1], columns[2], count


def _check_consumed(buffer: bytes, offset: int) -> None:
    if offset != len(buffer):
        raise TransportError(
            f"{len(buffer) - offset} trailing byte(s) after the last column"
            f" at offset {offset} (buffer is {len(buffer)} bytes)"
        )


def decode_batch(buffer: bytes) -> List[Tuple[Any, Any, Optional[float]]]:
    """Decode :func:`encode_batch` output back into record tuples.

    Malformed or truncated payloads raise
    :class:`~repro.exceptions.TransportError`.
    """
    keys, values, stamps, count = decode_columns(buffer)
    if count == 0:
        return []
    return list(zip(keys, values, stamps))
