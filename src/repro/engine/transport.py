"""Compact columnar encoding for cross-process record batches.

:class:`~repro.engine.executor.ProcessEngine` ships every sub-batch of
``(key, value, timestamp)`` records through a multiprocessing queue.  The
queue pickles whatever it is given, and pickling a list of thousands of
*small tuples of small objects* pays per-object framing on both sides — the
dominant transport cost for the engine's typical records (short keys, small
payloads).  This module replaces that with a columnar batch encoding: the
batch is split into its three columns, each column is type-sniffed once and
struct-packed as a single homogeneous buffer, and the queue then pickles one
``bytes`` object (a memcpy) instead of N tuples.

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
so it round-trips as ``bool``, not ``int``).  Bit-identity of engine results
therefore does not depend on which transport carried the records.

Shared-memory ring (transport ``"shm"``)
----------------------------------------
Even as a single buffer, a columnar payload shipped through a
``multiprocessing.Queue`` is pickled by the coordinator's feeder thread,
squeezed through a pipe, and reassembled worker-side — two copies plus pipe
syscalls per sub-batch.  :class:`ShmRingWriter`/:class:`ShmRingReader`
eliminate that: the coordinator memcpys the payload into a per-worker
``multiprocessing.shared_memory`` ring and the queue carries only a tiny
``(start, length, counter)`` descriptor; the worker copies the payload
straight out of the mapping.  Space is reclaimed through a monotonic
consumed-bytes counter the worker advances after each read, which doubles as
byte-level backpressure: a producer that outruns the worker waits for ring
space.  Payloads larger than the ring fall back to the plain queue, so the
ring bounds memory without limiting record size.

Accounting
----------
This module stays measurement-free on purpose: encode/decode run on the
hot path and the codec has no stable home for counters (it is called from
both coordinator and workers).  Transport-stage accounting — encode time,
encoded bytes, dispatch time, ring fallbacks — lives in the coordinator's
metrics registry, maintained by :class:`~repro.engine.executor.ProcessEngine`
and exposed via ``transport_report()`` / ``metrics_snapshot()`` (see
:mod:`repro.obs`).
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..exceptions import TransportError

try:  # pragma: no cover - import guard exercised via HAS_SHARED_MEMORY
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None  # type: ignore[assignment]

#: Whether ``multiprocessing.shared_memory`` is importable here.  When it is
#: not (stripped-down or very old interpreters), ``ProcessEngine`` silently
#: downgrades ``transport="shm"`` to ``"columnar"`` — same results, one more
#: copy — and reports the effective transport in ``transport_report()``.
HAS_SHARED_MEMORY = _shared_memory is not None

__all__ = [
    "encode_batch",
    "decode_batch",
    "decode_columns",
    "MAGIC",
    "HAS_SHARED_MEMORY",
    "ShmRingWriter",
    "ShmRingReader",
]

#: Format magic; bump the digit on incompatible changes.
MAGIC = b"SWT1"

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


#: Buffers the codec accepts.  ``memoryview`` matters: the shm ring reader
#: hands decode a zero-copy view over the shared mapping (see
#: :meth:`ShmRingReader.view`), so every slice below must go through
#: ``bytes()`` / ``struct.unpack_from`` rather than assuming ``bytes`` methods.
Buffer = Union[bytes, bytearray, memoryview]

#: Decode-side failures worth translating into :class:`TransportError`:
#: truncated fixed-width columns (``struct.error``), corrupt utf-8 blobs,
#: and torn pickle payloads.
_DECODE_ERRORS = (struct.error, UnicodeDecodeError, pickle.UnpicklingError, EOFError)


def _decode_column(buffer: Buffer, offset: int, count: int) -> Tuple[Sequence[Any], int]:
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
        text = (blob if isinstance(blob, bytes) else bytes(blob)).decode("utf-8")
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
        return pickle.loads(buffer[offset : offset + payload_length]), offset + payload_length
    raise TransportError(f"unknown transport column tag {fmt!r} at offset {offset - 1}")


def decode_columns(
    buffer: Buffer,
) -> Tuple[Sequence[Any], Sequence[Any], Sequence[Any], int]:
    """Decode one payload into its three raw columns plus the record count.

    The column-major half of :func:`decode_batch`.  Raises
    :class:`~repro.exceptions.TransportError` (a ``ValueError``) on a bad
    magic or a malformed/truncated buffer, with byte-offset context.
    """
    if len(buffer) < 8:
        raise TransportError(
            f"truncated transport header: {len(buffer)} bytes (need >= 8)"
        )
    if bytes(buffer[:4]) != MAGIC:
        raise TransportError(
            f"bad transport magic {bytes(buffer[:4])!r} (expected {MAGIC!r})"
        )
    (count,) = struct.unpack_from("<I", buffer, 4)
    if count == 0:
        return (), (), (), 0
    offset = 8
    columns: List[Sequence[Any]] = []
    for name in ("keys", "values", "timestamps"):
        started = offset
        try:
            column, offset = _decode_column(buffer, offset, count)
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
    return columns[0], columns[1], columns[2], count


def decode_batch(buffer: Buffer) -> List[Tuple[Any, Any, Optional[float]]]:
    """Decode :func:`encode_batch` output back into record tuples.

    Accepts any bytes-like buffer — in particular the zero-copy
    ``memoryview`` handed out by :meth:`ShmRingReader.view`.  Malformed or
    truncated payloads raise :class:`~repro.exceptions.TransportError`.
    """
    keys, values, stamps, count = decode_columns(buffer)
    if count == 0:
        return []
    return list(zip(keys, values, stamps))


# -- shared-memory ring -------------------------------------------------------
#
# One writer (the coordinator) and one reader (the owning worker) share a
# fixed-size mapping.  Positions are *monotonic byte counters* reduced modulo
# the capacity on access: the writer tracks `reserved` locally, the reader
# publishes `consumed` through a locked shared value after each read.  A
# payload is stored contiguously — when it would straddle the physical end of
# the mapping the writer skips (pads) to the start — so readers never stitch.
# Because descriptors travel through the worker's FIFO inbox, payloads are
# consumed in write order and one counter per side fully describes the ring.


class ShmRingWriter:
    """Coordinator half of one worker's payload ring."""

    def __init__(self, context: Any, capacity: int) -> None:
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self._shm = _shared_memory.SharedMemory(create=True, size=capacity)
        self._capacity = int(capacity)
        self._consumed = context.Value("Q", 0)
        self._reserved = 0
        self._closed = False

    @property
    def capacity(self) -> int:
        return self._capacity

    def worker_config(self) -> Tuple[str, Any, int]:
        """What the worker process needs to build its :class:`ShmRingReader`:
        the segment name, the shared consumed counter, and the capacity."""
        return (self._shm.name, self._consumed, self._capacity)

    def fits(self, length: int) -> bool:
        """Whether a payload of this size can ever be carried by the ring."""
        return length <= self._capacity

    def offer(self, payload: bytes) -> Optional[Tuple[int, int]]:
        """Try to write ``payload`` into the ring.

        Returns ``(start, end_counter)`` for the descriptor message, or
        ``None`` when the ring currently lacks space (the caller should check
        worker liveness and retry).  Callers must pre-check :meth:`fits`.
        """
        length = len(payload)
        reserved = self._reserved
        start = reserved % self._capacity
        if start + length > self._capacity:
            # Straddles the physical end: pad to the start of the mapping.
            reserved += self._capacity - start
            start = 0
        end = reserved + length
        with self._consumed.get_lock():
            consumed = self._consumed.value
        if end - consumed > self._capacity:
            return None
        self._shm.buf[start : start + length] = payload
        self._reserved = end
        return start, end

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


class ShmRingReader:
    """Worker half of one payload ring (attached by segment name)."""

    def __init__(self, name: str, consumed: Any, capacity: int) -> None:
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        try:
            self._shm = _shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Pre-3.13 interpreters lack ``track=False`` and unconditionally
            # register attachments with the resource tracker, which would
            # later unlink (or warn about) a segment the coordinator still
            # owns (bpo-39959).  Suppress the registration for the attach.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args: None
            try:
                self._shm = _shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        self._consumed = consumed
        self._capacity = int(capacity)

    def read(self, start: int, length: int) -> bytes:
        """Copy one payload out of the mapping.

        Kept for callers that need the payload to outlive the ring slot;
        the hot decode path uses :meth:`view` instead and skips the copy.
        """
        return bytes(self._shm.buf[start : start + length])

    def view(self, start: int, length: int) -> "memoryview":
        """A zero-copy ``memoryview`` over one payload in the mapping.

        The view aliases ring memory that the coordinator will reuse once
        :meth:`release` publishes the payload's ``end_counter`` — so decode
        from the view first, release after, and ``release()`` the view
        object itself before :meth:`close` (an exported view blocks the
        mapping's ``close()`` with ``BufferError``).
        """
        return self._shm.buf[start : start + length]

    def release(self, end_counter: int) -> None:
        """Publish that everything up to ``end_counter`` has been consumed.

        Call after the payload bytes are done with: immediately after
        :meth:`read` (the returned bytes are a copy), but only *after
        decode* when working from a zero-copy :meth:`view` — releasing
        earlier would let the coordinator overwrite bytes still being
        parsed."""
        with self._consumed.get_lock():
            self._consumed.value = end_counter

    def close(self) -> None:
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - torn shutdown
            pass
