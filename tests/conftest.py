"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pickle
import random
import struct
import tempfile

import pytest

from repro.engine import ProcessEngine, ShardedEngine
from repro.engine.transport import MAGIC
from repro.streams.element import StreamElement, make_stream
from repro.windows import SequenceWindow, TimestampWindow


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random source for tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def ascending_stream():
    """A 500-element stream whose values equal their indexes (and timestamps)."""
    return make_stream(range(500))


@pytest.fixture
def poisson_stream():
    """A 500-element stream with Poisson arrival times (rate 1)."""
    source = random.Random(17)
    timestamps = []
    current = 0.0
    for _ in range(500):
        current += source.expovariate(1.0)
        timestamps.append(current)
    return make_stream(range(500), timestamps)


def feed(sampler, elements, advance_time: bool = False):
    """Push a list of StreamElements through a sampler."""
    for element in elements:
        if advance_time and hasattr(sampler, "advance_time"):
            sampler.advance_time(element.timestamp)
        sampler.append(element.value, element.timestamp)
    return sampler


def active_indexes_sequence(n: int, arrivals: int):
    """Ground-truth active index range for a sequence window."""
    return list(range(max(0, arrivals - n), arrivals))


def active_indexes_timestamp(elements, t0: float, now: float):
    """Ground-truth active indexes for a timestamp window at time ``now``."""
    return [element.index for element in elements if now - element.timestamp < t0]


def _payload(count: int, *columns: bytes) -> bytes:
    return MAGIC + struct.pack("<I", count) + b"".join(columns)


def _pickle_column(pickled: bytes) -> bytes:
    return b"p" + struct.pack("<I", len(pickled)) + pickled


#: Columnar payloads the codec must reject with a ``TransportError``, keyed
#: by what is wrong with them.  Every one frames cleanly (a WAL record
#: holding it passes its checksum).  The pickle-column cases hand the
#: fallback bytes that either fail to unpickle, each in an exception type
#: of its own, or unpickle to the wrong shape.
_KEYS = b"b" + bytes([1, 2, 3])  # three int8 keys
MALFORMED_PAYLOADS = {
    "bad-magic": b"definitely not SWT1",
    "pickle-protocol-100": _payload(3, _KEYS, _pickle_column(b"\x80d."), b"n"),
    "pickle-memory-error": _payload(
        3, _KEYS, _pickle_column(b"\x80\x04\x8e" + struct.pack("<Q", 1 << 62) + b"."), b"n"
    ),
    "pickle-overflow-error": _payload(
        3, _KEYS, _pickle_column(b"\x80\x04\x95" + struct.pack("<Q", 1 << 63) + b"."), b"n"
    ),
    "pickle-appends-to-int": _payload(3, _KEYS, _pickle_column(b"\x80\x02K\x01K\x02a."), b"n"),
    "pickle-setitems-on-int": _payload(
        3, _KEYS, _pickle_column(b"\x80\x02K\x01(K\x01K\x02u."), b"n"
    ),
    "pickle-not-a-list": _payload(3, _KEYS, _pickle_column(pickle.dumps(7)), b"n"),
    "pickle-column-short": _payload(3, _KEYS, _pickle_column(pickle.dumps([1])), b"n"),
    "utf8-lengths-overrun-blob": _payload(
        2, b"b" + bytes([1, 2]), b"u" + struct.pack("<2I", 5, 5) + struct.pack("<I", 3) + b"abc", b"n"
    ),
    "trailing-bytes": _payload(3, _KEYS, b"b" + bytes([4, 5, 6]), b"n", b"\x00"),
    "empty-batch-trailing-bytes": _payload(0, b"n"),
    # All-None columns cost no bytes per record, so only a bound on the
    # header count keeps these 11 bytes from decoding into huge columns.
    "count-beyond-payload-and-sub-batch": _payload(200_000, b"n", b"n", b"n"),
    "count-uint32-max": _payload(2**32 - 1, b"n", b"n", b"n"),
}


def pytest_generate_tests(metafunc):
    """Run every test taking ``malformed_payload`` once per malformed input."""
    if "malformed_payload" in metafunc.fixturenames:
        metafunc.parametrize(
            "malformed_payload",
            list(MALFORMED_PAYLOADS.values()),
            ids=list(MALFORMED_PAYLOADS),
        )


@pytest.fixture
def sizing(monkeypatch):
    """``sizing(sub_batch=None, queue_depth=None, sweep_interval=None)``:
    shrink the write path's sizing constants for the rest of one test —
    the router's shard sub-batch, a worker inbox's capacity in messages and
    a pool's ticks between ``idle_ttl`` sweeps.  Engines built afterwards
    use the new sizes."""

    def resize(sub_batch=None, queue_depth=None, sweep_interval=None):
        for target, size in (
            ("repro.engine.engine._SUB_BATCH", sub_batch),
            ("repro.engine.executor._QUEUE_DEPTH", queue_depth),
            ("repro.engine.pool._SWEEP_INTERVAL", sweep_interval),
        ):
            if size is not None:
                monkeypatch.setattr(target, size)

    return resize


def _fleet_overrides(fleet: str, tmp_path, sizing) -> dict:
    """``ProcessEngine`` options for one column of the dispatch-path matrices.

    Every sub-batch crosses to its worker as one columnar payload; what
    varies is whether a supervised fleet journals it to a WAL first
    (``supervised-wal``, a fresh journal directory per engine), whether one
    worker owns every shard (``one-worker``), and how small the sub-batches
    are cut (``small-batch``, 3 records through the ``sizing`` fixture).
    ``columnar`` is the plain fleet.
    """
    if fleet == "supervised-wal":
        return {"supervise": True, "wal_dir": tempfile.mkdtemp(dir=tmp_path)}
    if fleet == "small-batch":
        sizing(sub_batch=3)
        return {}
    return {"columnar": {}, "one-worker": {"workers": 1}}[fleet]


@pytest.fixture
def fleet_options(tmp_path, sizing):
    """``fleet_options(fleet, sub_batch=None, queue_depth=None, **options)``:
    ``options`` with one fleet column's overrides applied (see
    :func:`_fleet_overrides`), after ``sub_batch``/``queue_depth`` are handed
    to the ``sizing`` fixture — so ``small-batch`` still cuts 3 records."""

    def options(fleet, sub_batch=None, queue_depth=None, **options):
        sizing(sub_batch=sub_batch, queue_depth=queue_depth)
        return {**options, **_fleet_overrides(fleet, tmp_path, sizing)}

    return options


@pytest.fixture
def factory(request, tmp_path, sizing):
    """Engine factory ``factory(spec, **options)`` for an indirectly
    parametrized executor column: ``"serial"``, ``"process"`` (a plain
    two-worker fleet) or ``"process-<fleet>"`` (see :func:`_fleet_overrides`)."""
    column = request.param
    if column == "serial":
        return ShardedEngine
    fleet = column.partition("-")[2] or "columnar"

    def build(spec, **options):
        return ProcessEngine(
            spec, **{"workers": 2, **options, **_fleet_overrides(fleet, tmp_path, sizing)}
        )

    return build
