"""Mergeable metrics primitives behind a registry, with a true no-op mode.

The engine fleet (serial shards and worker processes) reports
into :class:`MetricsRegistry` instances.  Three primitives cover everything
the engine needs:

* :class:`Counter` — monotone totals (records ingested, evictions, stall
  seconds).  ``inc`` accepts floats so stage-duration accumulators and event
  counts share one type.
* :class:`Gauge` — point-in-time values (``set``/``inc``/``dec``), plus
  *callback* gauges registered via
  :meth:`MetricsRegistry.register_callback`: the callable is only evaluated
  at :meth:`MetricsRegistry.snapshot` time, so live values such as active
  keys or queue depth cost nothing on the ingest path.
* :class:`Histogram` — fixed upper-bound buckets (``bisect`` placement,
  inclusive ``le`` semantics matching Prometheus), a running sum, and a
  count.  Fixed buckets keep histograms mergeable across processes.

Two design rules keep the observability layer honest:

1. **Disabled means free.**  The module-level default registry is
   :data:`NULL_REGISTRY`; its instruments are shared no-op singletons, so
   uninstrumented runs never branch, lock, or allocate for metrics.  Code
   that must pay a real cost to *produce* a measurement (``perf_counter``
   calls around a chunk) checks ``registry.enabled`` first; plain ``inc``
   calls go through unconditionally because a no-op method call is cheaper
   than the branch that would guard it.
2. **Snapshots merge.**  :func:`merge_snapshots` sums counters and gauges
   and merges histograms bucket-wise, so per-worker registries shipped over
   the request/reply protocol collapse into one fleet-wide snapshot.

Everything here is stdlib-only and import-safe from worker processes.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "merge_snapshots",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
]

#: Default histogram bounds, in seconds: 100µs .. 10s.  Wide enough for both
#: per-chunk ingest latencies and whole-checkpoint writes.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing total.  ``inc`` accepts ints or floats."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value: float = 0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value: float = 0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive) semantics.

    ``counts`` has ``len(bounds) + 1`` cells; the final cell is the implicit
    ``+Inf`` bucket.  Counts are per-bucket (non-cumulative) internally;
    exposition cumulates them.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "_lock")

    def __init__(
        self, name: str, bounds: Sequence[float], lock: threading.Lock
    ) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or any(later <= earlier for later, earlier in zip(ordered[1:], ordered)):
            raise ValueError(
                f"histogram {name!r} bounds must be non-empty and strictly "
                f"increasing, got {bounds!r}"
            )
        self.name = name
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class _NullInstrument:
    """One shared do-nothing stand-in for all three instrument kinds."""

    __slots__ = ()

    name = ""
    value: float = 0
    bounds: Tuple[float, ...] = ()
    counts: Tuple[int, ...] = ()
    sum: float = 0.0
    count: int = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


def _empty_snapshot() -> Dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


class MetricsRegistry:
    """A named collection of instruments plus snapshot/merge plumbing.

    Instruments are created lazily and cached by name, so call sites can
    hold direct references (one dict lookup at setup, zero at use).  All
    instruments of a registry share one lock: mutations happen at batch or
    chunk granularity, so contention is negligible and cross-instrument
    snapshots are internally consistent.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._callbacks: Dict[str, List[Callable[[], float]]] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_unused(name, self._counters)
                instrument = self._counters[name] = Counter(name, self._lock)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_unused(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name, self._lock)
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_unused(name, self._histograms)
                instrument = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_LATENCY_BUCKETS, self._lock
                )
            elif buckets is not None and tuple(map(float, buckets)) != instrument.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{instrument.bounds!r}"
                )
        return instrument

    def register_callback(self, name: str, callback: Callable[[], float]) -> None:
        """Register a live-value source summed into gauge ``name`` at
        snapshot time.  Multiple callbacks per name add up (e.g. one
        per-shard pool each reporting its own active-key count)."""
        with self._lock:
            if name in self._counters or name in self._histograms:
                raise ValueError(f"{name!r} is already a non-gauge instrument")
            self._callbacks.setdefault(name, []).append(callback)

    def _check_unused(self, name: str, owner: Dict[str, Any]) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not owner and name in table:
                raise ValueError(f"{name!r} is already a different instrument kind")

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of every instrument: JSON-safe and mergeable."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {
                name: {
                    "buckets": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in self._histograms.items()
            }
            callbacks = [
                (name, list(fns)) for name, fns in self._callbacks.items()
            ]
        # Callbacks run outside the lock: they may touch engine structures
        # with locks of their own, and a broken one must not poison the rest.
        for name, fns in callbacks:
            total = gauges.get(name, 0)
            for fn in fns:
                try:
                    total += fn()
                except Exception:
                    continue
            gauges[name] = total
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class NullRegistry:
    """The disabled registry: shared no-op instruments, empty snapshots."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def register_callback(self, name: str, callback: Callable[[], float]) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return _empty_snapshot()


NULL_REGISTRY = NullRegistry()


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-worker snapshots into one fleet-wide snapshot.

    Counters and gauges sum (gauges in this codebase are extensive
    quantities — key counts, queue depths — so addition is the right
    fold).  Histograms merge bucket-wise and require identical bounds;
    mismatched bounds raise ``ValueError`` rather than silently skewing
    the distribution.
    """
    merged = _empty_snapshot()
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = merged["gauges"].get(name, 0) + value
        for name, data in snapshot.get("histograms", {}).items():
            existing = merged["histograms"].get(name)
            if existing is None:
                merged["histograms"][name] = {
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                }
                continue
            if existing["buckets"] != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ across snapshots"
                )
            existing["counts"] = [
                a + b for a, b in zip(existing["counts"], data["counts"])
            ]
            existing["sum"] += data["sum"]
            existing["count"] += data["count"]
    return merged


_default_registry: Any = NULL_REGISTRY
_default_lock = threading.Lock()


def get_registry() -> Any:
    """The process-wide default registry (``NULL_REGISTRY`` until enabled)."""
    return _default_registry


def set_registry(registry: Optional[Any]) -> Any:
    """Install ``registry`` as the process-wide default (``None`` disables)."""
    global _default_registry
    with _default_lock:
        _default_registry = registry if registry is not None else NULL_REGISTRY
        return _default_registry


def enable(registry: Optional[MetricsRegistry] = None) -> Any:
    """Switch the default registry on; returns the active registry."""
    return set_registry(registry if registry is not None else MetricsRegistry())


def disable() -> None:
    """Reinstall the no-op default registry."""
    set_registry(NULL_REGISTRY)
