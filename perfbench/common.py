"""Small helpers shared by the benchmark's runners."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass
class Result:
    """What one run measured, plus what the traced replay needs from it."""

    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    setup_times: List[float] = field(default_factory=list)
    checkpoint_times: List[float] = field(default_factory=list)
    restore_times: List[float] = field(default_factory=list)
    query_samples: int = 0
    records: int = 0
    #: Seconds spent inside the timed phase's ingest and query calls.
    wall: float = 0.0
    #: Timed-phase ingest batches sent.
    consumed: int = 0
    checkpoint_dir: Optional[str] = None
    segments_written: int = 0
    seed: int = 0


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of ``values`` without the lowest and the highest (given three or
    more).  Steadier than a median over a few samples of a host whose speed
    wanders: a median picks one sample, this averages the middle ones."""
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def rss_bytes(pids: Iterable[int]) -> int:
    """Summed resident set size of ``pids``."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as handle:
            total += int(handle.read().split()[1]) * page
    return total


def cpu_times() -> List[int]:
    """The host's cumulative CPU time counters (``/proc/stat``), in ticks:
    user, nice, system, idle, iowait, irq, softirq, steal, ..."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_times` readings."""
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / max(1, sum(deltas))


def directory_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total
