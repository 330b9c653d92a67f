"""The k lanes of a timestamp-window k-sample over one covering geometry.

Theorem 3.9 builds its k-sample from k independent copies of the Lemma 3.5
automaton (:class:`~repro.core.covering.WindowCoverage`).  The copies' bucket
boundaries (Lemma 3.4) and expiry transitions depend only on arrival indexes
and timestamps, never on the coins: only each bucket's ``R`` and ``Q``
samples differ between copies.  :class:`SharedCoverage` is the k copies as
one automaton.  It stores each bucket's geometry once, with the k copies'
samples beside it, in one flat list: bucket ``j`` fills slots
``[j·S, (j+1)·S)`` with ``S = 4 + 2k``::

    start, end, first value, first timestamp, R_0 .. R_(k-1), Q_0 .. Q_(k-1)

The straddler of case 2 is one such row of its own (``None`` in case 1).
An arrival runs one ``Incr`` probe, one expiry check and one cascade walk
whatever ``k`` is, and without an observer it appends one candidate record,
held in all 2k sample slots of its singleton row.

Lane ``i`` still takes its merge coins from its own generator, in the order
its own automaton would: a cascade of ``m`` merges takes
``getrandbits(2m)`` once per lane, and bit ``2j`` (R) and ``2j + 1`` (Q)
decide merge ``j`` (a set bit keeps the left sample).  On a
:class:`~repro.rng.LaneRng` those are exactly the bits of ``m`` calls of
``getrandbits(2)``, so samples, generator positions and snapshots equal those
of k separate automata.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, EmptyWindowError
from ..memory import MemoryMeter, WORD_MODEL
from .bucket_structure import BucketStructure
from .covering import canonical_boundaries
from .implicit_events import combine_straddler_and_suffix
from .serialization import decode_candidate, encode_candidate, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["SharedCoverage", "merge_run"]

_BUCKET_FIELDS = ("start", "end", "first_value", "first_timestamp", "r_sample", "q_sample")


def merge_run(
    flat: List[Any], index: int, rngs: Sequence[Any], observer: Optional[CandidateObserver]
) -> None:
    """The ``Incr`` merge cascade for arrival ``index``, in place, on every lane.

    The caller has probed that the third-from-last bucket starts at
    ``index - 3``, so the run is non-empty.  Its front is found as in
    :func:`~repro.core._cascade.merge_cascade`: merges happen where
    ``index + 1 - start`` is a power of two, at stride 2.  Each merged
    bucket's geometry is written once; then each lane takes its coins in one
    draw and picks its R and Q samples, reporting the losers to ``observer``
    (R's, then Q's) merge by merge.  Both passes write row ``first + j``
    after reading rows ``first + 2j`` and ``first + 2j + 1``, so walking
    ``j`` upwards never reads a slot it has overwritten.  ``rngs`` are
    :class:`~repro.rng.LaneRng` streams: their coin words are read directly.
    """
    k = len(rngs)
    width = 4 + 2 * k
    step = 2 * width
    newest = len(flat) - width
    base = newest - step
    while base >= step:
        gap = index + 1 - flat[base - step]
        if gap & (gap - 1):
            break
        base -= step
    merges = (newest - base) // step
    bits = 2 * merges
    # Geometry: a merged bucket keeps its left half's start, first value and
    # first timestamp, and takes its right half's end.
    flat[base + 1] = flat[base + width + 1]
    if merges > 1:
        write = base + width
        for read in range(base + step, newest, step):
            flat[write] = flat[read]
            flat[write + 1] = flat[read + width + 1]
            flat[write + 2] = flat[read + 2]
            flat[write + 3] = flat[read + 3]
            write += width
    column = base + 4
    for rng in rngs:
        # LaneRng.getrandbits(bits), its in-word case inlined: the cascade is
        # the hottest caller, and the bits above ``bits`` are never read.
        cursor = rng._cursor
        if cursor + bits <= 64:
            rng._cursor = cursor + bits
            coins = rng._word >> cursor
        else:
            coins = rng.getrandbits(bits)
        if observer is None:
            # Merge 0 writes over its own left half: only a right pick moves.
            if not coins & 1:
                flat[column] = flat[column + width]
            if not coins & 2:
                flat[column + k] = flat[column + width + k]
            if merges > 1:
                write = column + width
                for read in range(column + step, newest, step):
                    coins >>= 2
                    flat[write] = flat[read] if coins & 1 else flat[read + width]
                    flat[write + k] = flat[read + k] if coins & 2 else flat[read + width + k]
                    write += width
        else:
            write = column
            for read in range(column, newest, step):
                keep, lose = (read, read + width) if coins & 1 else (read + width, read)
                flat[write] = flat[keep]
                observer.on_discard(flat[lose])
                keep, lose = (read + k, read + width + k) if coins & 2 else (read + width + k, read + k)
                flat[write + k] = flat[keep]
                observer.on_discard(flat[lose])
                coins >>= 2
                write += width
        column += 1
    # The newest bucket moves up behind the merged run.
    flat[base + merges * width :] = flat[newest:]


def _row_dict(row: List[Any], r_sample: Any, q_sample: Any = None) -> Dict[str, Any]:
    """One lane's :meth:`BucketStructure.state_dict` of a bucket row, given
    its encoded R and Q samples (one record stands for both if ``q_sample``
    is omitted)."""
    return {
        "start": row[0],
        "end": row[1],
        "first_value": row[2],
        "first_timestamp": row[3],
        "r_sample": r_sample,
        "q_sample": r_sample if q_sample is None else q_sample,
    }


class SharedCoverage:
    """The Lemma 3.5 automata of k independent samples, sharing one geometry.

    Holds the flat bucket list of the covered suffix ``ζ(z, N(t))`` (see the
    module docstring for its layout), the straddling row or ``None``, the
    clock, ``t0``, the k lanes' :class:`~repro.rng.LaneRng` streams and an
    optional observer.  Lane
    ``i`` is the automaton ``WindowCoverage(t0, rngs[i])`` would be: the same
    buckets, the same samples, the same generator position.
    """

    __slots__ = ("_t0", "_now", "_rngs", "_flat", "_straddler", "_observer")

    def __init__(
        self, t0: float, rngs: Sequence[Any], observer: Optional[CandidateObserver] = None
    ) -> None:
        self._t0 = float(t0)
        self._now = float("-inf")
        self._rngs = tuple(rngs)
        self._flat: List[Any] = []
        self._straddler: Optional[List[Any]] = None
        self._observer = observer

    # -- geometry --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def rngs(self) -> Tuple[Any, ...]:
        """The lanes' generators, lane ``i`` at position ``i``."""
        return self._rngs

    @property
    def is_empty(self) -> bool:
        return not self._flat

    def _width(self) -> int:
        return 4 + 2 * len(self._rngs)

    @property
    def bucket_count(self) -> int:
        return len(self._flat) // self._width()

    @property
    def covered_width(self) -> int:
        """Number of elements the suffix decomposition covers."""
        flat = self._flat
        if not flat:
            raise EmptyWindowError("decomposition is empty")
        return flat[1 - self._width()] - flat[0]

    @property
    def straddler_bounds(self) -> Optional[Tuple[int, int]]:
        """``(start, end)`` of the straddling bucket, or ``None`` (case 1)."""
        row = self._straddler
        return None if row is None else (row[0], row[1])

    def boundaries(self) -> List[Tuple[int, int]]:
        flat = self._flat
        return [(flat[base], flat[base + 1]) for base in range(0, len(flat), self._width())]

    def is_canonical(self) -> bool:
        """Whether the stored boundaries equal Definition 3.1's (test helper)."""
        pairs = self.boundaries()
        return not pairs or pairs == canonical_boundaries(pairs[0][0], pairs[-1][1] - 1)

    # -- clock and ingestion ---------------------------------------------------

    def advance_time(self, now: float) -> None:
        """Move the clock to ``now`` and apply the Lemma 3.5 transitions."""
        self._now = float(now)
        self._refresh()

    def observe_batch(self, values: Sequence[Any], stamps: Sequence[float], start: int) -> None:
        """Observer-free arrivals: ``values[p]`` is element ``start + p`` at
        timestamp ``stamps[p]`` (a float, non-decreasing from the clock, so
        no arrival is expired on arrival: Lemma 4.1's skip is ts-WOR's).

        Per element: the clock moves, a cached threshold comparison decides
        whether an expiry transition can fire (the full scan runs only when
        it does), the ``Incr`` probe ``flat[(n-3)·S] == index - 3`` decides
        whether the arrival merges, and the singleton row is appended with
        one candidate record in all of its sample slots.
        """
        flat = self._flat
        rngs = self._rngs
        tail = 2 * len(rngs)
        probe = 3 * (4 + tail)
        t0 = self._t0
        now = self._now
        front_ts = flat[3] if flat else math.inf
        candidate_cls = SampleCandidate
        index = start
        for value, ts in zip(values, stamps):
            if ts > now:
                now = ts
            if now - front_ts >= t0:
                # Threshold crossed: run the Lemma 3.5 transition (it edits
                # ``flat`` in place), then re-cache the threshold.
                self._now = now
                self._refresh()
                front_ts = flat[3] if flat else math.inf
            size = len(flat)
            if not size:
                front_ts = ts
            elif size >= probe and flat[size - probe] == index - 3:
                merge_run(flat, index, rngs, None)
            flat += (index, index + 1, value, ts)
            flat += [candidate_cls(value, index, ts)] * tail
            index += 1
        self._now = now

    def observe(self, value: Any, index: int, timestamp: float) -> None:
        """One arrival with an observer: each lane gets its own R and Q
        records (the observer keeps per-record state and is told of both
        selections), and the merges report their losers."""
        observer = self._observer
        if timestamp > self._now:
            self._now = float(timestamp)
        self._refresh()
        flat = self._flat
        k = len(self._rngs)
        records = [SampleCandidate(value, index, timestamp) for _ in range(2 * k)]
        for lane in range(k):
            observer.on_select(records[lane])
            observer.on_select(records[k + lane])
        size = len(flat)
        probe = 3 * (4 + 2 * k)
        if size >= probe and flat[size - probe] == index - 3:
            merge_run(flat, index, self._rngs, observer)
        flat += (index, index + 1, value, timestamp)
        flat += records

    # -- the Lemma 3.5 transitions ---------------------------------------------

    def _refresh(self) -> None:
        flat = self._flat
        if not flat:
            return
        now = self._now
        t0 = self._t0
        width = self._width()
        if now - flat[3 - width] >= t0:
            # Cases 2(b)/3(b): even the newest element expired — the window
            # is empty; drop everything and start afresh later.
            self._discard(self._straddler, flat)
            self._straddler = None
            del flat[:]
            return
        if not now - flat[3] >= t0:
            # Cases 2(a)/3(a): nothing expired at the front.
            return
        # Cases 2(c)/3(c): re-anchor on the straddler — the last bucket whose
        # first element expired (the newest one is active, so one exists) —
        # and keep the suffix after it.
        base = 0
        while now - flat[base + width + 3] >= t0:
            base += width
        self._discard(self._straddler, flat[:base])
        self._straddler = flat[base : base + width]
        del flat[: base + width]

    def _discard(self, straddler: Optional[List[Any]], rows: List[Any]) -> None:
        """Report dropped rows' samples to the observer, lane by lane (each
        lane's straddler first, then its buckets, R before Q)."""
        observer = self._observer
        if observer is None:
            return
        k = len(self._rngs)
        width = 4 + 2 * k
        for lane in range(k):
            for row in (straddler or (), rows):
                for base in range(0, len(row), width):
                    observer.on_discard(row[base + 4 + lane])
                    observer.on_discard(row[base + 4 + k + lane])

    # -- sampling --------------------------------------------------------------

    def draw_sample(self, lane: int, rng: Any) -> SampleCandidate:
        """Lane ``lane``'s uniform sample of the active elements (Theorem
        3.9's rule): in case 1 a width-weighted pick among the buckets' R
        samples; in case 2 the straddler is combined with the suffix through
        the implicit events of §3.3 (Lemma 3.8)."""
        if not self._flat:
            raise EmptyWindowError("no active element in the window")
        row = self._straddler
        if row is None:
            return self._draw_uniform(lane, rng)
        k = len(self._rngs)
        return combine_straddler_and_suffix(
            BucketStructure(*row[:4], row[4 + lane], row[4 + k + lane]),
            self.covered_width,
            lambda: self._draw_uniform(lane, rng),
            now=self._now,
            t0=self._t0,
            rng=rng,
        )

    def _draw_uniform(self, lane: int, rng: Any) -> SampleCandidate:
        """Pick a suffix bucket with probability proportional to its width and
        return lane ``lane``'s R sample of it."""
        flat = self._flat
        width = self._width()
        target = flat[0] + rng.randrange(self.covered_width)
        for base in range(0, len(flat), width):
            if target < flat[base + 1]:
                return flat[base + 4 + lane]
        return flat[4 + lane - width]  # pragma: no cover - numerical safety net

    # -- bookkeeping -----------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        """Every retained record, lane by lane: the straddler's R and Q, then
        each bucket's."""
        k = len(self._rngs)
        width = 4 + 2 * k
        straddler = self._straddler or ()
        flat = self._flat
        for lane in range(k):
            for row in (straddler, flat):
                for base in range(4 + lane, len(row), width):
                    yield row[base]
                    yield row[base + k]

    def memory_words(self) -> int:
        """Per bucket (the straddler included): the geometry once — first
        element, two indexes, one timestamp — plus k R and k Q samples of
        three words each."""
        rows = self.bucket_count + (self._straddler is not None)
        samples = 2 * len(self._rngs) * rows
        meter = MemoryMeter(WORD_MODEL)
        meter.add_elements(rows).add_indexes(2 * rows).add_timestamps(rows)
        meter.add_elements(samples).add_indexes(samples).add_timestamps(samples)
        return meter.total

    # -- snapshots -------------------------------------------------------------

    def lane_states(self, memo: Dict[int, Any]) -> List[Dict[str, Any]]:
        """Each lane's snapshot, in :meth:`WindowCoverage.state_dict`'s form:
        ``{"now", "straddler", "decomposition": {"buckets"}}``.

        A width-1 row whose 2k slots hold one record is the singleton k
        separate automata would share, so it is encoded once and the same
        dict serves every lane; other rows get one dict per lane.  Records
        go through ``memo`` (:mod:`.serialization`), so each is encoded once.
        """
        k = len(self._rngs)
        width = 4 + 2 * k
        flat = self._flat
        rows = [flat[base : base + width] for base in range(0, len(flat), width)]
        straddler = self._straddler
        if straddler is not None:
            rows.insert(0, straddler)
        shared = [
            _row_dict(row, encode_candidate(row[4], memo))
            if row[1] - row[0] == 1 and all(slot is row[4] for slot in row[5:])
            else None
            for row in rows
        ]
        lanes = []
        for lane in range(k):
            encoded = [
                done
                if done is not None
                else _row_dict(
                    row,
                    encode_candidate(row[4 + lane], memo),
                    encode_candidate(row[4 + k + lane], memo),
                )
                for row, done in zip(rows, shared)
            ]
            lanes.append(
                {
                    "now": self._now,
                    "straddler": None if straddler is None else encoded[0],
                    "decomposition": {"buckets": encoded if straddler is None else encoded[1:]},
                }
            )
        return lanes

    def load_lane_states(self, lanes: Sequence[Any], now: float, memo: Dict[int, Any]) -> None:
        """Fuse k :meth:`lane_states` snapshots back into one automaton.

        The lanes must agree with each other and with the sampler's clock
        ``now`` on everything that is not a coin: the clock, whether a
        straddler is present, the bucket count and every bucket's start, end
        and first timestamp.  A snapshot whose lanes disagree is refused with
        :class:`~repro.exceptions.ConfigurationError`.
        """
        k = len(self._rngs)
        if len(lanes) != k:
            raise ConfigurationError(f"snapshot has {len(lanes)} coverages, sampler has {k}")
        straddlers = []
        suffixes = []
        for state in lanes:
            require_state_fields(state, ("now", "straddler", "decomposition"), "WindowCoverage")
            require_state_fields(state["decomposition"], ("buckets",), "CoveringDecomposition")
            if float(state["now"]) != now:
                raise ConfigurationError(
                    f"snapshot lanes disagree on the clock: {state['now']!r} != {now!r}"
                )
            straddlers.append(state["straddler"])
            suffixes.append(state["decomposition"]["buckets"])
        if any((row is None) != (straddlers[0] is None) for row in straddlers):
            raise ConfigurationError("snapshot lanes disagree on the straddler's presence")
        if any(len(rows) != len(suffixes[0]) for rows in suffixes):
            raise ConfigurationError("snapshot lanes disagree on the bucket count")
        straddler = None
        if straddlers[0] is not None:
            straddler = self._fuse_rows([[row] for row in straddlers], memo)
        self._flat = self._fuse_rows(suffixes, memo)
        self._straddler = straddler
        self._now = now

    def _fuse_rows(self, lanes: Sequence[Sequence[Any]], memo: Dict[int, Any]) -> List[Any]:
        """One flat list from the lanes' equally long encoded bucket lists."""
        k = len(lanes)
        width = 4 + 2 * k
        flat: List[Any] = [None] * (len(lanes[0]) * width)
        for lane, rows in enumerate(lanes):
            base = 0
            for encoded in rows:
                if lane == 0 or encoded is not lanes[0][base // width]:
                    require_state_fields(encoded, _BUCKET_FIELDS, "BucketStructure")
                    geometry = (
                        int(encoded["start"]),
                        int(encoded["end"]),
                        float(encoded["first_timestamp"]),
                    )
                    if lane == 0:
                        if geometry[1] <= geometry[0]:
                            raise ConfigurationError(
                                f"snapshot bucket must be non-empty: {geometry[:2]}"
                            )
                        flat[base] = geometry[0]
                        flat[base + 1] = geometry[1]
                        flat[base + 2] = encoded["first_value"]
                        flat[base + 3] = geometry[2]
                    elif geometry != (flat[base], flat[base + 1], flat[base + 3]):
                        raise ConfigurationError(
                            "snapshot lanes disagree on bucket boundaries:"
                            f" lane {lane} has {geometry}, lane 0"
                            f" {(flat[base], flat[base + 1], flat[base + 3])}"
                        )
                flat[base + 4 + lane] = decode_candidate(encoded["r_sample"], memo)
                flat[base + 4 + k + lane] = decode_candidate(encoded["q_sample"], memo)
                base += width
        return flat

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedCoverage(k={len(self._rngs)}, buckets={self.boundaries()})"
