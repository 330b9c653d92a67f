"""Covering decompositions and their maintenance (§3.2, Lemmas 3.4 and 3.5).

A *covering decomposition* ``ζ(a, b)`` is an ordered list of bucket structures
that together cover the index range ``[a, b]``, defined inductively
(Definition 3.1):

    ``ζ(b, b) = ⟨BS(b, b+1)⟩``
    ``ζ(a, b) = ⟨BS(a, c), ζ(c, b)⟩``   with ``c = a + 2^(⌊log(b+1-a)⌋ - 1)``

so the bucket widths shrink roughly geometrically towards the most recent
element and there are ``O(log(b - a))`` of them.  The ``Incr`` operator
extends ``ζ(a, b)`` to ``ζ(a, b+1)`` when element ``p_{b+1}`` arrives, merging
the first two buckets when the widths call for it (Lemma 3.4 proves the result
is exactly the canonical decomposition).

:class:`WindowCoverage` implements the Lemma 3.5 maintenance automaton on top:
at any time it holds either

1. ``ζ(l(t), N(t))`` — a decomposition starting exactly at the earliest active
   element, or
2. a *straddling* bucket structure ``BS(y, z)`` (whose first element is
   expired but which may contain active elements) followed by
   ``ζ(z, N(t))``, with the key invariant ``z - y <= N(t) + 1 - z`` needed by
   the implicit-event generation of §3.3.

Both states use ``O(log n(t))`` memory words.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import EmptyWindowError, StreamOrderError
from ..memory import MemoryMeter, WORD_MODEL
from ..rng import ensure_rng
from ._cascade import merge_cascade
from .bucket_structure import BucketStructure
from .serialization import require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = [
    "floor_log2",
    "canonical_boundaries",
    "estimate_active_count",
    "CoveringDecomposition",
    "WindowCoverage",
]


def estimate_active_count(coverage: "WindowCoverage", now: float) -> int:
    """Estimated number of active elements ``n(t)`` from one coverage automaton.

    Exact in case 1 of Lemma 3.5 (the decomposition starts at the earliest
    active element); in case 2 the straddling bucket holds an unknown number
    of active elements, so half its width is added — the error is at most
    half the straddler width, itself at most half the total.  Exact tracking
    is impossible in sublinear space for timestamp windows; this bound is the
    per-key weight used by the engine's merged cross-key estimates.
    """
    if now != float("-inf"):
        coverage.advance_time(now)
    if coverage.is_empty:
        return 0
    count = coverage.decomposition.covered_width
    if coverage.straddler is not None:
        count += coverage.straddler.width // 2
    return count


def floor_log2(x: int) -> int:
    """``⌊log2(x)⌋`` for a positive integer ``x``."""
    if x <= 0:
        raise ValueError("floor_log2 requires a positive integer")
    return x.bit_length() - 1


def canonical_boundaries(a: int, b: int) -> List[Tuple[int, int]]:
    """The bucket boundaries of the canonical decomposition ``ζ(a, b)``.

    Returns the list of ``(start, end)`` pairs prescribed by Definition 3.1;
    used by tests to check that ``Incr`` maintains exactly this structure
    (Lemma 3.4).
    """
    if b < a:
        raise ValueError("require a <= b")
    pairs: List[Tuple[int, int]] = []
    current = a
    while current < b:
        step = 2 ** (floor_log2(b + 1 - current) - 1)
        pairs.append((current, current + step))
        current += step
    pairs.append((b, b + 1))
    return pairs


class CoveringDecomposition:
    """A covering decomposition ``ζ(a, b)`` with its ``Incr`` operator.

    The decomposition is stored as a list of :class:`BucketStructure`, oldest
    first.  ``incr`` must be called with consecutive stream elements
    (index ``covered_end + 1``); ``Incr`` costs ``O(log(b - a))`` time.
    ``rng`` is any generator with ``getrandbits`` (the merge coins) and
    ``randrange`` (:meth:`draw_uniform`).
    """

    __slots__ = ("_rng", "_observer", "_buckets")

    def __init__(self, rng: Any, observer: Optional[CandidateObserver] = None) -> None:
        self._rng = rng
        self._observer = observer
        self._buckets: List[BucketStructure] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def fresh(
        cls,
        value: Any,
        index: int,
        timestamp: float,
        rng: Any,
        observer: Optional[CandidateObserver] = None,
    ) -> "CoveringDecomposition":
        """``ζ(index, index)``: a decomposition holding a single element."""
        decomposition = cls(rng, observer)
        decomposition._buckets = [BucketStructure.singleton(value, index, timestamp, observer)]
        return decomposition

    @classmethod
    def from_buckets(
        cls,
        buckets: List[BucketStructure],
        rng: Any,
        observer: Optional[CandidateObserver] = None,
    ) -> "CoveringDecomposition":
        """Wrap an existing (already canonical) suffix of bucket structures."""
        decomposition = cls(rng, observer)
        decomposition._buckets = list(buckets)
        return decomposition

    # -- geometry --------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._buckets

    @property
    def buckets(self) -> List[BucketStructure]:
        """The bucket structures, oldest first (read-only view)."""
        return list(self._buckets)

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def covered_start(self) -> int:
        """Index ``a`` of the first covered element."""
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        return self._buckets[0].start

    @property
    def covered_end(self) -> int:
        """Index ``b`` of the last covered element (the newest stream element)."""
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        return self._buckets[-1].end - 1

    @property
    def covered_width(self) -> int:
        """Number of covered elements, ``b + 1 - a``."""
        return self.covered_end + 1 - self.covered_start

    def boundaries(self) -> List[Tuple[int, int]]:
        return [(bucket.start, bucket.end) for bucket in self._buckets]

    # -- the Incr operator --------------------------------------------------------

    def incr(self, value: Any, index: int, timestamp: float) -> None:
        """Extend ``ζ(a, b)`` to ``ζ(a, b+1)`` with the newly arrived element.

        Follows the inductive definition: walk the list front-to-back; at each
        level either keep the leading bucket (when ``⌊log(b+2-a)⌋`` does not
        change) or merge the two leading equal-width buckets; finally append a
        singleton bucket for the new element.
        """
        if not self._buckets:
            self._buckets = [BucketStructure.singleton(value, index, timestamp, self._observer)]
            return
        expected = self.covered_end + 1
        if index != expected:
            raise StreamOrderError(f"Incr expects element index {expected}, got {index}")
        new_bucket = BucketStructure.singleton(value, index, timestamp, self._observer)
        old = self._buckets
        result: List[BucketStructure] = []
        position = 0
        last_index = old[-1].start  # the paper's b: the last bucket is BS(b, b+1)
        while True:
            remaining = len(old) - position
            if remaining == 1:
                result.append(old[position])
                result.append(new_bucket)
                break
            a = old[position].start
            if floor_log2(last_index + 2 - a) == floor_log2(last_index + 1 - a):
                result.append(old[position])
                position += 1
            else:
                merged = BucketStructure.merge(
                    old[position], old[position + 1], self._rng, self._observer
                )
                result.append(merged)
                position += 2
        self._buckets = result

    # -- splitting (used by the Lemma 3.5 automaton) ----------------------------------

    def split_at_straddler(
        self, now: float, t0: float
    ) -> Tuple[Optional[BucketStructure], List[BucketStructure], List[BucketStructure]]:
        """Locate the unique bucket whose first element is expired while the
        next bucket's first element is active.

        Returns ``(straddler, discarded_prefix, suffix)`` where ``suffix`` is
        the (still canonical) decomposition that follows the straddler.
        Requires that the first bucket's first element is expired and the last
        bucket's first element is active.
        """
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        buckets = self._buckets
        if not buckets[0].first_expired(now, t0):
            return None, [], list(buckets)
        for position in range(len(buckets) - 1):
            if buckets[position].first_expired(now, t0) and not buckets[position + 1].first_expired(
                now, t0
            ):
                return (
                    buckets[position],
                    buckets[:position],
                    buckets[position + 1 :],
                )
        raise EmptyWindowError("all covered elements are expired")

    # -- sampling ----------------------------------------------------------------------

    def draw_uniform(self, rng: Any = None) -> SampleCandidate:
        """A uniform sample of all covered elements.

        Chooses a bucket with probability proportional to its width and
        returns that bucket's ``R`` sample — uniform because each bucket's
        sample is uniform within the bucket and buckets are disjoint.
        """
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        chooser = rng if rng is not None else self._rng
        total = self.covered_width
        pick = chooser.randrange(total)
        running = 0
        for bucket in self._buckets:
            running += bucket.width
            if pick < running:
                return bucket.r_sample
        return self._buckets[-1].r_sample  # pragma: no cover - numerical safety net

    # -- bookkeeping -------------------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        for bucket in self._buckets:
            yield from bucket.iter_candidates()

    def discard_all(self) -> None:
        for bucket in self._buckets:
            bucket.discard(self._observer)
        self._buckets = []

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        for bucket in self._buckets:
            meter.add_words(bucket.memory_words())
        return meter.total

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: the bucket structures, oldest first.

        The generator is owned by the enclosing :class:`WindowCoverage` (or
        sampler) and is serialised there, not here.
        """
        return {"buckets": [bucket.state_dict() for bucket in self._buckets]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        require_state_fields(state, ("buckets",), "CoveringDecomposition")
        self._buckets = [BucketStructure.from_state_dict(encoded) for encoded in state["buckets"]]

    def is_canonical(self) -> bool:
        """Whether the stored boundaries equal Definition 3.1's (test helper)."""
        if not self._buckets:
            return True
        return self.boundaries() == canonical_boundaries(self.covered_start, self.covered_end)

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoveringDecomposition({self.boundaries() if self._buckets else []})"


class WindowCoverage:
    """The Lemma 3.5 maintenance automaton for one independent sample.

    Feeds arriving elements into a covering decomposition and tracks window
    expiry, keeping either ``ζ(l(t), N(t))`` (case 1) or a straddling bucket
    plus ``ζ(z_t, N(t))`` (case 2).  Exposes the raw material needed by the
    §3.3 sampling rule: the straddler (if any) and the suffix decomposition.
    """

    __slots__ = ("_t0", "_rng", "_observer", "_straddler", "_decomposition", "_now")

    def __init__(
        self,
        t0: float,
        rng: Any,
        observer: Optional[CandidateObserver] = None,
    ) -> None:
        if t0 <= 0:
            raise ValueError("window span t0 must be positive")
        self._t0 = float(t0)
        self._rng = ensure_rng(rng)
        self._observer = observer
        self._straddler: Optional[BucketStructure] = None
        self._decomposition = CoveringDecomposition(self._rng, observer)
        self._now = float("-inf")

    # -- state inspection -----------------------------------------------------------

    @property
    def t0(self) -> float:
        return self._t0

    @property
    def rng(self) -> Any:
        """The generator the merge coins come from (owned and snapshotted by
        the enclosing sampler)."""
        return self._rng

    @property
    def now(self) -> float:
        return self._now

    @property
    def straddler(self) -> Optional[BucketStructure]:
        return self._straddler

    @property
    def decomposition(self) -> CoveringDecomposition:
        return self._decomposition

    @property
    def is_empty(self) -> bool:
        """Whether no stored element is active (after the last refresh)."""
        return self._decomposition.is_empty

    @property
    def case(self) -> int:
        """1 or 2, matching Lemma 3.5's two states (0 when empty)."""
        if self._decomposition.is_empty:
            return 0
        return 2 if self._straddler is not None else 1

    def _expired(self, timestamp: float) -> bool:
        return self._now - timestamp >= self._t0

    # -- clock and ingestion ------------------------------------------------------------

    def advance_time(self, now: float) -> None:
        """Move the clock forward and apply the Lemma 3.5 expiry transitions."""
        if now < self._now:
            raise StreamOrderError(f"clock moved backwards: {now} < {self._now}")
        self._now = float(now)
        self._refresh()

    def observe(self, value: Any, index: int, timestamp: float) -> None:
        """Process the arrival of element ``p_index``.

        The element's timestamp advances the clock if it is ahead of it.  An
        element that is already expired on arrival (possible only in the
        delayed feeds of §4, and only while the coverage is empty) is skipped,
        exactly as prescribed by Lemma 4.1.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        self._refresh()
        if self._expired(timestamp):
            # Lemma 4.1: skip already-expired (delayed) elements; they can only
            # occur while no active element is stored.
            return
        if self._decomposition.is_empty:
            self._decomposition = CoveringDecomposition.fresh(
                value, index, timestamp, self._rng, self._observer
            )
        else:
            self._decomposition.incr(value, index, timestamp)

    def observe_batch(
        self,
        values: Sequence[Any],
        base_index: int,
        stamps: Sequence[float],
        clocks: Optional[Sequence[float]] = None,
    ) -> None:
        """Process a whole chunk of arrivals: element ``p`` has stream index
        ``base_index + p`` and timestamp ``stamps[p]``; ``clocks[p]`` (default
        ``stamps[p]``) is the clock value advanced *before* observing it — the
        delayed feeds of §4 observe old elements at the current arrival time.

        Semantically this is exactly ``advance_time(clocks[p])`` followed by
        ``observe(values[p], base_index + p, stamps[p])`` for every ``p``, but
        the per-element costs are amortised across the chunk:

        * **batched expiry** — the Lemma 3.5 transition can only fire once the
          clock passes the front bucket's first timestamp plus ``t0``, so the
          chunk pays one cached-threshold comparison per element and a full
          expiry scan only when the threshold is actually crossed (one scan
          per transition, not one per arrival);
        * **in-place ``Incr``** — the merge cascade mutates the bucket list
          directly instead of rebuilding it, and the "did ``⌊log(b+2-a)⌋``
          step?" test collapses to a single power-of-two bit trick per bucket;
        * observer/attribute lookups are hoisted out of the loop.

        The generator is consumed exactly as the per-element path consumes it
        (two coins per merge, in cascade order), so the resulting state —
        buckets, straddler, clock *and* generator position — is
        bit-identical.  A fresh singleton's R and Q share one candidate record
        here (they are deterministically the same element, and no observer
        keeps state on them).

        Observer-carrying coverages fall back to the per-element path so the
        selection/discard callbacks keep firing.
        """
        count = len(values)
        if count == 0:
            return
        if self._observer is not None:
            clock_track = stamps if clocks is None else clocks
            for position in range(count):
                self.advance_time(clock_track[position])
                self.observe(values[position], base_index + position, stamps[position])
            return
        t0 = self._t0
        now = self._now
        getrandbits = self._rng.getrandbits
        new_bucket = BucketStructure.__new__
        bucket_cls = BucketStructure
        candidate_cls = SampleCandidate
        buckets = self._decomposition._buckets
        # Cached expiry threshold: no Lemma 3.5 transition can fire while
        # ``now - front_first_ts < t0`` (the exact per-element comparison, so
        # float rounding matches the reference path bit for bit).
        front_ts = buckets[0].first_timestamp if buckets else math.inf
        for position in range(count):
            ts = stamps[position]
            clock = ts if clocks is None else clocks[position]
            if clock > now:
                now = clock
            if now - front_ts >= t0:
                # Threshold crossed: run the full Lemma 3.5 transition (which
                # may re-anchor on a straddler or empty the decomposition),
                # then re-cache the bucket list and threshold.
                self._now = now
                self._refresh()
                buckets = self._decomposition._buckets
                front_ts = buckets[0].first_timestamp if buckets else math.inf
            if now - ts >= t0:
                # Lemma 4.1: a delayed element already expired on arrival is
                # skipped (only possible while nothing active is stored).
                continue
            value = values[position]
            index = base_index + position
            if buckets:
                # In-place Incr (Lemma 3.4).  The walk merges exactly where
                # ``⌊log(b+2-a)⌋`` steps — where ``b+2-a`` is a power of two —
                # and in a canonical decomposition those positions always form
                # a stride-2 run ending at the third-from-last bucket (pinned
                # exhaustively against the reference walk in
                # tests/test_covering_decomposition.py).  One O(1) probe of
                # that bucket therefore decides whether this arrival merges at
                # all; most arrivals reduce to a plain append.  ``b`` is the
                # previous newest index, so ``b + 1 == index``.
                n = len(buckets)
                if n >= 3 and buckets[n - 3].start == index - 3:
                    # Delegate the cascade itself to repro.core._cascade
                    # (optionally mypyc-compiled); it takes the same coins
                    # as the per-element walk.
                    merge_cascade(buckets, index, getrandbits)
            else:
                front_ts = ts
            # Append the new singleton BS(index, index+1), inlined (this runs
            # once per active arrival — the hottest allocation in the path).
            # R and Q share one record (no observer keeps state on them).
            appended = new_bucket(bucket_cls)
            appended.start = index
            appended.end = index + 1
            appended.first_value = value
            appended.first_timestamp = ts
            appended.r_sample = appended.q_sample = candidate_cls(value, index, ts)
            buckets.append(appended)
        self._now = now

    # -- the Lemma 3.5 transitions ----------------------------------------------------------

    def _refresh(self) -> None:
        if self._decomposition.is_empty:
            return
        newest_first_timestamp = self._decomposition.buckets[-1].first_timestamp
        if self._expired(newest_first_timestamp):
            # Cases 2(b)/3(b): even the most recent element expired — the
            # window is empty; drop everything and start afresh later.
            if self._straddler is not None:
                self._straddler.discard(self._observer)
                self._straddler = None
            self._decomposition.discard_all()
            return
        first_bucket = self._decomposition.buckets[0]
        if not first_bucket.first_expired(self._now, self._t0):
            # Cases 2(a)/3(a): nothing expired at the front; state unchanged.
            return
        # Cases 2(c)/3(c): the front of the decomposition expired but the
        # newest element is active — re-anchor on the straddling bucket.
        straddler, discarded, suffix = self._decomposition.split_at_straddler(self._now, self._t0)
        if self._straddler is not None:
            self._straddler.discard(self._observer)
        for bucket in discarded:
            bucket.discard(self._observer)
        self._straddler = straddler
        self._decomposition = CoveringDecomposition.from_buckets(suffix, self._rng, self._observer)
        self._check_invariant()

    def _check_invariant(self) -> None:
        """Case-2 invariant ``z - y <= N + 1 - z`` (needed by Lemma 3.8)."""
        if self._straddler is None or self._decomposition.is_empty:
            return
        alpha = self._straddler.width
        beta = self._decomposition.covered_end + 1 - self._decomposition.covered_start
        if alpha > beta:  # pragma: no cover - would indicate a logic error
            raise AssertionError(
                f"covering invariant violated: straddler width {alpha} > suffix width {beta}"
            )

    # -- sampling ---------------------------------------------------------------------------------

    def draw_sample(self, rng: Any = None) -> SampleCandidate:
        """A uniform sample of the currently active elements (Theorem 3.9's rule).

        In case 1 the decomposition covers exactly the active elements, so a
        width-weighted choice among bucket ``R`` samples is uniform.  In case 2
        the straddling bucket is combined with the covered suffix through the
        implicit-event machinery of §3.3 (Lemma 3.8).
        """
        from .implicit_events import combine_straddler_and_suffix

        if self._decomposition.is_empty:
            raise EmptyWindowError("no active element in the window")
        chooser = rng if rng is not None else self._rng
        if self._straddler is None:
            return self._decomposition.draw_uniform(chooser)
        suffix_width = self._decomposition.covered_width
        return combine_straddler_and_suffix(
            self._straddler,
            suffix_width,
            lambda: self._decomposition.draw_uniform(chooser),
            now=self._now,
            t0=self._t0,
            rng=chooser,
        )

    # -- bookkeeping ------------------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: clock, straddler, suffix decomposition.  The generator
        belongs to the enclosing sampler, which snapshots it."""
        return {
            "now": self._now,
            "straddler": None if self._straddler is None else self._straddler.state_dict(),
            "decomposition": self._decomposition.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        require_state_fields(state, ("now", "straddler", "decomposition"), "WindowCoverage")
        self._now = float(state["now"])
        self._straddler = (
            None if state["straddler"] is None else BucketStructure.from_state_dict(state["straddler"])
        )
        self._decomposition = CoveringDecomposition(self._rng, self._observer)
        self._decomposition.load_state_dict(state["decomposition"])

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        if self._straddler is not None:
            yield from self._straddler.iter_candidates()
        yield from self._decomposition.iter_candidates()

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants()  # t0
        meter.add_timestamps()  # the clock
        if self._straddler is not None:
            meter.add_words(self._straddler.memory_words())
        meter.add_words(self._decomposition.memory_words())
        return meter.total
