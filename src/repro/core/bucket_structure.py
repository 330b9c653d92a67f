"""Bucket structures — the unit of the covering decomposition (§3.1).

A bucket ``B(x, y)`` is the set of stream elements with indexes in
``[x, y-1]``.  A *bucket structure* ``BS(x, y)`` is the constant-size summary
the timestamp algorithms keep for such a bucket:

    ``{p_x, x, y, T(p_x), R_{x,y}, Q_{x,y}, r, q}``

i.e. the bucket's first element and timestamp, its boundaries, and two
independent uniform random samples ``R`` and ``Q`` of the bucket together with
the indexes of the picked elements.  ``R`` is used to build the output sample
(Lemma 3.8); ``Q`` fuels the implicit-event generation (Lemmas 3.6–3.7);
keeping them independent is what makes the final combination uniform.

Two bucket structures of equal width can be *merged* (used by the ``Incr``
operator): the merged sample is either constituent's sample with probability
1/2, which is again uniform because the widths are equal.  The two fair coins
of a merge (R first, then Q; a set bit keeps the left sample) are the next
two bits of the generator's coin stream, ``getrandbits(2)``.

A bucket structure is never mutated after construction: ``Incr`` replaces
merged buckets with new ones.  That is what lets the observer-free ts-WOR
sampler build each arrival's singleton once and hand the same object to all
``k`` of its delayed covering automata (:func:`build_singletons`).  ts-WR
keeps no bucket structures: its k lanes share one geometry and store their
samples as columns of a flat list (:mod:`repro.core.shared_coverage`), and
it builds a structure only as a read-time view of its straddler.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..memory import MemoryMeter, WORD_MODEL
from .serialization import decode_candidate, encode_candidate, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["BucketStructure", "SINGLETON_CHUNK", "build_singletons"]

#: Arrivals whose shared singletons ts-WOR builds at a time.  Its delayed
#: copies consume a chunk copy-major (each draws only from its own stream,
#: so the order across copies is free), and a long batch never holds all of
#: its singletons at once.
SINGLETON_CHUNK = 256


class BucketStructure:
    """The summary ``BS(start, end)`` of bucket ``B(start, end)`` (elements
    ``start .. end-1``)."""

    __slots__ = ("start", "end", "first_value", "first_timestamp", "r_sample", "q_sample")

    def __init__(
        self,
        start: int,
        end: int,
        first_value: Any,
        first_timestamp: float,
        r_sample: SampleCandidate,
        q_sample: SampleCandidate,
    ) -> None:
        if end <= start:
            raise ValueError(f"bucket must be non-empty: start={start}, end={end}")
        self.start = int(start)
        self.end = int(end)
        self.first_value = first_value
        self.first_timestamp = float(first_timestamp)
        self.r_sample = r_sample
        self.q_sample = q_sample

    # -- constructors --------------------------------------------------------

    @classmethod
    def singleton(
        cls,
        value: Any,
        index: int,
        timestamp: float,
        observer: Optional[CandidateObserver] = None,
    ) -> "BucketStructure":
        """``BS(index, index+1)``: a bucket holding exactly one element, whose
        R and Q samples are necessarily that element.

        Who shares what: without an observer, R and Q are one candidate
        record, and ts-WOR goes further with :func:`build_singletons` — one
        singleton per arrival, handed to every delayed copy.  With an
        observer, R and Q are two records (the observer keeps separate
        scratch state on each, and is told of both selections), and each
        copy builds its own singleton through this constructor.
        """
        r_candidate = SampleCandidate(value, index, timestamp)
        if observer is None:
            q_candidate = r_candidate
        else:
            q_candidate = SampleCandidate(value, index, timestamp)
            observer.on_select(r_candidate)
            observer.on_select(q_candidate)
        return cls(
            start=index,
            end=index + 1,
            first_value=value,
            first_timestamp=timestamp,
            r_sample=r_candidate,
            q_sample=q_candidate,
        )

    @classmethod
    def merge_fast(
        cls,
        left: "BucketStructure",
        right: "BucketStructure",
        r_sample: SampleCandidate,
        q_sample: SampleCandidate,
    ) -> "BucketStructure":
        """Merge two adjacent equal-width buckets whose R/Q samples the caller
        has already chosen (the observer-free ``Incr`` cascade draws the
        coins itself).

        Skips the adjacency/width validation — the ``Incr`` cascade only
        merges buckets Lemma 3.4 proves adjacent and equal-width — and the
        observer notifications (see :meth:`merge` for the observer form).
        """
        bucket = cls.__new__(cls)
        bucket.start = left.start
        bucket.end = right.end
        bucket.first_value = left.first_value
        bucket.first_timestamp = left.first_timestamp
        bucket.r_sample = r_sample
        bucket.q_sample = q_sample
        return bucket

    @classmethod
    def merge(
        cls,
        left: "BucketStructure",
        right: "BucketStructure",
        rng: Any,
        observer: Optional[CandidateObserver] = None,
    ) -> "BucketStructure":
        """Merge two adjacent, equal-width bucket structures into one.

        Implements the unification step of the ``Incr`` operator: because
        ``|B(a,c)| == |B(c,d)|``, picking either constituent's uniform sample
        with probability 1/2 yields a uniform sample of ``B(a,d)``.  The R and
        Q choices use independent coins — ``rng.getrandbits(2)``, the same two
        coins :func:`~repro.core._cascade.merge_cascade` takes per merge — so
        the merged samples stay independent.  This is the cascade's merge
        when an observer is attached: it reports the two losing samples to
        ``observer.on_discard`` (R's first, then Q's).
        """
        if left.end != right.start:
            raise ValueError(f"buckets are not adjacent: {left} and {right}")
        if left.width != right.width:
            raise ValueError(
                f"only equal-width buckets may be merged: widths {left.width} and {right.width}"
            )
        coins = rng.getrandbits(2)
        keep_left_r = bool(coins & 1)
        keep_left_q = bool(coins & 2)
        r_sample = left.r_sample if keep_left_r else right.r_sample
        q_sample = left.q_sample if keep_left_q else right.q_sample
        if observer is not None:
            if not keep_left_r:
                observer.on_discard(left.r_sample)
            else:
                observer.on_discard(right.r_sample)
            if not keep_left_q:
                observer.on_discard(left.q_sample)
            else:
                observer.on_discard(right.q_sample)
        return cls(
            start=left.start,
            end=right.end,
            first_value=left.first_value,
            first_timestamp=left.first_timestamp,
            r_sample=r_sample,
            q_sample=q_sample,
        )

    def state_dict(self, memo: Optional[Dict[int, Any]] = None) -> Dict[str, Any]:
        """Snapshot: boundaries, first element, and the R/Q samples.

        ``memo`` (see :mod:`repro.core.serialization`) makes a structure
        shared between lanes encode once, as one dict."""
        if memo is not None:
            encoded = memo.get(id(self))
            if encoded is not None:
                return encoded
        encoded = {
            "start": self.start,
            "end": self.end,
            "first_value": self.first_value,
            "first_timestamp": self.first_timestamp,
            "r_sample": encode_candidate(self.r_sample, memo),
            "q_sample": encode_candidate(self.q_sample, memo),
        }
        if memo is not None:
            memo[id(self)] = encoded
        return encoded

    @classmethod
    def from_state_dict(
        cls, state: Dict[str, Any], memo: Optional[Dict[int, Any]] = None
    ) -> "BucketStructure":
        """Rebuild a bucket structure captured by :meth:`state_dict`; with a
        ``memo``, one encoded dict decodes to one (shared) structure."""
        if memo is not None:
            decoded = memo.get(id(state))
            if decoded is not None:
                return decoded
        require_state_fields(
            state,
            ("start", "end", "first_value", "first_timestamp", "r_sample", "q_sample"),
            "BucketStructure",
        )
        decoded = cls(
            start=int(state["start"]),
            end=int(state["end"]),
            first_value=state["first_value"],
            first_timestamp=float(state["first_timestamp"]),
            r_sample=decode_candidate(state["r_sample"], memo),
            q_sample=decode_candidate(state["q_sample"], memo),
        )
        if memo is not None:
            memo[id(state)] = decoded
        return decoded

    # -- geometry ---------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of stream elements summarised by this structure."""
        return self.end - self.start

    def covers(self, index: int) -> bool:
        """Whether the element with the given stream index lies in this bucket."""
        return self.start <= index < self.end

    # -- expiry -------------------------------------------------------------------

    def first_expired(self, now: float, t0: float) -> bool:
        """Whether the bucket's first element has expired at time ``now``."""
        return now - self.first_timestamp >= t0

    # -- bookkeeping -----------------------------------------------------------------

    def first_candidate(self) -> SampleCandidate:
        """The bucket's first element ``p_start`` as a candidate record
        (needed by Lemma 3.6, where ``Y`` may land on ``p_a``)."""
        return SampleCandidate(self.first_value, self.start, self.first_timestamp)

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        yield self.r_sample
        yield self.q_sample

    def discard(self, observer: Optional[CandidateObserver]) -> None:
        """Notify the observer that this structure's samples are being dropped."""
        if observer is not None:
            observer.on_discard(self.r_sample)
            observer.on_discard(self.q_sample)

    def memory_words(self) -> int:
        """Footprint under the paper's model: first element + two boundaries +
        timestamp + the two stored samples (value, index, timestamp each)."""
        meter = MemoryMeter(WORD_MODEL)
        meter.add_elements()  # p_x
        meter.add_indexes(2)  # x, y
        meter.add_timestamps()  # T(p_x)
        meter.add_elements(2).add_indexes(2).add_timestamps(2)  # R and Q samples
        return meter.total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BS({self.start},{self.end}; first_t={self.first_timestamp}, "
            f"r@{self.r_sample.index}, q@{self.q_sample.index})"
        )


def build_singletons(
    values: Sequence[Any], stamps: Sequence[float], base_index: int, lo: int, hi: int
) -> List[BucketStructure]:
    """Observer-free singletons ``BS(i, i+1)`` for positions ``lo .. hi-1``:
    position ``p`` has value ``values[p]``, timestamp ``stamps[p]`` (a float)
    and stream index ``base_index + p``.

    Each singleton's R and Q are one candidate record, and ts-WOR hands the
    same singleton to every delayed copy, so an arrival costs one structure
    and one record whatever ``k`` is.  Built inline, without
    :meth:`BucketStructure.singleton`'s validation: this runs once per
    arrival, the hottest allocation of the timestamp samplers.
    """
    new_bucket = BucketStructure.__new__
    bucket_cls = BucketStructure
    candidate_cls = SampleCandidate
    built: List[BucketStructure] = []
    append = built.append
    for position in range(lo, hi):
        value = values[position]
        index = base_index + position
        ts = stamps[position]
        bucket = new_bucket(bucket_cls)
        bucket.start = index
        bucket.end = index + 1
        bucket.first_value = value
        bucket.first_timestamp = ts
        bucket.r_sample = bucket.q_sample = candidate_cls(value, index, ts)
        append(bucket)
    return built
