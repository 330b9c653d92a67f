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
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..memory import MemoryMeter, WORD_MODEL
from .serialization import decode_candidate, encode_candidate, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["BucketStructure"]


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
        R and Q samples are necessarily that element (two candidate records,
        since an observer keeps separate scratch state on each; the batched
        observer-free path builds its singletons with one shared record)."""
        r_candidate = SampleCandidate(value, index, timestamp)
        q_candidate = SampleCandidate(value, index, timestamp)
        if observer is not None:
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
        has already chosen (the batched ingest path draws the coins itself).

        Skips the adjacency/width validation — the ``Incr`` cascade only
        merges buckets Lemma 3.4 proves adjacent and equal-width — and the
        observer notifications (batched ingest only runs observer-free).
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
        the merged samples stay independent.
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

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: boundaries, first element, and the R/Q samples."""
        return {
            "start": self.start,
            "end": self.end,
            "first_value": self.first_value,
            "first_timestamp": self.first_timestamp,
            "r_sample": encode_candidate(self.r_sample),
            "q_sample": encode_candidate(self.q_sample),
        }

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "BucketStructure":
        """Rebuild a bucket structure captured by :meth:`state_dict`."""
        require_state_fields(
            state,
            ("start", "end", "first_value", "first_timestamp", "r_sample", "q_sample"),
            "BucketStructure",
        )
        return cls(
            start=int(state["start"]),
            end=int(state["end"]),
            first_value=state["first_value"],
            first_timestamp=float(state["first_timestamp"]),
            r_sample=decode_candidate(state["r_sample"]),
            q_sample=decode_candidate(state["q_sample"]),
        )

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
