"""Optimal sampling without replacement from timestamp-based windows (§4, Theorem 4.4).

The construction combines two ingredients:

1. **Delayed with-replacement samplers.**  ``k`` independent copies of the §3
   machinery are maintained, where copy ``i`` only receives an element once
   ``i`` further elements have arrived (Lemma 4.1).  At any time, copy ``i``
   therefore holds a uniform single sample ``R_i`` of *all active elements
   except the last i*.

2. **The black-box reduction** (Lemmas 4.2/4.3, :mod:`repro.core.reduction`).
   Together with an auxiliary array of the last ``k`` arrived elements, the
   nested-domain samples ``R_{k-1}, ..., R_0`` are stitched into a uniform
   ``k``-subset of the whole window.

Total memory: Θ(k + k·log n) words, deterministic — matching the Ω(k log n)
lower bound of Gemulla and Lehner for timestamp windows.

The auxiliary array holds each arrival's singleton bucket.  Without an
observer that singleton is built once, and copy ``i`` is handed the same
object at arrival ``j + i``; its candidate record is the array entry.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

from ..exceptions import ConfigurationError, EmptyWindowError, InsufficientSampleError, StreamOrderError
from ..memory import MemoryMeter, WORD_MODEL
from ..rng import QUERY_STREAM, LaneRng, RngLike, sampler_seed
from .base import (
    TimestampWindowSampler,
    check_batch_lengths,
    coerce_batch_timestamps,
    init_sampler_kernel,
)
from .bucket_structure import SINGLETON_CHUNK, BucketStructure, build_singletons
from .covering import WindowCoverage, estimate_active_count
from .reduction import build_k_sample
from .serialization import (
    decode_candidate,
    encode_candidate,
    load_stream,
    require_state_fields,
)
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["TimestampSamplerWOR"]


class TimestampSamplerWOR(TimestampWindowSampler):
    """k samples *without replacement* from a timestamp window (Theorem 4.4).

    When the window currently holds fewer than ``k`` active elements the
    sampler returns all of them (they are necessarily among the last ``k``
    arrivals, which are stored verbatim); set ``allow_partial=False`` to raise
    :class:`~repro.exceptions.InsufficientSampleError` instead.
    """

    algorithm = "boz-ts-wor"
    with_replacement = False
    deterministic_memory = True

    __slots__ = (
        "_seed", "_allow_partial", "_fast", "_coverages", "_query_rng", "_kernel", "_np_gen",
        "_recent", "_now",
    )

    def __init__(
        self,
        t0: float,
        k: int = 1,
        rng: RngLike = None,
        observer: Optional[CandidateObserver] = None,
        allow_partial: bool = True,
        fast: bool = False,
        kernel: str = "python",
    ) -> None:
        super().__init__(t0, k, observer)
        self._seed = seed = sampler_seed(rng)
        self._allow_partial = bool(allow_partial)
        #: ``fast=True`` selects the numpy kernel for batches when
        #: ``kernel`` resolves to numpy; otherwise batches consume randomness
        #: exactly like per-element appends.
        self._fast = bool(fast)
        # Coverage i receives elements delayed by i arrivals (Lemma 4.1).
        self._coverages = [
            WindowCoverage(self._t0, LaneRng(seed, lane), observer) for lane in range(self._k)
        ]
        self._query_rng = LaneRng(seed, QUERY_STREAM)
        self._kernel, self._np_gen = init_sampler_kernel(kernel, seed)
        # Auxiliary array of the last k arrived elements (§4: "we maintain an
        # auxiliary array with the last i elements ... we can use the same
        # array for every i"), as their singleton buckets; each one's R is
        # the element's candidate record.
        self._recent: Deque[BucketStructure] = deque(maxlen=self._k)
        self._now = float("-inf")

    # -- clock ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance_time(self, now: float) -> None:
        if now < self._now:
            raise StreamOrderError(f"clock moved backwards: {now} < {self._now}")
        self._now = float(now)
        for coverage in self._coverages:
            coverage.advance_time(self._now)

    # -- ingestion ------------------------------------------------------------------

    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        """Process one arrival.  Without an observer this is the batched path
        for one element, so ``append`` and :meth:`process_batch` are the
        same code; with one, each delayed copy observes its element through
        its own singleton and the observer hears of the arrival."""
        index = self._arrivals
        if timestamp is None:
            ts = self._now if self._now != float("-inf") else 0.0
        else:
            ts = float(timestamp)
        if ts < self._now:
            raise StreamOrderError(f"timestamps must be non-decreasing: {ts} < {self._now}")
        self._now = ts
        if self._observer is None:
            self._observe_shared((value,), index, (ts,))
            self._arrivals = index + 1
            return
        self._recent.append(BucketStructure.singleton(value, index, ts))
        # Feed each delayed copy the element that has now cleared its delay:
        # copy i processes element index - i (if it exists).  The element is
        # still in the auxiliary array because i < k.
        recent_list = list(self._recent)
        for delay, coverage in enumerate(self._coverages):
            if index - delay < 0:
                break
            delayed = recent_list[-(delay + 1)]
            coverage.advance_time(ts)
            coverage.observe(delayed.first_value, delayed.start, delayed.first_timestamp)
        self._arrivals = index + 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append` for the delayed-copies construction.

        Copy ``i`` observes element ``index - i`` at every arrival.  Each
        chunk of :data:`~repro.core.bucket_structure.SINGLETON_CHUNK` arrivals
        gets its singletons built once; each copy is handed one contiguous
        slice of (auxiliary array + chunk) through
        :meth:`~repro.core.covering.WindowCoverage.observe_batch`, with
        the *arrival* timestamps as its clock track: each automaton owns an
        independent generator and sees exactly the per-element sequence,
        making this bit-identical to the ``append`` loop (``fast=True`` with
        the numpy kernel runs
        :func:`repro.engine.kernels.coverage_observe_batch` instead).
        Timestamps are validated up front (an out-of-order one raises before any element is applied);
        observer-carrying samplers fall back to the per-element loop.
        """
        check_batch_lengths(values, timestamps)
        count = len(values)
        if count == 0:
            return 0
        if self._observer is not None:
            return super().process_batch(values, timestamps)
        stamps = coerce_batch_timestamps(count, timestamps, self._now)
        start = self._arrivals
        if self._fast and self._np_gen is not None:
            self._observe_kernel(values, start, stamps)
        else:
            self._observe_shared(values, start, stamps)
        self._now = stamps[-1]
        self._arrivals = start + count
        return count

    def _observe_shared(self, values: Sequence[Any], start: int, stamps: Sequence[float]) -> None:
        """Feed arrivals ``start ..`` (float ``stamps``) to the delayed
        copies, one shared singleton per element, chunk by chunk."""
        count = len(values)
        recent = self._recent
        coverages = self._coverages
        for lo in range(0, count, SINGLETON_CHUNK):
            hi = lo + SINGLETON_CHUNK if lo + SINGLETON_CHUNK < count else count
            fresh = build_singletons(values, stamps, start, lo, hi)
            # The auxiliary array holds the last `base` elements before the
            # chunk, indexes consecutive, so element `start + lo + p` sits
            # at window[base + p].
            window = list(recent)
            base = len(window)
            window.extend(fresh)
            width = hi - lo
            clocks = stamps[lo:hi]
            for delay, coverage in enumerate(coverages):
                # Arrival `start + lo + p` hands copy `delay` the element
                # `start + lo + p - delay`; arrivals whose target index would
                # be negative are skipped.
                first = delay - start - lo
                if first < 0:
                    first = 0
                if first >= width:
                    break
                coverage.observe_batch(
                    window[base + first - delay : base + width - delay],
                    clocks[first:] if first else clocks,
                )
            recent.extend(fresh)

    def _observe_kernel(self, values: Sequence[Any], start: int, stamps: List[float]) -> None:
        """The numpy kernel over the same delayed slices as
        :meth:`_observe_shared`, on the materialised auxiliary view."""
        from ..engine.kernels import as_float_array, coverage_observe_batch

        count = len(values)
        held = list(self._recent)
        base = len(held)
        combined_values = [bucket.first_value for bucket in held]
        combined_values.extend(values)
        combined_stamps = [bucket.first_timestamp for bucket in held]
        combined_stamps.extend(stamps)
        combined_array = as_float_array(combined_stamps)
        clock_array = combined_array[base:]
        for delay, coverage in enumerate(self._coverages):
            first = delay - start
            if first < 0:
                first = 0
            if first >= count:
                break
            coverage_observe_batch(
                coverage,
                combined_values,
                base + first - delay,
                start + first - delay,
                combined_array[base + first - delay : base + count - delay],
                clock_array[first:],
                self._np_gen,
            )
        self._recent.extend(
            build_singletons(values, stamps, start, count - self._k if count > self._k else 0, count)
        )

    # -- sampling -----------------------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        if self._arrivals == 0:
            raise EmptyWindowError("no element has arrived yet")
        if self._now != float("-inf"):
            for coverage in self._coverages:
                coverage.advance_time(self._now)
        active_recent = [
            bucket.r_sample
            for bucket in self._recent
            if self._now - bucket.first_timestamp < self._t0
        ]
        window_has_k = len(self._recent) == self._k and len(active_recent) == self._k
        if self._coverages[0].is_empty:
            raise EmptyWindowError("no active element in the window")
        if not window_has_k:
            # Fewer than k active elements: they all sit in the auxiliary array.
            if not active_recent:
                raise EmptyWindowError("no active element in the window")
            if len(active_recent) < self._k and not self._allow_partial:
                raise InsufficientSampleError(
                    f"window holds only {len(active_recent)} elements, k={self._k} requested"
                )
            return list(active_recent)
        # Full reduction (Lemma 4.3): singles over nested domains, smallest first.
        singles: List[SampleCandidate] = []
        for delay in range(self._k - 1, -1, -1):
            coverage = self._coverages[delay]
            if coverage.is_empty:  # pragma: no cover - defensive; n >= k implies non-empty
                raise EmptyWindowError("delayed coverage unexpectedly empty")
            singles.append(coverage.draw_sample(self._query_rng))
        # The newest element of each successive domain: the last k-1 active
        # elements, oldest first — exactly recent[1:] when the buffer is full.
        recent_list = list(self._recent)
        newest_elements = [bucket.r_sample for bucket in recent_list[1:]]
        return build_k_sample(singles, newest_elements, key=lambda candidate: candidate.index)

    # -- introspection ----------------------------------------------------------------------

    def active_count_estimate(self) -> int:
        """Estimated number of currently active elements ``n(t)``
        (:func:`~repro.core.covering.estimate_active_count` on the undelayed
        copy — delay 0 — which observes every arrival)."""
        return estimate_active_count(self._coverages[0], self._now)

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        for coverage in self._coverages:
            yield from coverage.iter_candidates()
        for bucket in self._recent:
            yield bucket.r_sample

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants(2)  # t0 and k
        meter.add_counters()  # arrival counter
        meter.add_timestamps()  # the clock
        held = len(self._recent)
        meter.add_elements(held).add_indexes(held).add_timestamps(held)
        for coverage in self._coverages:
            meter.add_words(coverage.memory_words())
        return meter.total

    # -- checkpointing -----------------------------------------------------------------------

    def _encode_state(self) -> Dict[str, Any]:
        # One memo for the sampler: what the copies and the auxiliary array
        # share is encoded once.
        memo: Dict[int, Any] = {}
        return {
            "t0": self._t0,
            "now": self._now,
            "recent": [encode_candidate(bucket.r_sample, memo) for bucket in self._recent],
            "coverages": [coverage.state_dict(memo) for coverage in self._coverages],
            "seed": self._seed,
            "rngs": [coverage.rng.get_state() for coverage in self._coverages],
            "query_rng": self._query_rng.get_state(),
        }

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        require_state_fields(
            payload,
            ("t0", "now", "recent", "coverages", "seed", "rngs", "query_rng"),
            type(self).__name__,
        )
        if float(payload["t0"]) != self._t0:
            raise ConfigurationError(f"snapshot has t0={payload['t0']}, sampler has t0={self._t0}")
        if len(payload["coverages"]) != len(self._coverages):
            raise ConfigurationError(
                f"snapshot has {len(payload['coverages'])} coverages, sampler has {len(self._coverages)}"
            )
        self._now = float(payload["now"])
        memo: Dict[int, Any] = {}
        recent = [decode_candidate(encoded, memo) for encoded in payload["recent"]]
        self._recent = deque(
            (
                BucketStructure(c.index, c.index + 1, c.value, c.timestamp, c, c)
                for c in recent
            ),
            maxlen=self._k,
        )
        if len(payload["rngs"]) != len(self._coverages):
            raise ConfigurationError(
                f"snapshot has {len(payload['rngs'])} lane streams, sampler has {len(self._coverages)}"
            )
        seed = int(payload["seed"])
        for stream, coverage in enumerate(self._coverages):
            load_stream(coverage.rng, seed, stream, payload["rngs"][stream])
            coverage.load_state_dict(payload["coverages"][stream], memo)
        load_stream(self._query_rng, seed, QUERY_STREAM, payload["query_rng"])
        self._seed = seed
