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
        # array for every i").
        self._recent: Deque[SampleCandidate] = deque(maxlen=self._k)
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
        index = self._arrivals
        if timestamp is None:
            ts = self._now if self._now != float("-inf") else 0.0
        else:
            ts = float(timestamp)
        if ts < self._now:
            raise StreamOrderError(f"timestamps must be non-decreasing: {ts} < {self._now}")
        self._now = ts
        self._recent.append(SampleCandidate(value=value, index=index, timestamp=ts))
        # Feed each delayed copy the element that has now cleared its delay:
        # copy i processes element index - i (if it exists).  The element is
        # still in the auxiliary array because i < k.
        recent_list = list(self._recent)
        for delay, coverage in enumerate(self._coverages):
            target = index - delay
            if target < 0:
                continue
            delayed = recent_list[-(delay + 1)]
            coverage.advance_time(self._now)
            coverage.observe(delayed.value, delayed.index, delayed.timestamp)
        self._arrivals += 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append` for the delayed-copies construction.

        Copy ``i`` observes element ``index - i`` at every arrival, so each
        coverage is handed one contiguous slice of the materialised auxiliary
        view (old buffer + batch) through
        :meth:`~repro.core.covering.WindowCoverage.observe_batch`, with the
        *arrival* timestamps as its clock track: each automaton owns an
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
        held = list(self._recent)
        base = len(held)
        combined_values = [candidate.value for candidate in held]
        combined_values.extend(values)
        combined_stamps = [candidate.timestamp for candidate in held]
        combined_stamps.extend(stamps)
        use_kernel = self._fast and self._np_gen is not None
        if use_kernel:
            from ..engine.kernels import as_float_array, coverage_observe_batch

            combined_array = as_float_array(combined_stamps)
            clock_array = combined_array[base:]
        for delay, coverage in enumerate(self._coverages):
            # Copy `delay` skips arrivals whose delayed target index would be
            # negative; the rest observe the contiguous combined slice
            # [base + first - delay, base + count - delay) — the held buffer
            # holds exactly the last `base` arrivals, indexes consecutive.
            first = delay - start
            if first < 0:
                first = 0
            if first >= count:
                continue
            if use_kernel:
                coverage_observe_batch(
                    coverage,
                    combined_values,
                    base + first - delay,
                    start + first - delay,
                    combined_array[base + first - delay : base + count - delay],
                    clock_array[first:],
                    self._np_gen,
                )
                continue
            coverage.observe_batch(
                combined_values[base + first - delay : base + count - delay],
                start + first - delay,
                combined_stamps[base + first - delay : base + count - delay],
                clocks=stamps if first == 0 else stamps[first:],
            )
        self._recent.extend(
            SampleCandidate(value=values[position], index=start + position, timestamp=stamps[position])
            for position in range(count - self._k if count > self._k else 0, count)
        )
        self._now = stamps[-1]
        self._arrivals = start + count
        return count

    # -- sampling -----------------------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        if self._arrivals == 0:
            raise EmptyWindowError("no element has arrived yet")
        if self._now != float("-inf"):
            for coverage in self._coverages:
                coverage.advance_time(self._now)
        active_recent = [
            candidate for candidate in self._recent if self._now - candidate.timestamp < self._t0
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
        newest_elements = recent_list[1:]
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
        yield from self._recent

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
        return {
            "t0": self._t0,
            "now": self._now,
            "recent": [encode_candidate(candidate) for candidate in self._recent],
            "coverages": [coverage.state_dict() for coverage in self._coverages],
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
        self._recent = deque(
            (decode_candidate(encoded) for encoded in payload["recent"]), maxlen=self._k
        )
        if len(payload["rngs"]) != len(self._coverages):
            raise ConfigurationError(
                f"snapshot has {len(payload['rngs'])} lane streams, sampler has {len(self._coverages)}"
            )
        seed = int(payload["seed"])
        for stream, coverage in enumerate(self._coverages):
            load_stream(coverage.rng, seed, stream, payload["rngs"][stream])
            coverage.load_state_dict(payload["coverages"][stream])
        load_stream(self._query_rng, seed, QUERY_STREAM, payload["query_rng"])
        self._seed = seed
