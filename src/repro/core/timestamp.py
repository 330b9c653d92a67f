"""Optimal sampling with replacement from timestamp-based windows (§3, Theorem 3.9).

Each of the ``k`` independent samples is maintained by one
:class:`~repro.core.covering.WindowCoverage` automaton (Lemma 3.5).  At query
time the window sample is produced from the automaton's state:

* **case 1** — the covering decomposition starts exactly at the earliest
  active element: pick a bucket with probability proportional to its width and
  output that bucket's ``R`` sample;
* **case 2** — a straddling bucket precedes the decomposition: apply the
  implicit-event machinery of §3.3 (Lemma 3.8) to combine the straddler's
  sample with a uniform sample of the covered suffix.

The memory footprint is Θ(k · log n(t)) words and is a deterministic function
of the arrival pattern — never of the algorithm's coin flips — which is the
paper's improvement over priority sampling.

Without an observer, an arrival costs one singleton bucket and one candidate
record whatever ``k`` is: the k automata are fed the same singleton object
(:func:`~repro.core.bucket_structure.build_singletons`), which is safe
because bucket structures are never mutated after construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..exceptions import ConfigurationError, EmptyWindowError, StreamOrderError
from ..memory import MemoryMeter, WORD_MODEL
from ..rng import QUERY_STREAM, LaneRng, RngLike, sampler_seed
from .base import (
    TimestampWindowSampler,
    check_batch_lengths,
    coerce_batch_timestamps,
    init_sampler_kernel,
)
from .bucket_structure import SINGLETON_CHUNK, build_singletons
from .covering import WindowCoverage, estimate_active_count
from .serialization import load_stream, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["TimestampSamplerWR"]


class TimestampSamplerWR(TimestampWindowSampler):
    """k samples *with replacement* from a timestamp window (Theorem 3.9).

    ``append(value, timestamp)`` processes an arrival (the timestamp defaults
    to the current clock); ``advance_time(now)`` moves the clock without an
    arrival; ``sample()`` returns ``k`` elements, each uniform over the active
    elements and mutually independent.
    """

    algorithm = "boz-ts-wr"
    with_replacement = True
    deterministic_memory = True

    __slots__ = ("_seed", "_coverages", "_query_rng", "_np_gen", "_now")

    def __init__(
        self,
        t0: float,
        k: int = 1,
        rng: RngLike = None,
        observer: Optional[CandidateObserver] = None,
        kernel: str = "python",
    ) -> None:
        super().__init__(t0, k, observer)
        self._seed = seed = sampler_seed(rng)
        self._coverages = [
            WindowCoverage(self._t0, LaneRng(seed, lane), observer) for lane in range(self._k)
        ]
        self._query_rng = LaneRng(seed, QUERY_STREAM)
        self._np_gen = init_sampler_kernel(kernel, seed)
        self._now = float("-inf")

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance_time(self, now: float) -> None:
        if now < self._now:
            raise StreamOrderError(f"clock moved backwards: {now} < {self._now}")
        self._now = float(now)
        for coverage in self._coverages:
            coverage.advance_time(self._now)

    # -- ingestion ----------------------------------------------------------------

    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        """Process one arrival.  Without an observer this is the batched path
        for one element (one singleton shared by the k lanes), so ``append``
        and :meth:`process_batch` are the same code; with one, each lane
        observes the element through its own singleton and the observer
        hears of the arrival."""
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
        for coverage in self._coverages:
            coverage.observe(value, index, ts)
        self._arrivals = index + 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append`: timestamps are validated up front, then
        each chunk of :data:`~repro.core.bucket_structure.SINGLETON_CHUNK`
        arrivals gets its singletons built once and fed to every lane
        through :meth:`~repro.core.covering.WindowCoverage.observe_batch` (each
        covering automaton owns an independent generator, so this is
        bit-identical to the ``append`` loop).  ``kernel="numpy"`` runs
        :func:`repro.core.kernels.coverage_observe_batch` instead.

        Unlike per-element appends, an out-of-order timestamp raises
        *before* any element is applied.  Observer-carrying samplers fall
        back to the per-element loop.
        """
        check_batch_lengths(values, timestamps)
        count = len(values)
        if count == 0:
            return 0
        if self._observer is not None:
            return super().process_batch(values, timestamps)
        stamps = coerce_batch_timestamps(count, timestamps, self._now)
        start = self._arrivals
        if self._np_gen is not None:
            # Vectorized kernel: per expiry run, the covering decomposition
            # is rebuilt structurally instead of cascading per element (see
            # repro.core.kernels.coverage_observe_batch).
            from .kernels import as_float_array, coverage_observe_batch

            stamp_array = as_float_array(stamps)
            for coverage in self._coverages:
                coverage_observe_batch(
                    coverage, values, 0, start, stamp_array, stamp_array, self._np_gen
                )
        else:
            self._observe_shared(values, start, stamps)
        self._now = stamps[-1]
        self._arrivals = start + count
        return count

    def _observe_shared(self, values: Sequence[Any], start: int, stamps: Sequence[float]) -> None:
        """Feed arrivals ``start ..`` (float ``stamps``) to every lane, one
        shared singleton per arrival, chunk by chunk."""
        count = len(values)
        coverages = self._coverages
        for lo in range(0, count, SINGLETON_CHUNK):
            hi = lo + SINGLETON_CHUNK if lo + SINGLETON_CHUNK < count else count
            chunk = build_singletons(values, stamps, start, lo, hi)
            for coverage in coverages:
                coverage.observe_batch(chunk)

    # -- sampling -------------------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        return [self._sample_coverage(coverage) for coverage in self._coverages]

    def _sample_coverage(self, coverage: WindowCoverage) -> SampleCandidate:
        if self._now != float("-inf"):
            coverage.advance_time(self._now)
        if coverage.is_empty:
            raise EmptyWindowError("no active element in the window")
        return coverage.draw_sample(self._query_rng)

    @property
    def window_is_empty(self) -> bool:
        """Whether no stored element is currently active."""
        if self._arrivals == 0:
            return True
        coverage = self._coverages[0]
        coverage.advance_time(self._now)
        return coverage.is_empty

    def active_count_estimate(self) -> int:
        """Estimated number of currently active elements ``n(t)``
        (:func:`~repro.core.covering.estimate_active_count` on the first
        automaton's covering decomposition)."""
        return estimate_active_count(self._coverages[0], self._now)

    # -- introspection ------------------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        for coverage in self._coverages:
            yield from coverage.iter_candidates()

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants(2)  # t0 and k
        meter.add_counters()  # arrival counter
        meter.add_timestamps()  # the clock
        for coverage in self._coverages:
            meter.add_words(coverage.memory_words())
        return meter.total

    # -- checkpointing ------------------------------------------------------------------

    def _encode_state(self) -> Dict[str, Any]:
        # One memo for the sampler: what the lanes share is encoded once.
        memo: Dict[int, Any] = {}
        return {
            "t0": self._t0,
            "now": self._now,
            "coverages": [coverage.state_dict(memo) for coverage in self._coverages],
            "seed": self._seed,
            "rngs": [coverage.rng.get_state() for coverage in self._coverages],
            "query_rng": self._query_rng.get_state(),
        }

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        require_state_fields(
            payload, ("t0", "now", "coverages", "seed", "rngs", "query_rng"), type(self).__name__
        )
        if float(payload["t0"]) != self._t0:
            raise ConfigurationError(f"snapshot has t0={payload['t0']}, sampler has t0={self._t0}")
        if len(payload["coverages"]) != len(self._coverages):
            raise ConfigurationError(
                f"snapshot has {len(payload['coverages'])} coverages, sampler has {len(self._coverages)}"
            )
        self._now = float(payload["now"])
        if len(payload["rngs"]) != len(self._coverages):
            raise ConfigurationError(
                f"snapshot has {len(payload['rngs'])} lane streams, sampler has {len(self._coverages)}"
            )
        seed = int(payload["seed"])
        memo: Dict[int, Any] = {}
        for stream, coverage in enumerate(self._coverages):
            load_stream(coverage.rng, seed, stream, payload["rngs"][stream])
            coverage.load_state_dict(payload["coverages"][stream], memo)
        load_stream(self._query_rng, seed, QUERY_STREAM, payload["query_rng"])
        self._seed = seed
