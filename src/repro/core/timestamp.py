"""Optimal sampling with replacement from timestamp-based windows (§3, Theorem 3.9).

Each of the ``k`` independent samples is maintained by a Lemma 3.5 automaton.
The k automata share one covering geometry — bucket boundaries and expiry
transitions depend only on arrival indexes and timestamps — so the sampler
holds them as one :class:`~repro.core.shared_coverage.SharedCoverage`: each
bucket's geometry once, and each lane's ``R`` and ``Q`` samples beside it.
At query time lane ``i``'s sample is produced from its samples:

* **case 1** — the covering decomposition starts exactly at the earliest
  active element: pick a bucket with probability proportional to its width and
  output that bucket's ``R`` sample;
* **case 2** — a straddling bucket precedes the decomposition: apply the
  implicit-event machinery of §3.3 (Lemma 3.8) to combine the straddler's
  sample with a uniform sample of the covered suffix.

The memory footprint is Θ(k · log n(t)) words and is a deterministic function
of the arrival pattern — never of the algorithm's coin flips — which is the
paper's improvement over priority sampling.

Without an observer, an arrival costs one geometry row and one candidate
record whatever ``k`` is: the record fills all 2k sample slots of its
singleton row.  With an observer each lane gets its own two records.
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
from .serialization import load_stream, require_state_fields
from .shared_coverage import SharedCoverage
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

    __slots__ = ("_seed", "_coverage", "_query_rng", "_np_gen")

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
        self._coverage = SharedCoverage(
            self._t0, [LaneRng(seed, lane) for lane in range(self._k)], observer
        )
        self._query_rng = LaneRng(seed, QUERY_STREAM)
        self._np_gen = init_sampler_kernel(kernel, seed)

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._coverage.now

    def advance_time(self, now: float) -> None:
        if now < self._coverage.now:
            raise StreamOrderError(f"clock moved backwards: {now} < {self._coverage.now}")
        self._coverage.advance_time(now)

    # -- ingestion ----------------------------------------------------------------

    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        """Process one arrival.  Without an observer this is the batched path
        for one element, so ``append`` and :meth:`process_batch` are the same
        code; with one, each lane gets its own records and the observer
        hears of the arrival."""
        index = self._arrivals
        now = self._coverage.now
        if timestamp is None:
            ts = now if now != float("-inf") else 0.0
        else:
            ts = float(timestamp)
        if ts < now:
            raise StreamOrderError(f"timestamps must be non-decreasing: {ts} < {now}")
        if self._observer is None:
            self._coverage.observe_batch((value,), (ts,), index)
            self._arrivals = index + 1
            return
        self._coverage.observe(value, index, ts)
        self._arrivals = index + 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append`: timestamps are validated up front, then
        the shared automaton takes the whole batch
        (:meth:`~repro.core.shared_coverage.SharedCoverage.observe_batch`;
        each lane owns an independent generator and draws from it as the
        ``append`` loop would, so this is bit-identical to that loop).
        ``kernel="numpy"`` runs :func:`repro.core.kernels.
        shared_coverage_observe_batch` instead.

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
        stamps = coerce_batch_timestamps(count, timestamps, self._coverage.now)
        start = self._arrivals
        if self._np_gen is not None:
            # Vectorized kernel: per expiry run, the covering decomposition
            # is rebuilt structurally instead of cascading per element.
            from .kernels import shared_coverage_observe_batch

            shared_coverage_observe_batch(self._coverage, values, start, stamps, self._np_gen)
        else:
            self._coverage.observe_batch(values, stamps, start)
        self._arrivals = start + count
        return count

    # -- sampling -------------------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        coverage = self._coverage
        if coverage.now != float("-inf"):
            coverage.advance_time(coverage.now)
        if coverage.is_empty:
            raise EmptyWindowError("no active element in the window")
        query_rng = self._query_rng
        return [coverage.draw_sample(lane, query_rng) for lane in range(self._k)]

    @property
    def window_is_empty(self) -> bool:
        """Whether no stored element is currently active."""
        if self._arrivals == 0:
            return True
        coverage = self._coverage
        coverage.advance_time(coverage.now)
        return coverage.is_empty

    def active_count_estimate(self) -> int:
        """Estimated number of currently active elements ``n(t)``.

        Exact in case 1 of Lemma 3.5; in case 2 the straddling bucket holds
        an unknown number of active elements, so half its width is added (see
        :func:`~repro.core.covering.estimate_active_count`)."""
        coverage = self._coverage
        if coverage.now != float("-inf"):
            coverage.advance_time(coverage.now)
        if coverage.is_empty:
            return 0
        count = coverage.covered_width
        straddler = coverage.straddler_bounds
        if straddler is not None:
            count += (straddler[1] - straddler[0]) // 2
        return count

    # -- introspection ------------------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        return self._coverage.iter_candidates()

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants(2)  # t0 and k
        meter.add_counters()  # arrival counter
        meter.add_timestamps()  # the clock
        meter.add_words(self._coverage.memory_words())
        return meter.total

    # -- checkpointing ------------------------------------------------------------------

    def _encode_state(self) -> Dict[str, Any]:
        # One memo for the sampler: what the lanes share is encoded once.
        coverage = self._coverage
        return {
            "t0": self._t0,
            "now": coverage.now,
            "coverages": coverage.lane_states({}),
            "seed": self._seed,
            "rngs": [rng.get_state() for rng in coverage.rngs],
            "query_rng": self._query_rng.get_state(),
        }

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        require_state_fields(
            payload, ("t0", "now", "coverages", "seed", "rngs", "query_rng"), type(self).__name__
        )
        if float(payload["t0"]) != self._t0:
            raise ConfigurationError(f"snapshot has t0={payload['t0']}, sampler has t0={self._t0}")
        if len(payload["rngs"]) != self._k:
            raise ConfigurationError(
                f"snapshot has {len(payload['rngs'])} lane streams, sampler has {self._k}"
            )
        coverage = self._coverage
        try:
            coverage.load_lane_states(payload["coverages"], float(payload["now"]), {})
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            raise ConfigurationError(f"malformed {type(self).__name__} snapshot: {error!r}") from error
        seed = int(payload["seed"])
        for stream, rng in enumerate(coverage.rngs):
            load_stream(rng, seed, stream, payload["rngs"][stream])
        load_stream(self._query_rng, seed, QUERY_STREAM, payload["query_rng"])
        self._seed = seed
