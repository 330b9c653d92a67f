"""Optimal sampling from sequence-based (fixed-size) sliding windows.

Implements Section 2 of the paper — the *equivalent-width partition* method:

* the stream is (logically) partitioned into disjoint buckets
  ``B(i*n, (i+1)*n)`` of exactly the window size ``n``;
* one reservoir sample is maintained per bucket that can still matter (the
  most recent *full* bucket, called the *active* bucket ``U``, and the bucket
  currently being filled, the *partial* bucket ``V``);
* the window sample is stitched from the two bucket samples:

  - with replacement (§2.1, Theorem 2.1): output the active bucket's sample if
    it has not expired, otherwise the partial bucket's sample;
  - without replacement (§2.2, Theorem 2.2): keep the non-expired part of the
    active bucket's k-sample and top it up with a uniform subsample of the
    partial bucket's k-sample.

Both samplers use a deterministic Θ(k) words — the paper's optimal bound —
and never fail: a valid sample is available whenever the window is non-empty.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..exceptions import ConfigurationError, EmptyWindowError
from ..memory import MemoryMeter, WORD_MODEL
from ..rng import QUERY_STREAM, LaneRng, RngLike, sampler_seed
from .base import SequenceWindowSampler, check_batch_lengths, init_sampler_kernel
from .reservoir import ReservoirWithoutReplacement, SingleReservoir
from .serialization import (
    decode_candidate,
    decode_optional_candidate,
    encode_candidate,
    encode_optional_candidate,
    load_stream,
    require_state_fields,
)
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["SequenceSamplerWR", "SequenceSamplerWOR"]


class _SingleSampleLane:
    """The state of one independent single-sample scheme of §2.1.

    Holds at most two candidates: the final sample of the most recent full
    bucket (``active_sample``) and the running reservoir over the bucket
    currently being filled (``partial``).
    """

    __slots__ = ("rng", "observer", "active_sample", "active_bucket", "partial", "partial_bucket")

    def __init__(self, rng: LaneRng, observer: Optional[CandidateObserver]) -> None:
        self.rng = rng
        self.observer = observer
        self.active_sample: Optional[SampleCandidate] = None
        self.active_bucket: Optional[int] = None
        self.partial = SingleReservoir(rng=rng, observer=observer)
        self.partial_bucket: Optional[int] = None

    def roll_over(self, new_bucket: int) -> None:
        """The partial bucket completed; it becomes the active bucket."""
        if self.active_sample is not None and self.observer is not None:
            self.observer.on_discard(self.active_sample)
        self.active_sample = self.partial.candidate
        self.active_bucket = self.partial_bucket
        # A fresh reservoir for the new bucket.  The observer must NOT see the
        # retained active candidate as discarded, so we do not reset().
        self.partial = SingleReservoir(rng=self.rng, observer=self.observer)
        self.partial_bucket = new_bucket

    def offer(self, value: Any, index: int, timestamp: float, bucket: int) -> None:
        if self.partial_bucket is None:
            self.partial_bucket = bucket
        elif bucket != self.partial_bucket:
            self.roll_over(bucket)
        self.partial.offer(value, index, timestamp)

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        if self.active_sample is not None:
            yield self.active_sample
        yield from self.partial.iter_candidates()

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        if self.active_sample is not None:
            meter.add_elements().add_indexes().add_timestamps()
        meter.add_counters()  # active bucket id
        meter.add_words(self.partial.memory_words())
        meter.add_counters()  # partial bucket id
        return meter.total

    def state_dict(self) -> Dict[str, Any]:
        # The lane's generator is also its partial reservoir's generator.
        return {
            "rng": self.rng.get_state(),
            "active_sample": encode_optional_candidate(self.active_sample),
            "active_bucket": self.active_bucket,
            "partial": self.partial.state_dict(),
            "partial_bucket": self.partial_bucket,
        }

    def load_state_dict(self, state: Dict[str, Any], seed: int, stream: int) -> None:
        require_state_fields(
            state,
            ("rng", "active_sample", "active_bucket", "partial", "partial_bucket"),
            "_SingleSampleLane",
        )
        load_stream(self.rng, seed, stream, state["rng"])
        self.active_sample = decode_optional_candidate(state["active_sample"])
        self.active_bucket = None if state["active_bucket"] is None else int(state["active_bucket"])
        self.partial = SingleReservoir(rng=self.rng, observer=self.observer)
        self.partial.load_state_dict(state["partial"])
        self.partial_bucket = None if state["partial_bucket"] is None else int(state["partial_bucket"])


class SequenceSamplerWR(SequenceWindowSampler):
    """k samples *with replacement* from a fixed-size window (Theorem 2.1).

    The sampler maintains ``k`` independent copies of the single-sample scheme
    ("to create a k-random sample, we repeat the procedure k times,
    independently"), for a total of Θ(k) memory words — deterministically, at
    every point of the stream.
    """

    algorithm = "boz-seq-wr"
    with_replacement = True
    deterministic_memory = True

    __slots__ = ("_seed", "_lanes", "_np_gen")

    def __init__(
        self,
        n: int,
        k: int = 1,
        rng: RngLike = None,
        observer: Optional[CandidateObserver] = None,
        kernel: str = "python",
    ) -> None:
        super().__init__(n, k, observer)
        # Lane i draws from stream i of the sampler seed.  Reads draw
        # nothing (the window sample is a lookup), so there is no query
        # stream.
        self._seed = seed = sampler_seed(rng)
        self._lanes = [_SingleSampleLane(LaneRng(seed, lane), observer) for lane in range(self._k)]
        self._np_gen = init_sampler_kernel(kernel, seed)

    # -- ingestion ----------------------------------------------------------

    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        index = self._arrivals
        ts = float(timestamp) if timestamp is not None else float(index)
        bucket = index // self._n
        for lane in self._lanes:
            lane.offer(value, index, ts, bucket)
        self._arrivals += 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append`: lane-major, with per-bucket slices.

        Each lane owns an independent generator, so feeding the whole batch
        through lane 0, then lane 1, ... consumes every generator exactly as
        the element-major ``append`` loop would, and each lane's reservoir
        jumps from acceptance to acceptance (see
        :meth:`SingleReservoir.offer_slice`) — bit-identical to ``append``.
        ``kernel="numpy"`` runs
        :func:`repro.core.kernels.seq_wr_process_batch` instead.
        Observer-carrying samplers fall back to the per-element loop so
        arrival notifications keep their element-major order.
        """
        check_batch_lengths(values, timestamps)
        count = len(values)
        if count == 0:
            return 0
        if self._observer is not None:
            return super().process_batch(values, timestamps)
        if self._np_gen is not None:
            # Vectorized kernel: whole-batch closed-form lane updates
            # (distributionally exact; see
            # repro.core.kernels.seq_wr_process_batch).
            from .kernels import seq_wr_process_batch

            seq_wr_process_batch(self, values, timestamps, count)
            return count
        n = self._n
        start = self._arrivals
        for lane in self._lanes:
            position = 0
            while position < count:
                index = start + position
                bucket = index // n
                if lane.partial_bucket is None:
                    lane.partial_bucket = bucket
                elif bucket != lane.partial_bucket:
                    lane.roll_over(bucket)
                segment_end = min(count, position + n - index % n)
                lane.partial.offer_slice(values, start, position, segment_end, timestamps)
                position = segment_end
        self._arrivals = start + count
        return count

    # -- sampling -----------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        if self._arrivals == 0:
            raise EmptyWindowError("no element has arrived yet")
        return [self._sample_lane(lane) for lane in self._lanes]

    def _sample_lane(self, lane: _SingleSampleLane) -> SampleCandidate:
        arrivals = self._arrivals
        window_start = max(0, arrivals - self._n)
        in_partial = arrivals % self._n
        if in_partial == 0 or arrivals <= self._n:
            # The window coincides with the bucket currently held by the
            # partial reservoir (either the bucket just completed, or the very
            # first — still filling — bucket).
            candidate = lane.partial.candidate
            if candidate is None:  # pragma: no cover - defensive; cannot happen
                raise EmptyWindowError("internal error: empty partial reservoir")
            return candidate
        active = lane.active_sample
        if active is not None and active.index >= window_start:
            return active
        candidate = lane.partial.candidate
        if candidate is None:  # pragma: no cover - defensive; cannot happen
            raise EmptyWindowError("internal error: empty partial reservoir")
        return candidate

    # -- introspection --------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        for lane in self._lanes:
            yield from lane.iter_candidates()

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants(2)  # n and k
        meter.add_counters()  # arrival counter
        for lane in self._lanes:
            meter.add_words(lane.memory_words())
        return meter.total

    # -- checkpointing --------------------------------------------------------

    def _encode_state(self) -> Dict[str, Any]:
        return {
            "n": self._n,
            "seed": self._seed,
            "lanes": [lane.state_dict() for lane in self._lanes],
        }

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        require_state_fields(payload, ("n", "seed", "lanes"), type(self).__name__)
        if int(payload["n"]) != self._n:
            raise ConfigurationError(f"snapshot has n={payload['n']}, sampler has n={self._n}")
        if len(payload["lanes"]) != len(self._lanes):
            raise ConfigurationError(
                f"snapshot has {len(payload['lanes'])} lanes, sampler has {len(self._lanes)}"
            )
        seed = int(payload["seed"])
        for stream, (lane, lane_state) in enumerate(zip(self._lanes, payload["lanes"])):
            lane.load_state_dict(lane_state, seed, stream)
        self._seed = seed


class SequenceSamplerWOR(SequenceWindowSampler):
    """k samples *without replacement* from a fixed-size window (Theorem 2.2).

    A single pair of bucket k-reservoirs suffices.  At query time, if ``i``
    candidates of the active bucket's k-sample have expired, they are replaced
    by a uniform ``i``-subsample of the partial bucket's k-sample — the paper
    proves the result is a uniform k-subset of the window.  Memory is Θ(k)
    words, deterministically.

    When the window holds fewer than ``k`` elements the sampler returns all of
    them (``allow_partial=True``, the default) or raises
    :class:`~repro.exceptions.InsufficientSampleError`.
    """

    algorithm = "boz-seq-wor"
    with_replacement = False
    deterministic_memory = True

    __slots__ = (
        "_seed", "_allow_partial", "_reservoir_rng", "_query_rng", "_np_gen",
        "_active_slots", "_active_bucket", "_partial", "_partial_bucket",
    )

    def __init__(
        self,
        n: int,
        k: int = 1,
        rng: RngLike = None,
        observer: Optional[CandidateObserver] = None,
        allow_partial: bool = True,
        kernel: str = "python",
    ) -> None:
        super().__init__(n, k, observer)
        self._seed = seed = sampler_seed(rng)
        self._allow_partial = bool(allow_partial)
        self._reservoir_rng = LaneRng(seed, 0)
        self._query_rng = LaneRng(seed, QUERY_STREAM)
        self._np_gen = init_sampler_kernel(kernel, seed)
        self._active_slots: List[SampleCandidate] = []
        self._active_bucket: Optional[int] = None
        self._partial = ReservoirWithoutReplacement(self._k, rng=self._reservoir_rng, observer=observer)
        self._partial_bucket: Optional[int] = None

    # -- ingestion -------------------------------------------------------------

    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        index = self._arrivals
        ts = float(timestamp) if timestamp is not None else float(index)
        bucket = index // self._n
        if self._partial_bucket is None:
            self._partial_bucket = bucket
        elif bucket != self._partial_bucket:
            self._roll_over(bucket)
        self._partial.offer(value, index, ts)
        self._arrivals += 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append` over per-bucket slices of the batch.

        Bit-identical to the ``append`` loop (same acceptances, same victims,
        same generator position; see
        :meth:`ReservoirWithoutReplacement.offer_slice`).
        ``kernel="numpy"`` runs
        :func:`repro.core.kernels.seq_wor_process_batch` instead.
        Observer-carrying samplers fall back to the per-element loop.
        """
        check_batch_lengths(values, timestamps)
        count = len(values)
        if count == 0:
            return 0
        if self._observer is not None:
            return super().process_batch(values, timestamps)
        if self._np_gen is not None:
            # Vectorized kernel: one hypergeometric split per reservoir
            # transition instead of per-element/per-skip loops (see
            # repro.core.kernels.seq_wor_process_batch).
            from .kernels import seq_wor_process_batch

            seq_wor_process_batch(self, values, timestamps, count)
            return count
        n = self._n
        start = self._arrivals
        position = 0
        while position < count:
            index = start + position
            bucket = index // n
            if self._partial_bucket is None:
                self._partial_bucket = bucket
            elif bucket != self._partial_bucket:
                self._roll_over(bucket)
            segment_end = min(count, position + n - index % n)
            self._partial.offer_slice(values, start, position, segment_end, timestamps)
            position = segment_end
        self._arrivals = start + count
        return count

    def _roll_over(self, new_bucket: int) -> None:
        if self._observer is not None:
            for candidate in self._active_slots:
                self._observer.on_discard(candidate)
        self._active_slots = self._partial.sample()
        self._active_bucket = self._partial_bucket
        self._partial = ReservoirWithoutReplacement(
            self._k, rng=self._reservoir_rng, observer=self._observer
        )
        self._partial_bucket = new_bucket

    # -- sampling ---------------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        if self._arrivals == 0:
            raise EmptyWindowError("no element has arrived yet")
        candidates = self._select_candidates()
        if len(candidates) < self._k and not self._allow_partial:
            from ..exceptions import InsufficientSampleError

            raise InsufficientSampleError(
                f"window holds only {len(candidates)} elements, k={self._k} requested"
            )
        return candidates

    def _select_candidates(self) -> List[SampleCandidate]:
        arrivals = self._arrivals
        window_start = max(0, arrivals - self._n)
        in_partial = arrivals % self._n
        if in_partial == 0 or arrivals <= self._n:
            # Window equals the bucket held by the partial reservoir.
            return self._partial.sample()
        surviving = [candidate for candidate in self._active_slots if candidate.index >= window_start]
        expired_count = len(self._active_slots) - len(surviving)
        if expired_count == 0:
            return list(self._active_slots)
        replacement = self._partial.subsample(expired_count, rng=self._query_rng)
        return surviving + replacement

    # -- introspection -------------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        yield from self._active_slots
        yield from self._partial.iter_candidates()

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants(2)  # n and k
        meter.add_counters()  # arrival counter
        held = len(self._active_slots)
        meter.add_elements(held).add_indexes(held).add_timestamps(held)
        meter.add_counters(2)  # bucket ids
        meter.add_words(self._partial.memory_words())
        return meter.total

    # -- checkpointing --------------------------------------------------------------

    def _encode_state(self) -> Dict[str, Any]:
        return {
            "n": self._n,
            "active_slots": [encode_candidate(candidate) for candidate in self._active_slots],
            "active_bucket": self._active_bucket,
            "partial": self._partial.state_dict(),
            "partial_bucket": self._partial_bucket,
            "seed": self._seed,
            "rng": self._reservoir_rng.get_state(),
            "query_rng": self._query_rng.get_state(),
        }

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        require_state_fields(
            payload,
            ("n", "active_slots", "active_bucket", "partial", "partial_bucket", "seed", "rng", "query_rng"),
            type(self).__name__,
        )
        if int(payload["n"]) != self._n:
            raise ConfigurationError(f"snapshot has n={payload['n']}, sampler has n={self._n}")
        self._active_slots = [decode_candidate(encoded) for encoded in payload["active_slots"]]
        self._active_bucket = (
            None if payload["active_bucket"] is None else int(payload["active_bucket"])
        )
        seed = int(payload["seed"])
        load_stream(self._reservoir_rng, seed, 0, payload["rng"])
        load_stream(self._query_rng, seed, QUERY_STREAM, payload["query_rng"])
        self._seed = seed
        self._partial = ReservoirWithoutReplacement(
            self._k, rng=self._reservoir_rng, observer=self._observer
        )
        self._partial.load_state_dict(payload["partial"])
        self._partial_bucket = (
            None if payload["partial_bucket"] is None else int(payload["partial_bucket"])
        )
