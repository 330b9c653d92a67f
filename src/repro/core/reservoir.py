"""Vitter's reservoir sampling — the one-pass primitive used inside buckets.

The paper's algorithms (§2 and §3) maintain, for every bucket, a uniform
random sample produced by "any one-pass algorithm (e.g., the reservoir
sampling method)" [Vitter 1985].  Two flavours are needed:

* :class:`SingleReservoir` — one uniform sample of everything offered so far
  (used by the with-replacement schemes, one instance per independent sample).
* :class:`ReservoirWithoutReplacement` — a uniform k-subset of everything
  offered so far, or everything when fewer than ``k`` elements were offered
  (used by the without-replacement scheme of §2.2).

Both are exact (not approximate), use O(1) / O(k) words and support the
candidate-observer hook of :mod:`repro.core.tracking`.

Both draw randomness once per *acceptance*, not once per offer: they store
the offer number of their next acceptance (Vitter's skip form of reservoir
sampling, *Random Sampling with a Reservoir*, TOMS 1985) and an offer that
does not reach it costs a counter increment.  :meth:`offer` and the batched
:meth:`offer_slice` read the same stored value and make the same draws in
the same order, so a per-element feed and a batched one leave bit-identical
states.

The crucial property used by §1.3.4 (independence of disjoint windows) also
holds here: the sample held after ``i`` offers is independent of which of the
later offers replace it, because each replacement decision uses fresh
randomness.
"""

from __future__ import annotations

from math import log, log1p
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..exceptions import ConfigurationError, EmptyWindowError
from ..memory import MemoryMeter, WORD_MODEL
from ..rng import ensure_rng
from .serialization import (
    decode_candidate,
    decode_optional_candidate,
    encode_candidate,
    encode_optional_candidate,
    require_state_fields,
)
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["SingleReservoir", "ReservoirWithoutReplacement"]

_SPAN64 = 1 << 64


def _slice_timestamp(
    timestamps: Optional[Sequence[Optional[float]]], position: int, index: int
) -> float:
    """Resolve one element's timestamp inside a batched offer.

    Mirrors the sequence samplers' ``append`` contract: a missing timestamp
    defaults to the element's arrival index.
    """
    if timestamps is None:
        return float(index)
    raw = timestamps[position]
    return float(index) if raw is None else float(raw)


class SingleReservoir:
    """A uniform single sample over an append-only stream of offers.

    Algorithm R with ``k = 1`` — the ``m``-th offer replaces the sample with
    probability ``1/m`` — in skip form: after an acceptance at offer ``m``
    the next acceptance is at offer ``J`` with ``P(J > j) = m / j``, drawn as
    ``floor(m / u) + 1`` for ``u ~ U(0, 1]``.  The law depends on ``m``
    alone, so a caller that moves the reservoir to a new count (the numpy
    kernels) redraws the stored value with :meth:`redraw_next`.
    """

    __slots__ = ("_rng", "_observer", "_count", "_candidate", "_next")

    def __init__(self, rng: Any = None, observer: Optional[CandidateObserver] = None) -> None:
        self._rng = ensure_rng(rng)
        self._observer = observer
        self._count = 0
        self._candidate: Optional[SampleCandidate] = None
        self._next = 1  # the first offer is always accepted

    @property
    def count(self) -> int:
        """Number of elements offered so far."""
        return self._count

    @property
    def is_empty(self) -> bool:
        return self._candidate is None

    @property
    def candidate(self) -> Optional[SampleCandidate]:
        """The currently retained candidate (``None`` before the first offer)."""
        return self._candidate

    def offer(self, value: Any, index: int, timestamp: float = 0.0) -> None:
        """Offer one element to the reservoir."""
        count = self._count + 1
        self._count = count
        if count == self._next:
            self._replace(SampleCandidate(value, index, timestamp))
            self._next = int(count / (1.0 - self._rng.random())) + 1

    def redraw_next(self) -> None:
        """Redraw the next acceptance for the current count (exact: the skip
        law is memoryless given the count)."""
        count = self._count
        self._next = int(count / (1.0 - self._rng.random())) + 1 if count else 1

    def _replace(self, candidate: SampleCandidate) -> None:
        if self._candidate is not None and self._observer is not None:
            self._observer.on_discard(self._candidate)
        self._candidate = candidate
        if self._observer is not None:
            self._observer.on_select(candidate)

    def offer_slice(
        self,
        values: Sequence[Any],
        base_index: int,
        lo: int,
        hi: int,
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> None:
        """Offer ``values[lo:hi]`` (stream indexes ``base_index + lo`` on) in
        one call — the batched form of :meth:`offer`.

        Jumps from acceptance to acceptance, making exactly the draws the
        per-element :meth:`offer` calls would make, so the resulting state —
        candidate, count, next acceptance *and* generator position — is
        bit-identical to the per-element path.  With an observer attached the
        per-element path runs so selection/discard notifications keep firing.
        """
        if self._observer is not None:
            for position in range(lo, hi):
                index = base_index + position
                self.offer(values[position], index, _slice_timestamp(timestamps, position, index))
            return
        count = self._count
        end = count + hi - lo  # offer number of the slice's last element
        accept = self._next
        if accept <= end:
            rng_random = self._rng.random
            shift = lo - count - 1  # offer number -> slice position
            while True:
                position = accept + shift
                index = base_index + position
                candidate = SampleCandidate(
                    values[position],
                    index,
                    float(index) if timestamps is None else _slice_timestamp(timestamps, position, index),
                )
                accept = int(accept / (1.0 - rng_random())) + 1
                if accept > end:
                    break
            self._candidate = candidate
            self._next = accept
        self._count = end

    def sample(self) -> SampleCandidate:
        """The current uniform sample of all offered elements."""
        if self._candidate is None:
            raise EmptyWindowError("reservoir is empty")
        return self._candidate

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        if self._candidate is not None:
            yield self._candidate

    def memory_words(self) -> int:
        """Footprint under the paper's word model: the stored candidate
        (value, index, timestamp) plus the offer counter."""
        meter = MemoryMeter(WORD_MODEL)
        if self._candidate is not None:
            meter.add_elements().add_indexes().add_timestamps()
        meter.add_counters()
        return meter.total

    def reset(self) -> None:
        """Forget everything (used when a bucket is discarded)."""
        if self._candidate is not None and self._observer is not None:
            self._observer.on_discard(self._candidate)
        self._candidate = None
        self._count = 0
        self._next = 1

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: offer count, retained candidate, next acceptance.  The
        generator belongs to the enclosing sampler, which snapshots it."""
        return {
            "count": self._count,
            "candidate": encode_optional_candidate(self._candidate),
            "next": self._next,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        require_state_fields(state, ("count", "candidate", "next"), "SingleReservoir")
        count, accept = int(state["count"]), int(state["next"])
        if accept <= count:
            raise ConfigurationError(f"snapshot's next acceptance {accept} is not after count {count}")
        self._count = count
        self._candidate = decode_optional_candidate(state["candidate"])
        self._next = accept

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SingleReservoir(count={self._count}, candidate={self._candidate})"


class ReservoirWithoutReplacement:
    """A uniform ``k``-subset of an append-only stream of offers.

    The first ``k`` offers fill the reservoir; afterwards the ``m``-th offer
    enters with probability ``k/m``, evicting a uniformly chosen slot.  When
    fewer than ``k`` elements have been offered the reservoir simply holds
    all of them — exactly the behaviour §2.2 relies on for partial buckets
    ("either X_B = C, if |C| < k, or X_B is a k-sample of C").

    The acceptances are drawn with Li's Algorithm L (*Reservoir-Sampling
    Algorithms of Time Complexity O(n(1 + log(N/n)))*, TOMS 1994): with
    ``W`` distributed as the largest of the ``k`` smallest of ``m`` uniform
    keys, the gap to the next acceptance is geometric with parameter ``W``,
    and each acceptance evicts a uniform slot and shrinks ``W`` by a factor
    ``U^(1/k)``.  One 64-bit draw ``d`` (redrawn in the rare top range that
    is not a multiple of ``k``) gives both the slot, ``d mod k``, and that
    ``U``, from ``d div k``; a second draw gives the gap.  The stored state
    is ``W`` and the next acceptance's offer number.  At count ``m`` the law
    of ``W`` is ``Beta(k, m - k + 1)``, so a caller that moves the reservoir
    to a new count redraws both with :meth:`redraw_next`.
    """

    __slots__ = ("_k", "_rng", "_observer", "_count", "_slots", "_next", "_w")

    def __init__(
        self,
        k: int,
        rng: Any = None,
        observer: Optional[CandidateObserver] = None,
    ) -> None:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        self._k = int(k)
        self._rng = ensure_rng(rng)
        self._observer = observer
        self._count = 0
        self._slots: List[SampleCandidate] = []
        self._next = 0  # armed when the fill phase ends
        self._w = 1.0

    @property
    def k(self) -> int:
        return self._k

    @property
    def count(self) -> int:
        """Number of elements offered so far."""
        return self._count

    @property
    def size(self) -> int:
        """Number of candidates currently held (``min(k, count)``)."""
        return len(self._slots)

    def _arm(self) -> None:
        """The fill phase just ended (count == k): draw ``W ~ Beta(k, 1)``
        and the first acceptance."""
        rng_random = self._rng.random
        w = (1.0 - rng_random()) ** (1.0 / self._k)
        self._w = w
        self._next = self._count + int(log(1.0 - rng_random()) / log1p(-w)) + 1

    def _accept(self) -> int:
        """Draw the evicted slot and advance ``W`` and the next acceptance
        (the step :meth:`offer_slice` inlines)."""
        k = self._k
        span = _SPAN64 // k
        limit = span * k
        draw = self._rng.getrandbits(64)
        while draw >= limit:
            draw = self._rng.getrandbits(64)
        w = self._w * ((draw // k + 0.5) / span) ** (1.0 / k)
        self._w = w
        self._next += int(log(1.0 - self._rng.random()) / log1p(-w)) + 1
        return draw % k

    def redraw_next(self, w: float) -> None:
        """Set ``W = w`` — a ``Beta(k, count - k + 1)`` draw made by the
        caller — and draw the next acceptance for the current count."""
        if self._count < self._k:
            return
        self._w = w
        self._next = self._count + int(log(1.0 - self._rng.random()) / log1p(-w)) + 1

    def offer(self, value: Any, index: int, timestamp: float = 0.0) -> None:
        """Offer one element to the reservoir."""
        count = self._count + 1
        self._count = count
        k = self._k
        if count <= k:
            candidate = SampleCandidate(value, index, timestamp)
            self._slots.append(candidate)
            if self._observer is not None:
                self._observer.on_select(candidate)
            if count == k:
                self._arm()
            return
        if count != self._next:
            return
        candidate = SampleCandidate(value, index, timestamp)
        victim = self._accept()
        if self._observer is not None:
            self._observer.on_discard(self._slots[victim])
            self._observer.on_select(candidate)
        self._slots[victim] = candidate

    def offer_slice(
        self,
        values: Sequence[Any],
        base_index: int,
        lo: int,
        hi: int,
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> None:
        """Offer ``values[lo:hi]`` (stream indexes ``base_index + lo`` on) in
        one call — the batched form of :meth:`offer`.

        Fills the reservoir without randomness, then jumps from acceptance
        to acceptance making exactly the draws per-element :meth:`offer`
        calls would make (victim, ``W`` update, next gap), so the resulting
        state is bit-identical to the per-element path.  With an observer
        attached the per-element path runs so selection/discard
        notifications keep firing.
        """
        if self._observer is not None:
            for position in range(lo, hi):
                index = base_index + position
                self.offer(values[position], index, _slice_timestamp(timestamps, position, index))
            return
        slots = self._slots
        k = self._k
        count = self._count
        position = lo
        while count < k and position < hi:
            count += 1
            index = base_index + position
            slots.append(SampleCandidate(values[position], index, _slice_timestamp(timestamps, position, index)))
            position += 1
            if count == k:
                self._count = count
                self._arm()
        end = count + hi - position  # offer number of the slice's last element
        accept = self._next
        if count >= k and accept <= end:
            rng_random = self._rng.random
            getrandbits = self._rng.getrandbits
            span = _SPAN64 // k
            limit = span * k
            inv_k = 1.0 / k
            shift = position - count - 1  # offer number -> slice position
            w = self._w
            while True:
                position = accept + shift
                index = base_index + position
                draw = getrandbits(64)
                while draw >= limit:
                    draw = getrandbits(64)
                slots[draw % k] = SampleCandidate(
                    values[position],
                    index,
                    float(index) if timestamps is None else _slice_timestamp(timestamps, position, index),
                )
                w *= ((draw // k + 0.5) / span) ** inv_k
                accept += int(log(1.0 - rng_random()) / log1p(-w)) + 1
                if accept > end:
                    break
            self._w = w
            self._next = accept
        self._count = end

    def sample(self) -> List[SampleCandidate]:
        """The current uniform k-subset (or everything, if count < k)."""
        return list(self._slots)

    def subsample(self, size: int, rng: Any = None) -> List[SampleCandidate]:
        """A uniform ``size``-subset of the held k-subset.

        A uniform subset of a uniform-without-replacement sample is itself a
        uniform without-replacement sample of the underlying population — the
        fact §2.2 uses to draw ``X_V^i`` from ``X_V``.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if size > len(self._slots):
            raise EmptyWindowError(
                f"cannot draw {size} elements from a reservoir holding {len(self._slots)}"
            )
        chooser = rng if rng is not None else self._rng
        return chooser.sample(self._slots, size)

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        yield from self._slots

    def memory_words(self) -> int:
        """Footprint: 3 words per held candidate plus the offer counter."""
        meter = MemoryMeter(WORD_MODEL)
        held = len(self._slots)
        meter.add_elements(held).add_indexes(held).add_timestamps(held)
        meter.add_counters()
        return meter.total

    def reset(self) -> None:
        if self._observer is not None:
            for candidate in self._slots:
                self._observer.on_discard(candidate)
        self._slots.clear()
        self._count = 0
        self._next = 0
        self._w = 1.0

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: offer count, held slots (in order), ``W`` and the next
        acceptance.  The generator belongs to the enclosing sampler."""
        return {
            "k": self._k,
            "count": self._count,
            "slots": [encode_candidate(candidate) for candidate in self._slots],
            "next": self._next,
            "w": self._w,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        require_state_fields(state, ("k", "count", "slots", "next", "w"), "ReservoirWithoutReplacement")
        if int(state["k"]) != self._k:
            raise ConfigurationError(f"snapshot has k={state['k']}, reservoir has k={self._k}")
        count, accept, w = int(state["count"]), int(state["next"]), float(state["w"])
        if count >= self._k and (accept <= count or not 0.0 < w <= 1.0):
            raise ConfigurationError(
                f"snapshot's next acceptance {accept} / W {w} is invalid at count {count}"
            )
        self._count = count
        self._slots = [decode_candidate(encoded) for encoded in state["slots"]]
        self._next = accept
        self._w = w

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReservoirWithoutReplacement(k={self._k}, count={self._count}, held={len(self._slots)})"
