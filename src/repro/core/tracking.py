"""Sample candidates and observer hooks.

A *candidate* is an element currently retained by a sampler: the content of a
reservoir slot, the ``R``/``Q`` samples of a bucket structure, or a chain /
priority entry in the baselines.  Candidates matter for two reasons:

1. Memory accounting — a sampler's footprint in the paper's word model is
   essentially the number of retained candidates.
2. The Section-5 applications (AMS frequency moments, CCM entropy, Buriol
   triangle counting) must *continue observing the stream* after a position is
   sampled: they count subsequent occurrences of the sampled value or watch
   for specific subsequent edges.  :class:`CandidateObserver` lets estimator
   state ride along with every retained candidate; when the sampler discards a
   candidate the state is discarded with it, so the memory bounds are
   preserved.

This is exactly the mechanism Theorem 5.1 needs: a sampling-based algorithm is
transferred to sliding windows by pointing it at our samplers' candidates
instead of at a whole-stream reservoir.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

__all__ = ["SampleCandidate", "CandidateObserver", "NullObserver", "OccurrenceCounter"]


class SampleCandidate:
    """An element currently retained by a sampler.

    ``state`` is a scratch dictionary owned by the observer attached to the
    sampler (if any); the samplers themselves never read it.  It is allocated
    on first access, so the observer-free samplers — nearly every keyed
    sampler — carry three fields per candidate and no dict.
    """

    __slots__ = ("value", "index", "timestamp", "_state")

    def __init__(
        self,
        value: Any,
        index: int,
        timestamp: float,
        state: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.value = value
        self.index = index
        self.timestamp = timestamp
        self._state = state

    @property
    def state(self) -> Dict[str, Any]:
        state = self._state
        if state is None:
            state = self._state = {}
        return state

    @state.setter
    def state(self, value: Dict[str, Any]) -> None:
        self._state = value

    def clone(self) -> "SampleCandidate":
        """A shallow copy sharing nothing with the original (state is copied)."""
        return SampleCandidate(
            self.value, self.index, self.timestamp, dict(self._state) if self._state else None
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SampleCandidate:
            return NotImplemented
        return (
            self.value == other.value  # type: ignore[attr-defined]
            and self.index == other.index  # type: ignore[attr-defined]
            and self.timestamp == other.timestamp  # type: ignore[attr-defined]
            and (self._state or {}) == (other._state or {})  # type: ignore[attr-defined]
        )

    __hash__ = None  # type: ignore[assignment]  # mutable: observers write ``state``

    def __repr__(self) -> str:
        return (
            f"SampleCandidate(value={self.value!r}, index={self.index!r},"
            f" timestamp={self.timestamp!r}, state={self._state or {}!r})"
        )


class CandidateObserver:
    """Base class for application hooks attached to a sampler.

    Sub-classes override some of the three callbacks.  All callbacks must be
    O(1) so they do not change the samplers' time bounds.
    """

    def on_select(self, candidate: SampleCandidate) -> None:
        """Called once when ``candidate`` becomes retained by the sampler."""

    def on_arrival(self, candidate: SampleCandidate, value: Any, index: int, timestamp: float) -> None:
        """Called for every retained candidate whenever a *later* element
        arrives (``index`` is strictly greater than ``candidate.index``)."""

    def on_discard(self, candidate: SampleCandidate) -> None:
        """Called when the sampler permanently drops ``candidate``."""


class NullObserver(CandidateObserver):
    """The default observer: does nothing."""


class OccurrenceCounter(CandidateObserver):
    """Counts, for each candidate, the occurrences of its value after its
    position.

    This is the statistic ``r`` of the AMS frequency-moment estimator and of
    the CCM entropy estimator: if position ``j`` holding value ``v`` is
    sampled, ``r = 1 + |{j' > j in the window : value(j') == v}|``.  Because
    the counter is attached to the candidate, it is maintained online while
    the candidate is retained and costs one word per candidate.
    """

    STATE_KEY = "occurrences_after"

    def on_select(self, candidate: SampleCandidate) -> None:
        candidate.state[self.STATE_KEY] = 0

    def on_arrival(self, candidate: SampleCandidate, value: Any, index: int, timestamp: float) -> None:
        if value == candidate.value:
            candidate.state[self.STATE_KEY] = candidate.state.get(self.STATE_KEY, 0) + 1

    @classmethod
    def count_of(cls, candidate: SampleCandidate) -> int:
        """The ``r`` statistic of a candidate: itself plus later occurrences."""
        return 1 + int(candidate.state.get(cls.STATE_KEY, 0))


def notify_arrival(
    observer: Optional[CandidateObserver],
    candidates: Iterable[SampleCandidate],
    value: Any,
    index: int,
    timestamp: float,
) -> None:
    """Deliver an arrival to every retained candidate older than it."""
    if observer is None:
        return
    for candidate in candidates:
        if candidate.index != index:
            observer.on_arrival(candidate, value, index, timestamp)
