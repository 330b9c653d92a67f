"""Abstract sampler interfaces shared by the paper's algorithms and the baselines.

Two axes define the four problem variants of the paper:

* **window type** — sequence-based (last ``n`` arrivals) vs timestamp-based
  (last ``t0`` time units);
* **replacement** — samples drawn with replacement (k independent uniform
  samples) vs without replacement (a uniform k-subset).

Every concrete sampler implements :class:`WindowSampler`.  Sequence-based
samplers additionally derive from :class:`SequenceWindowSampler` (they expose
``n``); timestamp-based ones derive from :class:`TimestampWindowSampler`
(they expose ``t0`` and accept ``advance_time``).

The uniform contract:

* ``append(value, timestamp)`` — process one arriving stream element.
* ``sample()`` — return the current window sample as a list of
  :class:`~repro.streams.element.StreamElement`:  length ``k`` for
  with-replacement samplers (duplicates possible), ``min(k, window size)``
  distinct elements for without-replacement samplers.  Raises
  :class:`~repro.exceptions.EmptyWindowError` when the window is empty.
* ``memory_words()`` — the current footprint in the paper's word-RAM model.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..exceptions import ConfigurationError, StreamOrderError
from ..streams.element import StreamElement
from .serialization import STATE_FORMAT, require_state_fields
from .tracking import CandidateObserver, SampleCandidate, notify_arrival

__all__ = [
    "WindowSampler",
    "SequenceWindowSampler",
    "TimestampWindowSampler",
    "candidate_to_element",
    "check_batch_lengths",
    "coerce_batch_timestamps",
    "init_sampler_kernel",
]


def init_sampler_kernel(kernel: str, seed: int) -> Any:
    """The numpy generator a sampler's batched path draws from for
    ``kernel="numpy"``, or ``None`` for ``kernel="python"``.

    ``"python"`` (the default) resolves without touching
    :mod:`repro.core.kernels` at all — the stdlib-only path stays free of
    any numpy import.  Any other name is validated there (an unknown
    name, or ``"numpy"`` on a numpy-free host, raises
    :class:`~repro.exceptions.ConfigurationError`), and ``"numpy"`` gets a
    dedicated ``numpy.random.Generator`` seeded from the sampler seed's
    kernel stream.
    """
    if str(kernel).lower() == "python":
        return None
    from .kernels import make_generator, resolve_kernel

    resolve_kernel(kernel)
    return make_generator(seed)


def check_batch_lengths(
    values: Sequence[Any], timestamps: Optional[Sequence[Optional[float]]]
) -> None:
    """Reject a batch whose timestamp column does not match its values.

    Shared by every ``process_batch`` implementation so the misuse fails
    loudly and identically everywhere, instead of a silent ``zip``
    truncation (base path) or a bare ``IndexError`` (batched paths).
    """
    if timestamps is not None and len(timestamps) != len(values):
        raise ConfigurationError(
            f"process_batch timestamps must match values in length:"
            f" {len(timestamps)} != {len(values)}"
        )


def coerce_batch_timestamps(
    count: int,
    timestamps: Optional[Sequence[Optional[float]]],
    now: float,
) -> List[float]:
    """Validate and normalise one batch's timestamps for a clocked sampler.

    Applies the per-element ``append`` contract to a whole batch: a missing
    timestamp means "now" (zero before any timestamped element), explicit
    timestamps must be numeric and non-decreasing starting from the
    sampler's current clock ``now``.  Unlike the per-element path, the whole
    batch is validated *before* any element is applied, so a mid-batch
    :class:`~repro.exceptions.StreamOrderError` leaves the sampler untouched.
    """
    stamps = [0.0] * count
    previous = now
    if timestamps is None:
        fill = previous if previous != float("-inf") else 0.0
        for position in range(count):
            stamps[position] = fill
        return stamps
    for position in range(count):
        raw = timestamps[position]
        if raw is None:
            ts = previous if previous != float("-inf") else 0.0
        else:
            try:
                ts = float(raw)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"batch timestamp must be a number, got {raw!r}"
                ) from None
            if ts < previous:
                raise StreamOrderError(
                    f"timestamps must be non-decreasing: {ts} < {previous}"
                )
        stamps[position] = ts
        previous = ts
    return stamps


def candidate_to_element(candidate: SampleCandidate) -> StreamElement:
    """Convert an internal candidate into the public element record."""
    return StreamElement(value=candidate.value, index=candidate.index, timestamp=candidate.timestamp)


class WindowSampler(abc.ABC):
    """Common interface of every sliding-window sampler in the library.

    The optimal samplers are per-key state in a keyed engine, so their
    classes declare ``__slots__`` down the hierarchy and an instance holds
    its fields inline, without a per-instance dict.  Subclasses without
    ``__slots__`` — the baselines — keep a ``__dict__``.
    """

    __slots__ = ("_k", "_observer", "_arrivals")

    #: Human-readable algorithm name (used by the harness and the CLI).
    algorithm: str = "abstract"
    #: Whether samples are drawn with replacement.
    with_replacement: bool = True
    #: Whether the memory footprint is deterministic (the paper's algorithms)
    #: or a random variable (the baselines it improves upon).
    deterministic_memory: bool = True

    def __init__(self, k: int, observer: Optional[CandidateObserver] = None) -> None:
        if k <= 0:
            raise ConfigurationError("sample size k must be positive")
        self._k = int(k)
        self._observer = observer
        self._arrivals = 0

    @property
    def k(self) -> int:
        """Number of samples maintained."""
        return self._k

    @property
    def total_arrivals(self) -> int:
        """Number of elements appended so far."""
        return self._arrivals

    @property
    def observer(self) -> Optional[CandidateObserver]:
        return self._observer

    @property
    def kernel(self) -> str:
        """The active batched-ingest kernel: ``"python"`` (the bit-identity
        reference; all baselines) or ``"numpy"`` (the vectorized kernels of
        the optimal samplers, see :mod:`repro.core.kernels`), read off the
        sampler's numpy generator."""
        return "python" if getattr(self, "_np_gen", None) is None else "numpy"

    # -- stream ingestion -------------------------------------------------

    @abc.abstractmethod
    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        """Process one arriving element.

        For sequence-based samplers the timestamp is optional metadata; for
        timestamp-based samplers a missing timestamp means "now" (the current
        logical clock).
        """

    def extend(self, elements: Iterable[Any], *, time_value_pairs: bool = False) -> None:
        """Append many elements.

        Accepts raw values or :class:`StreamElement` records (whose timestamps
        are honoured).  With ``time_value_pairs=True`` every item must instead
        be a ``(timestamp, value)`` pair — the keyword spells out the order
        because it is the reverse of ``append(value, timestamp)`` — so
        timestamp-window samplers can be batch-fed from ``(time, payload)``
        feeds without wrapping each record in a :class:`StreamElement`.  The
        pair interpretation is opt-in because tuples are legitimate stream
        *values* (e.g. graph edges).
        """
        if time_value_pairs:
            for timestamp, value in elements:
                self.append(value, timestamp)
            return
        for element in elements:
            if isinstance(element, StreamElement):
                self.append(element.value, element.timestamp)
            else:
                self.append(element)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Append a whole batch of elements; returns the number appended.

        ``values`` is a sequence of payloads; ``timestamps`` is either
        ``None`` (every element uses the per-element default) or a sequence
        of the same length whose entries may individually be ``None``.

        This base implementation simply loops :meth:`append`; the optimal
        samplers override it with a batched path that hoists attribute
        lookups out of the inner loop, jumps from one reservoir acceptance
        to the next (and, for the timestamp samplers, amortises the covering
        automata's merge walks and expiry scans across the batch).  The
        overrides are **bit-identical** to the equivalent ``append`` loop:
        same retained candidates, same generator positions, same
        checkpoints — except on ``kernel="numpy"``, which is
        distributionally exact instead.
        """
        check_batch_lengths(values, timestamps)
        if timestamps is None:
            append = self.append
            for value in values:
                append(value)
        else:
            append = self.append
            for value, timestamp in zip(values, timestamps):
                append(value, timestamp)
        return len(values)

    # -- sampling ----------------------------------------------------------

    @abc.abstractmethod
    def sample_candidates(self) -> List[SampleCandidate]:
        """Draw the current window sample as retained candidate records.

        The returned objects are the sampler's internal candidates (not
        copies), so any observer state attached to them — occurrence counters,
        triangle watchers — is visible to the caller.  Most users should call
        :meth:`sample` instead.
        """

    def sample(self) -> List[StreamElement]:
        """Draw the current window sample (see module docstring for shape)."""
        return [candidate_to_element(candidate) for candidate in self.sample_candidates()]

    def sample_values(self) -> List[Any]:
        """Values only, for callers that do not need indexes/timestamps."""
        return [element.value for element in self.sample()]

    def sample_one(self) -> StreamElement:
        """Convenience accessor for ``k == 1`` samplers."""
        drawn = self.sample()
        if not drawn:
            raise ConfigurationError("sampler returned an empty sample")
        return drawn[0]

    # -- introspection ------------------------------------------------------

    @abc.abstractmethod
    def memory_words(self) -> int:
        """Current footprint in the paper's word-RAM model."""

    @abc.abstractmethod
    def iter_candidates(self) -> Iterator[SampleCandidate]:
        """All candidates currently retained (used by observers, memory audits
        and the Section-5 applications)."""

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the sampler's full state as plain Python containers.

        The snapshot captures every retained candidate (including observer
        scratch state) and the exact position of every internal random
        generator — on ``kernel="numpy"`` also the kernels' numpy generator,
        as ``kernel_rng`` — so a sampler restored via :meth:`load_state_dict`
        produces *identical* samples and identical future behaviour under an
        identical suffix of the stream.  Observers are wiring, not state:
        they are not serialised and stay attached to whatever sampler loads
        the snapshot.
        """
        state = {
            "format": STATE_FORMAT,
            "type": type(self).__name__,
            "algorithm": self.algorithm,
            "k": self._k,
            "arrivals": self._arrivals,
            "payload": self._encode_state(),
        }
        generator = getattr(self, "_np_gen", None)
        if generator is not None:
            state["kernel_rng"] = generator.bit_generator.state
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_dict` in place.

        The receiving sampler must have been constructed with the same shape
        (class and ``k``; subclasses additionally check ``n`` / ``t0``);
        mismatches raise :class:`~repro.exceptions.ConfigurationError`.  A
        python-kernel sampler ignores a ``kernel_rng`` entry, which its
        batched path never draws from.
        """
        require_state_fields(state, ("format", "type", "k", "arrivals", "payload"), type(self).__name__)
        if state["format"] != STATE_FORMAT:
            raise ConfigurationError(
                f"unsupported snapshot format {state['format']!r} (expected {STATE_FORMAT})"
            )
        if state["type"] != type(self).__name__:
            raise ConfigurationError(
                f"snapshot was taken from {state['type']}, cannot load into {type(self).__name__}"
            )
        if int(state["k"]) != self._k:
            raise ConfigurationError(f"snapshot has k={state['k']}, sampler has k={self._k}")
        self._decode_state(state["payload"])
        generator = getattr(self, "_np_gen", None)
        if generator is not None and "kernel_rng" in state:
            try:
                generator.bit_generator.state = state["kernel_rng"]
            except (TypeError, ValueError, KeyError, OverflowError) as error:
                raise ConfigurationError(f"invalid kernel rng state in snapshot: {error!r}") from error
        self._arrivals = int(state["arrivals"])

    def _encode_state(self) -> Dict[str, Any]:
        """Subclass hook: encode algorithm-specific state (see state_dict)."""
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        """Subclass hook: restore algorithm-specific state in place."""
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    # -- observer plumbing ---------------------------------------------------

    def _notify_arrival(self, value: Any, index: int, timestamp: float) -> None:
        """Deliver an arrival to the attached observer for every retained
        candidate strictly older than the arrival."""
        notify_arrival(self._observer, self.iter_candidates(), value, index, timestamp)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self._k}, arrivals={self._arrivals})"


class SequenceWindowSampler(WindowSampler):
    """Sampler over a sequence-based (fixed-size) window of the last ``n`` arrivals."""

    __slots__ = ("_n",)

    def __init__(self, n: int, k: int, observer: Optional[CandidateObserver] = None) -> None:
        super().__init__(k, observer)
        if n <= 0:
            raise ConfigurationError("window size n must be positive")
        self._n = int(n)

    @property
    def n(self) -> int:
        """Configured window size (number of most recent elements considered active)."""
        return self._n

    @property
    def window_size(self) -> int:
        """Number of currently active elements: ``min(n, arrivals)``."""
        return min(self._n, self._arrivals)


class TimestampWindowSampler(WindowSampler):
    """Sampler over a timestamp-based window of span ``t0``.

    An element with timestamp ``T(p)`` is active at time ``now`` iff
    ``now - T(p) < t0``.  The logical clock advances via ``advance_time`` or
    implicitly when an element with a larger timestamp is appended.
    """

    __slots__ = ("_t0",)

    def __init__(self, t0: float, k: int, observer: Optional[CandidateObserver] = None) -> None:
        super().__init__(k, observer)
        if t0 <= 0:
            raise ConfigurationError("window span t0 must be positive")
        self._t0 = float(t0)

    @property
    def t0(self) -> float:
        """Configured window span."""
        return self._t0

    @abc.abstractmethod
    def advance_time(self, now: float) -> None:
        """Move the logical clock forward to ``now`` (expiring old elements)."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current logical time."""
