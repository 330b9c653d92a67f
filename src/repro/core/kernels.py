"""Vectorized (numpy) kernels for the batched sampler hot path.

The pure-python samplers in :mod:`repro.core` remain the *bit-identity
reference*: their batched path consumes each lane's counter-based generator
exactly like per-element appends and is byte-identical across every
executor.  This module adds the second implementation of the batched path,
run for ``kernel="numpy"``, that replaces the per-acceptance / per-merge
Python loops with closed-form whole-batch draws:

* **seq-WR** (:func:`seq_wr_process_batch`) — after a batch only the *last
  completed* bucket and the current partial bucket matter, so each lane's
  post-batch state is sampled directly with at most two uniforms per lane,
  drawn for all ``k`` lanes in one generator call.
* **seq-WOR** (:func:`seq_wor_process_batch`) — the post-batch k-subset of a
  bucket reservoir is drawn in one step: a hypergeometric split decides how
  many of the new arrivals displace held slots, then positions are chosen
  without replacement.
* **timestamp WR/WoR** (:func:`coverage_observe_batch`) — the covering
  decomposition's merge cascade is purely structural, so extending
  ``ζ(a, b)`` by a whole run of arrivals is done by *rebuilding* the canonical
  boundaries (Definition 3.1) and drawing each rebuilt bucket's R/Q samples
  width-weighted over its constituents — O(log) work per expiry run instead
  of a Python cascade per element.  Expiry runs are located with
  ``searchsorted`` over the (sorted) clock track plus an exact-predicate
  fixup, so Lemma 3.5 transitions fire at exactly the reference positions.

All of these are *distributionally* exact (gated by χ²+KS suites) but
consume a separate numpy generator, so they are not bit-identical to the
python path.  That generator is part of the sampler's snapshot, so a
restored numpy sampler continues its draws exactly.  After a kernel writes a
reservoir's count and sample directly, the reservoir's stored next
acceptance is redrawn for the new count, which is exact because its law
depends on the count alone.  ``kernel="python"`` (the default) never touches
this module.

numpy is an *optional* extra (``pip install 'swsample[fast]'``): import is
guarded, and ``kernel="numpy"`` on a host without it fails loudly with
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..exceptions import ConfigurationError
from ..rng import KERNEL_STREAM, stream_seed

try:  # pragma: no cover - exercised via HAS_NUMPY in both CI lanes
    import numpy as _np
except ImportError:  # pragma: no cover - the numpy-free tier-1 lane
    _np = None  # type: ignore[assignment]

#: Whether numpy is importable here.  ``kernel="numpy"`` requires it, and
#: tests monkeypatch it to simulate a numpy-free host.
HAS_NUMPY = _np is not None

#: Kernel names accepted by :func:`resolve_kernel`.
KERNELS = ("python", "numpy")

__all__ = [
    "HAS_NUMPY",
    "KERNELS",
    "resolve_kernel",
    "make_generator",
    "seq_wr_process_batch",
    "seq_wor_process_batch",
    "coverage_observe_batch",
]


def resolve_kernel(requested: str) -> str:
    """Validate a requested kernel name and return it normalised.

    ``"numpy"`` on a numpy-free host raises
    :class:`~repro.exceptions.ConfigurationError` (loudly, at construction
    time — never a silent downgrade); ``"python"`` always resolves.
    """
    name = str(requested).lower()
    if name not in KERNELS:
        raise ConfigurationError(
            f"unknown kernel {requested!r}; expected one of {', '.join(KERNELS)}"
        )
    if name == "numpy" and not HAS_NUMPY:
        raise ConfigurationError(
            "kernel='numpy' requires numpy, which is not installed;"
            " install the optional extra (pip install 'swsample[fast]')"
            " or use kernel='python'"
        )
    return name


def make_generator(seed: int) -> Any:
    """A numpy ``Generator`` seeded from the sampler seed's dedicated kernel
    stream (:data:`repro.rng.KERNEL_STREAM`), apart from the lanes' streams
    of the same seed."""
    if _np is None:  # pragma: no cover - callers resolve the kernel first
        raise ConfigurationError("numpy is not installed")
    return _np.random.default_rng(stream_seed(seed, KERNEL_STREAM))


# -- sequence-window kernels --------------------------------------------------


def _element_timestamp(
    timestamps: Optional[Sequence[Optional[float]]], position: int, index: int
) -> float:
    """The reservoir ``_slice_timestamp`` contract: missing -> arrival index."""
    if timestamps is None:
        return float(index)
    raw = timestamps[position]
    return float(index) if raw is None else float(raw)


def seq_wr_process_batch(sampler: Any, values: Sequence[Any], timestamps: Optional[Sequence[Optional[float]]], count: int) -> None:
    """Whole-batch update of every :class:`SequenceSamplerWR` lane.

    Per lane, the post-batch state only depends on the last completed bucket
    and the tail (partial) bucket, each of which needs one uniform sample:

    * no bucket boundary crossed — the partial reservoir absorbs ``count``
      more offers; the retained candidate survives with probability
      ``c / (c + count)``, otherwise a uniform new position wins (one draw
      decides both, via ``x = u * (c + count)``);
    * boundary crossed — the active sample becomes a uniform draw of the last
      *completed* bucket (hybrid old-partial + batch prefix when that bucket
      was already partially filled, pure batch segment otherwise) and the
      partial reservoir restarts as a uniform draw of the tail segment.

    All ``2k`` uniforms are drawn in a single generator call.
    """
    from .reservoir import SingleReservoir
    from .tracking import SampleCandidate

    n = sampler._n
    start = sampler._arrivals
    gen = sampler._np_gen
    lanes = sampler._lanes
    draws = gen.random((len(lanes), 2))
    pb_new = (start + count - 1) // n
    tail_start = pb_new * n - start  # batch position where the final bucket begins
    if tail_start < 0:
        tail_start = 0
    tail_len = count - tail_start
    for lane_at, lane in enumerate(lanes):
        partial = lane.partial
        if lane.partial_bucket is None:
            lane.partial_bucket = start // n
        pb_old = lane.partial_bucket
        u0 = draws[lane_at, 0]
        if pb_new == pb_old:
            # No roll-over: one reservoir transition for the whole batch.
            held = partial._count
            x = u0 * (held + count)
            if x >= held:
                position = int(x) - held
                if position >= count:  # float edge: u0 ~ 1.0
                    position = count - 1
                index = start + position
                partial._candidate = SampleCandidate(
                    value=values[position],
                    index=index,
                    timestamp=_element_timestamp(timestamps, position, index),
                )
            partial._count = held + count
            partial.redraw_next()
            continue
        last_completed = pb_new - 1
        if last_completed == pb_old:
            # The old partial bucket completes inside this batch: its final
            # reservoir is `held` old offers + the `n - held` completing ones.
            held = partial._count
            x = u0 * n
            if x < held:
                active = partial._candidate
            else:
                position = int(x) - held
                if position >= n - held:
                    position = n - held - 1
                index = start + position
                active = SampleCandidate(
                    value=values[position],
                    index=index,
                    timestamp=_element_timestamp(timestamps, position, index),
                )
        else:
            # The last completed bucket lies entirely inside the batch.
            base = last_completed * n - start
            offset = int(u0 * n)
            if offset >= n:
                offset = n - 1
            position = base + offset
            index = start + position
            active = SampleCandidate(
                value=values[position],
                index=index,
                timestamp=_element_timestamp(timestamps, position, index),
            )
        lane.active_sample = active
        lane.active_bucket = last_completed
        fresh = SingleReservoir(rng=lane.rng, observer=None)
        offset = int(draws[lane_at, 1] * tail_len)
        if offset >= tail_len:
            offset = tail_len - 1
        position = tail_start + offset
        index = start + position
        fresh._candidate = SampleCandidate(
            value=values[position],
            index=index,
            timestamp=_element_timestamp(timestamps, position, index),
        )
        fresh._count = tail_len
        fresh.redraw_next()
        lane.partial = fresh
        lane.partial_bucket = pb_new
    sampler._arrivals = start + count


def _wor_extend(
    reservoir: Any,
    base_index: int,
    lo: int,
    hi: int,
    values: Sequence[Any],
    timestamps: Optional[Sequence[Optional[float]]],
    gen: Any,
) -> None:
    """Extend one k-reservoir with batch positions ``[lo, hi)`` in one step.

    With ``c`` prior offers and ``m`` new ones, a uniform k-subset of the
    ``c + m`` total contains ``d ~ Hypergeometric(m, c, k)`` new elements;
    keep ``k - d`` of the held slots uniformly (the held slots are themselves
    a uniform subset of the old offers) and insert ``d`` distinct uniform new
    positions.  Exactly the reservoir's post-slice law, without the
    per-element (or per-acceptance) loop.  Once full, the reservoir's
    Algorithm L state is redrawn for the new count: ``W ~ Beta(k, c + m - k
    + 1)``, then the next acceptance.
    """
    from .tracking import SampleCandidate

    held_count = reservoir._count
    fresh = hi - lo
    if fresh <= 0:
        return
    k = reservoir._k
    slots = reservoir._slots
    total = held_count + fresh
    if total <= k:
        for position in range(lo, hi):
            index = base_index + position
            slots.append(
                SampleCandidate(
                    value=values[position],
                    index=index,
                    timestamp=_element_timestamp(timestamps, position, index),
                )
            )
        reservoir._count = total
        if total == k:
            reservoir.redraw_next(float(gen.beta(k, 1)))
        return
    new_wins = int(gen.hypergeometric(fresh, held_count, k)) if held_count else k
    keep = k - new_wins
    if keep < len(slots):
        kept_at = gen.choice(len(slots), size=keep, replace=False) if keep else ()
        kept = [slots[int(at)] for at in kept_at]
    else:
        kept = list(slots)
    winners: List[Any] = []
    if new_wins:
        for position_offset in gen.choice(fresh, size=new_wins, replace=False):
            position = lo + int(position_offset)
            index = base_index + position
            winners.append(
                SampleCandidate(
                    value=values[position],
                    index=index,
                    timestamp=_element_timestamp(timestamps, position, index),
                )
            )
    reservoir._slots = kept + winners
    reservoir._count = total
    reservoir.redraw_next(float(gen.beta(k, total - k + 1)))


def seq_wor_process_batch(sampler: Any, values: Sequence[Any], timestamps: Optional[Sequence[Optional[float]]], count: int) -> None:
    """Whole-batch update of :class:`SequenceSamplerWOR`'s bucket reservoirs.

    Mirrors :func:`seq_wr_process_batch`'s case split; each reservoir
    transition collapses to one hypergeometric split plus two
    without-replacement position draws (:func:`_wor_extend`).
    """
    from .reservoir import ReservoirWithoutReplacement

    n = sampler._n
    k = sampler._k
    start = sampler._arrivals
    gen = sampler._np_gen
    if sampler._partial_bucket is None:
        sampler._partial_bucket = start // n
    pb_old = sampler._partial_bucket
    pb_new = (start + count - 1) // n
    partial = sampler._partial
    if pb_new == pb_old:
        _wor_extend(partial, start, 0, count, values, timestamps, gen)
        sampler._arrivals = start + count
        return
    last_completed = pb_new - 1
    if last_completed == pb_old:
        # Complete the old partial bucket with the batch prefix, then freeze
        # its k-sample as the active slots.
        held = partial._count
        _wor_extend(partial, start, 0, n - held, values, timestamps, gen)
        sampler._active_slots = list(partial._slots)
    else:
        # The last completed bucket lies entirely inside the batch.
        fresh = ReservoirWithoutReplacement(k, rng=sampler._reservoir_rng, observer=None)
        base = last_completed * n - start
        _wor_extend(fresh, start, base, base + n, values, timestamps, gen)
        sampler._active_slots = list(fresh._slots)
    sampler._active_bucket = last_completed
    tail_start = pb_new * n - start
    fresh = ReservoirWithoutReplacement(k, rng=sampler._reservoir_rng, observer=None)
    _wor_extend(fresh, start, tail_start, count, values, timestamps, gen)
    sampler._partial = fresh
    sampler._partial_bucket = pb_new
    sampler._arrivals = start + count


# -- timestamp-window (covering decomposition) kernel -------------------------


def as_float_array(stamps: Sequence[float]) -> Any:
    """A float64 array view/copy of a timestamp column."""
    return _np.asarray(stamps, dtype=_np.float64)


def _extend_canonical(
    buckets: List[Any],
    new_base: int,
    new_count: int,
    values: Sequence[Any],
    values_offset: int,
    base_index: int,
    stamps: Any,
    gen: Any,
) -> None:
    """Extend a canonical bucket list by ``new_count`` arrivals in one step.

    ``Incr`` (Lemma 3.4) maintains exactly the canonical boundaries of
    Definition 3.1, never splits a bucket, and every merge picks each side's
    R/Q sample with probability proportional to nothing but the fair coin —
    which, applied along the (equal-width) merge tree, makes a final bucket's
    R sample a *width-weighted* pick among its constituents' R samples, with
    Q an independent identical pick.  So the post-run structure is rebuilt
    directly: compute ``canonical_boundaries(a, b + new_count)``, reuse
    untouched buckets, and for each widened bucket draw one uniform element
    index for R and one for Q, resolving each to the constituent that covers
    it (an old bucket's stored sample, or a fresh singleton candidate).
    """
    from .bucket_structure import BucketStructure
    from .covering import canonical_boundaries
    from .tracking import SampleCandidate

    a = buckets[0].start if buckets else new_base
    pairs = canonical_boundaries(a, new_base + new_count - 1)
    result: List[Any] = []
    old_at = 0
    old_len = len(buckets)
    for bucket_start, bucket_end in pairs:
        if (
            old_at < old_len
            and buckets[old_at].start == bucket_start
            and buckets[old_at].end == bucket_end
        ):
            result.append(buckets[old_at])
            old_at += 1
            continue
        constituents: List[Any] = []
        while old_at < old_len and buckets[old_at].start < bucket_end:
            constituents.append(buckets[old_at])
            old_at += 1
        width = bucket_end - bucket_start
        rebuilt = BucketStructure.__new__(BucketStructure)
        rebuilt.start = bucket_start
        rebuilt.end = bucket_end
        if constituents:
            rebuilt.first_value = constituents[0].first_value
            rebuilt.first_timestamp = constituents[0].first_timestamp
        else:
            position = bucket_start - base_index
            rebuilt.first_value = values[values_offset + position]
            rebuilt.first_timestamp = float(stamps[position])
        if width == 1:
            # A fresh singleton (the trailing BS(b, b+1), or a width-1 step of
            # a freshly anchored decomposition): R and Q are the element.
            position = bucket_start - base_index
            candidate = SampleCandidate(
                value=values[values_offset + position],
                index=bucket_start,
                timestamp=float(stamps[position]),
            )
            rebuilt.r_sample = candidate
            rebuilt.q_sample = candidate
            result.append(rebuilt)
            continue

        def _resolve(element: int) -> Any:
            position = element - base_index
            return SampleCandidate(
                value=values[values_offset + position],
                index=element,
                timestamp=float(stamps[position]),
            )

        pick_r, pick_q = (int(p) for p in gen.integers(0, width, size=2))
        element_r = bucket_start + pick_r
        element_q = bucket_start + pick_q
        r_sample = None
        q_sample = None
        for member in constituents:
            if r_sample is None and element_r < member.end:
                r_sample = member.r_sample
            if q_sample is None and element_q < member.end:
                q_sample = member.q_sample
        rebuilt.r_sample = r_sample if r_sample is not None else _resolve(element_r)
        rebuilt.q_sample = q_sample if q_sample is not None else _resolve(element_q)
        result.append(rebuilt)
    buckets[:] = result


def coverage_observe_batch(
    coverage: Any,
    values: Sequence[Any],
    values_offset: int,
    base_index: int,
    stamps: Any,
    clocks: Any,
    gen: Any,
) -> None:
    """Vectorized :meth:`WindowCoverage.observe_batch` (the numpy kernel).

    Element ``j`` of the chunk has stream index ``base_index + j``, value
    ``values[values_offset + j]``, timestamp ``stamps[j]`` and clock track
    ``clocks[j]`` (both float64 arrays; identical objects for undelayed
    feeds).  The chunk is processed as *runs* between Lemma 3.5 expiry
    transitions: within a run the front bucket's first timestamp is
    invariant, so the next transition position is found with one
    ``searchsorted`` over the sorted clock track (plus an exact-predicate
    fixup walk so float rounding matches the per-element reference), the run
    is applied structurally via :func:`_extend_canonical`, and the transition
    itself reuses the reference :meth:`_refresh` verbatim.
    """
    total = len(stamps)
    if total == 0:
        return
    t0 = coverage._t0
    now = coverage._now
    position = 0
    buckets = coverage._decomposition._buckets
    while position < total:
        if not buckets:
            # Lemma 4.1: while nothing active is stored, delayed elements
            # already expired on arrival are skipped wholesale.
            sub_clocks = clocks[position:]
            if now > float(sub_clocks[0]):
                sub_clocks = _np.maximum(sub_clocks, now)
            active = sub_clocks - stamps[position:] < t0
            hit = int(_np.argmax(active))
            if not bool(active[hit]):
                coverage._now = max(now, float(clocks[total - 1]))
                return
            position += hit
            now = max(now, float(clocks[position]))
            front_ts = float(stamps[position])
        else:
            front_ts = buckets[0].first_timestamp
        # Find where the next expiry transition fires: the first j with
        # clocks[j] - front_ts >= t0 (the reference's exact predicate).
        run_end = int(_np.searchsorted(clocks, front_ts + t0, side="left"))
        if run_end < position:
            run_end = position
        while run_end > position and float(clocks[run_end - 1]) - front_ts >= t0:
            run_end -= 1
        while run_end < total and float(clocks[run_end]) - front_ts < t0:
            run_end += 1
        if run_end > position:
            _extend_canonical(
                buckets,
                base_index + position,
                run_end - position,
                values,
                values_offset,
                base_index,
                stamps,
                gen,
            )
            now = max(now, float(clocks[run_end - 1]))
            position = run_end
        if position < total:
            # Transition: advance the clock to the triggering element and run
            # the reference Lemma 3.5 refresh, then continue with that
            # element still pending.
            now = max(now, float(clocks[position]))
            coverage._now = now
            coverage._refresh()
            buckets = coverage._decomposition._buckets
    coverage._now = now
