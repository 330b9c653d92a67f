"""Snapshot encoding helpers shared by every checkpointable structure.

Samplers expose ``state_dict()`` / ``load_state_dict()`` (mirroring the
familiar torch convention) so that a keyed engine can checkpoint thousands of
per-key samplers and a restarted process can resume with *identical* sample
state — including the exact position of every pseudo-random stream, so the
restored sampler's future draws match the original's draw for draw.

The helpers below encode the two primitives every snapshot is built from:

* :class:`~repro.rng.LaneRng` stream positions.  A sampler stores its 64-bit
  seed once; each stream is ``[draw counter, coin cursor]``, two small ints,
  and is rebuilt from ``(seed, stream id, position)``.
* :class:`~repro.core.tracking.SampleCandidate` records, including the
  observer scratch ``state`` dict (omitted when empty) so application
  estimators (occurrence counters, triangle watchers) survive a restore.

Encoded states are plain Python containers (lists, dicts, numbers, plus the
stream element values themselves), so a snapshot can be pickled, msgpacked or
JSON-encoded by whatever persistence layer sits on top.  Observers themselves
are *not* part of a snapshot — they are wiring, reattached by the caller that
rebuilds the sampler — only the per-candidate state they accumulated is.

Format 1 held a 625-int Mersenne-Twister vector per stream; format 2 holds
counters.  A format-1 snapshot is refused, never converted: its streams
cannot be continued by the counter generator.

**Shared candidates.**  The observer-free timestamp samplers keep one
candidate record per arrival however many lanes read it: ts-WR puts the
record in all 2k sample slots of the arrival's bucket row, and ts-WOR hands
one singleton bucket to all ``k`` delayed copies.  So one record (and, in
ts-WOR, one bucket structure) is reachable from many places in a sampler.
Their ``state_dict`` threads a *memo* — a plain dict created for that one
call, mapping ``id(object)`` to its encoded dict — through every encoder, so
each distinct object is encoded once and every further reference reuses the
same dict; pickle then writes a short memo reference instead of a repeated
dict.  ts-WR writes one bucket dict per lane, as k separate automata would,
except for a width-1 row holding one record, whose dict every lane shares.
``load_state_dict`` threads a memo mapping ``id(encoded dict)`` back to one
decoded object, so a restored sampler shares again.  The memo is scoped to
the call (no module state: tenants snapshot on separate threads), and the
logical content is unchanged — a snapshot without sharing, such as one
written before the shared singletons or passed through JSON, decodes to
the same state with nothing shared.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..exceptions import ConfigurationError
from ..rng import LaneRng
from .tracking import SampleCandidate

__all__ = [
    "STATE_FORMAT",
    "load_stream",
    "encode_candidate",
    "decode_candidate",
    "encode_optional_candidate",
    "decode_optional_candidate",
    "require_state_fields",
]

#: Version tag stamped into every ``state_dict`` (bump on incompatible change).
STATE_FORMAT = 2


def load_stream(rng: LaneRng, seed: Any, stream: int, encoded: List[Any]) -> None:
    """Move ``rng`` to the snapshot position ``encoded`` of stream
    ``(seed, stream)``; a malformed position is a configuration error."""
    try:
        rng.set_state(int(seed), stream, encoded)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"invalid rng state in snapshot: {error}") from error


def encode_candidate(
    candidate: SampleCandidate, memo: Optional[Dict[int, Any]] = None
) -> Dict[str, Any]:
    """Encode a retained candidate, with its observer scratch state if any;
    with a ``memo``, a candidate already encoded returns the same dict."""
    if memo is not None:
        encoded = memo.get(id(candidate))
        if encoded is not None:
            return encoded
    encoded = {"value": candidate.value, "index": candidate.index, "timestamp": candidate.timestamp}
    if candidate._state:
        encoded["state"] = dict(candidate._state)
    if memo is not None:
        memo[id(candidate)] = encoded
    return encoded


def decode_candidate(
    encoded: Dict[str, Any], memo: Optional[Dict[int, Any]] = None
) -> SampleCandidate:
    """Rebuild a candidate from :func:`encode_candidate` output; with a
    ``memo``, one encoded dict decodes to one candidate."""
    if memo is not None:
        decoded = memo.get(id(encoded))
        if decoded is not None:
            return decoded
    state = encoded.get("state")
    decoded = SampleCandidate(
        encoded["value"],
        int(encoded["index"]),
        float(encoded["timestamp"]),
        dict(state) if state else None,
    )
    if memo is not None:
        memo[id(encoded)] = decoded
    return decoded


def encode_optional_candidate(candidate: Optional[SampleCandidate]) -> Optional[Dict[str, Any]]:
    return None if candidate is None else encode_candidate(candidate)


def decode_optional_candidate(encoded: Optional[Dict[str, Any]]) -> Optional[SampleCandidate]:
    return None if encoded is None else decode_candidate(encoded)


def require_state_fields(state: Dict[str, Any], fields: tuple, context: str) -> None:
    """Validate that a snapshot dict carries every expected field."""
    if not isinstance(state, dict):
        raise ConfigurationError(f"{context}: snapshot must be a dict, got {type(state).__name__}")
    missing = [name for name in fields if name not in state]
    if missing:
        raise ConfigurationError(f"{context}: snapshot is missing fields {missing}")
