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


def encode_candidate(candidate: SampleCandidate) -> Dict[str, Any]:
    """Encode a retained candidate, with its observer scratch state if any."""
    encoded = {"value": candidate.value, "index": candidate.index, "timestamp": candidate.timestamp}
    if candidate._state:
        encoded["state"] = dict(candidate._state)
    return encoded


def decode_candidate(encoded: Dict[str, Any]) -> SampleCandidate:
    """Rebuild a candidate from :func:`encode_candidate` output."""
    state = encoded.get("state")
    return SampleCandidate(
        encoded["value"],
        int(encoded["index"]),
        float(encoded["timestamp"]),
        dict(state) if state else None,
    )


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
