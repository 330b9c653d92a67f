"""The answer oracle: the benchmark's own copy of the stream.

:class:`WindowModel` replays the records a run sent and keeps, per live key,
the records of that key's current sampler (a key evicted by the LRU budget
and seen again starts a fresh sampler, exactly as the program's pools do).
:func:`check_sample` then decides whether one ``sample`` answer is legal: k
elements, each a record of that key whose position and timestamp match, and
each inside the key's current window — among the key's last ``n`` records,
or stamped less than ``t0`` before the clock.

The module does not import the program; the run hands it the program's
public ``shard_of`` when the model must follow per-shard LRU eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A sampled element as ``(value, index, timestamp)``.
Element = Tuple[Any, int, Optional[float]]


class WindowModel:
    """Per-key records of every live sampler, under the run's LRU budget."""

    def __init__(
        self,
        window: str,
        k: int,
        n: Optional[int] = None,
        t0: Optional[float] = None,
        max_keys_per_shard: Optional[int] = None,
        shard_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        if max_keys_per_shard is not None and shard_of is None:
            raise ValueError("an LRU budget needs the program's shard_of")
        self.window = window
        self.k = k
        self.n = n
        self.t0 = t0
        self.now = float("-inf")
        self._cap = max_keys_per_shard
        self._shard_of = shard_of
        #: key -> (values, timestamps) of the key's current sampler.
        self.live: Dict[Any, Tuple[List[Any], List[Optional[float]]]] = {}
        self._lru: Dict[int, "OrderedDict[Any, None]"] = {}

    def ingest(self, records: Iterable[Sequence[Any]]) -> None:
        live = self.live
        for record in records:
            key, value = record[0], record[1]
            timestamp = record[2] if len(record) > 2 else None
            if timestamp is not None:
                self.now = max(self.now, timestamp)
            entry = live.get(key)
            if self._cap is not None:
                lru = self._lru.setdefault(self._shard_of(key), OrderedDict())
                if entry is None:
                    if len(lru) >= self._cap:
                        evicted, _ = lru.popitem(last=False)
                        del live[evicted]
                    lru[key] = None
                else:
                    lru.move_to_end(key)
            if entry is None:
                entry = live[key] = ([], [])
            entry[0].append(value)
            entry[1].append(timestamp)


def check_sample(model: WindowModel, key: Any, elements: Sequence[Element]) -> Optional[str]:
    """Why ``elements`` is not a legal sample of ``key`` now, or ``None``."""
    if len(elements) != model.k:
        return f"{key!r}: {len(elements)} elements, expected k={model.k}"
    entry = model.live.get(key)
    if entry is None:
        return f"{key!r}: answered, but the key has no live sampler"
    values, stamps = entry
    for value, index, timestamp in elements:
        if not 0 <= index < len(values) or values[index] != value:
            return f"{key!r}: element {value!r}@{index} is not this key's record"
        if model.window == "sequence":
            if index < len(values) - model.n:
                return f"{key!r}: element {value!r}@{index} left the last {model.n} records"
        else:
            if timestamp != stamps[index]:
                return f"{key!r}: element {value!r} has timestamp {timestamp!r}, sent {stamps[index]!r}"
            if not model.now - timestamp < model.t0:
                return f"{key!r}: element {value!r} at {timestamp!r} expired by {model.now!r}"
    return None


def check_outcomes(
    model: WindowModel,
    ops: Sequence[Tuple[Any, ...]],
    outcomes: Sequence[Tuple[str, Any]],
) -> List[str]:
    """Problems with one query batch's normalised outcomes.

    ``outcomes[i]`` is ``("ok", value)`` or ``("error", message)``, where a
    ``sample`` value is a list of :data:`Element` triples.  Every error is a
    problem; ``hottest`` answers must be a ranked list of at most ``top``
    live keys.
    """
    if len(outcomes) != len(ops):
        return [f"{len(outcomes)} outcomes for {len(ops)} ops"]
    problems = []
    for op, (status, value) in zip(ops, outcomes):
        if status != "ok":
            problems.append(f"{op!r}: {value}")
        elif op[0] == "sample":
            problem = check_sample(model, op[1], value)
            if problem is not None:
                problems.append(problem)
        elif op[0] == "hottest":
            if len(value) > op[1] or any(key not in model.live for key, _ in value):
                problems.append(f"{op!r}: {value!r} is not a ranking of live keys")
    return problems


def check_run(
    model: WindowModel,
    warm: Sequence[Sequence[Any]],
    batches: Iterable[Sequence[Sequence[Any]]],
    queries: Sequence[Sequence[Tuple[Any, ...]]],
    outcomes: Sequence[Sequence[Tuple[str, Any]]],
) -> List[str]:
    """Replay a run into ``model`` and check each query batch it asked.

    ``outcomes[i]`` answers ``queries[i]``, asked right after ingest batch
    ``i``; the model is left at the end of ``batches``.
    """
    model.ingest(warm)
    problems: List[str] = []
    for index, batch in enumerate(batches):
        model.ingest(batch)
        if index < len(outcomes):
            problems.extend(check_outcomes(model, queries[index], outcomes[index]))
    return problems
