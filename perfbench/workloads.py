"""The benchmark's workloads and their seeded input generators.

Inputs are built with the standard library only, from the ``--seed``
argument, so the parent commit and a change provably drive the program with
the same records (the digest printed beside the results proves it).  Nothing
here imports the program: generators must not move when a later change edits
``repro.streams``.

The stream is held compactly — one key id and one timestamp per record in
``array`` columns — and each batch is materialised into fresh ``(key, value,
timestamp)`` tuples just before it is sent.  The program then retains key
strings, values and timestamps that the benchmark itself does not keep, as
it would when parsing them off the wire, so their bytes count in
``rss_bytes_per_key``.  Every record's value is its position in the stream,
unique, so the answer oracle can name the record behind each sampled
element.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Records per ingest call or POST body.  Below ~1k records per call,
#: per-call hand-offs rather than sampling work set the rate.
BATCH = 1000

#: Each run measures at least this many query batches, so that ten lie
#: beyond the reported p90.
MIN_QUERY_SAMPLES = 100

#: ``sample`` ops per query batch, plus one ``hottest``.  One query batch
#: follows every ingest batch.
SAMPLES_PER_QUERY = 4

#: Set-ups per run, each in a fresh process; ``setup_s`` is their mean
#: without the fastest and the slowest.
SETUP_TRIALS = 5

#: Segments of the timed phase, each followed by a full checkpoint and a
#: restore; ``checkpoint_s`` and ``restore_s`` are the means of these trials
#: without the fastest and the slowest.
RESTORE_TRIALS = 5

#: Ingest batches the traced run sends through the layers the in-process
#: workloads do not call (serve, source, executor, transport, wal).
PROBE_BATCHES = 20


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the fleet it runs against."""

    name: str
    window: str
    n: Optional[int]
    t0: Optional[float]
    k: int
    shards: int
    max_keys_per_shard: Optional[int]
    #: Key names: ``key_format.format(key_id)``.
    key_format: str
    #: Keys born during set-up, one warm-fill record each.
    population: int
    #: Input sizing only: the generator makes ``HEADROOM`` times the
    #: records this rate would consume, so a faster program still finds
    #: input for the whole timed phase.
    expected_krps: float

    def recipe(self) -> Dict[str, Any]:
        """The sampler spec fields, as ``SamplerSpec`` keyword arguments."""
        return {"window": self.window, "n": self.n, "t0": self.t0, "k": self.k, "replacement": True}


WORKLOADS: Dict[str, Workload] = {
    # The timestamp-window covering-decomposition sampler carries the work:
    # a fixed key set, all born in set-up, so no births, evictions or
    # serving happen in the timed phase.
    "hot-keys": Workload(
        name="hot-keys",
        window="timestamp",
        n=None,
        t0=4.0,
        k=4,
        shards=8,
        max_keys_per_shard=None,
        key_format="h{:05d}",
        population=4000,
        expected_krps=25.0,
    ),
    # Key birth and LRU eviction carry the work: most keys are seen 1-3
    # times, over a key space 32x the live budget of 8 x 500 keys.
    "key-churn": Workload(
        name="key-churn",
        window="sequence",
        n=256,
        t0=None,
        k=4,
        shards=8,
        max_keys_per_shard=500,
        key_format="u{:06x}",
        population=5000,
        expected_krps=16.0,
    ),
}

#: Zipf exponent of hot-keys popularity.
ZIPF_S = 1.1
#: Poisson arrival rate of the hot-keys stream, in records per stream second.
ARRIVAL_RATE = 5000.0
#: Key space of the key-churn stream, as a multiple of its live budget.
CHURN_SPACE = 32
#: Visits per key-churn visitor, with their probabilities.
CHURN_VISITS = ((1, 0.5), (2, 0.3), (3, 0.2))
#: Largest gap, in records, between two visits of one key-churn visitor.
CHURN_GAP = 64
#: Sizing factor of the generated input over ``expected_krps``.
HEADROOM = 3.0

Record = Tuple[Any, ...]


@dataclass
class Inputs:
    """Everything a run sends, generated before set-up starts.

    Records ``0 .. population - 1`` are the warm fill; ingest batch ``i``
    is the next ``batch`` records after it.
    """

    workload: Workload
    key_ids: array
    #: Per-record timestamps, or ``None`` for a sequence window.
    stamps: Optional[array]
    #: ``queries[i]`` is asked right after ingest batch ``i``.
    queries: List[List[Tuple[Any, ...]]]
    digest: str

    @property
    def batches(self) -> int:
        return (len(self.key_ids) - self.workload.population) // BATCH

    def records(self, start: int, stop: int) -> List[Record]:
        """Records ``start .. stop - 1`` as fresh objects."""
        name = self.workload.key_format.format
        ids = self.key_ids
        if self.stamps is None:
            return [(name(ids[i]), i) for i in range(start, stop)]
        stamps = self.stamps
        return [(name(ids[i]), i, stamps[i]) for i in range(start, stop)]

    def warm(self) -> List[Record]:
        return self.records(0, self.workload.population)

    def batch(self, index: int) -> List[Record]:
        start = self.workload.population + index * BATCH
        return self.records(start, start + BATCH)

    def stream(self, count: int) -> Iterator[List[Record]]:
        """The first ``count`` ingest batches, one at a time."""
        return (self.batch(index) for index in range(count))

    def clock(self, index: int) -> float:
        """The stream clock after ingest batch ``index`` (timestamp windows)."""
        return self.stamps[self.workload.population + (index + 1) * BATCH - 1]


def _zipf_ids(rng: random.Random, population: int, count: int) -> List[int]:
    """``count`` draws from ``range(population)`` with Zipf(ZIPF_S)
    popularity over a seeded random ranking (so key names say nothing about
    popularity)."""
    ranked = list(range(population))
    rng.shuffle(ranked)
    weights = itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(population))
    return rng.choices(ranked, cum_weights=list(weights), k=count)


def _churn_ids(rng: random.Random, space: int, count: int) -> List[int]:
    """Visitors drawn from a key space of ``space`` ids, each visiting 1-3
    times with short gaps between its visits."""
    visits = [v for v, _ in CHURN_VISITS]
    probabilities = [p for _, p in CHURN_VISITS]
    pending: List[Tuple[int, int]] = []
    ids: List[int] = []
    for position in range(count):
        if pending and pending[0][0] <= position:
            ids.append(heapq.heappop(pending)[1])
            continue
        key_id = rng.randrange(space)
        ids.append(key_id)
        due = position
        for _ in range(rng.choices(visits, probabilities)[0] - 1):
            due += rng.randint(1, CHURN_GAP)
            heapq.heappush(pending, (due, key_id))
    return ids


def _key_space(workload: Workload) -> int:
    return CHURN_SPACE * workload.shards * workload.max_keys_per_shard


def _population(workload: Workload, seed: int) -> List[int]:
    """Key ids of the initial population, in warm-fill order."""
    rng = random.Random(f"{workload.name}/{seed}/population")
    if workload.max_keys_per_shard is not None:
        chosen = set()
        while len(chosen) < workload.population:
            chosen.add(rng.randrange(_key_space(workload)))
        population = sorted(chosen)
    else:
        population = list(range(workload.population))
    rng.shuffle(population)
    return population


def warm_fill(workload: Workload, seed: int) -> Inputs:
    """Only the set-up records: one per key of the initial population, so
    that every key is born before the timed phase."""
    population = _population(workload, seed)
    stamps = array("d", [0.0] * len(population)) if workload.window == "timestamp" else None
    return Inputs(workload, array("q", population), stamps, [], "")


def generate(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Build ``workload``'s inputs from ``seed`` (same seed, same inputs)."""
    population = _population(workload, seed)
    rng = random.Random(f"{workload.name}/{seed}/stream")
    total = int(HEADROOM * workload.expected_krps * 1000 * seconds)
    total = max(total - total % BATCH, 2 * MIN_QUERY_SAMPLES * BATCH)
    if workload.max_keys_per_shard is not None:
        stream = _churn_ids(rng, _key_space(workload), total)
    else:
        stream = _zipf_ids(rng, workload.population, total)
    key_ids = array("q", population + stream)
    stamps = None
    if workload.window == "timestamp":
        stamps = array("d", [0.0] * len(population))
        clock = 0.0
        expovariate = rng.expovariate
        for _ in range(total):
            clock += expovariate(ARRIVAL_RATE)
            stamps.append(clock)
    name = workload.key_format.format
    queries = []
    for start in range(len(population), len(key_ids), BATCH):
        # ``sample`` ops on keys of the batch just ingested (their windows
        # are non-empty when the query runs), plus one ``hottest``.
        keys = sorted(set(key_ids[start : start + BATCH]))
        chosen = rng.sample(keys, min(SAMPLES_PER_QUERY, len(keys)))
        queries.append([("sample", name(key_id)) for key_id in chosen] + [("hottest", 10)])
    digest = hashlib.sha256()
    digest.update(repr((workload, seed, seconds)).encode())
    digest.update(key_ids.tobytes())
    if stamps is not None:
        digest.update(stamps.tobytes())
    digest.update(repr(queries).encode())
    return Inputs(workload, key_ids, stamps, queries, digest.hexdigest())


def final_query(inputs: Inputs, asked: int) -> List[Tuple[Any, ...]]:
    """The query batch asked after the timed phase, before and after each
    restore: the ``sample`` ops of the last four query batches the phase
    asked (their keys are live and their windows non-empty), plus one
    ``hottest``."""
    ops: List[Tuple[Any, ...]] = []
    for batch in inputs.queries[max(0, asked - 4) : asked]:
        ops.extend(op for op in batch if op[0] == "sample" and op not in ops)
    return ops + [("hottest", 10)]


def jsonl(records: List[Record]) -> bytes:
    """A JSONL body in the array form ``[key, value(, timestamp)]``.

    Generated keys are plain ASCII without quotes, and ``repr`` of a float
    is a JSON number that parses back to the same float.
    """
    if records and len(records[0]) == 3:
        return "".join(f'["{k}",{v},{t!r}]\n' for k, v, t in records).encode()
    return "".join(f'["{k}",{v}]\n' for k, v in records).encode()


def query_body(ops: List[Tuple[Any, ...]]) -> bytes:
    """A ``POST /v1/<tenant>/query`` body for ``ops``."""
    documents = []
    for op in ops:
        if op[0] == "sample":
            documents.append({"op": "sample", "key": op[1]})
        else:
            documents.append({"op": "hottest", "top": op[1]})
    return json.dumps({"ops": documents}).encode()
