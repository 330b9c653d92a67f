"""The timestamp samplers' apply path: one ``Incr``, one record per arrival.

Every caller — ``append``, ``process_batch`` and observer-carrying samplers —
extends a covering decomposition through the same probe and in-place merge
cascade.  ts-WR's k lanes share one geometry (one row per bucket); without
an observer each arrival's one candidate record fills all 2k sample slots of
its row.  ts-WOR's delayed copies share each arrival's singleton bucket.
With an observer each lane gets its own records, because observers keep
state per candidate.  Snapshots encode what the lanes share once, and a
restored sampler shares again.
"""

import json
import pickle
import random

import pytest

from repro.core import TimestampSamplerWOR, TimestampSamplerWR
from repro.core.tracking import CandidateObserver


class CountingObserver(CandidateObserver):
    """Keeps no candidate state, so its samplers' snapshots equal the
    observer-free ones; counts the callbacks so the test sees them fire."""

    def __init__(self):
        self.selected = 0
        self.discarded = 0

    def on_select(self, candidate):
        self.selected += 1

    def on_discard(self, candidate):
        self.discarded += 1


FAMILIES = [
    pytest.param(TimestampSamplerWR, id="ts-wr"),
    pytest.param(TimestampSamplerWOR, id="ts-wor"),
]


def drive(samplers, seed, steps=150):
    """Feed every sampler the same random mix of appends, batches, clock
    moves and reads; return the reads of each."""
    rng = random.Random(seed)
    reads = [[] for _ in samplers]
    now = max(0.0, *(sampler.now for sampler in samplers))
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            # Mostly dense arrivals, sometimes a gap past t0 (expiry).
            now += rng.expovariate(3.0) if rng.random() < 0.85 else rng.uniform(6.0, 20.0)
            value = rng.randrange(10)
            for sampler in samplers:
                sampler.append(value, now)
        elif roll < 0.75:
            size = rng.choice([1, 2, 5, 40, 300])
            values = [rng.randrange(10) for _ in range(size)]
            stamps = []
            for _ in range(size):
                now += rng.expovariate(6.0) if rng.random() < 0.97 else rng.uniform(6.0, 20.0)
                stamps.append(now)
            for sampler in samplers:
                sampler.process_batch(values, stamps)
        elif roll < 0.85:
            now += rng.uniform(0.0, 9.0)
            for sampler in samplers:
                sampler.advance_time(now)
        else:
            for sampler, read in zip(samplers, reads):
                try:
                    read.append(sampler.sample())
                except Exception as error:  # an empty window is a valid read
                    read.append(type(error).__name__)
    return reads


def geometry(sampler):
    if isinstance(sampler, TimestampSamplerWR):
        coverage = sampler._coverage
        return (
            coverage.now,
            coverage.straddler_bounds,
            coverage.boundaries(),
            [rng.get_state() for rng in coverage.rngs],
        )
    return [
        (
            coverage.now,
            None if coverage.straddler is None else (coverage.straddler.start, coverage.straddler.end),
            coverage.boundaries(),
            coverage.rng.get_state(),
        )
        for coverage in sampler._coverages
    ]


def retained_buckets(sampler):
    """Buckets each lane retains, the straddler included, summed over lanes."""
    if isinstance(sampler, TimestampSamplerWR):
        coverage = sampler._coverage
        return sampler.k * (coverage.bucket_count + (coverage.straddler_bounds is not None))
    return sum(
        len(coverage) + (coverage.straddler is not None) for coverage in sampler._coverages
    )


def newest_row(sampler):
    """ts-WR's newest bucket row: its geometry and its 2k sample slots."""
    flat = sampler._coverage._flat
    return flat[-(4 + 2 * sampler.k) :]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(6))
def test_observer_and_observer_free_take_the_same_incr(family, seed):
    observer = CountingObserver()
    plain = family(t0=8.0, k=4, rng=seed)
    watched = family(t0=8.0, k=4, rng=seed, observer=observer)
    plain_reads, watched_reads = drive([plain, watched], seed)
    assert geometry(plain) == geometry(watched)
    assert plain_reads == watched_reads
    assert plain.state_dict() == watched.state_dict()
    # Every selection is discarded exactly once when its candidate leaves
    # (a merge's losing side, or expiry): what is still selected is what
    # the lanes retain, two records per bucket.
    assert observer.discarded > 0
    assert observer.selected - observer.discarded == 2 * retained_buckets(watched)


@pytest.mark.parametrize("family", FAMILIES)
def test_observer_free_lanes_share_each_arrival(family):
    sampler = family(t0=50.0, k=4, rng=3)
    sampler.process_batch(list(range(30)), [float(t) for t in range(30)])
    sampler.append(30, 30.0)
    for first in (31, 33):
        if family is TimestampSamplerWR:
            # One geometry row for the newest arrival, whose one record
            # fills every lane's R and Q slot.
            row = newest_row(sampler)
            assert row[:2] == [first - 1, first]
            assert all(record is row[4] for record in row[4:])
            assert row[4].index == first - 1
            # Every width-1 bucket holds one record, so the sampler keeps at
            # most one record per arrival, however many lanes read it.
            flat = sampler._coverage._flat
            for base in range(0, len(flat), len(row)):
                if flat[base + 1] - flat[base] == 1:
                    assert len({id(record) for record in flat[base + 4 : base + len(row)]}) == 1
            assert len({id(record) for record in sampler.iter_candidates()}) <= first
        else:
            newest = [coverage._buckets[-1] for coverage in sampler._coverages]
            # Copy i's newest bucket is element (newest - i)'s singleton,
            # the one the auxiliary array holds.
            recent = list(sampler._recent)
            for delay, bucket in enumerate(newest):
                assert bucket is recent[-1 - delay]
            assert all(bucket.r_sample is bucket.q_sample for bucket in newest)
        sampler.process_batch([first, first + 1], [float(first), float(first + 1)])


@pytest.mark.parametrize("family", FAMILIES)
def test_observer_lanes_keep_their_own_candidates(family):
    sampler = family(t0=50.0, k=4, rng=3, observer=CountingObserver())
    for step in range(12):
        sampler.append(step, float(step))
    if family is TimestampSamplerWR:
        # One geometry row, and 2k records of the arrival in its sample slots.
        candidates = [id(record) for record in newest_row(sampler)[4:]]
    else:
        newest = [coverage._buckets[-1] for coverage in sampler._coverages]
        candidates = [id(c) for bucket in newest for c in (bucket.r_sample, bucket.q_sample)]
    assert len(candidates) == 2 * sampler.k
    assert len(set(candidates)) == len(candidates)
    if family is TimestampSamplerWOR:
        held = {id(bucket.r_sample) for bucket in sampler._recent}
        assert held.isdisjoint(candidates)


def test_one_record_snapshot_is_small_and_restores_shared():
    sampler = TimestampSamplerWR(t0=4.0, k=8, rng=1)
    sampler.append(123_456, 1.0)
    payload = pickle.dumps(sampler.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)
    # 667 B when written; each lane repeating the singleton took 1,235 B.
    assert len(payload) <= 800, len(payload)
    restored = TimestampSamplerWR(t0=4.0, k=8, rng=99)
    restored.load_state_dict(pickle.loads(payload))
    assert restored.state_dict() == sampler.state_dict()
    # The one encoded singleton decodes to one record in all 16 slots.
    row = newest_row(restored)
    assert len(row) == 4 + 2 * 8
    assert all(record is row[4] for record in row[4:])


def unshared(state):
    """The same snapshot with every container a distinct object — the shape
    a snapshot written before the shared singletons has."""
    return json.loads(json.dumps(state))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_snapshot_without_sharing_loads_and_continues_identically(family, seed):
    original = family(t0=8.0, k=3, rng=seed)
    drive([original], seed)
    state = unshared(original.state_dict())
    assert state == original.state_dict()
    restored = family(t0=8.0, k=3, rng=seed + 100)
    restored.load_state_dict(state)
    assert restored.state_dict() == original.state_dict()
    reads = drive([original, restored], seed + 7)
    assert reads[0] == reads[1]
    assert restored.state_dict() == original.state_dict()
