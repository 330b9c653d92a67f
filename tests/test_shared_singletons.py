"""The timestamp samplers' apply path: one ``Incr``, one singleton per arrival.

Every caller — ``append``, ``process_batch`` and observer-carrying samplers —
extends a covering decomposition through the same probe and in-place merge
cascade.  Without an observer each arrival's singleton bucket (and its one
candidate record) is built once and shared by the k lanes; with one, each
lane builds its own, because observers keep state per candidate.  Snapshots
encode what the lanes share once, and a restored sampler shares again.
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
    return [
        (
            coverage.now,
            None if coverage.straddler is None else (coverage.straddler.start, coverage.straddler.end),
            coverage.boundaries(),
            coverage.rng.get_state(),
        )
        for coverage in sampler._coverages
    ]


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
    retained = sum(
        2 * (len(coverage) + (coverage.straddler is not None))
        for coverage in watched._coverages
    )
    assert observer.discarded > 0
    assert observer.selected - observer.discarded == retained


@pytest.mark.parametrize("family", FAMILIES)
def test_observer_free_lanes_share_each_arrival(family):
    sampler = family(t0=50.0, k=4, rng=3)
    sampler.process_batch(list(range(30)), [float(t) for t in range(30)])
    sampler.append(30, 30.0)
    for first in (31, 33):
        newest = [coverage._buckets[-1] for coverage in sampler._coverages]
        if family is TimestampSamplerWR:
            # Every lane's newest bucket is the newest arrival's singleton.
            assert all(bucket is newest[0] for bucket in newest)
        else:
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
    newest = [coverage._buckets[-1] for coverage in sampler._coverages]
    candidates = [id(c) for bucket in newest for c in (bucket.r_sample, bucket.q_sample)]
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
    buckets = [coverage._buckets[-1] for coverage in restored._coverages]
    assert all(bucket is buckets[0] for bucket in buckets)
    assert buckets[0].r_sample is buckets[0].q_sample


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
