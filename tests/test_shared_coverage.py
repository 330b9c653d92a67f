"""ts-WR's k lanes over one covering geometry (``SharedCoverage``).

Theorem 3.9's k independent Lemma 3.5 automata share their bucket
boundaries and expiry transitions, so ts-WR stores each bucket's geometry
once and the lanes' R and Q samples beside it.  Each lane still draws its
merge coins from its own stream in its own order, so the python kernel's
samples, generator positions and snapshots are those of k separate automata:

* a mixed feed (appends, batches with expiry gaps, clock moves, snapshot
  round trips and samples) over k in {1, 2, 4, 8} and three window spans,
  with and without an observer, reaches digests recorded with k separate
  automata (sha256 of ``repr``, so they do not depend on the Python
  version);
* a snapshot written by k separate automata loads and continues to a
  recorded digest;
* a snapshot whose lanes disagree on anything but their coins is refused;
* ``memory_words()`` counts the geometry once per bucket.
"""

import copy
import hashlib
import pickle
import random

import pytest

from repro.core import TimestampSamplerWR
from repro.core.kernels import HAS_NUMPY
from repro.core.tracking import OccurrenceCounter
from repro.exceptions import ConfigurationError, EmptyWindowError

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def mixed_feed(k, t0, seed, observe=False, steps=120):
    """Drive one sampler through a seeded mix of operations; return the
    sha256 of the ``repr`` of everything it showed along the way."""
    rng = random.Random(f"{k}/{t0}/{seed}/{observe}")

    def make(rng_seed):
        return TimestampSamplerWR(
            t0=t0, k=k, rng=rng_seed, observer=OccurrenceCounter() if observe else None
        )

    sampler = make(seed)
    now = 0.0
    trail = hashlib.sha256()
    for _ in range(steps):
        roll = rng.random()
        shown = None
        if roll < 0.3:
            now += rng.expovariate(20.0 / t0) if rng.random() < 0.9 else rng.uniform(t0, 3 * t0)
            sampler.append(rng.randrange(7), now)
        elif roll < 0.6:
            size = rng.choice([1, 2, 3, 40, 300])
            stamps = []
            for _ in range(size):
                now += rng.expovariate(200.0 / t0) if rng.random() < 0.995 else rng.uniform(t0, 2 * t0)
                stamps.append(now)
            sampler.process_batch([rng.randrange(7) for _ in range(size)], stamps)
        elif roll < 0.7:
            now += rng.uniform(0.0, 2 * t0)
            sampler.advance_time(now)
        elif roll < 0.8:
            restored = make(seed + 1)
            restored.load_state_dict(pickle.loads(pickle.dumps(sampler.state_dict())))
            sampler = restored
        else:
            try:
                shown = sampler.sample()
            except EmptyWindowError:
                shown = "empty"
        seen = (
            shown,
            sampler.active_count_estimate(),
            sampler.window_is_empty,
            sampler.state_dict(),
        )
        trail.update(repr(seen).encode("utf-8"))
    return trail.hexdigest()


# Recorded with k separate covering automata per sampler (one per lane).
FEED_DIGESTS = {
    (1, 0.5, 0, False): '371a09826c0da0f6c22087dd1edc572f5dfac4c71a6f148a48288240fa3d958c',
    (1, 0.5, 1, False): '90e0b430d6cf4188a6dbcc819a6b3973f630b4dec26f8fbbeaafa0779a65a8a6',
    (1, 4.0, 0, False): '33504bbe680d6c5d65284114d79c7d36909afbbe18aef735b483e8cecc18019c',
    (1, 4.0, 1, False): '90235bda9fae5c23dc9182a905ba1e89a32ece6a472018bc8e33b69331d69235',
    (1, 50.0, 0, False): 'cc50b2b0c6aba441d991dfbaf07724da0ad9ff45baac3fb3cbf757c7b91d9edf',
    (1, 50.0, 1, False): '1be11d4aead54dc3225edffc59f792dcb4d99d14d9fe3fa3457e9846e35bd88f',
    (2, 0.5, 0, False): '862d593783a1d5148a2ff68babf2900ead2e2b84e7221d6508e81c1dab74395e',
    (2, 0.5, 1, False): 'bb5c4c77f50a03035f7a7204abab4cb3a91564035f87ecf0757adfe7020fb9b7',
    (2, 4.0, 0, False): '1fe9991c9cab632ce37c002479505f1a734d8987738fd6ea8ca47a493c2633fb',
    (2, 4.0, 1, False): 'ae936d5d4d79ab38086a0dbbd473c4210eecd64792574768c2b85abe12ecd983',
    (2, 50.0, 0, False): '8ec0dac56079aca295f77a2d3a3a47fb2061335282d6ea8d2a2ad78c07caa44e',
    (2, 50.0, 1, False): '1d5ac51f316b42ef31d2af737567e43029bcf21c5cb85b5aafea85405e8f93fc',
    (4, 0.5, 0, False): '60ba7334c597663f29fd85cc8c57fb1cfa37ec3ea438ca433a5eb775f38ae1dd',
    (4, 0.5, 1, False): '83230c79ab1cf68a094df3679960a1eadc5f83aacae4abd7a078dd046540e57f',
    (4, 4.0, 0, False): 'c9c147872404533b087e35fdc0f4ae406b65d10ce7e9febb666b6023b7412158',
    (4, 4.0, 1, False): '4ec50c05fc25950fc0815e0fd4c4a780985e97914af6407974b3b7e6c80bcced',
    (4, 50.0, 0, False): '546d9b63bdbc621e953e8dc3bc4a5ef9c80a7925737fb41451495ee7e184c2eb',
    (4, 50.0, 1, False): 'e68998c483ea2d69993709d1288832aa91d677597c50cee6f7281d6448d26c66',
    (8, 0.5, 0, False): '422ee2cd46d3fd18ba0e79321e69d44948d60974abef03f84527b9092ec1b90b',
    (8, 0.5, 1, False): '0dab64e3b0ffedc71a9121ef5ccbf2df220895eb16a674579ccaec9206b62464',
    (8, 4.0, 0, False): 'e2c4c51be4a84559c444c929ce3db573fa6448739bb0160f8e7a7f10490bb6cb',
    (8, 4.0, 1, False): '8db7d5589113c9c1ea794f72b43cc9a9e21c6cd2435708c498c142128dbf84d7',
    (8, 50.0, 0, False): 'cceb89b6f86baca8750df48fed7824152a2243b6d56e7df20b8a315d7478274e',
    (8, 50.0, 1, False): 'c9c467c5238e9a741c3f8fc94f69678d0a61b9c8788bab1aa597cc5db0411939',
    (1, 4.0, 0, True): 'ba27e244822a5440bd98133357cf3bdae1a12764afe48023819f56612aefbd4c',
    (1, 4.0, 1, True): 'a9909d65a3ebbf130ee82a07909f1dab48314bddb1bdd7da909145124b3d21a2',
    (3, 4.0, 0, True): 'c557e1eda1ae2aae16b6c19a4542d2e5d491f82b8a8cbe8a2af3d476bfe4662c',
    (3, 4.0, 1, True): '8c01eb12a0933dfd20ea917aa144662b1691527a868b2a1724ed06372d5e813f',
}


@pytest.mark.parametrize("case", sorted(FEED_DIGESTS))
def test_mixed_feed_matches_separate_lane_automata(case):
    k, t0, seed, observe = case
    assert mixed_feed(k, t0, seed, observe) == FEED_DIGESTS[case]


# A snapshot written by k separate covering automata: ``TimestampSamplerWR(
# t0=4.0, k=4, rng=2024)`` fed elements 0..10 at timestamps 0.0, 0.5, .., 5.0
# in one batch, then ``append(11, 5.5)`` and one ``sample()``.  Each lane
# holds the straddler BS(0, 4) and the merged buckets BS(4, 8), BS(8, 10).
PARENT_SNAPSHOT = {
    'format': 2,
    'type': 'TimestampSamplerWR',
    'algorithm': 'boz-ts-wr',
    'k': 4,
    'arrivals': 12,
    'payload': {
        't0': 4.0,
        'now': 5.5,
        'coverages': [
            {
                'now': 5.5,
                'straddler': {'start': 0, 'end': 4, 'first_value': 0, 'first_timestamp': 0.0,
                 'r_sample': {'value': 2, 'index': 2, 'timestamp': 1.0},
                 'q_sample': {'value': 1, 'index': 1, 'timestamp': 0.5}},
                'decomposition': {'buckets': [
                {'start': 4, 'end': 8, 'first_value': 4, 'first_timestamp': 2.0,
                 'r_sample': {'value': 4, 'index': 4, 'timestamp': 2.0},
                 'q_sample': {'value': 7, 'index': 7, 'timestamp': 3.5}},
                {'start': 8, 'end': 10, 'first_value': 8, 'first_timestamp': 4.0,
                 'r_sample': {'value': 8, 'index': 8, 'timestamp': 4.0},
                 'q_sample': {'value': 8, 'index': 8, 'timestamp': 4.0}},
                {'start': 10, 'end': 11, 'first_value': 10, 'first_timestamp': 5.0,
                 'r_sample': {'value': 10, 'index': 10, 'timestamp': 5.0},
                 'q_sample': {'value': 10, 'index': 10, 'timestamp': 5.0}},
                {'start': 11, 'end': 12, 'first_value': 11, 'first_timestamp': 5.5,
                 'r_sample': {'value': 11, 'index': 11, 'timestamp': 5.5},
                 'q_sample': {'value': 11, 'index': 11, 'timestamp': 5.5}},
                ]},
            },
            {
                'now': 5.5,
                'straddler': {'start': 0, 'end': 4, 'first_value': 0, 'first_timestamp': 0.0,
                 'r_sample': {'value': 0, 'index': 0, 'timestamp': 0.0},
                 'q_sample': {'value': 2, 'index': 2, 'timestamp': 1.0}},
                'decomposition': {'buckets': [
                {'start': 4, 'end': 8, 'first_value': 4, 'first_timestamp': 2.0,
                 'r_sample': {'value': 7, 'index': 7, 'timestamp': 3.5},
                 'q_sample': {'value': 4, 'index': 4, 'timestamp': 2.0}},
                {'start': 8, 'end': 10, 'first_value': 8, 'first_timestamp': 4.0,
                 'r_sample': {'value': 9, 'index': 9, 'timestamp': 4.5},
                 'q_sample': {'value': 8, 'index': 8, 'timestamp': 4.0}},
                {'start': 10, 'end': 11, 'first_value': 10, 'first_timestamp': 5.0,
                 'r_sample': {'value': 10, 'index': 10, 'timestamp': 5.0},
                 'q_sample': {'value': 10, 'index': 10, 'timestamp': 5.0}},
                {'start': 11, 'end': 12, 'first_value': 11, 'first_timestamp': 5.5,
                 'r_sample': {'value': 11, 'index': 11, 'timestamp': 5.5},
                 'q_sample': {'value': 11, 'index': 11, 'timestamp': 5.5}},
                ]},
            },
            {
                'now': 5.5,
                'straddler': {'start': 0, 'end': 4, 'first_value': 0, 'first_timestamp': 0.0,
                 'r_sample': {'value': 0, 'index': 0, 'timestamp': 0.0},
                 'q_sample': {'value': 2, 'index': 2, 'timestamp': 1.0}},
                'decomposition': {'buckets': [
                {'start': 4, 'end': 8, 'first_value': 4, 'first_timestamp': 2.0,
                 'r_sample': {'value': 5, 'index': 5, 'timestamp': 2.5},
                 'q_sample': {'value': 4, 'index': 4, 'timestamp': 2.0}},
                {'start': 8, 'end': 10, 'first_value': 8, 'first_timestamp': 4.0,
                 'r_sample': {'value': 8, 'index': 8, 'timestamp': 4.0},
                 'q_sample': {'value': 9, 'index': 9, 'timestamp': 4.5}},
                {'start': 10, 'end': 11, 'first_value': 10, 'first_timestamp': 5.0,
                 'r_sample': {'value': 10, 'index': 10, 'timestamp': 5.0},
                 'q_sample': {'value': 10, 'index': 10, 'timestamp': 5.0}},
                {'start': 11, 'end': 12, 'first_value': 11, 'first_timestamp': 5.5,
                 'r_sample': {'value': 11, 'index': 11, 'timestamp': 5.5},
                 'q_sample': {'value': 11, 'index': 11, 'timestamp': 5.5}},
                ]},
            },
            {
                'now': 5.5,
                'straddler': {'start': 0, 'end': 4, 'first_value': 0, 'first_timestamp': 0.0,
                 'r_sample': {'value': 0, 'index': 0, 'timestamp': 0.0},
                 'q_sample': {'value': 1, 'index': 1, 'timestamp': 0.5}},
                'decomposition': {'buckets': [
                {'start': 4, 'end': 8, 'first_value': 4, 'first_timestamp': 2.0,
                 'r_sample': {'value': 4, 'index': 4, 'timestamp': 2.0},
                 'q_sample': {'value': 5, 'index': 5, 'timestamp': 2.5}},
                {'start': 8, 'end': 10, 'first_value': 8, 'first_timestamp': 4.0,
                 'r_sample': {'value': 8, 'index': 8, 'timestamp': 4.0},
                 'q_sample': {'value': 9, 'index': 9, 'timestamp': 4.5}},
                {'start': 10, 'end': 11, 'first_value': 10, 'first_timestamp': 5.0,
                 'r_sample': {'value': 10, 'index': 10, 'timestamp': 5.0},
                 'q_sample': {'value': 10, 'index': 10, 'timestamp': 5.0}},
                {'start': 11, 'end': 12, 'first_value': 11, 'first_timestamp': 5.5,
                 'r_sample': {'value': 11, 'index': 11, 'timestamp': 5.5},
                 'q_sample': {'value': 11, 'index': 11, 'timestamp': 5.5}},
                ]},
            },
        ],
        'seed': 2024,
        'rngs': [[1, 14], [1, 14], [1, 14], [1, 14]],
        'query_rng': [12, 64],
    },
}

#: The continuation's digest, recorded with k separate covering automata.
PARENT_CONTINUATION_DIGEST = "eed0a19b128ebe14be7802dd07da57fba3aab92232b61fa709dc85769db2bd22"


def continue_parent_snapshot(sampler):
    trail = hashlib.sha256()
    values = list(range(12, 60))
    sampler.process_batch(values, [6.0 + 0.25 * (value - 12) for value in values])
    trail.update(repr(sampler.sample()).encode("utf-8"))
    sampler.advance_time(19.0)
    trail.update(repr((sampler.sample(), sampler.active_count_estimate())).encode("utf-8"))
    for value in range(60, 75):
        sampler.append(value, 19.0 + 0.5 * (value - 60))
    trail.update(repr((sampler.sample(), sampler.state_dict())).encode("utf-8"))
    return trail.hexdigest()


def test_a_snapshot_of_separate_lane_automata_loads_and_continues():
    sampler = TimestampSamplerWR(t0=4.0, k=4, rng=0)
    sampler.load_state_dict(copy.deepcopy(PARENT_SNAPSHOT))
    assert sampler.state_dict() == PARENT_SNAPSHOT
    assert sampler._coverage.straddler_bounds == (0, 4)
    assert sampler._coverage.boundaries() == [(4, 8), (8, 10), (10, 11), (11, 12)]
    assert continue_parent_snapshot(sampler) == PARENT_CONTINUATION_DIGEST


def lane(state, number):
    return state["payload"]["coverages"][number]


def set_clock(state):
    lane(state, 2)["now"] = 5.25


def set_sampler_clock(state):
    state["payload"]["now"] = 6.0


def drop_straddler(state):
    lane(state, 1)["straddler"] = None


def drop_bucket(state):
    del lane(state, 3)["decomposition"]["buckets"][-1]


def move_boundary(state):
    buckets = lane(state, 1)["decomposition"]["buckets"]
    buckets[1]["end"] = 9
    buckets[2]["start"] = 9


def move_straddler(state):
    lane(state, 2)["straddler"]["end"] = 3


def shift_first_timestamp(state):
    lane(state, 3)["decomposition"]["buckets"][0]["first_timestamp"] = 2.5


DISAGREEMENTS = [
    pytest.param(set_clock, "clock", id="lane-clock"),
    pytest.param(set_sampler_clock, "clock", id="sampler-clock"),
    pytest.param(drop_straddler, "straddler", id="straddler-presence"),
    pytest.param(drop_bucket, "bucket count", id="bucket-count"),
    pytest.param(move_boundary, "boundaries", id="bucket-boundary"),
    pytest.param(move_straddler, "boundaries", id="straddler-boundary"),
    pytest.param(shift_first_timestamp, "boundaries", id="first-timestamp"),
]


@pytest.mark.parametrize("craft, message", DISAGREEMENTS)
def test_lanes_that_disagree_on_geometry_are_refused(craft, message):
    state = copy.deepcopy(PARENT_SNAPSHOT)
    craft(state)
    with pytest.raises(ConfigurationError, match=message):
        TimestampSamplerWR(t0=4.0, k=4, rng=0).load_state_dict(state)


def empty_bucket(state):
    for number in range(4):
        lane(state, number)["decomposition"]["buckets"][0]["end"] = 4


def garbage_clock(state):
    state["payload"]["now"] = "soon"


def garbage_candidate(state):
    lane(state, 0)["decomposition"]["buckets"][0]["r_sample"] = 7


def garbage_bucket(state):
    lane(state, 0)["decomposition"]["buckets"][0] = ["start", 4]


def garbage_lanes(state):
    state["payload"]["coverages"] = 4


@pytest.mark.parametrize(
    "craft", [empty_bucket, garbage_clock, garbage_candidate, garbage_bucket, garbage_lanes]
)
def test_malformed_lanes_are_a_configuration_error(craft):
    state = copy.deepcopy(PARENT_SNAPSHOT)
    craft(state)
    with pytest.raises(ConfigurationError):
        TimestampSamplerWR(t0=4.0, k=4, rng=0).load_state_dict(state)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_memory_words_count_the_geometry_once(k):
    sampler = TimestampSamplerWR(t0=4.0, k=k, rng=k)
    sampler.process_batch(list(range(100)), [0.05 * value for value in range(100)])
    coverage = sampler._coverage
    rows = coverage.bucket_count + (coverage.straddler_bounds is not None)
    assert rows > 5
    # t0, k, the arrival counter and the clock once; per bucket the first
    # element, two indexes and a timestamp, then 2k samples of three words.
    assert sampler.memory_words() == 4 + rows * (4 + 6 * k)


@needs_numpy
@pytest.mark.parametrize("k", [1, 3, 8])
def test_numpy_kernel_keeps_one_legal_geometry(k):
    rng = random.Random(k)
    kernelled = TimestampSamplerWR(t0=30.0, k=k, rng=k, kernel="numpy")
    reference = TimestampSamplerWR(t0=30.0, k=k, rng=k)
    now = 0.0
    for _ in range(40):
        size = rng.choice([1, 5, 60, 400])
        stamps = []
        for _ in range(size):
            now += rng.expovariate(4.0) if rng.random() < 0.99 else rng.uniform(30.0, 60.0)
            stamps.append(now)
        for sampler in (kernelled, reference):
            sampler.process_batch(list(range(size)), stamps)
        coverage = kernelled._coverage
        assert coverage.is_canonical()
        assert coverage.boundaries() == reference._coverage.boundaries()
        assert coverage.straddler_bounds == reference._coverage.straddler_bounds
        width = 4 + 2 * k
        rows = list(coverage._flat) + list(coverage._straddler or [])
        for base in range(0, len(rows), width):
            start, end = rows[base], rows[base + 1]
            records = rows[base + 4 : base + width]
            assert all(start <= record.index < end for record in records)
            if end - start == 1:
                assert all(record is records[0] for record in records)


@needs_numpy
def test_numpy_kernel_resumes_exactly_across_expiry():
    stamps = [position * 0.25 for position in range(600)]
    stamps[300:] = [stamp + 40.0 for stamp in stamps[300:]]

    def feed(sampler, lo, hi):
        sampler.process_batch(list(range(lo, hi)), stamps[lo:hi])

    original = TimestampSamplerWR(t0=20.0, k=4, rng=9, kernel="numpy")
    feed(original, 0, 250)
    restored = TimestampSamplerWR(t0=20.0, k=4, rng=9, kernel="numpy")
    restored.load_state_dict(pickle.loads(pickle.dumps(original.state_dict())))
    for lo, hi in ((250, 310), (310, 311), (311, 600)):
        feed(original, lo, hi)
        feed(restored, lo, hi)
        assert restored.state_dict() == original.state_dict()
        assert restored.sample() == original.sample()
