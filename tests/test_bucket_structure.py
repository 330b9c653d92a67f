"""Bucket structures BS(x, y) — §3.1."""

import random

import pytest

from repro.core.bucket_structure import BucketStructure
from repro.core.tracking import CandidateObserver, SampleCandidate


class RecordingObserver(CandidateObserver):
    def __init__(self):
        self.selected = 0
        self.discarded = 0

    def on_select(self, candidate):
        self.selected += 1

    def on_discard(self, candidate):
        self.discarded += 1


def singleton(index, value=None, timestamp=None, observer=None):
    return BucketStructure.singleton(
        value if value is not None else f"v{index}",
        index,
        float(timestamp if timestamp is not None else index),
        observer,
    )


class TestSingleton:
    def test_geometry(self):
        bucket = singleton(7)
        assert bucket.start == 7
        assert bucket.end == 8
        assert bucket.width == 1
        assert bucket.covers(7)
        assert not bucket.covers(8)

    def test_samples_equal_the_only_element(self):
        bucket = singleton(3, value="x", timestamp=9.0)
        assert bucket.r_sample.value == "x"
        assert bucket.q_sample.value == "x"
        assert bucket.r_sample.index == 3
        assert bucket.first_timestamp == 9.0

    def test_r_and_q_are_distinct_candidate_objects(self):
        """With an observer, R and Q are two records: the observer keeps
        separate scratch state on each."""
        bucket = singleton(3, observer=RecordingObserver())
        assert bucket.r_sample is not bucket.q_sample

    def test_observer_free_r_and_q_share_one_record(self):
        bucket = singleton(3)
        assert bucket.r_sample is bucket.q_sample

    def test_observer_sees_two_selections(self):
        observer = RecordingObserver()
        singleton(0, observer=observer)
        assert observer.selected == 2

    def test_invalid_boundaries_rejected(self):
        candidate = SampleCandidate(value=1, index=0, timestamp=0.0)
        with pytest.raises(ValueError):
            BucketStructure(start=5, end=5, first_value=1, first_timestamp=0.0,
                            r_sample=candidate, q_sample=candidate)


class TestMerge:
    def test_merge_geometry(self):
        left = BucketStructure.singleton("a", 0, 0.0)
        right = BucketStructure.singleton("b", 1, 1.0)
        merged = BucketStructure.merge(left, right, random.Random(1))
        assert merged.start == 0
        assert merged.end == 2
        assert merged.width == 2
        assert merged.first_value == "a"
        assert merged.first_timestamp == 0.0

    def test_merged_sample_comes_from_either_side(self):
        seen = set()
        for seed in range(50):
            left = BucketStructure.singleton("a", 0, 0.0)
            right = BucketStructure.singleton("b", 1, 1.0)
            merged = BucketStructure.merge(left, right, random.Random(seed))
            seen.add(merged.r_sample.value)
        assert seen == {"a", "b"}

    def test_merge_probability_is_one_half(self):
        kept_left = 0
        runs = 4000
        for seed in range(runs):
            left = BucketStructure.singleton("a", 0, 0.0)
            right = BucketStructure.singleton("b", 1, 1.0)
            merged = BucketStructure.merge(left, right, random.Random(seed))
            if merged.r_sample.value == "a":
                kept_left += 1
        assert abs(kept_left / runs - 0.5) < 0.03

    def test_non_adjacent_merge_rejected(self):
        left = BucketStructure.singleton("a", 0, 0.0)
        right = BucketStructure.singleton("b", 5, 5.0)
        with pytest.raises(ValueError):
            BucketStructure.merge(left, right, random.Random(1))

    def test_unequal_width_merge_rejected(self):
        left = BucketStructure.singleton("a", 0, 0.0)
        mid = BucketStructure.singleton("b", 1, 1.0)
        wide = BucketStructure.merge(left, mid, random.Random(1))
        tail = BucketStructure.singleton("c", 2, 2.0)
        with pytest.raises(ValueError):
            BucketStructure.merge(wide, tail, random.Random(1))

    def test_merge_notifies_discard_of_losing_samples(self):
        observer = RecordingObserver()
        left = BucketStructure.singleton("a", 0, 0.0, observer)
        right = BucketStructure.singleton("b", 1, 1.0, observer)
        BucketStructure.merge(left, right, random.Random(2), observer)
        # Exactly one R and one Q sample lose and are discarded.
        assert observer.discarded == 2


class TestExpiryAndBookkeeping:
    def test_first_expired(self):
        bucket = singleton(0, timestamp=10.0)
        assert not bucket.first_expired(now=14.9, t0=5.0)
        assert bucket.first_expired(now=15.0, t0=5.0)

    def test_first_candidate_matches_first_element(self):
        bucket = singleton(4, value="first", timestamp=2.0)
        candidate = bucket.first_candidate()
        assert candidate.value == "first"
        assert candidate.index == 4
        assert candidate.timestamp == 2.0

    def test_iter_candidates_yields_r_and_q(self):
        bucket = singleton(0)
        assert len(list(bucket.iter_candidates())) == 2

    def test_memory_words_constant(self):
        assert singleton(0).memory_words() == 10

    def test_discard_notifies_observer(self):
        observer = RecordingObserver()
        bucket = singleton(0, observer=observer)
        bucket.discard(observer)
        assert observer.discarded == 2
