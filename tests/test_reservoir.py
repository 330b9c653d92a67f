"""Vitter reservoir primitives (the building block of the paper's buckets)."""

import random
from collections import Counter

import pytest

from repro.core.reservoir import ReservoirWithoutReplacement, SingleReservoir
from repro.core.tracking import CandidateObserver, SampleCandidate
from repro.exceptions import ConfigurationError, EmptyWindowError
from repro.rng import LaneRng


class RecordingObserver(CandidateObserver):
    def __init__(self):
        self.selected = []
        self.discarded = []

    def on_select(self, candidate):
        self.selected.append(candidate.index)

    def on_discard(self, candidate):
        self.discarded.append(candidate.index)


class TestSingleReservoir:
    def test_empty_reservoir_raises(self):
        reservoir = SingleReservoir(rng=random.Random(1))
        assert reservoir.is_empty
        with pytest.raises(EmptyWindowError):
            reservoir.sample()

    def test_first_offer_is_always_kept(self):
        reservoir = SingleReservoir(rng=random.Random(1))
        reservoir.offer("a", 0, 0.0)
        assert reservoir.sample().value == "a"
        assert reservoir.count == 1

    def test_sample_is_one_of_the_offers(self):
        reservoir = SingleReservoir(rng=random.Random(2))
        for index in range(100):
            reservoir.offer(index, index, float(index))
        assert 0 <= reservoir.sample().value < 100

    def test_uniformity_over_many_runs(self):
        counts = Counter()
        population = 10
        runs = 20_000
        for seed in range(runs):
            reservoir = SingleReservoir(rng=random.Random(seed))
            for index in range(population):
                reservoir.offer(index, index)
            counts[reservoir.sample().value] += 1
        expected = runs / population
        for value in range(population):
            assert abs(counts[value] - expected) < 0.15 * expected

    def test_memory_is_constant(self):
        reservoir = SingleReservoir(rng=random.Random(3))
        readings = set()
        for index in range(1000):
            reservoir.offer(index, index)
            readings.add(reservoir.memory_words())
        assert len(readings) == 1
        assert reservoir.memory_words() <= 5

    def test_observer_sees_selection_and_discard(self):
        observer = RecordingObserver()
        reservoir = SingleReservoir(rng=random.Random(4), observer=observer)
        for index in range(50):
            reservoir.offer(index, index)
        # Every selection except the last surviving one was eventually discarded.
        assert len(observer.selected) == len(observer.discarded) + 1
        assert observer.selected[0] == 0

    def test_reset_clears_state(self):
        observer = RecordingObserver()
        reservoir = SingleReservoir(rng=random.Random(5), observer=observer)
        reservoir.offer(1, 0)
        reservoir.reset()
        assert reservoir.is_empty
        assert reservoir.count == 0
        assert observer.discarded  # the held candidate was reported as discarded

    def test_iter_candidates(self):
        reservoir = SingleReservoir(rng=random.Random(6))
        assert list(reservoir.iter_candidates()) == []
        reservoir.offer("x", 0)
        assert [candidate.value for candidate in reservoir.iter_candidates()] == ["x"]


class TestReservoirWithoutReplacement:
    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            ReservoirWithoutReplacement(0)

    def test_holds_everything_when_fewer_than_k(self):
        reservoir = ReservoirWithoutReplacement(5, rng=random.Random(1))
        for index in range(3):
            reservoir.offer(index, index)
        assert sorted(candidate.value for candidate in reservoir.sample()) == [0, 1, 2]
        assert reservoir.size == 3

    def test_holds_exactly_k_when_more_offered(self):
        reservoir = ReservoirWithoutReplacement(4, rng=random.Random(2))
        for index in range(100):
            reservoir.offer(index, index)
        sample = reservoir.sample()
        assert len(sample) == 4
        assert len({candidate.index for candidate in sample}) == 4

    def test_inclusion_probability_is_uniform(self):
        population, k, runs = 12, 3, 12_000
        counts = Counter()
        for seed in range(runs):
            reservoir = ReservoirWithoutReplacement(k, rng=random.Random(seed))
            for index in range(population):
                reservoir.offer(index, index)
            for candidate in reservoir.sample():
                counts[candidate.value] += 1
        expected = runs * k / population
        for value in range(population):
            assert abs(counts[value] - expected) < 0.12 * expected

    def test_subsample_is_subset_of_held(self):
        reservoir = ReservoirWithoutReplacement(6, rng=random.Random(3))
        for index in range(50):
            reservoir.offer(index, index)
        subsample = reservoir.subsample(3)
        held_indexes = {candidate.index for candidate in reservoir.sample()}
        assert len(subsample) == 3
        assert {candidate.index for candidate in subsample} <= held_indexes

    def test_subsample_size_validation(self):
        reservoir = ReservoirWithoutReplacement(2, rng=random.Random(4))
        reservoir.offer(1, 0)
        with pytest.raises(EmptyWindowError):
            reservoir.subsample(2)
        with pytest.raises(ValueError):
            reservoir.subsample(-1)
        assert reservoir.subsample(0) == []

    def test_memory_is_bounded_by_k(self):
        reservoir = ReservoirWithoutReplacement(8, rng=random.Random(5))
        for index in range(2000):
            reservoir.offer(index, index)
            assert reservoir.memory_words() <= 3 * 8 + 1

    def test_observer_notifications_balance(self):
        observer = RecordingObserver()
        reservoir = ReservoirWithoutReplacement(3, rng=random.Random(6), observer=observer)
        for index in range(200):
            reservoir.offer(index, index)
        assert len(observer.selected) - len(observer.discarded) == 3

    def test_reset(self):
        reservoir = ReservoirWithoutReplacement(3, rng=random.Random(7))
        for index in range(10):
            reservoir.offer(index, index)
        reservoir.reset()
        assert reservoir.size == 0
        assert reservoir.count == 0


class TestStoredSkipBitIdentity:
    """``offer`` and ``offer_slice`` read the same stored next acceptance, so
    any split of a stream into slices leaves the per-element state — also
    when a slice ends exactly on an acceptance or inside the fill phase."""

    OFFERS = 400

    @staticmethod
    def state(reservoir):
        return reservoir.state_dict(), reservoir._rng.get_state()

    @classmethod
    def per_element(cls, make, stop):
        reservoir = make()
        for index in range(stop):
            reservoir.offer(index, index, float(index))
        return reservoir

    @classmethod
    def sliced(cls, make, cuts):
        reservoir = make()
        values = list(range(cls.OFFERS))
        bounds = [0, *cuts, cls.OFFERS]
        for lo, hi in zip(bounds, bounds[1:]):
            reservoir.offer_slice(values, 0, lo, hi)
        return reservoir

    @classmethod
    def acceptances(cls, make):
        """Offer numbers at which the per-element reservoir takes an offer
        after its fill phase."""
        reservoir = make()
        hits = []
        for index in range(cls.OFFERS):
            before = [candidate.index for candidate in reservoir.iter_candidates()]
            reservoir.offer(index, index, float(index))
            after = [candidate.index for candidate in reservoir.iter_candidates()]
            if len(after) == len(before) and after != before:
                hits.append(index + 1)
        return hits

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: SingleReservoir(rng=LaneRng(5, 0)), id="single"),
            pytest.param(lambda: ReservoirWithoutReplacement(6, rng=LaneRng(5, 0)), id="wor"),
        ],
    )
    def test_slice_ending_exactly_on_an_acceptance(self, make):
        hits = self.acceptances(make)
        assert len(hits) >= 4
        for cut in hits[:4]:
            # The prefix slice ends on offer `cut`, which is accepted.
            assert self.state(self.sliced(make, [cut])) == self.state(self.per_element(make, self.OFFERS))
            prefix = make()
            prefix.offer_slice(list(range(cut)), 0, 0, cut)
            assert self.state(prefix) == self.state(self.per_element(make, cut))

    def test_wor_slice_ending_inside_the_fill_phase(self):
        def make():
            return ReservoirWithoutReplacement(6, rng=LaneRng(8, 0))

        reference = self.state(self.per_element(make, self.OFFERS))
        for cuts in ([2], [3, 5], [5, 6, 7], [1, 2, 3, 4, 5, 6]):
            assert self.state(self.sliced(make, cuts)) == reference
        partial = make()
        partial.offer_slice(list(range(4)), 0, 0, 4)
        assert partial.state_dict()["count"] == 4 and partial.size == 4
        assert self.state(partial) == self.state(self.per_element(make, 4))
