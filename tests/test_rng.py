"""Deterministic RNG helpers: seeding, spawning, bernoulli coins, and the
counter-based lane generator of the optimal samplers."""

import random

import pytest

from repro.core.bucket_structure import BucketStructure
from repro.core.covering import WindowCoverage
from repro.rng import LaneRng, bernoulli, ensure_rng, sampler_seed, spawn, uniform_index


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_existing_generator_is_passed_through(self):
        source = random.Random(7)
        assert ensure_rng(source) is source

    def test_none_gives_a_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_bool_is_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_unknown_type_is_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = spawn(random.Random(5), 3).random()
        b = spawn(random.Random(5), 3).random()
        assert a == b

    def test_different_stream_ids_give_different_children(self):
        parent = random.Random(5)
        first = spawn(parent, 0)
        parent = random.Random(5)
        second = spawn(parent, 1)
        assert first.random() != second.random()

    def test_child_is_distinct_object(self):
        parent = random.Random(5)
        child = spawn(parent, 0)
        assert child is not parent


class TestBernoulli:
    def test_probability_zero_never_fires(self):
        source = random.Random(1)
        assert not any(bernoulli(source, 0.0) for _ in range(100))

    def test_probability_one_always_fires(self):
        source = random.Random(1)
        assert all(bernoulli(source, 1.0) for _ in range(100))

    def test_invalid_probabilities_raise(self):
        source = random.Random(1)
        with pytest.raises(ValueError):
            bernoulli(source, -0.5)
        with pytest.raises(ValueError):
            bernoulli(source, 1.5)

    def test_empirical_rate_matches_probability(self):
        source = random.Random(123)
        trials = 20_000
        hits = sum(bernoulli(source, 0.3) for _ in range(trials))
        assert abs(hits / trials - 0.3) < 0.02

    def test_tiny_numerical_overshoot_is_tolerated(self):
        source = random.Random(1)
        assert bernoulli(source, 1.0 + 1e-12) is True
        assert bernoulli(source, -1e-12) is False


class TestUniformIndex:
    def test_bounds_are_inclusive(self):
        source = random.Random(2)
        draws = {uniform_index(source, 3, 5) for _ in range(500)}
        assert draws == {3, 4, 5}

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            uniform_index(random.Random(2), 5, 4)

    def test_single_point_range(self):
        assert uniform_index(random.Random(2), 9, 9) == 9


class TestLaneRng:
    def test_same_seed_and_stream_give_the_same_stream(self):
        first, second = LaneRng(7, 3), LaneRng(7, 3)
        assert [first.next64() for _ in range(50)] == [second.next64() for _ in range(50)]
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_seeds_and_streams_are_distinct(self):
        heads = {
            tuple(LaneRng(seed, stream).next64() for _ in range(4))
            for seed in (7, 8, 2**64 - 1)
            for stream in (-2, -1, 0, 1, 2)
        }
        assert len(heads) == 15

    def test_draws_stay_in_range(self):
        rng = LaneRng(1, 0)
        floats = [rng.random() for _ in range(2000)]
        assert all(0.0 <= value < 1.0 for value in floats)
        assert abs(sum(floats) / len(floats) - 0.5) < 0.03
        assert {rng.randrange(5) for _ in range(500)} == {0, 1, 2, 3, 4}
        assert all(0 <= rng.randrange(2**64) < 2**64 for _ in range(50))
        picked = rng.sample(list(range(10)), 4)
        assert len(set(picked)) == 4 and set(picked) <= set(range(10))
        with pytest.raises(ValueError):
            rng.randrange(0)
        with pytest.raises(ValueError):
            rng.randrange(2**64 + 1)
        with pytest.raises(ValueError):
            rng.sample([1, 2], 3)

    def test_coin_stream_is_the_concatenation_of_its_requests(self):
        whole, pieces = LaneRng(5, 0), LaneRng(5, 0)
        bits = whole.getrandbits(100)  # spans two 64-bit draws
        parts = [pieces.getrandbits(width) for width in (3, 60, 1, 36)]
        assert bits == parts[0] | parts[1] << 3 | parts[2] << 63 | parts[3] << 64
        assert whole.get_state() == pieces.get_state() == [2, 36]

    def test_coins_are_fair_and_cheap(self):
        rng = LaneRng(9, 1)
        ones = sum(bin(rng.getrandbits(2)).count("1") for _ in range(16_000))
        assert abs(ones / 32_000 - 0.5) < 0.015
        assert rng.get_state()[0] == 500  # 64 coins per draw

    def test_snapshot_mid_word_restores_the_coin_stream(self):
        rng = LaneRng(11, 4)
        rng.getrandbits(2)
        rng.random()  # discards the rest of the coin word
        rng.getrandbits(37)
        state = rng.get_state()
        assert state == [3, 37]
        clone = LaneRng(0, 0)
        clone.set_state(11, 4, state)
        assert [rng.getrandbits(5) for _ in range(40)] == [clone.getrandbits(5) for _ in range(40)]
        assert rng.random() == clone.random()

    @pytest.mark.parametrize("state", [[0, 3], [-1, 64], [1, 65], [1]])
    def test_invalid_positions_are_rejected(self, state):
        with pytest.raises(ValueError):
            LaneRng(1, 0).set_state(1, 0, state)


class TestSamplerSeed:
    def test_sixty_four_bit_ints_are_the_seed(self):
        assert sampler_seed(0) == 0
        assert sampler_seed(2**64 - 1) == 2**64 - 1

    def test_other_ints_fold_deterministically(self):
        folded = {sampler_seed(value) for value in (-1, -2, 2**64, 2**64 + 1, 2**200)}
        assert len(folded) == 5
        assert all(0 <= value < 2**64 for value in folded)
        assert sampler_seed(-1) == sampler_seed(-1)

    def test_generators_give_one_draw(self):
        assert sampler_seed(random.Random(3)) == random.Random(3).getrandbits(64)

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(TypeError):
            sampler_seed(True)
        with pytest.raises(TypeError):
            sampler_seed("seed")


class TestMergeCoins:
    """``BucketStructure.merge`` (the per-element ``Incr`` walk) and
    ``merge_cascade`` (the batched path) take the same coins in the same
    order: two per merge, R then Q, a set bit keeping the left sample."""

    def test_merge_takes_two_coins_r_then_q(self):
        for seed in range(20):
            rng, mirror = LaneRng(seed, 0), LaneRng(seed, 0)
            left = BucketStructure.singleton("a", 0, 0.0)
            right = BucketStructure.singleton("b", 1, 1.0)
            merged = BucketStructure.merge(left, right, rng)
            coins = mirror.getrandbits(2)
            assert merged.r_sample is (left.r_sample if coins & 1 else right.r_sample)
            assert merged.q_sample is (left.q_sample if coins & 2 else right.q_sample)
            assert rng.get_state() == mirror.get_state()

    @pytest.mark.parametrize("length", [3, 64, 129, 1000])
    def test_walk_and_cascade_consume_the_same_coins(self, length):
        values = list(range(length))
        stamps = [float(value) for value in values]
        walked = WindowCoverage(1e9, LaneRng(3, 0))
        for value in values:
            walked.observe(value, value, stamps[value])
        cascaded = WindowCoverage(1e9, LaneRng(3, 0))
        cascaded.observe_batch(values, 0, stamps)
        assert walked.state_dict() == cascaded.state_dict()
        assert walked.rng.get_state() == cascaded.rng.get_state()
