"""The Lemma 3.5 maintenance automaton (WindowCoverage)."""

import random

import pytest

from repro.core.covering import WindowCoverage
from repro.exceptions import EmptyWindowError, StreamOrderError


def feed_constant_rate(coverage, count, start_index=0, start_time=0.0):
    for offset in range(count):
        index = start_index + offset
        timestamp = start_time + offset
        coverage.advance_time(timestamp)
        coverage.observe(f"v{index}", index, timestamp)
    return coverage


class TestBasicStates:
    def test_initially_empty(self):
        coverage = WindowCoverage(10.0, random.Random(1))
        assert coverage.is_empty
        assert coverage.case == 0

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            WindowCoverage(0.0, random.Random(1))

    def test_case_1_while_nothing_expired(self):
        coverage = WindowCoverage(100.0, random.Random(1))
        feed_constant_rate(coverage, 20)
        assert coverage.case == 1
        assert coverage.straddler is None
        assert coverage.covered_start == 0
        assert coverage.covered_end == 19

    def test_case_2_after_partial_expiry(self):
        coverage = WindowCoverage(10.0, random.Random(2))
        feed_constant_rate(coverage, 50)
        assert coverage.case == 2
        straddler = coverage.straddler
        assert straddler is not None
        # Straddler's first element is expired; the suffix starts with an active one.
        assert coverage.now - straddler.first_timestamp >= 10.0
        suffix_start_ts = coverage.buckets[0].first_timestamp
        assert coverage.now - suffix_start_ts < 10.0

    def test_invariant_straddler_not_wider_than_suffix(self):
        coverage = WindowCoverage(17.0, random.Random(3))
        for index in range(500):
            coverage.advance_time(float(index))
            coverage.observe(index, index, float(index))
            if coverage.case == 2:
                alpha = coverage.straddler.width
                beta = coverage.covered_width
                assert alpha <= beta

    def test_total_expiry_empties_the_state(self):
        coverage = WindowCoverage(5.0, random.Random(4))
        feed_constant_rate(coverage, 10)
        coverage.advance_time(1_000.0)
        assert coverage.is_empty
        assert coverage.case == 0
        with pytest.raises(EmptyWindowError):
            coverage.draw_sample()

    def test_refill_after_total_expiry(self):
        coverage = WindowCoverage(5.0, random.Random(5))
        feed_constant_rate(coverage, 10)
        coverage.advance_time(1_000.0)
        coverage.observe("fresh", 10, 1_000.0)
        assert coverage.case == 1
        assert coverage.covered_start == 10

    def test_clock_cannot_go_backwards(self):
        coverage = WindowCoverage(5.0, random.Random(6))
        coverage.advance_time(10.0)
        with pytest.raises(StreamOrderError):
            coverage.advance_time(9.0)

    def test_expired_on_arrival_is_skipped_when_empty(self):
        """Lemma 4.1: a delayed element that is already expired is ignored."""
        coverage = WindowCoverage(5.0, random.Random(7))
        coverage.advance_time(100.0)
        coverage.observe("stale", 0, 10.0)  # expired relative to now=100
        assert coverage.is_empty
        coverage.observe("fresh", 1, 99.0)
        assert not coverage.is_empty
        assert coverage.covered_start == 1


class TestCoverageTracksTheWindow:
    def test_covered_elements_superset_of_active(self):
        """The straddler plus the suffix always cover every active element."""
        coverage = WindowCoverage(13.0, random.Random(8))
        for index in range(300):
            timestamp = float(index)
            coverage.advance_time(timestamp)
            coverage.observe(index, index, timestamp)
            earliest_active = max(0, index - 12)
            if coverage.case == 1:
                assert coverage.covered_start <= earliest_active
            else:
                assert coverage.straddler.start < earliest_active or (
                    coverage.straddler.start <= earliest_active
                )
                assert coverage.covered_start >= earliest_active
            assert coverage.covered_end == index

    def test_memory_is_logarithmic_in_window(self):
        import math

        coverage = WindowCoverage(10_000.0, random.Random(9))
        for index in range(5_000):
            coverage.advance_time(float(index))
            coverage.observe(index, index, float(index))
        # At most ~2·log2(width) buckets of 10 words each, plus constants.
        budget = 10 * (2 * math.ceil(math.log2(5_000)) + 3) + 10
        assert coverage.memory_words() < budget

    def test_bursty_equal_timestamps(self):
        coverage = WindowCoverage(2.0, random.Random(10))
        # 100 elements all at time 0, then 5 at time 10.
        for index in range(100):
            coverage.observe(index, index, 0.0)
        for offset in range(5):
            index = 100 + offset
            coverage.advance_time(10.0)
            coverage.observe(index, index, 10.0)
        assert coverage.case == 1
        assert coverage.covered_start == 100

    def test_draw_sample_always_active(self):
        coverage = WindowCoverage(9.0, random.Random(11))
        rng = random.Random(12)
        for index in range(400):
            timestamp = float(index)
            coverage.advance_time(timestamp)
            coverage.observe(index, index, timestamp)
            candidate = coverage.draw_sample(rng)
            assert timestamp - candidate.timestamp < 9.0
            assert candidate.index <= index
