"""Property-based tests for the covering decomposition and the Lemma 3.5 automaton."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covering import CoveringDecomposition, WindowCoverage, canonical_boundaries


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=400))
def test_canonical_boundaries_partition_the_range(start, width):
    end = start + width - 1
    pairs = canonical_boundaries(start, end)
    # Contiguous, covering exactly [start, end], last bucket is the singleton {end}.
    assert pairs[0][0] == start
    assert pairs[-1] == (end, end + 1)
    for (s1, e1), (s2, e2) in zip(pairs, pairs[1:]):
        assert e1 == s2
        assert e1 > s1
    assert sum(e - s for s, e in pairs) == width
    # Logarithmic count.
    assert len(pairs) <= 2 * max(width, 2).bit_length() + 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**31))
def test_incr_always_matches_the_canonical_decomposition(width, seed):
    rng = random.Random(seed)
    decomposition = CoveringDecomposition(rng)
    for index in range(width):
        decomposition.incr(f"v{index}", index, float(index))
    assert decomposition.boundaries() == canonical_boundaries(0, width - 1)
    for bucket in decomposition.buckets:
        assert bucket.start <= bucket.r_sample.index < bucket.end
        assert bucket.start <= bucket.q_sample.index < bucket.end


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=200),
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
def test_window_coverage_invariants_on_arbitrary_arrival_gaps(gaps, t0, seed):
    """For any non-decreasing arrival pattern the automaton keeps its invariants:
    the newest element is always covered, the straddler (if any) is never wider
    than the suffix, and a drawn sample is always an active element."""
    coverage = WindowCoverage(t0, random.Random(seed))
    query_rng = random.Random(seed + 1)
    now = 0.0
    for index, gap in enumerate(gaps):
        now += gap
        coverage.advance_time(now)
        coverage.observe(index, index, now)
        assert not coverage.is_empty  # the element just added is active
        assert coverage.covered_end == index
        if coverage.case == 2:
            assert coverage.straddler.width <= coverage.covered_width
        candidate = coverage.draw_sample(query_rng)
        assert now - candidate.timestamp < t0
        assert candidate.index <= index
