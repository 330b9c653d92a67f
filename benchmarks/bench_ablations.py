"""Ablation benchmarks — design choices called out in DESIGN.md.

Not tied to a single paper claim; instead they quantify the knobs of the
implementation:

* **A1 — over-sampling factor sweep.**  The over-sampling baseline trades
  memory against failure probability through its factor; the paper's point is
  that no factor removes the trade-off.  The sweep shows failure rate and
  memory side by side.
* **A2 — covering-decomposition growth.**  Bucket count (and therefore words)
  of one WindowCoverage as the window size grows by powers of two — the
  measured constant behind the Θ(log n) of Theorem 3.9.
* **A3 — cost of the delayed copies.**  The Theorem 4.4 sampler runs k delayed
  copies of the Theorem 3.9 machinery; the sweep over k shows the linear
  scaling of both time and memory.
"""

import random

import pytest

from repro.baselines import OversamplingSamplerSeqWOR
from repro.core import TimestampSamplerWOR, TimestampSamplerWR
from repro.core.covering import WindowCoverage
from repro.exceptions import SamplingFailureError
from repro.harness.tables import ResultTable
from repro.streams.element import make_stream

from _helpers import feed_all


def test_a1_oversampling_factor_sweep(benchmark):
    """Memory vs failure probability as the over-sampling factor grows."""
    n, k, length, runs = 2_000, 16, 8_000, 10
    stream = make_stream(range(length))
    table = ResultTable(
        "A1",
        "Over-sampling factor ablation (n=2000, k=16): memory vs failure rate",
        ["factor", "mean_retained", "peak_words", "failure_rate"],
    )

    def sweep():
        for factor in (0.1, 0.25, 0.5, 1.0, 2.0):
            peak = 0
            retained_total = 0
            failures = 0
            queries = 0
            for seed in range(runs):
                sampler = OversamplingSamplerSeqWOR(n=n, k=k, rng=seed, oversample_factor=factor)
                for position, element in enumerate(stream):
                    sampler.append(element.value)
                    if (position + 1) % 1_000 == 0:
                        queries += 1
                        try:
                            sampler.sample()
                        except SamplingFailureError:
                            failures += 1
                peak = max(peak, sampler.memory_words())
                retained_total += sampler.retained_count()
            table.add_row(factor, round(retained_total / runs, 1), peak, round(failures / queries, 4))
        return table

    result = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(result.to_text())
    rows = result.as_dicts()
    # More over-sampling -> fewer failures but more memory.
    assert rows[0]["failure_rate"] >= rows[-1]["failure_rate"]
    assert rows[0]["peak_words"] <= rows[-1]["peak_words"]


def test_a2_covering_decomposition_growth(benchmark):
    """Bucket count of one coverage automaton as the window doubles."""
    table = ResultTable(
        "A2",
        "Covering decomposition growth: window size vs buckets and words",
        ["window_size", "buckets", "memory_words", "words_per_log2"],
    )

    def sweep():
        import math

        for exponent in range(6, 15):
            size = 2**exponent
            coverage = WindowCoverage(float(size), random.Random(1))
            for index in range(size):
                coverage.advance_time(float(index))
                coverage.observe(index, index, float(index))
            buckets = coverage.bucket_count + (1 if coverage.straddler else 0)
            words = coverage.memory_words()
            table.add_row(size, buckets, words, round(words / math.log2(size), 1))
        return table

    result = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(result.to_text())
    rows = result.as_dicts()
    # Logarithmic growth: doubling the window adds O(1) buckets.
    assert rows[-1]["buckets"] - rows[0]["buckets"] <= 2 * (len(rows) + 2)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_a3_delayed_copies_cost(benchmark, k):
    """Ingest cost of Theorem 4.4's k delayed copies (linear in k)."""
    source = random.Random(5)
    current, timestamps = 0.0, []
    for _ in range(2_000):
        current += source.expovariate(1.0)
        timestamps.append(current)
    stream = make_stream(range(2_000), timestamps)
    sampler = benchmark(
        lambda: feed_all(TimestampSamplerWOR(t0=500.0, k=k, rng=1), stream, advance_time=True)
    )
    benchmark.extra_info["memory_words"] = sampler.memory_words()
    single = feed_all(TimestampSamplerWR(t0=500.0, k=1, rng=1), stream, advance_time=True)
    benchmark.extra_info["memory_words_single_wr"] = single.memory_words()
