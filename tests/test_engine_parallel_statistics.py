"""Distributional guarantees through the worker-process engine.

The paper's theorems say each sampler's output is uniform over its window;
PR 1's engine tests pinned that for serially-hosted samplers.  What could
break it here is *parallelism*: a worker applying a shard's records out of
order, a key's records split across workers, or a query racing the drain
barrier would all skew the per-key sample law — and the process boundary
(records and samples pickled through multiprocessing queues) is one more
place where any reordering or loss would show the same way.  Each
engine-hosted key is an independent lane (key-derived seed), so the per-key
draws form exactly the repeated-trials setup
:mod:`repro.analysis.uniformity` expects.
"""

import pytest

from repro.analysis import assess_uniformity
from repro.engine import ProcessEngine, SamplerSpec

pytestmark = pytest.mark.slow

KEYS = 800
WINDOW = 25
PER_KEY = 60  # records per key: window plus a 35-record discarded prefix


def interleaved_records():
    """Round-robin the keys so every ingest batch mixes all shards."""
    return [
        (f"lane-{key}", value)
        for value in range(PER_KEY)
        for key in range(KEYS)
    ]


class TestProcessEngineUniformity:
    def test_wr_per_key_samples_uniform_over_window_positions(self, sizing):
        """χ² uniformity of k=1 WR draws pooled across 800 engine keys."""
        spec = SamplerSpec(window="sequence", n=WINDOW, k=1, replacement=True)
        sizing(sub_batch=512)
        with ProcessEngine(spec, shards=8, workers=4, seed=29) as engine:
            engine.ingest(interleaved_records())
            observations = []
            for key in range(KEYS):
                element = engine.sample(f"lane-{key}")[0]
                observations.append(element.value - (PER_KEY - WINDOW))
        report = assess_uniformity(observations, list(range(WINDOW)))
        assert report.passes, report

    def test_wor_per_key_inclusions_uniform(self, sizing):
        """Every window position equally likely to enter a k=6 WoR sample."""
        spec = SamplerSpec(window="sequence", n=WINDOW, k=6, replacement=False)
        sizing(sub_batch=512)
        with ProcessEngine(spec, shards=8, workers=4, seed=31) as engine:
            engine.ingest(interleaved_records())
            pooled = []
            for key in range(KEYS):
                for element in engine.sample(f"lane-{key}"):
                    pooled.append(element.value - (PER_KEY - WINDOW))
        report = assess_uniformity(pooled, list(range(WINDOW)))
        assert report.passes, report

    def test_parallel_and_serial_draws_have_identical_distribution(self):
        """Sharper than χ²: the process fleet's draws are *equal* to the
        serial fleet's, so parallelism cannot have introduced bias."""
        from repro.engine import ShardedEngine

        spec = SamplerSpec(window="sequence", n=WINDOW, k=4, replacement=True)
        records = interleaved_records()
        serial = ShardedEngine(spec, shards=8, seed=29)
        serial.ingest(records)
        with ProcessEngine(spec, shards=8, workers=4, seed=29) as parallel:
            parallel.ingest(records)
            for key in range(0, KEYS, 25):
                name = f"lane-{key}"
                assert parallel.sample(name) == serial.sample(name)

    def test_cross_executor_merged_aggregates_agree(self):
        """The process fleet agrees with the serial fleet on the merged
        frequent-values aggregate over the same 800-key ingest."""
        from repro.engine import ShardedEngine

        spec = SamplerSpec(window="sequence", n=WINDOW, k=4, replacement=True)
        records = [
            (f"lane-{key}", value % 7)
            for value in range(PER_KEY)
            for key in range(KEYS)
        ]
        serial = ShardedEngine(spec, shards=8, seed=29)
        serial.ingest(records)
        reference = dict(serial.merged_frequent_items(0.01))
        with ProcessEngine(spec, shards=8, workers=4, seed=29) as engine:
            engine.ingest(records)
            merged = dict(engine.merged_frequent_items(0.01))
        assert merged.keys() == reference.keys()
        for value, frequency in merged.items():
            assert frequency == pytest.approx(reference[value], rel=1e-9)
