"""The vectorized apply-path kernel layer (``repro.engine.kernels``).

Three contracts are pinned here:

1. **Kernel selection.**  ``kernel="python"`` never imports numpy,
   ``"auto"`` resolves per host for standalone samplers and to python in
   keyed pools, ``"numpy"`` on a numpy-free host raises
   :class:`~repro.exceptions.ConfigurationError` loudly — at spec
   validation, sampler construction and engine construction alike.
2. **Bit-identity of the default path.**  ``kernel="numpy"`` with
   ``fast=False`` runs the reference python path and must stay
   byte-identical to ``kernel="python"`` — the numpy generator is seeded
   from its own stream of the sampler seed precisely so it cannot perturb
   the lanes.
3. **Distributional exactness.**  The numpy ``fast`` kernels are free to
   use different exact sampling laws than the python path, so every
   vectorized family is gated by χ² + KS suites (marked ``slow``), plus
   structural canonicality checks on the covering decompositions.

Every numpy-dependent test skips cleanly on a numpy-free host (the tier-1
CI lane); the selection/validation tests run everywhere.
"""

import random

import pytest

from repro.analysis import assess_uniformity, ks_uniformity
from repro.core import (
    SequenceSamplerWOR,
    SequenceSamplerWR,
    TimestampSamplerWOR,
    TimestampSamplerWR,
)
from repro.core.facade import sliding_window_sampler
from repro.engine import ProcessEngine, SamplerSpec, ShardedEngine
from repro.engine import kernels as kernels_module
from repro.engine.kernels import HAS_NUMPY, resolve_kernel
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


class TestKernelResolution:
    def test_python_always_resolves(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("PYTHON") == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            resolve_kernel("cython")

    def test_auto_downgrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "HAS_NUMPY", False)
        assert resolve_kernel("auto") == "python"

    @needs_numpy
    def test_auto_picks_numpy_when_available(self):
        assert resolve_kernel("auto") == "numpy"

    def test_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError, match=r"\[fast\]"):
            resolve_kernel("numpy")

    def test_sampler_construction_fails_loudly_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError):
            SequenceSamplerWR(n=8, k=1, rng=0, kernel="numpy")

    def test_engine_construction_fails_loudly_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "HAS_NUMPY", False)
        spec = SamplerSpec(window="sequence", n=8, k=1, kernel="numpy")
        with pytest.raises(ConfigurationError):
            ShardedEngine(spec, shards=2)

    def test_auto_sampler_downgrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "HAS_NUMPY", False)
        sampler = SequenceSamplerWR(n=8, k=1, rng=0, fast=True, kernel="auto")
        assert sampler.kernel == "python"
        sampler.process_batch(list(range(20)))
        assert sampler.sample()[0].index >= 12


class TestSpecAndFacadeValidation:
    def test_default_is_python(self):
        spec = SamplerSpec(window="sequence", n=16, k=2)
        assert spec.kernel == "python"

    def test_kernel_name_normalised(self):
        spec = SamplerSpec(window="sequence", n=16, k=2, kernel="Auto")
        assert spec.kernel == "auto"

    def test_bad_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            SamplerSpec(window="sequence", n=16, k=2, kernel="fortran")

    def test_numpy_kernel_rejected_for_baselines(self):
        with pytest.raises(ConfigurationError, match="optimal"):
            SamplerSpec(window="sequence", n=16, k=2, algorithm="chain", kernel="numpy")

    def test_facade_rejects_numpy_kernel_for_baselines(self):
        with pytest.raises(ConfigurationError, match="optimal"):
            sliding_window_sampler("sequence", n=16, k=2, algorithm="chain", kernel="numpy")

    def test_facade_allows_auto_for_baselines(self):
        # "auto" resolves to python *semantics* for baselines: portable specs.
        sampler = sliding_window_sampler("sequence", n=16, k=2, algorithm="chain", kernel="auto")
        assert sampler.algorithm == "bdm-chain-wr"

    def test_spec_round_trips_kernel(self):
        spec = SamplerSpec(window="timestamp", t0=8.0, k=2, fast=True, kernel="auto")
        clone = SamplerSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert "kernel=auto" in spec.describe()

    def test_legacy_snapshots_load_as_python(self):
        payload = SamplerSpec(window="sequence", n=16, k=2).to_dict()
        del payload["kernel"]
        assert SamplerSpec.from_dict(payload).kernel == "python"


@needs_numpy
class TestDefaultPathBitIdentity:
    """``kernel="numpy", fast=False`` must stay byte-identical to the
    reference: requesting the kernel only adds generator *seeding*, from a
    stream of its own, so the python lanes' streams are untouched."""

    CASES = [
        ("sequence", lambda kernel: SequenceSamplerWR(n=16, k=3, rng=7, kernel=kernel)),
        ("sequence", lambda kernel: SequenceSamplerWOR(n=16, k=3, rng=7, kernel=kernel)),
        ("timestamp", lambda kernel: TimestampSamplerWR(t0=16.0, k=3, rng=7, kernel=kernel)),
        ("timestamp", lambda kernel: TimestampSamplerWOR(t0=16.0, k=3, rng=7, kernel=kernel)),
    ]

    @pytest.mark.parametrize("clocked,make", CASES)
    def test_state_and_sample_identical(self, clocked, make):
        reference = make("python")
        kernelled = make("numpy")
        stamps = [float(position) for position in range(90)]
        for sampler in (reference, kernelled):
            if clocked == "timestamp":
                sampler.process_batch(list(range(40)), stamps[:40])
                sampler.process_batch(list(range(40, 90)), stamps[40:])
            else:
                sampler.process_batch(list(range(40)))
                sampler.process_batch(list(range(40, 90)))
        assert kernelled.state_dict() == reference.state_dict()
        assert kernelled.sample() == reference.sample()


@needs_numpy
class TestKernelStructuralInvariants:
    """The numpy coverage kernel must leave exactly the structures the
    reference automaton maintains: canonical boundaries, legal straddler."""

    def test_canonical_after_randomized_batch_splits(self):
        rng = random.Random(99)
        for trial in range(40):
            sampler = TimestampSamplerWR(t0=60.0, k=2, rng=trial, fast=True, kernel="numpy")
            fed = 0
            total = rng.randint(1, 400)
            while fed < total:
                chunk = min(rng.randint(1, 90), total - fed)
                values = list(range(fed, fed + chunk))
                sampler.process_batch(values, [float(value) for value in values])
                fed += chunk
                for coverage in sampler._coverages:
                    assert coverage._decomposition.is_canonical()
            assert sampler.sample()[0].index >= max(0, total - 61)

    def test_kernel_and_python_agree_on_structure(self):
        # Same arrival pattern => identical bucket boundaries (structure is
        # deterministic; only the samples inside differ by kernel).
        stamps = [float(position) for position in range(300)]
        fast = TimestampSamplerWR(t0=45.0, k=1, rng=3, fast=True, kernel="numpy")
        reference = TimestampSamplerWR(t0=45.0, k=1, rng=3, fast=False)
        for sampler in (fast, reference):
            sampler.process_batch(list(range(150)), stamps[:150])
            sampler.process_batch(list(range(150, 300)), stamps[150:])
        boundaries = lambda sampler: [
            (bucket.start, bucket.end)
            for bucket in sampler._coverages[0]._decomposition._buckets
        ]
        assert boundaries(fast) == boundaries(reference)

    def test_wor_kernel_subsets_are_distinct(self):
        sampler = SequenceSamplerWOR(n=30, k=5, rng=11, fast=True, kernel="numpy")
        for lo in range(0, 300, 75):
            sampler.process_batch(list(range(lo, lo + 75)))
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 5
            assert all(element.index >= sampler.total_arrivals - 30 for element in drawn)


@needs_numpy
class TestEngineKernelReporting:
    def test_serial_stats_report_resolved_kernel(self):
        # "auto" means python in a keyed pool, numpy installed or not.
        spec = SamplerSpec(window="sequence", n=16, k=1, fast=True, kernel="auto")
        engine = ShardedEngine(spec, shards=2)
        engine.ingest([("a", value) for value in range(40)])
        assert engine.stats()["kernel"] == "python"
        assert engine.sampler_for("a").kernel == "python"

    def test_process_auto_kernel_resolves_to_python(self):
        registry = MetricsRegistry()
        spec = SamplerSpec(window="sequence", n=16, k=1, fast=True, kernel="auto")
        with ProcessEngine(spec, shards=2, workers=2, registry=registry) as engine:
            engine.ingest([(f"key-{value % 5}", value) for value in range(200)])
            assert engine.stats()["kernel"] == "python"
            assert engine.transport_report()["kernel"] == "python"
            assert engine.sampler_for("key-0").kernel == "python"
            assert engine.metrics_snapshot()["gauges"]["engine.kernel.numpy"] == 0.0

    def test_parallel_stats_and_gauge(self):
        registry = MetricsRegistry()
        spec = SamplerSpec(window="sequence", n=16, k=1, fast=True, kernel="numpy")
        engine = ProcessEngine(spec, shards=2, workers=2, registry=registry)
        try:
            engine.ingest([(f"key-{value % 5}", value) for value in range(200)])
            engine.flush()
            assert engine.stats()["kernel"] == "numpy"
            snapshot = engine.metrics_snapshot()
            assert snapshot["gauges"]["engine.kernel.numpy"] == 1.0
        finally:
            engine.close()


class TestWorkerBackedChunkMetrics:
    """The process engine's ingest path must emit the same chunk
    instruments the serial path does."""

    def test_parallel_ingest_emits_chunk_metrics(self):
        registry = MetricsRegistry()
        spec = SamplerSpec(window="sequence", n=16, k=2)
        engine = ProcessEngine(spec, shards=4, workers=2, registry=registry, max_batch=64)
        try:
            engine.ingest([(f"key-{value % 7}", value) for value in range(1000)])
            engine.flush()
            snapshot = engine.metrics_snapshot()
        finally:
            engine.close()
        assert snapshot["counters"]["engine.ingest.chunks.partitioned"] > 0
        histogram = snapshot["histograms"]["engine.ingest.chunk.seconds"]
        assert histogram["count"] > 0
        assert histogram["sum"] >= 0.0

    def test_uninstrumented_ingest_pays_nothing(self):
        # No registry: the chunk instruments are null and the path must not
        # observe into them (guarded by the same enabled flag as serial).
        spec = SamplerSpec(window="sequence", n=16, k=2)
        engine = ProcessEngine(spec, shards=2, workers=2, max_batch=64)
        try:
            engine.ingest([("a", value) for value in range(500)])
            engine.flush()
            assert engine.key_count == 1
        finally:
            engine.close()


@needs_numpy
@pytest.mark.slow
class TestNumpyKernelStatisticalGating:
    """χ² + KS gates for ``kernel="numpy", fast=True`` over all four
    families — the same bar the python skip path has to clear, fed through
    *split* batches so boundary-crossing and tail cases are all exercised."""

    WINDOW = 20
    STREAM = 50

    def _gate(self, observations, categories):
        report = assess_uniformity(observations, categories)
        assert report.passes, report
        width = len(categories)
        fractions = [(observation + 0.5) / width for observation in observations]
        bound = 0.5 / width + 1.7 / (len(fractions) ** 0.5)
        assert ks_uniformity(fractions) < bound

    def _feed(self, sampler, trial, stamps=None):
        # Vary the split point per trial: single-batch, mid-bucket and
        # bucket-aligned splits all occur across the trial population.
        split = (trial * 7) % self.STREAM
        chunks = [list(range(split)), list(range(split, self.STREAM))]
        for chunk in chunks:
            if not chunk:
                continue
            if stamps is None:
                sampler.process_batch(chunk)
            else:
                sampler.process_batch(chunk, [stamps[value] for value in chunk])

    def test_sequence_wr_numpy_uniform(self):
        observations = []
        for trial in range(2500):
            sampler = SequenceSamplerWR(
                n=self.WINDOW, k=1, rng=50_000 + trial, fast=True, kernel="numpy"
            )
            self._feed(sampler, trial)
            observations.append(sampler.sample()[0].value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_sequence_wor_numpy_uniform_inclusions(self):
        observations = []
        for trial in range(900):
            sampler = SequenceSamplerWOR(
                n=self.WINDOW, k=6, rng=60_000 + trial, fast=True, kernel="numpy"
            )
            self._feed(sampler, trial)
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 6
            for element in drawn:
                observations.append(element.value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_timestamp_wr_numpy_uniform(self):
        stamps = [float(position) for position in range(self.STREAM)]
        observations = []
        for trial in range(2500):
            sampler = TimestampSamplerWR(
                t0=float(self.WINDOW), k=1, rng=70_000 + trial, fast=True, kernel="numpy"
            )
            self._feed(sampler, trial, stamps)
            observations.append(sampler.sample()[0].value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_timestamp_wor_numpy_uniform_inclusions(self):
        stamps = [float(position) for position in range(self.STREAM)]
        observations = []
        for trial in range(900):
            sampler = TimestampSamplerWOR(
                t0=float(self.WINDOW), k=6, rng=80_000 + trial, fast=True, kernel="numpy"
            )
            self._feed(sampler, trial, stamps)
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 6
            for element in drawn:
                observations.append(element.value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_timestamp_wr_numpy_uniform_under_expiry_churn(self):
        # Bursty Poisson-spaced stamps: expiry transitions fire mid-batch,
        # exercising the searchsorted run splitting and the refresh reuse.
        observations = []
        source = random.Random(4242)
        current = 0.0
        stamps = []
        for _ in range(self.STREAM):
            current += source.expovariate(1.0)
            stamps.append(current)
        horizon = stamps[-1] - 10.0
        active = [value for value in range(self.STREAM) if stamps[value] > horizon]
        rank = {value: position for position, value in enumerate(active)}
        for trial in range(2000):
            sampler = TimestampSamplerWR(
                t0=10.0, k=1, rng=90_000 + trial, fast=True, kernel="numpy"
            )
            self._feed(sampler, trial, stamps)
            observations.append(rank[sampler.sample()[0].value])
        self._gate(observations, list(range(len(active))))
