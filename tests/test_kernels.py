"""The vectorized apply-path kernel layer (``repro.engine.kernels``).

Three contracts are pinned here:

1. **Kernel selection.**  ``kernel`` is the one apply-path switch:
   ``"python"`` never calls into the kernels, ``"numpy"`` runs them and on
   a numpy-free host raises
   :class:`~repro.exceptions.ConfigurationError` loudly — at sampler and
   engine construction alike.  Specs written with the removed ``fast``
   flag load as the kernel their samplers actually ran.
2. **Exact resume.**  A numpy sampler's snapshot carries its numpy
   generator, so a restored sampler, or an engine restored from a
   checkpoint, continues draw for draw like one that was never stopped.
3. **Distributional exactness.**  The numpy kernels are free to use
   different exact sampling laws than the python path, so every
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
from repro.engine import (
    ProcessEngine,
    RestartPolicy,
    SamplerSpec,
    ShardedEngine,
    chaos,
    load_checkpoint,
    write_checkpoint,
)
from repro.engine import kernels as kernels_module
from repro.engine.kernels import HAS_NUMPY, resolve_kernel
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


class TestKernelResolution:
    def test_python_always_resolves(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("PYTHON") == "python"

    @pytest.mark.parametrize("name", ["cython", "auto"])
    def test_unknown_kernel_rejected(self, name):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            resolve_kernel(name)
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            SequenceSamplerWR(n=8, k=1, rng=0, kernel=name)

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


class TestSpecAndFacadeValidation:
    def test_default_is_python(self):
        spec = SamplerSpec(window="sequence", n=16, k=2)
        assert spec.kernel == "python"

    def test_kernel_name_normalised(self):
        spec = SamplerSpec(window="sequence", n=16, k=2, kernel="NumPy")
        assert spec.kernel == "numpy"

    @pytest.mark.parametrize("name", ["fortran", "auto"])
    def test_bad_kernel_rejected(self, name):
        with pytest.raises(ConfigurationError, match="kernel"):
            SamplerSpec(window="sequence", n=16, k=2, kernel=name)

    def test_numpy_kernel_rejected_for_baselines(self):
        with pytest.raises(ConfigurationError, match="optimal"):
            SamplerSpec(window="sequence", n=16, k=2, algorithm="chain", kernel="numpy")

    def test_facade_rejects_numpy_kernel_for_baselines(self):
        with pytest.raises(ConfigurationError, match="optimal"):
            sliding_window_sampler("sequence", n=16, k=2, algorithm="chain", kernel="numpy")

    def test_spec_round_trips_kernel(self):
        spec = SamplerSpec(window="timestamp", t0=8.0, k=2, kernel="numpy")
        clone = SamplerSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert "kernel=numpy" in spec.describe()

    def test_legacy_snapshots_load_as_python(self):
        payload = SamplerSpec(window="sequence", n=16, k=2).to_dict()
        del payload["kernel"]
        assert "fast" not in payload
        assert SamplerSpec.from_dict(payload).kernel == "python"

    @pytest.mark.parametrize(
        "fast, kernel, loaded",
        [
            (True, "numpy", "numpy"),
            (False, "numpy", "python"),
            (True, "python", "python"),
            (True, "auto", "python"),
            (False, "auto", "python"),
        ],
    )
    def test_specs_with_a_fast_key_load_as_the_kernel_that_ran(self, fast, kernel, loaded):
        # Specs written while a separate fast flag existed: the numpy
        # kernels ran only for fast with kernel numpy (keyed pools ran auto
        # as python), and the loaded spec names that kernel.
        payload = SamplerSpec(window="sequence", n=16, k=2).to_dict()
        payload.update(fast=fast, kernel=kernel)
        assert SamplerSpec.from_dict(payload).kernel == loaded

    @pytest.mark.parametrize("fast", [False, True])
    def test_engine_restores_a_snapshot_whose_specs_carry_fast(self, fast):
        spec = SamplerSpec(window="sequence", n=16, k=2)
        engine = ShardedEngine(spec, shards=2, seed=3)
        engine.ingest([(f"key-{value % 5}", value) for value in range(100)])
        state = engine.state_dict()
        state["spec"]["fast"] = fast
        for pool_state in state["pools"]:
            pool_state["spec"]["fast"] = fast
        restored = ShardedEngine(spec, shards=2, seed=3)
        restored.load_state_dict(state)
        assert restored.state_dict() == engine.state_dict()


RESUME_CASES = [
    pytest.param(SequenceSamplerWR, dict(n=37), False, id="seq-wr"),
    pytest.param(SequenceSamplerWOR, dict(n=37), False, id="seq-wor"),
    pytest.param(TimestampSamplerWR, dict(t0=30.0), True, id="ts-wr"),
    pytest.param(TimestampSamplerWOR, dict(t0=30.0), True, id="ts-wor"),
]


@needs_numpy
class TestNumpyResume:
    """A restored numpy sampler continues its numpy draws where the
    snapshot left them, instead of redrawing its first batch's uniforms."""

    @pytest.mark.parametrize("cls, window, clocked", RESUME_CASES)
    def test_restored_sampler_continues_exactly(self, cls, window, clocked):
        stamps = [position * 0.5 for position in range(200)]

        def feed(sampler, lo, hi):
            sampler.process_batch(list(range(lo, hi)), stamps[lo:hi] if clocked else None)

        original = cls(k=8, rng=5, kernel="numpy", **window)
        feed(original, 0, 100)
        snapshot = original.state_dict()
        assert "kernel_rng" in snapshot
        restored = cls(k=8, rng=5, kernel="numpy", **window)
        restored.load_state_dict(snapshot)
        feed(original, 100, 200)
        feed(restored, 100, 200)
        assert restored.state_dict() == original.state_dict()
        assert restored.sample() == original.sample()
        # Python-kernel snapshots carry no numpy generator at all.
        assert "kernel_rng" not in cls(k=8, rng=5, **window).state_dict()

    def test_malformed_kernel_rng_is_a_configuration_error(self):
        snapshot = SequenceSamplerWR(n=8, k=2, rng=1, kernel="numpy").state_dict()
        for bad in (None, {"bit_generator": "MT19937"}, {"bit_generator": "PCG64"}):
            snapshot["kernel_rng"] = bad
            with pytest.raises(ConfigurationError, match="kernel rng"):
                SequenceSamplerWR(n=8, k=2, rng=1, kernel="numpy").load_state_dict(snapshot)

    @pytest.mark.parametrize("route", ["checkpoint", "state_dict"])
    def test_restored_engine_continues_exactly(self, route, tmp_path):
        spec = SamplerSpec(window="sequence", n=64, k=4, kernel="numpy")
        records = [(f"key-{value % 23}", value) for value in range(4000)]
        uninterrupted = ShardedEngine(spec, shards=2, seed=7)
        stopped = ShardedEngine(spec, shards=2, seed=7)
        uninterrupted.ingest(records[:2000])
        stopped.ingest(records[:2000])
        assert "kernel_rng" in stopped.sampler_for("key-0").state_dict()
        if route == "checkpoint":
            write_checkpoint(stopped, tmp_path / "engine.ckpt")
            restored = load_checkpoint(tmp_path / "engine.ckpt")
        else:
            restored = ShardedEngine(spec, shards=2, seed=7)
            restored.load_state_dict(stopped.state_dict())
        uninterrupted.ingest(records[2000:])
        restored.ingest(records[2000:])
        assert restored.state_dict() == uninterrupted.state_dict()

    def test_supervised_recovery_is_exact(self, tmp_path, sizing):
        # A worker killed after a checkpoint is restored from it and replays
        # the journal: the numpy draws must continue, not restart.
        spec = SamplerSpec(window="sequence", n=40, k=4, replacement=False, kernel="numpy")
        policy = RestartPolicy(max_restarts=5, backoff_base=0.01, backoff_cap=0.05)
        records = [(f"key-{value % 37}", value) for value in range(4000)]
        sizing(sub_batch=64)

        def run(name, crash):
            with ProcessEngine(
                spec, shards=8, seed=1, workers=2, supervise=True,
                wal_dir=str(tmp_path / name / "wal"), restart_policy=policy,
            ) as engine:
                engine.ingest(records[:2000])
                assert "kernel_rng" in engine.sampler_for("key-0").state_dict()
                write_checkpoint(engine, tmp_path / name / "ckpt")
                if crash:
                    with chaos.kill_at_batch(engine, 3, worker=0):
                        engine.ingest(records[2000:])
                    chaos.wait_until_healthy(engine)
                    assert engine.liveness()["restarts"] >= 1
                else:
                    engine.ingest(records[2000:])
                return engine.state_dict()

        assert run("crashed", True) == run("clean", False)


@needs_numpy
class TestKernelStructuralInvariants:
    """The numpy coverage kernel must leave exactly the structures the
    reference automaton maintains: canonical boundaries, legal straddler."""

    def test_canonical_after_randomized_batch_splits(self):
        rng = random.Random(99)
        for trial in range(40):
            sampler = TimestampSamplerWR(t0=60.0, k=2, rng=trial, kernel="numpy")
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
        kernelled = TimestampSamplerWR(t0=45.0, k=1, rng=3, kernel="numpy")
        reference = TimestampSamplerWR(t0=45.0, k=1, rng=3)
        for sampler in (kernelled, reference):
            sampler.process_batch(list(range(150)), stamps[:150])
            sampler.process_batch(list(range(150, 300)), stamps[150:])
        boundaries = lambda sampler: [
            (bucket.start, bucket.end)
            for bucket in sampler._coverages[0]._decomposition._buckets
        ]
        assert boundaries(kernelled) == boundaries(reference)

    def test_wor_kernel_subsets_are_distinct(self):
        sampler = SequenceSamplerWOR(n=30, k=5, rng=11, kernel="numpy")
        for lo in range(0, 300, 75):
            sampler.process_batch(list(range(lo, lo + 75)))
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 5
            assert all(element.index >= sampler.total_arrivals - 30 for element in drawn)


@needs_numpy
class TestEngineKernelReporting:
    def test_numpy_engine_reports_numpy_and_runs_the_kernels(self):
        records = [(f"key-{value % 5}", value) for value in range(400)]
        engines = {}
        for kernel in ("python", "numpy"):
            registry = MetricsRegistry()
            spec = SamplerSpec(window="sequence", n=16, k=3, kernel=kernel)
            engine = ShardedEngine(spec, shards=2, seed=1, registry=registry)
            engine.ingest(records)
            assert engine.stats()["kernel"] == kernel
            assert engine.sampler_for("key-0").kernel == kernel
            gauge = engine.metrics_snapshot()["gauges"]["engine.kernel.numpy"]
            assert gauge == (1.0 if kernel == "numpy" else 0.0)
            engines[kernel] = engine
        # The kernels drew the state, not the python lanes.
        payloads = lambda engine: [
            entry["sampler"]["payload"]
            for pool_state in engine.state_dict()["pools"]
            for entry in pool_state["entries"]
        ]
        assert payloads(engines["numpy"]) != payloads(engines["python"])

    def test_parallel_stats_and_gauge(self):
        registry = MetricsRegistry()
        spec = SamplerSpec(window="sequence", n=16, k=1, kernel="numpy")
        engine = ProcessEngine(spec, shards=2, workers=2, registry=registry)
        try:
            engine.ingest([(f"key-{value % 5}", value) for value in range(200)])
            engine.flush()
            assert engine.stats()["kernel"] == "numpy"
            snapshot = engine.metrics_snapshot()
            assert snapshot["gauges"]["engine.kernel.numpy"] == 1.0
        finally:
            engine.close()


@needs_numpy
class TestNumpyWorkerCounts:
    """What ``kernel="numpy"`` promises across executors: the kernels draw
    once per ``process_batch`` call, so a key's samples depend on how its
    records are cut into runs.  The router cuts per-shard sub-batches the
    same way whoever owns the shard, so every worker count agrees; the
    serial engine's grouped loop feeds whole-call runs and need not."""

    def test_worker_count_does_not_change_a_numpy_fleet(self):
        source = random.Random(23)
        records = [(f"key-{source.randrange(23)}", value) for value in range(20_000)]
        spec = SamplerSpec(window="sequence", n=64, k=4, kernel="numpy")
        states = []
        for workers in (1, 2, 4):
            with ProcessEngine(spec, shards=4, seed=1, workers=workers) as engine:
                engine.ingest(records)
                states.append(engine.state_dict())
        assert states[0] == states[1] == states[2]


class TestWorkerBackedChunkMetrics:
    """The process engine's ingest path must emit the same chunk
    instruments the serial path does."""

    def test_parallel_ingest_emits_chunk_metrics(self, sizing):
        registry = MetricsRegistry()
        spec = SamplerSpec(window="sequence", n=16, k=2)
        sizing(sub_batch=64)
        engine = ProcessEngine(spec, shards=4, workers=2, registry=registry)
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

    def test_uninstrumented_ingest_pays_nothing(self, sizing):
        # No registry: the chunk instruments are null and the path must not
        # observe into them (guarded by the same enabled flag as serial).
        spec = SamplerSpec(window="sequence", n=16, k=2)
        sizing(sub_batch=64)
        engine = ProcessEngine(spec, shards=2, workers=2)
        try:
            engine.ingest([("a", value) for value in range(500)])
            engine.flush()
            assert engine.key_count == 1
        finally:
            engine.close()


@needs_numpy
@pytest.mark.slow
class TestNumpyKernelStatisticalGating:
    """χ² + KS gates for ``kernel="numpy"`` over all four
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
                n=self.WINDOW, k=1, rng=50_000 + trial, kernel="numpy"
            )
            self._feed(sampler, trial)
            observations.append(sampler.sample()[0].value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_sequence_wor_numpy_uniform_inclusions(self):
        observations = []
        for trial in range(900):
            sampler = SequenceSamplerWOR(
                n=self.WINDOW, k=6, rng=60_000 + trial, kernel="numpy"
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
                t0=float(self.WINDOW), k=1, rng=70_000 + trial, kernel="numpy"
            )
            self._feed(sampler, trial, stamps)
            observations.append(sampler.sample()[0].value - (self.STREAM - self.WINDOW))
        self._gate(observations, list(range(self.WINDOW)))

    def test_timestamp_wor_numpy_uniform_inclusions(self):
        stamps = [float(position) for position in range(self.STREAM)]
        observations = []
        for trial in range(900):
            sampler = TimestampSamplerWOR(
                t0=float(self.WINDOW), k=6, rng=80_000 + trial, kernel="numpy"
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
                t0=10.0, k=1, rng=90_000 + trial, kernel="numpy"
            )
            self._feed(sampler, trial, stamps)
            observations.append(rank[sampler.sample()[0].value])
        self._gate(observations, list(range(len(active))))
