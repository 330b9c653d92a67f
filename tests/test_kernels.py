"""The vectorized sampler kernel layer (``repro.core.kernels``).

Four contracts are pinned here:

1. **Kernel selection.**  ``kernel`` is the one apply-path switch of a
   standalone sampler: ``"python"`` never calls into the kernels,
   ``"numpy"`` runs them and on a numpy-free host raises
   :class:`~repro.exceptions.ConfigurationError` loudly at construction.
2. **One apply path in the engine.**  Engines always run python: a
   :class:`~repro.engine.SamplerSpec` has no ``kernel`` field, the kernels
   live in :mod:`repro.core` (which never imports :mod:`repro.engine`), and
   ``import repro`` plus a whole ingest loads no numpy.  Specs and
   checkpoints written while engines ran numpy load as python.
3. **Exact resume.**  A numpy sampler's snapshot carries its numpy
   generator, so a restored sampler continues draw for draw like one that
   was never stopped.
4. **Distributional exactness.**  The numpy kernels are free to use
   different exact sampling laws than the python path, so every
   vectorized family is gated by χ² + KS suites (marked ``slow``), plus
   structural canonicality checks on the covering decompositions.

Every numpy-dependent test skips cleanly on a numpy-free host (the tier-1
CI lane); the selection/validation tests run everywhere.
"""

import ast
import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

import repro.core
from repro.analysis import assess_uniformity, ks_uniformity
from repro.core import (
    SequenceSamplerWOR,
    SequenceSamplerWR,
    TimestampSamplerWOR,
    TimestampSamplerWR,
)
from repro.core import kernels as kernels_module
from repro.core.facade import sliding_window_sampler
from repro.core.kernels import HAS_NUMPY, resolve_kernel
from repro.engine import (
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    load_checkpoint,
    write_checkpoint,
)
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


class TestSpecAndFacadeValidation:
    def test_facade_rejects_numpy_kernel_for_baselines(self):
        with pytest.raises(ConfigurationError, match="optimal"):
            sliding_window_sampler("sequence", n=16, k=2, algorithm="chain", kernel="numpy")

    def test_engine_spec_has_no_kernel(self):
        assert len(dataclasses.fields(SamplerSpec)) == 7
        with pytest.raises(TypeError):
            SamplerSpec(window="sequence", n=16, k=2, kernel="numpy")
        with pytest.raises(ConfigurationError, match="kernel"):
            SamplerSpec(window="sequence", n=16, k=2, options={"kernel": "numpy"})
        spec = SamplerSpec(window="sequence", n=16, k=2)
        assert "kernel" not in spec.to_dict()
        assert spec.build(rng=1).kernel == "python"

    def test_engine_reports_no_kernel(self):
        registry = MetricsRegistry()
        spec = SamplerSpec(window="sequence", n=16, k=2)
        engine = ShardedEngine(spec, shards=2, registry=registry)
        engine.ingest([(f"key-{value % 5}", value) for value in range(100)])
        assert "kernel" not in engine.stats()
        assert "engine.kernel.numpy" not in engine.metrics_snapshot()["gauges"]


class TestLayering:
    """The kernels are sampler code: :mod:`repro.core` reaches no engine
    module, and the engine never pays for numpy."""

    def test_core_never_imports_the_engine(self):
        core_dir = os.path.dirname(repro.core.__file__)
        offenders = []
        for name in sorted(os.listdir(core_dir)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(core_dir, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # Resolve relative imports against the repro.core package.
                    base = ["repro", "core"][: max(0, 3 - node.level)] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    targets = [module] + [f"{module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(target.split(".")[:2] == ["repro", "engine"] for target in targets):
                    offenders.append((name, node.lineno))
        assert offenders == []

    def test_an_engine_run_loads_no_numpy(self):
        src_dir = os.path.dirname(os.path.dirname(repro.core.__file__))
        script = (
            "import sys\n"
            "import repro\n"
            "for spec in (repro.SamplerSpec(window='sequence', n=16, k=3),\n"
            "             repro.SamplerSpec(window='timestamp', t0=8.0, k=3)):\n"
            "    engine = repro.ShardedEngine(spec, shards=2, seed=1)\n"
            "    engine.ingest([(f'key-{i % 7}', i, float(i)) for i in range(500)])\n"
            "    assert engine.sample('key-0')\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


#: Spec keys an engine wrote while it had an apply-path switch: ``kernel``
#: (while ``SamplerSpec`` had that field), ``fast`` (before it), or both.
LEGACY_SPEC_KEYS = [
    pytest.param({"fast": False}, id="fast-false"),
    pytest.param({"fast": True}, id="fast-true"),
    pytest.param({"kernel": "python"}, id="kernel-python"),
    pytest.param({"kernel": "numpy"}, id="kernel-numpy"),
    pytest.param({"kernel": "python", "fast": False}, id="kernel-python-fast-false"),
    pytest.param({"kernel": "numpy", "fast": True}, id="kernel-numpy-fast-true"),
]


def numpy_kernel_rng():
    """A real ``kernel_rng`` snapshot field, from a standalone numpy sampler
    that has drawn."""
    sampler = SequenceSamplerWR(n=16, k=2, rng=9, kernel="numpy")
    sampler.process_batch(list(range(40)))
    return sampler.state_dict()["kernel_rng"]


def as_legacy_pool(pool_state, spec_keys, kernel_rng):
    """Rewrite one pool snapshot in place as a numpy-era engine wrote it:
    ``spec_keys`` in its spec and, unless ``None``, ``kernel_rng`` in every
    sampler state."""
    pool_state["spec"].update(spec_keys)
    if kernel_rng is not None:
        for entry in pool_state["entries"]:
            entry["sampler"]["kernel_rng"] = copy.deepcopy(kernel_rng)


class TestLegacyNumpySnapshots:
    """Specs and checkpoints written while engines could run numpy load as
    python, with ``kernel``/``fast`` ignored.  A numpy sampler's snapshot is
    a python snapshot plus ``kernel_rng``, which python samplers ignore, so
    the retained samples carry over exactly and only later coins differ."""

    @pytest.mark.parametrize("spec_keys", LEGACY_SPEC_KEYS)
    def test_spec_dicts_naming_a_kernel_load_as_python(self, spec_keys):
        spec = SamplerSpec(window="sequence", n=16, k=2)
        payload = spec.to_dict()
        payload.update(spec_keys)
        assert SamplerSpec.from_dict(payload) == spec

    @pytest.mark.parametrize("with_kernel_rng", [False, pytest.param(True, marks=needs_numpy)])
    @pytest.mark.parametrize("spec_keys", LEGACY_SPEC_KEYS)
    def test_engine_restores_a_legacy_snapshot_as_python(self, spec_keys, with_kernel_rng):
        spec = SamplerSpec(window="sequence", n=16, k=2)
        records = [(f"key-{value % 5}", value) for value in range(200)]
        engine = ShardedEngine(spec, shards=2, seed=3)
        engine.ingest(records[:100])
        state = engine.state_dict()
        legacy = copy.deepcopy(state)
        legacy["spec"].update(spec_keys)
        kernel_rng = numpy_kernel_rng() if with_kernel_rng else None
        for pool_state in legacy["pools"]:
            as_legacy_pool(pool_state, spec_keys, kernel_rng)
        restored = ShardedEngine(spec, shards=2, seed=3)
        restored.load_state_dict(legacy)
        reference = ShardedEngine(spec, shards=2, seed=3)
        reference.load_state_dict(state)
        assert restored.state_dict() == reference.state_dict()
        restored.ingest(records[100:])
        reference.ingest(records[100:])
        assert restored.state_dict() == reference.state_dict()

    @needs_numpy
    def test_checkpoint_whose_manifest_names_numpy_loads_as_python(self, tmp_path):
        spec = SamplerSpec(window="timestamp", t0=20.0, k=3, replacement=False)
        records = [(f"key-{value % 7}", value, value * 0.5) for value in range(600)]
        engine = ShardedEngine(spec, shards=3, seed=5)
        engine.ingest(records[:300])
        path = tmp_path / "engine.ckpt"
        write_checkpoint(engine, path)
        reference = load_checkpoint(path)
        # Rewrite the directory as a kernel="numpy" engine left it: the
        # manifest's and every segment's spec name numpy, and every sampler
        # state carries a kernel_rng (segment digests recomputed).
        kernel_rng = numpy_kernel_rng()
        manifest_path = path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["engine"]["spec"]["kernel"] = "numpy"
        for entry in manifest["segments"]:
            segment = path / entry["file"]
            envelope = pickle.loads(segment.read_bytes())
            as_legacy_pool(envelope["pool"], {"kernel": "numpy"}, kernel_rng)
            data = pickle.dumps(envelope, pickle.HIGHEST_PROTOCOL)
            segment.write_bytes(data)
            entry["sha256"] = hashlib.sha256(data).hexdigest()
            entry["bytes"] = len(data)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        restored = load_checkpoint(path)
        assert restored.spec == spec
        assert restored.state_dict() == reference.state_dict()
        restored.ingest(records[300:])
        reference.ingest(records[300:])
        assert restored.state_dict() == reference.state_dict()


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
                assert sampler._coverage.is_canonical()
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
        boundaries = lambda sampler: sampler._coverage.boundaries()
        assert boundaries(kernelled) == boundaries(reference)

    def test_wor_kernel_subsets_are_distinct(self):
        sampler = SequenceSamplerWOR(n=30, k=5, rng=11, kernel="numpy")
        for lo in range(0, 300, 75):
            sampler.process_batch(list(range(lo, lo + 75)))
            drawn = sampler.sample()
            assert len({element.index for element in drawn}) == 5
            assert all(element.index >= sampler.total_arrivals - 30 for element in drawn)


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
