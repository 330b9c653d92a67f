"""The committed perf baseline: structure, determinism, and a speed floor.

``benchmarks/record.py`` writes ``BENCH_E7.json`` / ``BENCH_E11.json`` at the
repo root so the perf trajectory is recorded PR over PR.  This suite keeps
those files honest without importing CI-grade timing flakiness into tier 1:

* the files must exist, parse, and carry every metric the regression guard
  (``record.py --baseline``) compares;
* the committed headline claims must actually be claimed (≥2× serial E11
  ingest via the batched path; columnar transport smaller than pickle);
* the *deterministic* metric — transport bytes per record — is recomputed
  here and must match the committed figure;
* a deliberately generous throughput floor (slow-marked) checks the batched
  paths still beat the per-record loop at all.  The tight 25% guard runs in
  CI's ``bench-smoke`` job, where a fresh quick run is compared against the
  committed baseline.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time

import pytest

from repro.engine import SamplerSpec, ShardedEngine, encode_batch

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


def load_baseline(name):
    path = os.path.join(REPO_ROOT, name)
    assert os.path.exists(path), f"{name} must be committed at the repo root"
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_module():
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import record

    return record


class TestCommittedBaselines:
    def test_e7_baseline_structure(self):
        payload = load_baseline("BENCH_E7.json")
        assert payload["experiment"] == "E7"
        for sampler in ("seq-wr", "seq-wor", "ts-wr", "ts-wor"):
            entry = payload["results"][sampler]
            for metric in (
                "append_kel_per_s",
                "batched_kel_per_s",
                "speedup_batched",
            ):
                assert metric in entry, (sampler, metric)
                assert entry[metric] > 0

    def test_e7_timestamp_hot_path_headline_claims(self):
        """The timestamp samplers' ``append`` runs their batched path for
        one element, so batching must never lose (``speedup_batched`` >= 1)
        and the guarded figure is the batched path against the priority
        baseline timed alongside it."""
        results = load_baseline("BENCH_E7.json")["results"]
        for sampler in ("ts-wr", "ts-wor"):
            entry = results[sampler]
            assert entry["speedup_batched"] >= 1.0, (sampler, entry)
            assert entry["batched_over_reference"] > 0, (sampler, entry)
            assert entry["reference_kel_per_s"] > 0, (sampler, entry)

    def test_e11_baseline_structure_and_headline_claims(self):
        payload = load_baseline("BENCH_E11.json")
        assert payload["experiment"] == "E11"
        serial = payload["results"]["serial"]
        # The acceptance headline: >= 2x serial ingest throughput.
        assert serial["speedup_batched"] >= 2.0, serial
        transport = payload["results"]["transport"]
        assert (
            transport["columnar_bytes_per_record"] < transport["pickle_bytes_per_record"]
        ), transport
        process = payload["results"]["process"]
        for stage in ("encode_seconds", "dispatch_seconds", "decode_seconds", "apply_seconds"):
            assert stage in process["stage_seconds"]

    def test_e11_process_rows_have_one_transport(self):
        """Columnar is the only process transport: the baseline carries one
        process row per configuration and no transport-comparison rows, and
        the committed multi-core row is a real run, not a skip note."""
        results = load_baseline("BENCH_E11.json")["results"]
        assert "process_shm" not in results
        assert "transport_dispatch" not in results
        assert "transport" not in results["process"]
        assert "transport.ring.fallbacks" not in results["process"]["metrics"]["counters"]
        multicore = results["multicore"]
        assert multicore["skipped"] is False
        assert multicore["requested_workers"] <= multicore["available_cores"]
        assert multicore["krps"] > 0
        assert set(multicore["stage_seconds"]) == set(results["process"]["stage_seconds"])

    def test_guarded_metrics_all_resolvable(self):
        """Every metric the CI regression guard compares must exist in the
        committed files — a renamed key would otherwise silently disable
        the guard."""
        record = record_module()
        for name, guards in record.GUARDED_METRICS.items():
            results = load_baseline(name)["results"]
            for guard in guards:
                dotted, direction = guard[0], guard[1]
                assert direction in ("min", "max", "cap", "floor")
                if direction in ("cap", "floor"):
                    # Absolute-threshold guards carry their bound inline.
                    assert len(guard) == 3 and float(guard[2]) > 0, guard
                value = record._lookup(results, dotted)
                if direction == "floor":
                    # Floor-guarded rows are optional at *run* time (null
                    # without the numpy kernel), but the committed baseline
                    # is recorded with --kernel numpy and must itself meet
                    # the acceptance floor.
                    assert isinstance(value, (int, float)), (name, dotted)
                    assert value >= float(guard[2]), (name, dotted, value)
                    continue
                assert isinstance(value, (int, float)), (name, dotted)

    def test_transport_bytes_per_record_matches_committed(self):
        """The freight metric is deterministic: recompute it and compare."""
        record = record_module()
        committed = load_baseline("BENCH_E11.json")["results"]["transport"]
        batch = [
            (key, value, None)
            for key, value in (r[:2] for r in record.e11_records(quick=False)[:4096])
        ]
        columnar = len(encode_batch(batch)) / len(batch)
        pickled = len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)) / len(batch)
        assert columnar == pytest.approx(committed["columnar_bytes_per_record"], rel=0.25)
        assert pickled == pytest.approx(committed["pickle_bytes_per_record"], rel=0.25)


@pytest.mark.slow
class TestThroughputFloor:
    """A generous floor, not the CI guard: batching must still pay at all."""

    def test_batched_paths_beat_per_record_ingest(self):
        record = record_module()
        keys, total = 500, 60_000
        warmup = [(key, key % 1024) for key in range(keys)]
        from repro.streams.workloads import build_keyed_workload

        records = warmup + build_keyed_workload(
            "keyed-zipf", total - keys, num_keys=keys, rng=11
        )

        def timed(action):
            started = time.perf_counter()
            action()
            return time.perf_counter() - started

        spec = SamplerSpec(window="sequence", n=256, k=4)
        reference = ShardedEngine(spec, shards=8, seed=3)
        t_reference = timed(lambda: record.per_record_ingest(reference, records))
        batched = ShardedEngine(spec, shards=8, seed=3)
        t_batched = timed(lambda: batched.ingest(records))

        assert batched.state_dict() == reference.state_dict()
        # A floor far below the recorded ~4.5x so machine noise cannot
        # produce false failures; a real regression (batching slower than
        # the loop it replaced) still trips it.
        assert t_batched < t_reference * 0.8, (t_reference, t_batched)
