#!/usr/bin/env python
"""Record the repo's perf trajectory: E7 + E11 headline numbers as JSON.

Runs the two throughput experiments that the batched hot path targets and
writes ``BENCH_E7.json`` / ``BENCH_E11.json``:

* **E7** — per-element ingest cost of the four optimal samplers, measured
  three ways: the per-element ``append`` loop (the *before*), the batched
  default ``process_batch`` path (bit-identical), and the ``fast=True``
  path (since the per-acceptance reservoirs, the same python code as
  batched; it differs only with ``--kernel numpy``).  The timestamp
  samplers' ``append`` runs the batched code for one element, so their
  guarded ratio is the batched path against a reference implementation
  timed alongside: the priority-sampling baseline's per-element ``append``
  (Babcock–Datar–Motwani for ts-wr, Gemulla–Lehner for ts-wor).  Each path is timed best-of-3 on a fresh sampler,
  with the paths interleaved within each round — single-shot
  timings taken seconds apart made the guarded ratios flaky on 1-core CI
  runners (see ``timed_best_grouped``).
* **E11** — keyed-engine ingest at fleet scale (zipf keys through
  ``ShardedEngine``), same three ways, plus the process-transport freight
  (columnar vs pickled bytes per record — deterministic) and the
  ``ProcessEngine`` per-stage timing breakdown (encode / dispatch / decode /
  apply) of its columnar transport.  The ``obs`` row measures the metrics-enabled ingest
  overhead (hard-capped at 5% by the baseline guard), the process rows embed
  their fleet-merged ``repro.obs`` snapshots, and a standalone
  ``METRICS.json`` lands in ``--out`` for the CI artifact.  The ``query``
  row measures the fleet-wide query path on a ``ProcessEngine``: a ≥1k-key
  per-key ``sample`` loop (one request/reply round per key) vs one
  ``query_batch`` (one round per worker) vs a cached repeat through
  ``QueryCache`` — the batched speedup is guarded at the usual tolerance.
  The ``recovery`` row prices the self-healing machinery: the supervised
  WAL-on/WAL-off ingest ratio (hard-capped at 1.10) and the MTTR from
  SIGKILL to a healthy, bit-identical fleet after checkpoint restore plus
  a 100k-record journal replay.

The JSON files are committed, so the perf trajectory is recorded PR over PR.
Absolute throughput depends on the machine; the *speedup ratios* and the
*bytes-per-record* figures are the stable metrics, and they are what
``--baseline DIR`` checks: a fresh run regressing any guarded metric by more
than ``--tolerance`` (default 25%) exits non-zero.  CI runs
``record.py --quick --out <tmp> --baseline .`` as the ``bench-smoke`` job.

Usage::

    PYTHONPATH=src python benchmarks/record.py [--quick] [--out DIR]
                                               [--baseline DIR] [--tolerance PCT]
                                               [--kernel python|numpy|auto]
                                               [--cores N]

``--kernel numpy`` (requires the ``[fast]`` extra) adds the vectorized-kernel
rows: an E7 ``kernel`` timing per sampler family with the floor-guarded
``speedup_numpy`` ratio, an E11 serial kernel row, and the process-engine
apply-seconds split before/after the kernel.  ``--cores N`` appends an
advisory multi-core process row at N workers (skipped with a note on smaller
hosts).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import random
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.baselines import PrioritySamplerWOR, PrioritySamplerWR  # noqa: E402
from repro.core import (  # noqa: E402
    SequenceSamplerWOR,
    SequenceSamplerWR,
    TimestampSamplerWOR,
    TimestampSamplerWR,
)
from repro.engine import (  # noqa: E402
    ProcessEngine,
    QueryCache,
    RestartPolicy,
    SamplerSpec,
    ShardedEngine,
    chaos,
    encode_batch,
    write_checkpoint,
)
from repro.engine.engine import _unpack_record  # noqa: E402
from repro.engine.kernels import HAS_NUMPY, resolve_kernel  # noqa: E402
from repro.exceptions import ConfigurationError  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.streams.workloads import build_keyed_workload  # noqa: E402

#: Metrics guarded by --baseline, per experiment file.  Direction "min" means
#: a *smaller* fresh value than baseline/(1+tol) is a regression (throughput
#: ratios); "max" means a larger fresh value than baseline*(1+tol) is
#: (bytes per record).  A three-element ``(dotted, "cap", ceiling)`` guard is
#: baseline-independent: the fresh value must stay at or below the absolute
#: ceiling regardless of what was committed (used for the metrics-enabled
#: ingest overhead, which must never exceed 5%).  ``(dotted, "floor", min)``
#: is the cap's mirror for optional rows: the fresh value must be at or
#: above the floor when present, and a ``null`` row (the optional path was
#: inactive, e.g. the numpy kernel on a numpy-free host) skips the guard.
GUARDED_METRICS: Dict[str, List[tuple]] = {
    "BENCH_E7.json": [
        ("seq-wr.speedup_batched", "min"),
        ("seq-wr.speedup_fast", "min"),
        ("seq-wor.speedup_batched", "min"),
        # seq-wor.speedup_fast is recorded but not guarded: the
        # per-acceptance vs reference-loop ratio moves with stream length, so
        # quick-vs-full comparisons exceed any honest tolerance.
        # The timestamp samplers' append is their batched path for one
        # element, so append-relative ratios no longer measure batching;
        # the batched path is guarded against the priority baselines'
        # per-element append, timed in the same interleaved group.
        ("ts-wr.batched_over_reference", "min"),
        ("ts-wor.batched_over_reference", "min"),
        # The vectorized-kernel acceptance floors (PR 9): the numpy kernel
        # must beat the committed python fast path >= 2x on seq-WR and a
        # timestamp sampler.  "floor" guards are baseline-independent and
        # skipped when the row is null (the bench ran without the kernel).
        ("seq-wr.speedup_numpy", "floor", 2.0),
        ("ts-wr.speedup_numpy", "floor", 2.0),
    ],
    "BENCH_E11.json": [
        ("serial.speedup_batched", "min"),
        ("serial.speedup_fast", "min"),
        # Pickled sampler state per live key: what a key costs on disk.  A
        # fatter per-key state (a generator vector per stream was ~3 KB)
        # trips this before it reaches a checkpoint.
        ("serial.state_bytes_per_key", "max"),
        ("transport.columnar_bytes_per_record", "max"),
        ("transport.pickle_over_columnar", "min"),
        ("obs.enabled_over_disabled", "cap", 1.05),
        ("query.speedup_batched", "min"),
        # The supervised journal must stay a file append on the columnar
        # payload the transport already built — never a second encode.
        ("recovery.wal_overhead", "cap", 1.10),
    ],
}


def timed(action: Callable[[], Any]) -> float:
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def timed_best_grouped(
    setups: Dict[str, Callable[[], Callable[[], Any]]], repeats: int = 3
) -> Dict[str, float]:
    """Best-of-N wall time per path, with the paths interleaved within each
    round.  ``setup`` builds fresh state (samplers are stateful) outside the
    timed region, once per repeat.  Two defenses against 1-core CI runners,
    where the guarded metrics are *ratios* of these timings: the minimum is
    the standard microbenchmark estimator (a single scheduler hiccup cannot
    poison a path), and interleaving samples every path across the same wall
    window (machine speed drifts minute to minute; timing path A's repeats
    seconds apart from path B's turns that drift into ratio noise the
    regression guard cannot tell from a real regression)."""
    best = {name: float("inf") for name in setups}
    for _ in range(repeats):
        for name, setup in setups.items():
            action = setup()
            gc.collect()
            best[name] = min(best[name], timed(action))
    return best


def poisson_timestamps(length: int, seed: int = 0) -> List[float]:
    source = random.Random(seed)
    current, stamps = 0.0, []
    for _ in range(length):
        current += source.expovariate(1.0)
        stamps.append(current)
    return stamps


# -- E7: per-sampler ingest cost ---------------------------------------------


def bench_e7(quick: bool, kernel: str = "python") -> Dict[str, Any]:
    seq_length = 60_000 if quick else 200_000
    ts_length = 15_000 if quick else 40_000
    seq_values = list(range(seq_length))
    ts_values = list(range(ts_length))
    ts_stamps = poisson_timestamps(ts_length)
    cases = [
        ("seq-wr", lambda fast, kernel="python": SequenceSamplerWR(n=1000, k=8, rng=1, fast=fast, kernel=kernel), seq_values, None, None),
        ("seq-wor", lambda fast, kernel="python": SequenceSamplerWOR(n=1000, k=16, rng=1, fast=fast, kernel=kernel), seq_values, None, None),
        ("ts-wr", lambda fast, kernel="python": TimestampSamplerWR(t0=1000.0, k=4, rng=1, fast=fast, kernel=kernel), ts_values, ts_stamps,
         lambda fast: PrioritySamplerWR(t0=1000.0, k=4, rng=1)),
        ("ts-wor", lambda fast, kernel="python": TimestampSamplerWOR(t0=1000.0, k=4, rng=1, fast=fast, kernel=kernel), ts_values, ts_stamps,
         lambda fast: PrioritySamplerWOR(t0=1000.0, k=4, rng=1)),
    ]
    results: Dict[str, Any] = {}
    for name, make, values, stamps, reference in cases:
        count = len(values)

        def append_action(make=make, values=values, stamps=stamps):
            sampler = make(False)
            append = sampler.append
            if stamps is None:
                def run():
                    for value in values:
                        append(value)
            else:
                def run():
                    for position, value in enumerate(values):
                        append(value, stamps[position])
            return run

        def batch_action(fast, kernel="python", make=make, values=values, stamps=stamps):
            sampler = make(fast, kernel)
            return lambda: sampler.process_batch(values, stamps)

        setups = {
            "append": append_action,
            "batched": lambda: batch_action(False),
            "fast": lambda: batch_action(True),
        }
        if reference is not None:
            setups["reference"] = lambda reference=reference: append_action(reference)
        if kernel == "numpy":
            # The vectorized lane-batch kernel, timed over the *same*
            # fast-path draws it replaces (fast=True is where the lanes are
            # wide enough to vectorize; the default path stays bit-identical
            # python by contract).
            setups["kernel"] = lambda: batch_action(True, "numpy")
        best = timed_best_grouped(setups)
        t_append, t_batched, t_fast = best["append"], best["batched"], best["fast"]
        t_kernel = best.get("kernel")
        results[name] = {
            "elements": count,
            "append_kel_per_s": round(count / t_append / 1e3, 1),
            "batched_kel_per_s": round(count / t_batched / 1e3, 1),
            "fast_kel_per_s": round(count / t_fast / 1e3, 1),
            "kernel_kel_per_s": round(count / t_kernel / 1e3, 1) if t_kernel else None,
            "speedup_batched": round(t_append / t_batched, 3),
            "speedup_fast": round(t_append / t_fast, 3),
            # numpy-kernel fast path vs the committed python fast path —
            # the PR 9 acceptance ratio (floor-guarded for seq-wr / ts-wr).
            "speedup_numpy": round(t_fast / t_kernel, 3) if t_kernel else None,
        }
        if reference is not None:
            t_reference = best["reference"]
            results[name].update(
                reference=reference(False).algorithm,
                reference_kel_per_s=round(count / t_reference / 1e3, 1),
                batched_over_reference=round(t_reference / t_batched, 3),
            )
        line = (
            f"[E7] {name:<8} append {results[name]['append_kel_per_s']:>8.1f} kel/s"
            f" | batched {results[name]['batched_kel_per_s']:>8.1f}"
            f" ({results[name]['speedup_batched']:.2f}x)"
            f" | fast {results[name]['fast_kel_per_s']:>8.1f}"
            f" ({results[name]['speedup_fast']:.2f}x)"
        )
        if t_kernel:
            line += (
                f" | kernel {results[name]['kernel_kel_per_s']:>8.1f}"
                f" ({results[name]['speedup_numpy']:.2f}x over fast)"
            )
        if reference is not None:
            line += (
                f" | {results[name]['reference']} {results[name]['reference_kel_per_s']:>8.1f}"
                f" (batched {results[name]['batched_over_reference']:.2f}x)"
            )
        print(line)
    return results


# -- E11: keyed-engine ingest at fleet scale ----------------------------------


def e11_records(quick: bool) -> List[Any]:
    # Quick mode scales keys *and* records down together (same ~100
    # records/key as the canonical 1M/10k shape), so the speedup ratios —
    # the metrics the baseline guard compares — stay scale-stable: per-key
    # sampler construction amortises the same way at both sizes.
    keys = 2_000 if quick else 10_000
    total = 300_000 if quick else 1_000_000
    warmup = [(key, key % 1024) for key in range(keys)]
    bulk = build_keyed_workload("keyed-zipf", total - len(warmup), num_keys=keys, rng=11)
    return warmup + bulk


def e11_spec(fast: bool = False, kernel: str = "python") -> SamplerSpec:
    return SamplerSpec(window="sequence", n=256, k=4, replacement=True, fast=fast, kernel=kernel)


def per_record_ingest(engine: ShardedEngine, records: List[Any]) -> None:
    """The pre-batching ingest loop, kept as the *before* reference."""
    for record in records:
        key, value, timestamp = _unpack_record(record)
        engine._pool_of(key).append(key, value, timestamp)


#: Slice size for the interleaved obs-overhead A/B: one ingest chunk
#: (~100ms of batched serial ingest), small enough that machine-state
#: drift within a disabled/enabled slice pair is negligible.
_OBS_SLICE = 32_768


def bench_e11_serial(records: List[Any], kernel: str = "python") -> Dict[str, Any]:
    count = len(records)
    before = ShardedEngine(e11_spec(), shards=8, seed=3)
    t_before = timed(lambda: per_record_ingest(before, records))
    batched = ShardedEngine(e11_spec(), shards=8, seed=3)
    t_batched = timed(lambda: batched.ingest(records))
    if batched.state_dict() != before.state_dict():
        raise AssertionError("batched ingest diverged from the per-record reference")
    fast = ShardedEngine(e11_spec(fast=True), shards=8, seed=3)
    t_fast = timed(lambda: fast.ingest(records))
    t_kernel = None
    if kernel == "numpy":
        kern = ShardedEngine(e11_spec(fast=True, kernel="numpy"), shards=8, seed=3)
        t_kernel = timed(lambda: kern.ingest(records))
    keys = batched.key_count
    state_bytes = len(pickle.dumps(batched.state_dict(), pickle.HIGHEST_PROTOCOL))
    result = {
        "records": count,
        "keys": keys,
        "state_bytes_per_key": round(state_bytes / keys, 1),
        "per_record_krps": round(count / t_before / 1e3, 1),
        "batched_krps": round(count / t_batched / 1e3, 1),
        "fast_krps": round(count / t_fast / 1e3, 1),
        "kernel_krps": round(count / t_kernel / 1e3, 1) if t_kernel else None,
        "speedup_batched": round(t_before / t_batched, 3),
        "speedup_fast": round(t_before / t_fast, 3),
        # Informational only (not guarded): the keyed-engine stream spreads
        # records over ~10k samplers, so per-key lane batches are a few
        # records wide and numpy's per-call overhead can eat the win
        # entirely (<= 1x is normal here).  The guarded floors live in E7,
        # where the lanes are wide enough to vectorize.
        "speedup_numpy": round(t_fast / t_kernel, 3) if t_kernel else None,
    }
    line = (
        f"[E11] serial: per-record {result['per_record_krps']} krec/s"
        f" | batched {result['batched_krps']} krec/s ({result['speedup_batched']:.2f}x)"
        f" | fast {result['fast_krps']} krec/s ({result['speedup_fast']:.2f}x)"
        f" | state {result['state_bytes_per_key']} B/key"
    )
    if t_kernel:
        line += f" | kernel {result['kernel_krps']} krec/s ({result['speedup_numpy']:.2f}x over fast)"
    print(line)
    return result


def bench_obs(records: List[Any]) -> Dict[str, Any]:
    """Metrics-enabled ingest overhead on the serial batched path.

    Instrumentation is deliberately batch/chunk-granular (no per-record
    metric calls); this run guards that it stays that way.  A whole-run A/B
    on this class of shared hardware is noise-bound (±10% drift between two
    ~1s runs is routine, far above the effect being measured), so the two
    sides are interleaved at fine grain instead: the stream is cut into
    ~100ms slices and each slice is ingested back-to-back into a persistent
    disabled engine and a persistent enabled engine (order swapping every
    slice: whichever side runs second sees the slice's records cache-warm).
    Cyclic GC is paused around each round — gen-2 collections scanning the
    multi-million-object heap land quasi-deterministically on one side and
    were worth a structural ~15% before pausing (a null A/B of two identical
    engines confirms the harness reads ~1.00 with GC paused).  Both sides
    therefore sample the same machine state slice by slice — drift,
    cache-warmth and collector pauses cancel, while a real
    per-ingest/per-chunk overhead accrues on every slice.  Slicing is
    also the stricter test: it multiplies the number of instrumented ingest
    calls for the same record count.  Three rounds, minimum round ratio
    (the noise-floor treatment), capped at 1.05 by the baseline guard.
    """
    count = len(records)
    slices = [records[i : i + _OBS_SLICE] for i in range(0, count, _OBS_SLICE)]
    t_disabled = t_enabled = ratio = None
    registry = MetricsRegistry()
    rounds = 3
    for _ in range(rounds):
        plain = ShardedEngine(e11_spec(), shards=8, seed=3)
        instrumented = ShardedEngine(e11_spec(), shards=8, seed=3, registry=registry)
        gc.collect()
        gc.disable()
        try:
            sum_d = sum_e = 0.0
            for index, chunk in enumerate(slices):
                if index % 2 == 0:
                    sum_d += timed(lambda: plain.ingest(chunk))
                    sum_e += timed(lambda: instrumented.ingest(chunk))
                else:
                    sum_e += timed(lambda: instrumented.ingest(chunk))
                    sum_d += timed(lambda: plain.ingest(chunk))
        finally:
            gc.enable()
        t_disabled = sum_d if t_disabled is None else min(t_disabled, sum_d)
        t_enabled = sum_e if t_enabled is None else min(t_enabled, sum_e)
        round_ratio = sum_e / sum_d
        ratio = round_ratio if ratio is None else min(ratio, round_ratio)
    counted = registry.snapshot()["counters"]["engine.ingest.records"]
    if counted != rounds * count:
        raise AssertionError(
            f"registry counted {counted} records, expected {rounds * count}"
        )
    result = {
        "records": count,
        "disabled_krps": round(count / t_disabled / 1e3, 1),
        "enabled_krps": round(count / t_enabled / 1e3, 1),
        "enabled_over_disabled": round(ratio, 4),
    }
    print(
        f"[E11] obs: disabled {result['disabled_krps']} krec/s"
        f" | enabled {result['enabled_krps']} krec/s"
        f" ({result['enabled_over_disabled']:.3f}x time)"
    )
    return result


def bench_e11_transport(records: List[Any]) -> Dict[str, Any]:
    """Deterministic freight comparison on an E11-shaped sub-batch."""
    batch = [(key, value, None) for key, value in (r[:2] for r in records[:4096])]
    columnar = len(encode_batch(batch))
    pickled = len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
    result = {
        "batch_records": len(batch),
        "columnar_bytes_per_record": round(columnar / len(batch), 3),
        "pickle_bytes_per_record": round(pickled / len(batch), 3),
        "pickle_over_columnar": round(pickled / columnar, 3),
    }
    print(
        f"[E11] transport: columnar {result['columnar_bytes_per_record']} B/rec"
        f" vs pickle {result['pickle_bytes_per_record']} B/rec"
        f" ({result['pickle_over_columnar']:.2f}x smaller)"
    )
    return result


def bench_e11_process(
    records: List[Any],
    quick: bool,
    fast: bool = False,
    kernel: str = "python",
    workers: int = 2,
    embed_metrics: bool = True,
) -> Dict[str, Any]:
    subset = records[: 60_000 if quick else 200_000]
    registry = MetricsRegistry()
    with ProcessEngine(
        e11_spec(fast=fast, kernel=kernel), shards=8, seed=3, workers=workers,
        registry=registry,
    ) as engine:
        elapsed = timed(lambda: (engine.ingest(subset), engine.flush()))
        report = engine.transport_report()
        keys = engine.key_count
        snapshot = engine.metrics_snapshot()  # fleet-merged (workers included)
    stages = {
        stage: round(report[stage], 4)
        for stage in ("encode_seconds", "dispatch_seconds", "decode_seconds", "apply_seconds")
    }
    result = {
        "records": len(subset),
        "keys": keys,
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "fast": fast,
        "kernel": report["kernel"],
        "krps": round(len(subset) / elapsed / 1e3, 1),
        "encoded_bytes_per_record": round(report["encoded_bytes"] / report["records"], 3),
        "stage_seconds": stages,
    }
    if embed_metrics:
        # The fleet-merged observability snapshot for this run, embedded so
        # every committed bench row carries its own metrics provenance.
        result["metrics"] = snapshot
    print(
        "[E11] process"
        f" (workers={workers}, {result['cores']} core(s), kernel={result['kernel']}):"
        f" {result['krps']} krec/s, stages {stages}"
    )
    return result


def bench_e11_kernel_apply(records: List[Any], quick: bool) -> Dict[str, Any]:
    """Apply-seconds split before/after the vectorized kernel, on the real
    ProcessEngine fast path: the same stream through ``fast=True`` workers
    with the python kernel (the *before*) and the numpy kernel (the
    *after*).  Advisory — the guarded kernel floors live in E7, where the
    lanes are wide enough for the ratio to be stable on 1-core runners."""
    before = bench_e11_process(records, quick, fast=True, embed_metrics=False)
    after = bench_e11_process(records, quick, fast=True, kernel="numpy", embed_metrics=False)
    apply_before = before["stage_seconds"]["apply_seconds"]
    apply_after = after["stage_seconds"]["apply_seconds"]
    result = {
        "python_fast": {"krps": before["krps"], "apply_seconds": apply_before},
        "numpy_fast": {"krps": after["krps"], "apply_seconds": apply_after},
        "apply_speedup_numpy": round(apply_before / apply_after, 3) if apply_after else None,
    }
    print(
        f"[E11] kernel apply split: python-fast {apply_before}s"
        f" vs numpy-fast {apply_after}s"
        f" ({result['apply_speedup_numpy']}x apply)"
    )
    return result


def bench_multicore(records: List[Any], quick: bool, workers: int) -> Dict[str, Any]:
    """Advisory multi-core row (``--cores N``): the process engine at N
    workers.  Skipped with a printed note when the host has fewer cores
    than requested.  Not guarded: CI's bench-smoke run does not pass
    ``--cores``, so the row records the trajectory without gating CI on
    whatever runner class happens to execute it."""
    available = os.cpu_count() or 1
    if available < workers:
        print(
            f"[E11] multicore: skipped (requested {workers} workers,"
            f" {available} core(s) available)"
        )
        return {"requested_workers": workers, "available_cores": available, "skipped": True}
    row = bench_e11_process(records, quick, workers=workers, embed_metrics=False)
    return {
        "requested_workers": workers,
        "available_cores": available,
        "skipped": False,
        "krps": row["krps"],
        "stage_seconds": row["stage_seconds"],
    }


def bench_query(records: List[Any], quick: bool) -> Dict[str, Any]:
    """Fleet-wide query cost on a :class:`ProcessEngine`, measured three ways.

    The per-key loop (the *before*) pays one flush plus one request/reply
    round per key — the query-side analogue of per-record ingest.  The
    batched ``query_batch`` resolves the same ≥1k keys in one round per
    worker, and the cached repeat answers the identical unchanged batch out
    of the generation-stamped :class:`QueryCache` without touching the
    workers at all.  All three produce bit-identical samples (asserted).
    The per-key/batched ratio is guarded by ``--baseline``; the acceptance
    floor is 3x.
    """
    subset = records[: 60_000 if quick else 200_000]
    with ProcessEngine(e11_spec(), shards=8, seed=3, workers=2) as engine:
        engine.ingest(subset)
        engine.flush()
        query_keys = sorted(engine.keys(), key=repr)[:1_000]
        if len(query_keys) < 1_000:
            raise AssertionError(f"only {len(query_keys)} live keys; need >= 1000")
        ops = [("sample", key) for key in query_keys]

        def per_key_loop():
            for key in query_keys:
                engine.sample(key)

        # Interleaved best-of-3, same reasoning as timed_best_grouped: the
        # guarded metric is the loop/batched *ratio*, so both paths must
        # sample the same wall window of a drifting 1-core runner.
        t_loop = t_batched = float("inf")
        for _ in range(3):
            t_loop = min(t_loop, timed(per_key_loop))
            t_batched = min(t_batched, timed(lambda: engine.query_batch(ops)))
        # Equal-output proof: the batch is the per-key answers, bit for bit.
        batched_outcomes = engine.query_batch(ops)
        if batched_outcomes != [("ok", engine.sample(key)) for key in query_keys]:
            raise AssertionError("batched query diverged from the per-key loop")
        cache = QueryCache(max_entries=4 * len(ops))
        engine.query_cache = cache
        cold = engine.query_batch(ops)  # fills the cache
        t_cached = timed(lambda: engine.query_batch(ops))
        if cache.hits < len(ops):
            raise AssertionError(f"cached repeat missed: {cache.stats()}")
        if engine.query_batch(ops) != cold:
            raise AssertionError("cached batch diverged from the cold batch")
    result = {
        "records": len(subset),
        "queried_keys": len(query_keys),
        "per_key_qps": round(len(query_keys) / t_loop, 1),
        "batched_qps": round(len(query_keys) / t_batched, 1),
        "cached_qps": round(len(query_keys) / t_cached, 1),
        "speedup_batched": round(t_loop / t_batched, 3),
        "speedup_cached_over_batched": round(t_batched / t_cached, 3),
        "cache": cache.stats(),
    }
    print(
        f"[E11] query (1k keys, workers=2): per-key {result['per_key_qps']} q/s"
        f" | batched {result['batched_qps']} q/s ({result['speedup_batched']:.2f}x)"
        f" | cached {result['cached_qps']} q/s"
        f" ({result['speedup_cached_over_batched']:.2f}x over batched)"
    )
    return result


def bench_recovery(records: List[Any], quick: bool) -> Dict[str, Any]:
    """Self-healing cost, measured both ways the supervisor can hurt.

    *Steady-state tax*: the same stream through a plain ``ProcessEngine``
    and through a supervised one journaling every sub-batch to a per-shard
    WAL (``fsync="batch"``), interleaved best-of-3 on fresh fleets.  The
    WAL-on/WAL-off ratio is the guarded metric, hard-capped at 1.10 — the
    journal rides the already-encoded columnar payload, so it must stay a
    file append, not a second encode.

    *MTTR*: checkpoint a fleet, journal 100k further records (20k quick),
    SIGKILL one worker, and measure kill → healthy: death detection,
    respawn, checkpoint-segment restore and WAL tail replay.  Equal-output
    proof: the healed fleet's ``state_dict`` must equal a never-crashed
    serial run over the same stream.
    """
    baseline = records[: 60_000 if quick else 200_000]
    journal_size = 20_000 if quick else 100_000
    journaled = records[len(baseline) : len(baseline) + journal_size]
    policy = RestartPolicy(max_restarts=3, backoff_base=0.05, backoff_cap=0.5)

    def timed_ingest(wal_dir: str | None) -> float:
        config: Dict[str, Any] = {}
        if wal_dir is not None:
            config = dict(supervise=True, wal_dir=wal_dir, restart_policy=policy)
        with ProcessEngine(
            e11_spec(), shards=8, seed=3, workers=2, **config
        ) as engine:
            def work():
                engine.ingest(baseline)
                engine.flush()
            return timed(work)

    # Interleaved best-of-3 (same reasoning as timed_best_grouped): the
    # guarded metric is the WAL-on/WAL-off *ratio*, so both rows must sample
    # the same wall window of a drifting runner.
    t_plain = t_wal = float("inf")
    for _ in range(3):
        t_plain = min(t_plain, timed_ingest(None))
        with tempfile.TemporaryDirectory(prefix="swsample-bench-wal-") as wal_dir:
            t_wal = min(t_wal, timed_ingest(wal_dir))

    with tempfile.TemporaryDirectory(prefix="swsample-bench-mttr-") as tmp:
        wal_dir = os.path.join(tmp, "wal")
        with ProcessEngine(
            e11_spec(), shards=8, seed=3, workers=2,
            supervise=True, wal_dir=wal_dir, restart_policy=policy,
        ) as engine:
            engine.ingest(baseline)
            write_checkpoint(engine, os.path.join(tmp, "ckpt"))
            engine.ingest(journaled)
            engine.flush()
            wal_bytes = engine._wal.bytes_on_disk()
            chaos.kill_worker(engine, 0)
            started = time.perf_counter()
            chaos.wait_until_healthy(engine, timeout=300)
            mttr = time.perf_counter() - started
            oracle = ShardedEngine(e11_spec(), shards=8, seed=3)
            oracle.ingest(baseline)
            oracle.ingest(journaled)
            if engine.state_dict() != oracle.state_dict():
                raise AssertionError("healed fleet diverged from the serial oracle")
            restarts = engine.liveness()["restarts"]

    result = {
        "records_baseline": len(baseline),
        "records_journaled": len(journaled),
        "wal_bytes_journaled": wal_bytes,
        "restarts": restarts,
        "mttr_seconds": round(mttr, 3),
        "ingest_plain_rps": round(len(baseline) / t_plain, 1),
        "ingest_wal_rps": round(len(baseline) / t_wal, 1),
        "wal_overhead": round(t_wal / t_plain, 3),
    }
    print(
        f"[E11] recovery (workers=2, shards=8): WAL tax {result['wal_overhead']:.3f}x"
        f" ({result['ingest_wal_rps']} vs {result['ingest_plain_rps']} rec/s)"
        f" | MTTR {result['mttr_seconds']:.3f}s to restore + replay"
        f" {len(journaled)} journaled records"
    )
    return result


# -- recording & regression guard ---------------------------------------------


def meta(quick: bool, kernel: str = "python") -> Dict[str, Any]:
    return {
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        # The *resolved* kernel the run was invoked with ("auto" never lands
        # here).  The default process/serial rows always use the python
        # kernel so they stay comparable across baselines; kernel rows are
        # additive.
        "kernel": kernel,
        "numpy_available": HAS_NUMPY,
    }


def run(
    quick: bool,
    out_dir: str,
    skip_process: bool = False,
    kernel: str = "python",
    cores: int | None = None,
) -> Dict[str, Dict[str, Any]]:
    e7 = {"experiment": "E7", "meta": meta(quick, kernel), "results": bench_e7(quick, kernel)}
    records = e11_records(quick)
    e11_results: Dict[str, Any] = {
        "serial": bench_e11_serial(records, kernel),
        "obs": bench_obs(records),
        "transport": bench_e11_transport(records),
    }
    if not skip_process:
        e11_results["query"] = bench_query(records, quick)
        e11_results["recovery"] = bench_recovery(records, quick)
        e11_results["process"] = bench_e11_process(records, quick)
        if kernel == "numpy":
            e11_results["process_kernel"] = bench_e11_kernel_apply(records, quick)
        if cores is not None:
            e11_results["multicore"] = bench_multicore(records, quick, cores)
    e11 = {"experiment": "E11", "meta": meta(quick, kernel), "results": e11_results}
    written = {"BENCH_E7.json": e7, "BENCH_E11.json": e11}
    os.makedirs(out_dir, exist_ok=True)
    for name, payload in written.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    # A standalone fleet snapshot (the ProcessEngine run's merged metrics)
    # for the CI artifact, written beside the BENCH files.
    if not skip_process:
        metrics_path = os.path.join(out_dir, "METRICS.json")
        with open(metrics_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "source": "bench_e11_process",
                    "meta": meta(quick),
                    "snapshot": e11_results["process"]["metrics"],
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote {metrics_path}")
    return written


def _lookup(results: Dict[str, Any], dotted: str) -> Any:
    node: Any = results
    for part in dotted.split("."):
        node = node[part]
    return node


def check_against_baseline(
    fresh: Dict[str, Dict[str, Any]], baseline_dir: str, tolerance: float
) -> List[str]:
    """Compare guarded metrics against committed baselines; return failures."""
    failures: List[str] = []
    for name, guards in GUARDED_METRICS.items():
        path = os.path.join(baseline_dir, name)
        if not os.path.exists(path):
            failures.append(f"{name}: no committed baseline at {path}")
            continue
        with open(path, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        for guard in guards:
            dotted, direction = guard[0], guard[1]
            try:
                raw_value = _lookup(fresh[name]["results"], dotted)
            except (KeyError, TypeError) as error:
                failures.append(f"{name}: cannot compare {dotted}: {error!r}")
                continue
            if direction == "floor":
                # Baseline-independent acceptance floor for *optional* rows:
                # null means the optional path was not active in this run
                # (e.g. the numpy kernel on a numpy-free host) and the guard
                # is skipped; an active row below the floor fails outright.
                if raw_value is None:
                    continue
                floor = float(guard[2])
                if float(raw_value) < floor:
                    failures.append(
                        f"{name}: {dotted} is {raw_value},"
                        f" below the acceptance floor {floor}"
                    )
                continue
            try:
                fresh_value = float(raw_value)
            except (TypeError, ValueError) as error:
                failures.append(f"{name}: cannot compare {dotted}: {error!r}")
                continue
            if direction == "cap":
                # Absolute ceiling, independent of the committed baseline
                # (and of --tolerance): crossing it is a regression outright.
                ceiling = float(guard[2])
                if fresh_value > ceiling:
                    failures.append(
                        f"{name}: {dotted} is {fresh_value}, above the hard cap {ceiling}"
                    )
                continue
            try:
                base_value = float(_lookup(committed["results"], dotted))
            except (KeyError, TypeError) as error:
                failures.append(f"{name}: cannot compare {dotted}: {error!r}")
                continue
            if direction == "min" and fresh_value < base_value / (1.0 + tolerance):
                failures.append(
                    f"{name}: {dotted} regressed to {fresh_value} "
                    f"(baseline {base_value}, tolerance {tolerance:.0%})"
                )
            if direction == "max" and fresh_value > base_value * (1.0 + tolerance):
                failures.append(
                    f"{name}: {dotted} regressed to {fresh_value} "
                    f"(baseline {base_value}, tolerance {tolerance:.0%})"
                )
    return failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workloads (CI smoke)")
    parser.add_argument(
        "--out", default=os.path.dirname(_SRC), metavar="DIR",
        help="directory for BENCH_E7.json / BENCH_E11.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="DIR",
        help="compare fresh results against the committed BENCH_*.json in DIR"
        " and exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="allowed regression on guarded metrics, percent (default 25)",
    )
    parser.add_argument(
        "--skip-process", action="store_true",
        help="skip the ProcessEngine stage-timing run (e.g. sandboxes without mp)",
    )
    parser.add_argument(
        "--kernel", choices=["python", "numpy", "auto"], default="python",
        help="apply-path kernel for the additive kernel rows (default: python;"
        " 'numpy' fails loudly without the [fast] extra, 'auto' detects)",
    )
    parser.add_argument(
        "--cores", type=int, default=None, metavar="N",
        help="record an advisory multi-core process row at N workers"
        " (skipped with a note when the host has fewer cores)",
    )
    args = parser.parse_args(argv)
    try:
        kernel = resolve_kernel(args.kernel)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    fresh = run(
        args.quick, args.out, skip_process=args.skip_process,
        kernel=kernel, cores=args.cores,
    )
    if args.baseline is not None:
        failures = check_against_baseline(fresh, args.baseline, args.tolerance / 100.0)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"baseline check OK (tolerance {args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
