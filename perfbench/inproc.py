"""The workloads' runner: one serial ``ShardedEngine`` in this process,
driven through ``repro.engine`` only.

One run is one timed pass in a fresh process: set-up (import, build, warm
fill), then the closed loop of ingest batches each followed by its query
batch, in segments with a full checkpoint and a restore after each.
"""

from __future__ import annotations

import ast
import gc
import os
import shutil
import sys
import time
from typing import Any, List, Sequence, Tuple

from common import Result, directory_bytes, percentile, rss_bytes, trimmed_mean
from oracle import WindowModel, check_outcomes, check_run
from workloads import MIN_QUERY_SAMPLES, Inputs, Workload, final_query


def import_engine():
    """Import the program; refuses when it is already loaded, because set-up
    time starts just before the import."""
    if "repro" in sys.modules:
        raise RuntimeError("repro was imported before set-up started")
    import repro.engine as engine_api

    return engine_api


def setup(workload: Workload, seed: int, inputs: Inputs) -> Tuple[Any, Any, float, int]:
    """Import, build the fleet and birth every key of the initial population.

    Returns ``(repro.engine, engine, setup seconds, RSS before the warm
    fill)``.  The warm-fill records are made after that RSS reading, and the
    time spent making them is left out of the set-up time.
    """
    perf = time.perf_counter
    started = perf()
    api = import_engine()
    engine = api.ShardedEngine(
        api.SamplerSpec(**workload.recipe()),
        shards=workload.shards,
        seed=seed,
        max_keys_per_shard=workload.max_keys_per_shard,
    )
    rss_before = rss_bytes([os.getpid()])
    paused = perf()
    warm = inputs.warm()
    started += perf() - paused
    engine.ingest(warm)
    return api, engine, perf() - started, rss_before


def normalise(ops: Sequence[Tuple[Any, ...]], outcomes: Sequence[Tuple[Any, ...]]) -> List[Tuple[str, Any]]:
    """``query_batch`` outcomes in the oracle's shape."""
    normalised: List[Tuple[str, Any]] = []
    for op, outcome in zip(ops, outcomes):
        if outcome[0] != "ok":
            normalised.append(("error", f"{outcome[1]}: {outcome[2]}"))
        elif op[0] == "sample":
            normalised.append(("ok", [(e.value, e.index, e.timestamp) for e in outcome[1]]))
        else:
            normalised.append(("ok", [tuple(pair) for pair in outcome[1]]))
    return normalised


def run(workload: Workload, inputs: Inputs, seed: int, seconds: float, tmp: str,
        other_setups: Sequence[float], trials: int, restore: bool) -> Result:
    """One timed pass; ``other_setups`` are set-up times measured in fresh
    child processes, folded into the reported mean.

    The timed phase runs in ``trials`` segments.  Each is followed by a full
    checkpoint, a query batch, and, with ``restore``, a restore of that
    checkpoint whose first answers must equal that query batch's; the next
    segment continues on the restored fleet.  Throughput, checkpoint and
    restore times are so each sampled across the whole run rather than in
    separate stretches of it: on a shared host the CPU's speed drifts over
    tens of seconds.
    """
    api, engine, setup_s, rss_before = setup(workload, seed, inputs)
    result = Result()
    result.attempted += 1
    live = engine.key_count
    if workload.max_keys_per_shard is None and live != workload.population:
        result.problems.append(f"warm fill left {live} keys, expected {workload.population}")

    # The clock runs only inside ingest and query calls: making each batch's
    # records and keeping each answer (as text, so that the benchmark holds
    # no object the program made) happen outside it.
    latencies: List[float] = []
    answers: List[str] = []
    #: ``(batches ingested, ops, outcomes)`` of the query batch after each
    #: segment's checkpoint.
    finals: List[Tuple[int, List[Tuple[Any, ...]], List[Tuple[str, Any]]]] = []
    records = consumed = 0
    wall = 0.0
    perf = time.perf_counter
    for trial in range(trials):
        segment_seconds = seconds * (trial + 1) / trials
        segment_queries = -(-MIN_QUERY_SAMPLES * (trial + 1) // trials)
        while (wall < segment_seconds or len(latencies) < segment_queries) and consumed < inputs.batches:
            batch = inputs.batch(consumed)
            ops = inputs.queries[consumed]
            began = perf()
            records += engine.ingest(batch)
            asked = perf()
            outcomes = engine.query_batch(ops)
            done = perf()
            wall += done - began
            latencies.append(done - asked)
            answers.append(repr(normalise(ops, outcomes)))
            consumed += 1
        engine.flush()
        if trial == 0:
            del batch, outcomes
            rss_after = rss_bytes([os.getpid()])
            keys = engine.key_count
        # A fresh directory each time, so every checkpoint is a full one.
        checkpoint_dir = os.path.join(tmp, f"checkpoint-{trial}")
        began = perf()
        written = api.write_checkpoint(engine, checkpoint_dir)
        result.checkpoint_times.append(perf() - began)
        if trial == 0:
            ckpt_bytes = directory_bytes(checkpoint_dir)
        else:
            shutil.rmtree(os.path.join(tmp, f"checkpoint-{trial - 1}"))
        final_ops = final_query(inputs, consumed)
        before = normalise(final_ops, engine.query_batch(final_ops))
        finals.append((consumed, final_ops, before))
        result.attempted += 1 + len(final_ops)
        if restore:
            # Free the fleet before the restore is timed, so that collecting
            # it is not charged to load_checkpoint.
            del engine
            gc.collect()
            began = perf()
            engine = api.load_checkpoint(checkpoint_dir)
            after = engine.query_batch(final_ops)
            result.restore_times.append(perf() - began)
            result.attempted += len(final_ops)
            if normalise(final_ops, after) != before:
                result.problems.append("answers after a restore differ from the answers before it")
    if wall < seconds or len(latencies) < MIN_QUERY_SAMPLES:
        result.notes.append("note: the timed phase used up its input before its time")
    final_keys = engine.key_count
    del engine
    gc.collect()
    result.attempted += consumed + sum(len(ops) for ops in inputs.queries[:consumed])

    router = api.ShardedEngine(api.SamplerSpec(**workload.recipe()), shards=workload.shards)
    model = WindowModel(
        workload.window, workload.k, workload.n, workload.t0,
        workload.max_keys_per_shard, router.shard_of,
    )
    warm, start = inputs.warm(), 0
    for stop, final_ops, before in finals:
        result.problems.extend(check_run(
            model, warm, (inputs.batch(index) for index in range(start, stop)), inputs.queries[start:stop],
            [ast.literal_eval(answer) for answer in answers[start:stop]],
        ))
        result.problems.extend(check_outcomes(model, final_ops, before))
        warm, start = [], stop
    if workload.max_keys_per_shard is None and final_keys != len(model.live):
        result.problems.append(f"engine holds {final_keys} keys, the stream has {len(model.live)}")

    p50, p90 = percentile(latencies, 50) * 1000.0, percentile(latencies, 90) * 1000.0
    result.notes.append(f"query batches {len(latencies)} samples: p50 {p50:.4f} ms (not gated), p90 {p90:.4f} ms")
    result.setup_times = [setup_s, *other_setups]
    result.metrics = {
        "setup_s": trimmed_mean(result.setup_times),
        "ingest_krps": records / wall / 1000.0,
        "query_p90_ms": p90,
        "checkpoint_s": trimmed_mean(result.checkpoint_times),
        "restore_s": trimmed_mean(result.restore_times) if restore else float("nan"),
        "rss_bytes_per_key": (rss_after - rss_before) / keys,
        "ckpt_bytes_per_key": ckpt_bytes / keys,
    }
    result.query_samples = len(latencies)
    result.records = records
    result.wall = wall
    result.consumed = consumed
    result.checkpoint_dir = checkpoint_dir
    result.segments_written = written.segments_written
    result.seed = seed
    return result
