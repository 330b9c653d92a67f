"""The traced run: per-layer metrics from outside the program.

After the workload's ordinary (untraced) pass, its timed phase is replayed
through each layer's public entry points, with a span around every call the
benchmark makes into a layer:

* engine — a serial ``ShardedEngine`` with the workload's recipe;
* hashing and pool — ``shard_of`` routing into standalone
  ``KeyedSamplerPool``\\ s with the engine's seed and budget, whose final
  ``state_dict()`` must equal the pools of the run's checkpoint;
* core — standalone samplers from ``SamplerSpec.build``, with a span around
  every sampler call;
* checkpoint — ``load_checkpoint`` of the run's checkpoint.

These replay the whole timed phase.  The layers the in-process pipeline
never calls — serve, source, executor, transport and wal — are probed with
the first ``PROBE_BATCHES`` batches: POSTed to a ``swsample serve`` daemon
with the product's flags, parsed with ``jsonl_records``, encoded, decoded
and journalled per shard, and sent through a ``ProcessEngine`` built with
the daemon's flags.  Spans stay in memory and are written as JSON lines
when the run ends.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import served
from common import Result, percentile
from inproc import normalise
from oracle import WindowModel, check_run
from workloads import BATCH, PROBE_BATCHES, Inputs, Workload, jsonl, query_body


class Tracer:
    """In-memory spans: name, start, end, wall and thread-CPU seconds, the
    enclosing span, the run id, the batch replayed and the units of work."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, batch: int = -1, work: int = 1) -> Iterator[Dict[str, Any]]:
        """Time the enclosed calls; the caller may update the yielded
        record's ``work`` before the span closes."""
        index = len(self.spans)
        record = {"id": index, "name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "batch": batch, "work": work}
        self.spans.append(record)
        self._open.append(index)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            record.update(start=start, end=end, wall=end - start, cpu=time.thread_time() - cpu)
            self._open.pop()

    def add(self, name: str, start: float, end: float, wall: float, cpu: float,
            batch: int = -1, work: int = 1) -> None:
        """An aggregate span: ``wall``/``cpu`` summed over many short calls
        made between ``start`` and ``end``."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._open[-1] if self._open else None,
                           "run": self.run_id, "batch": batch, "work": work,
                           "start": start, "end": end, "wall": wall, "cpu": cpu})

    def select(self, name: str, timed: bool = False) -> List[Dict[str, Any]]:
        """Spans called ``name``; with ``timed``, only those of timed-phase
        batches (not the warm fill)."""
        return [s for s in self.spans if s["name"] == name and (not timed or s["batch"] >= 0)]

    def total(self, name: str, timed: bool = False) -> Tuple[float, int]:
        """Summed wall seconds and work of the ``name`` spans."""
        chosen = self.select(name, timed)
        return sum(s["wall"] for s in chosen), sum(s["work"] for s in chosen)

    def per_unit(self, name: str, scale: float, timed: bool = False) -> float:
        wall, work = self.total(name, timed)
        return wall / work * scale if work else 0.0

    def p50(self, name: str, scale: float = 1000.0) -> float:
        walls = [s["wall"] for s in self.select(name)]
        return percentile(walls, 50) * scale if walls else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _shard_batches(records: Sequence[Tuple[Any, ...]], shard_of: Any,
                   shards: int) -> List[List[Tuple[Any, Any, Optional[float]]]]:
    """Per-shard sub-batches as the coordinator builds them: arrival order,
    ``(key, value, timestamp-or-None)``."""
    subs: List[List[Tuple[Any, Any, Optional[float]]]] = [[] for _ in range(shards)]
    for record in records:
        subs[shard_of(record[0])].append(
            (record[0], record[1], record[2] if len(record) > 2 else None))
    return subs


class Replay:
    """One traced replay of a finished run."""

    def __init__(self, workload: Workload, inputs: Inputs, result: Result, tmp: str,
                 tracer: Tracer) -> None:
        import repro.engine as api

        self.api = api
        self.workload = workload
        self.inputs = inputs
        self.result = result
        self.tmp = tmp
        self.tracer = tracer
        self.spec = api.SamplerSpec(**workload.recipe())
        self.router = api.ShardedEngine(self.spec, shards=workload.shards, seed=result.seed,
                                        max_keys_per_shard=workload.max_keys_per_shard)
        self.probe = min(PROBE_BATCHES, result.consumed)
        self.problems = result.problems
        self.metrics: Dict[str, float] = {}

    def _check(self, batches: int, outcomes: List[List[Tuple[str, Any]]]) -> None:
        """Oracle check of the answers a replay of ``batches`` batches got."""
        model = WindowModel(self.workload.window, self.workload.k, self.workload.n,
                            self.workload.t0, self.workload.max_keys_per_shard,
                            self.router.shard_of)
        self.problems.extend(check_run(model, self.inputs.warm(), self.inputs.stream(batches),
                                       self.inputs.queries[:batches], outcomes))
        self.result.attempted += batches + sum(len(ops) for ops in self.inputs.queries[:batches])

    # -- probes: serve, source, transport, wal, executor -----------------------

    def serve(self) -> None:
        """POST the probe's bodies and query batches to a fresh daemon."""
        count = self.probe
        daemon = served.Daemon(self.workload, self.result.seed, self.tmp)
        try:
            served.start_and_fill(daemon, self.inputs, self.problems)
            bodies = [jsonl(batch) for batch in self.inputs.stream(count)]
            query_bodies = [query_body(ops) for ops in self.inputs.queries[:count]]
            phase = served.closed_loop(daemon, bodies, query_bodies, self.problems)
            samples = daemon.metrics()
        finally:
            daemon.stop()
        for index, (start, end, cpu, _) in enumerate(phase.posts):
            self.tracer.add("serve.post", start, end, end - start, cpu, index, BATCH)
        for index, (start, end, cpu) in enumerate(phase.queries):
            self.tracer.add("serve.query", start, end, end - start, cpu, index)
        self._check(count, [served.normalise(ops, *response) for ops, response
                            in zip(self.inputs.queries[:count], phase.responses)])
        self.metrics["serve.post_ms"] = self.tracer.p50("serve.post")
        self.metrics["serve.rejected"] = sum(status in (429, 503) for *_, status in phase.posts)
        hits = sum(v for k, v in samples.items() if "querycache_hits" in k)
        misses = sum(v for k, v in samples.items() if "querycache_misses" in k)
        self.metrics["querycache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    def wire(self) -> None:
        """Parse each probe body, then encode, decode and journal its
        per-shard sub-batches."""
        api, tracer = self.api, self.tracer
        wal = api.WriteAheadLog(os.path.join(self.tmp, "trace-wal"), fsync="batch")
        payload_bytes = frame_bytes = records = 0
        try:
            for index, batch in enumerate(self.inputs.stream(self.probe)):
                text = jsonl(batch).decode()
                with tracer.span("source.parse", index, len(batch)):
                    parsed = list(api.jsonl_records(io.StringIO(text)))
                if parsed != batch:
                    self.problems.append(f"jsonl_records changed batch {index}")
                subs = _shard_batches(parsed, self.router.shard_of, self.workload.shards)
                with tracer.span("transport.encode", index, len(batch)):
                    payloads = [api.encode_batch(sub) if sub else b"" for sub in subs]
                with tracer.span("transport.decode", index, len(batch)):
                    decoded = [api.decode_batch(payload) if payload else [] for payload in payloads]
                if decoded != subs:
                    self.problems.append(f"transport round trip changed batch {index}")
                with tracer.span("wal.append", index, len(batch)):
                    for shard, (sub, payload) in enumerate(zip(subs, payloads)):
                        if sub:
                            frame_bytes += wal.append(shard, payload, len(sub))
                payload_bytes += sum(len(payload) for payload in payloads)
                records += len(batch)
        finally:
            wal.close()
        self.metrics["source.parse_us"] = tracer.per_unit("source.parse", 1e6)
        self.metrics["transport.encode_us"] = tracer.per_unit("transport.encode", 1e6)
        self.metrics["transport.decode_us"] = tracer.per_unit("transport.decode", 1e6)
        self.metrics["transport.bytes_per_rec"] = payload_bytes / records
        self.metrics["wal.append_us"] = tracer.per_unit("wal.append", 1e6)
        self.metrics["wal.bytes_per_rec"] = frame_bytes / records

    def executor(self) -> None:
        """A ``ProcessEngine`` with the daemon's flags: ingest per probe
        body, then a flush barrier and the query batch."""
        api, tracer, workload = self.api, self.tracer, self.workload
        engine = api.ProcessEngine(
            self.spec, workers=served.fleet_workers(), shards=workload.shards, seed=self.result.seed,
            max_keys_per_shard=workload.max_keys_per_shard, supervise=True,
            wal_dir=os.path.join(self.tmp, "trace-executor-wal"))
        outcomes = []
        try:
            engine.ingest(self.inputs.warm())
            engine.flush()
            for index, batch in enumerate(self.inputs.stream(self.probe)):
                ops = self.inputs.queries[index]
                with tracer.span("executor.ingest", index, len(batch)):
                    engine.ingest(batch)
                with tracer.span("executor.barrier", index):
                    engine.flush()
                with tracer.span("executor.query", index, len(ops)):
                    answers = engine.query_batch(ops)
                outcomes.append(normalise(ops, answers))
            report = engine.transport_report()
        finally:
            engine.close()
        self._check(self.probe, outcomes)
        self.metrics["executor.ingest_ms"] = tracer.p50("executor.ingest")
        self.metrics["executor.barrier_ms"] = tracer.p50("executor.barrier")
        self.metrics["executor.query_ms"] = tracer.p50("executor.query")
        self.metrics["executor.backpressure_s"] = report["dispatch_seconds"]
        posts = {s["batch"]: s["wall"] for s in tracer.select("serve.post")}
        parses = {s["batch"]: s["wall"] for s in tracer.select("source.parse")}
        ingests = {s["batch"]: s["wall"] for s in tracer.select("executor.ingest")}
        own = [posts[i] - parses[i] - ingests[i] for i in posts if i in parses and i in ingests]
        self.metrics["serve.self_ms"] = percentile(own, 50) * 1000.0 if own else 0.0

    # -- the pipeline: engine, hashing, pool, core, checkpoint ---------------------

    def in_process(self) -> None:
        """Replays of the warm fill and the timed phase, one after another so
        that only one fleet is alive at a time, as in the untraced run: a
        serial ``ShardedEngine``, standalone pools, whose final state must
        equal the pools of the run's checkpoint, and standalone samplers."""
        api, tracer, workload, inputs = self.api, self.tracer, self.workload, self.inputs
        consumed = self.result.consumed
        timestamped = workload.window == "timestamp"

        engine = api.ShardedEngine(self.spec, shards=workload.shards, seed=self.result.seed,
                                   max_keys_per_shard=workload.max_keys_per_shard)
        engine.ingest(inputs.warm())
        outcomes = []
        for index, batch in enumerate(inputs.stream(consumed)):
            ops = inputs.queries[index]
            with tracer.span("engine.ingest", index, len(batch)):
                engine.ingest(batch)
            with tracer.span("engine.query", index, len(ops)):
                answers = engine.query_batch(ops)
            outcomes.append(normalise(ops, answers))
        del engine, batch, answers
        self._check(consumed, outcomes)
        del outcomes

        def replay(track: Any) -> float:
            """Feed ``track`` the warm fill, then the timed phase with its
            query batches; returns the seconds spent in the timed phase,
            leaving out the making of each batch's records."""
            track.apply(inputs.warm(), -1)
            perf = time.perf_counter
            spent = 0.0
            for index, batch in enumerate(inputs.stream(consumed)):
                ops, now = inputs.queries[index], inputs.clock(index) if timestamped else None
                began = perf()
                track.apply(batch, index)
                track.query(ops, now)
                spent += perf() - began
            return spent

        pools = _PoolTrack(api, self.spec, workload, self.result.seed, self.router.shard_of, tracer)
        replay(pools)
        keys = pools.keys()
        words = pools.words() / keys
        with tracer.span("core.state", -1, keys):
            replayed = pools.state()
        births = pools.births() - pools.warm_births
        evictions = pools.evictions() - pools.warm_evictions
        del pools
        with tracer.span("checkpoint.load"):
            loaded = api.load_checkpoint(self.result.checkpoint_dir)
        same = [pool.state_dict() for pool in loaded.pools] == replayed
        if not same:
            self.problems.append("replayed pool state differs from the engine's checkpoint")
        self.result.notes.append(
            f"state check   replayed pools {'equal' if same else 'DIFFER FROM'} the checkpoint's pools")
        del loaded, replayed

        # The sampler replay runs twice, one copy alive at a time: with a
        # span around every call, then without.  Their time ratio is the
        # tracing overhead.
        core = _CoreTrack(self.spec, workload, self.result.seed, self.router.shard_of, tracer)
        traced_s = replay(core)
        tracer.add("core.build", core.build_span[0], core.build_span[1], core.build_wall,
                   core.build_cpu, -1, core.builds)
        build_us = core.build_wall / core.builds * 1e6
        del core
        plain_s = replay(_CoreTrack(self.spec, workload, self.result.seed, self.router.shard_of, None))

        records = self.result.records
        engine_own = (tracer.total("engine.ingest", True)[0] - tracer.total("hashing.route", True)[0]
                      - tracer.total("pool.apply", True)[0])
        innermost = (tracer.total("hashing.route", True)[0] + tracer.total("pool.apply", True)[0]
                     + tracer.total("engine.query", True)[0])
        self.metrics.update({
            "engine.self_us": engine_own / records * 1e6,
            "engine.query_ms": tracer.p50("engine.query"),
            "pool.apply_us": tracer.per_unit("pool.apply", 1e6, True),
            "pool.births": births,
            "pool.evictions": evictions,
            "hashing.route_us": tracer.per_unit("hashing.route", 1e6, True),
            "hashing.calls_per_rec": tracer.total("hashing.route", True)[1] / records,
            "core.apply_us": tracer.per_unit("core.apply", 1e6, True),
            "core.build_us": build_us,
            "core.state_us": tracer.per_unit("core.state", 1e6),
            "core.words_per_key": words,
            "core.bytes_over_words": self.result.metrics["rss_bytes_per_key"] / (8 * words),
            "checkpoint.load_s": tracer.total("checkpoint.load")[0],
            "checkpoint.segments": self.result.segments_written,
            "trace.coverage": innermost / self.result.wall,
            "trace.overhead": plain_s / traced_s,
        })
        self.result.notes.append(
            f"base          rss_bytes_per_key {self.result.metrics['rss_bytes_per_key']:.1f} B,"
            f" memory_words {words:.2f} words/key over {keys} keys")


class _PoolTrack:
    """Standalone ``KeyedSamplerPool``\\ s with the engine's seed and budget,
    fed the way the engine feeds its pools: routed with ``shard_of`` (once
    per distinct key per batch), then ``extend_grouped`` per shard, or
    ``extend_batch`` under an LRU budget."""

    def __init__(self, api: Any, spec: Any, workload: Workload, seed: int, shard_of: Any,
                 tracer: Tracer) -> None:
        self.pools = [api.KeyedSamplerPool(spec, seed=seed, max_keys=workload.max_keys_per_shard)
                      for _ in range(workload.shards)]
        self.capped = workload.max_keys_per_shard is not None
        self.shard_of = shard_of
        self.tracer = tracer
        #: Births and evictions when the warm fill (batch -1) was applied.
        self.warm_births = self.warm_evictions = 0

    def apply(self, records: Sequence[Tuple[Any, ...]], index: int) -> None:
        self._apply(records, index)
        if index < 0:
            self.warm_births, self.warm_evictions = self.births(), self.evictions()

    def _apply(self, records: Sequence[Tuple[Any, ...]], index: int) -> None:
        shard_map: Dict[Any, int] = {}
        with self.tracer.span("hashing.route", index) as span:
            for record in records:
                if record[0] not in shard_map:
                    shard_map[record[0]] = self.shard_of(record[0])
            span["work"] = len(shard_map)
        if self.capped:
            subs = _shard_batches(records, shard_map.__getitem__, len(self.pools))
            with self.tracer.span("pool.apply", index, len(records)):
                for pool, sub in zip(self.pools, subs):
                    if sub:
                        pool.extend_batch(sub)
            return
        # key -> [shard, last pool-local position, values, stamps-or-None]
        groups: Dict[Any, List[Any]] = {}
        counts = [0] * len(self.pools)
        for record in records:
            key = record[0]
            stamp = record[2] if len(record) > 2 else None
            shard = shard_map[key]
            counts[shard] += 1
            group = groups.get(key)
            if group is None:
                groups[key] = [shard, counts[shard], [record[1]], None if stamp is None else [stamp]]
            else:
                group[1] = counts[shard]
                group[2].append(record[1])
                if stamp is not None:
                    group[3].append(stamp)
        per_shard: List[List[Any]] = [[] for _ in self.pools]
        for key, (shard, last, values, stamps) in groups.items():
            per_shard[shard].append((key, last, values, stamps))
        with self.tracer.span("pool.apply", index, len(records)):
            for pool, shard_groups, count in zip(self.pools, per_shard, counts):
                if shard_groups:
                    pool.extend_grouped(shard_groups, count)

    def query(self, ops: Sequence[Tuple[Any, ...]], now: Optional[float]) -> None:
        """Replay the ``sample`` ops the way the engine answers them: a
        timestamp sampler is first advanced to the engine's clock ``now``,
        and sampling draws randomness, so both change the state."""
        for op in ops:
            if op[0] == "sample":
                sampler = self.pools[self.shard_of(op[1])].sampler_for(op[1])
                if now is not None:
                    sampler.advance_time(now)
                sampler.sample()

    def births(self) -> int:
        return sum(len(pool) + pool.evictions for pool in self.pools)

    def evictions(self) -> int:
        return sum(pool.evictions for pool in self.pools)

    def keys(self) -> int:
        return sum(len(pool) for pool in self.pools)

    def words(self) -> int:
        return sum(pool.memory_words() for pool in self.pools)

    def state(self) -> List[Dict[str, Any]]:
        return [pool.state_dict() for pool in self.pools]


class _CoreTrack:
    """Standalone samplers from ``SamplerSpec.build``, fed the way the pools
    feed theirs: per-key runs through ``process_batch`` (``append`` for a
    single record), or, under an LRU budget, record by record with the same
    evictions.  Each call is timed with ``perf_counter`` only: a thread-CPU
    read per call would cost more than the calls it times, so a batch span's
    CPU is the batch's thread-CPU less that of its builds.  Without a
    tracer, both clocks are the no-op ``float`` and no span is recorded."""

    def __init__(self, spec: Any, workload: Workload, seed: int, shard_of: Any,
                 tracer: Optional[Tracer]) -> None:
        self.spec = spec
        self.cap = workload.max_keys_per_shard
        self.seed = seed
        self.shard_of = shard_of
        self.tracer = tracer
        self.clock = time.perf_counter if tracer is not None else float
        self.cpu_clock = time.thread_time if tracer is not None else float
        self.samplers: Dict[Any, Any] = {}
        self.lru: Dict[int, "OrderedDict[Any, None]"] = {}
        self.build_wall = self.build_cpu = 0.0
        self.builds = 0
        self.build_span = [0.0, 0.0]

    def build(self, key: Any) -> Any:
        if self.cap is not None:
            shard_lru = self.lru.setdefault(self.shard_of(key), OrderedDict())
            if len(shard_lru) >= self.cap:
                del self.samplers[shard_lru.popitem(last=False)[0]]
            shard_lru[key] = None
        cpu = self.cpu_clock()
        start = self.clock()
        sampler = self.samplers[key] = self.spec.build(rng=zlib.crc32(key.encode()) ^ self.seed)
        end = self.clock()
        self.build_wall += end - start
        self.build_cpu += self.cpu_clock() - cpu
        self.builds += 1
        self.build_span[0] = self.build_span[0] or start
        self.build_span[1] = end
        return sampler

    def apply(self, records: Sequence[Tuple[Any, ...]], index: int) -> None:
        perf, samplers = self.clock, self.samplers
        wall = 0.0
        cpu_before, build_cpu_before = time.thread_time(), self.build_cpu
        first = perf()
        if self.cap is not None:
            for record in records:
                sampler = samplers.get(record[0])
                if sampler is None:
                    sampler = self.build(record[0])
                else:
                    self.lru[self.shard_of(record[0])].move_to_end(record[0])
                start = perf()
                sampler.append(record[1], None)
                wall += perf() - start
        else:
            groups: Dict[Any, Tuple[List[Any], List[Any]]] = {}
            for record in records:
                group = groups.get(record[0])
                if group is None:
                    group = groups[record[0]] = ([], [])
                group[0].append(record[1])
                group[1].append(record[2] if len(record) > 2 else None)
            for key, (values, stamps) in groups.items():
                sampler = samplers.get(key)
                if sampler is None:
                    sampler = self.build(key)
                if stamps[0] is None:
                    stamps = None
                start = perf()
                if len(values) == 1:
                    sampler.append(values[0], None if stamps is None else stamps[0])
                else:
                    sampler.process_batch(values, stamps)
                wall += perf() - start
        if self.tracer is not None:
            cpu = time.thread_time() - cpu_before - (self.build_cpu - build_cpu_before)
            self.tracer.add("core.apply", first, perf(), wall, cpu, index, len(records))

    def query(self, ops: Sequence[Tuple[Any, ...]], now: Optional[float]) -> None:
        """The same state changes a query makes in the pools."""
        for op in ops:
            if op[0] == "sample":
                sampler = self.samplers[op[1]]
                if now is not None:
                    sampler.advance_time(now)
                sampler.sample()


def run(workload: Workload, inputs: Inputs, result: Result, tmp: str,
        trace_path: str) -> Dict[str, float]:
    """Replay ``result``'s run with spans; returns the per-layer metrics."""
    tracer = Tracer(f"{workload.name}-{result.seed}-{os.getpid()}")
    replay = Replay(workload, inputs, result, tmp, tracer)
    replay.serve()
    replay.wire()
    replay.executor()
    replay.in_process()
    tracer.write(trace_path)
    return replay.metrics
