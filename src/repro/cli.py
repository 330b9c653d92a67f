"""Command-line interface.

Installed as the ``swsample`` console script.  Five sub-commands:

* ``swsample list`` — show the available algorithms, workloads and experiments;
* ``swsample run`` — stream a workload through a sampler and print the sample
  and memory footprint (a quick way to eyeball behaviour);
* ``swsample engine`` — drive a keyed workload (or a JSONL stream from a file
  or stdin via ``--input``) through the sharded multi-stream engine, serially
  or on worker processes (``--workers N``; each worker owns its shards
  outright, so ingest scales across cores), print fleet statistics,
  resolve a batch of queries in one fleet pass (``--query-file`` with JSONL
  op documents, the same wire shapes as serve's ``POST /v1/<t>/query``),
  and optionally checkpoint/resume it (incremental checkpoint directories).
  Observability: ``--metrics-out PATH`` dumps a fleet-merged metrics snapshot
  (``--metrics-format json|prom``), and ``--log-level``/``--log-json``
  configure structured logging via :mod:`repro.obs` (worker processes
  inherit the configuration);
* ``swsample serve`` — the standing async daemon (:mod:`repro.serve`): HTTP
  and raw-socket JSONL ingest, a per-tenant query API, ``/healthz`` and
  Prometheus ``/metrics``, 429 backpressure, and graceful SIGTERM shutdown
  with checkpoint-on-exit / ``--resume`` on restart.  Shares the engine
  recipe flags with ``swsample engine``;
* ``swsample experiment E3 --scale default`` — run one of the E1–E10
  experiments and print its result table (add ``--markdown`` or ``--csv``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .core.facade import algorithm_catalog, sliding_window_sampler
from .engine.source import DEFAULT_BATCH_SIZE
from .serve import (
    DEFAULT_MAX_PENDING_RECORDS,
    EngineSettings,
    _query_op_from_json,
    _query_outcome_payload,
)
from .exceptions import ConfigurationError, SWSampleError
from .harness import available_experiments, run_experiment
from .harness.experiments import EXPERIMENTS, SCALES
from .streams.workloads import (
    available_keyed_workloads,
    available_workloads,
    build_keyed_workload,
    build_workload,
)

__all__ = ["main", "build_parser"]


def _add_engine_recipe_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine recipe — sampler spec + sharding/worker layout — shared
    verbatim by ``swsample engine`` and ``swsample serve``."""
    parser.add_argument("--window", choices=["sequence", "timestamp"], default="sequence")
    parser.add_argument("--n", type=int, default=500, help="per-key window size (sequence)")
    parser.add_argument("--t0", type=float, default=500.0, help="per-key window span (timestamp)")
    parser.add_argument("-k", type=int, default=4, help="samples per key")
    parser.add_argument("--without-replacement", action="store_true")
    parser.add_argument("--algorithm", default="optimal", help="optimal or a baseline name")
    parser.add_argument("--shards", type=int, default=4, help="hash partitions")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="drive shards from N worker processes, each holding its shards"
        " resident (default: serial engine)",
    )
    parser.add_argument(
        "--executor", choices=["process"], default=None,
        help="worker flavour for --workers: 'process' (the only one, and the"
        " default)",
    )
    parser.add_argument("--max-keys-per-shard", type=int, default=None, help="LRU cap per shard")
    parser.add_argument("--idle-ttl", type=int, default=None, help="evict keys idle this many ticks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="journal every dispatched sub-batch to a per-shard write-ahead"
        " log under DIR before the worker applies it (requires --workers; a"
        " committed checkpoint truncates it)",
    )
    parser.add_argument(
        "--wal-fsync", choices=["off", "batch", "always"], default=None,
        help="WAL durability (requires --wal-dir): 'off' (buffered; survives"
        " worker death), 'batch' (flush per append; survives coordinator"
        " crash — the default), 'always' (fsync per append; survives power"
        " loss)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="self-heal dead worker processes: restart with bounded backoff,"
        " restore their shards from the last checkpoint and replay the WAL"
        " tail (requires --wal-dir; queries touching a mid-recovery shard"
        " get a retryable error instead of a sticky failure)",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="per-incident restart budget for --supervise before the fleet"
        " goes sticky-failed (default 3)",
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a fleet-merged metrics snapshot to PATH at the end"
        " ('-' for stdout); enables metrics collection for the run",
    )
    parser.add_argument(
        "--metrics-format", choices=["json", "prom"], default="json",
        help="snapshot format for --metrics-out: nested JSON or Prometheus"
        " text exposition (default json)",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default=None,
        help="enable structured logging on the 'repro' logger at this level"
        " (worker processes inherit the configuration)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines (implies --log-level info unless set)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swsample",
        description="Optimal random sampling from sliding windows (Braverman-Ostrovsky-Zaniolo).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list algorithms, workloads and experiments")

    run_parser = subparsers.add_parser("run", help="stream a workload through a sampler")
    run_parser.add_argument("--window", choices=["sequence", "timestamp"], default="sequence")
    run_parser.add_argument("--n", type=int, default=1000, help="window size (sequence windows)")
    run_parser.add_argument("--t0", type=float, default=1000.0, help="window span (timestamp windows)")
    run_parser.add_argument("-k", type=int, default=8, help="number of samples")
    run_parser.add_argument("--without-replacement", action="store_true")
    run_parser.add_argument("--algorithm", default="optimal", help="optimal or a baseline name")
    run_parser.add_argument("--workload", default="uniform-sequence", choices=available_workloads())
    run_parser.add_argument("--length", type=int, default=10_000, help="number of stream elements")
    run_parser.add_argument("--seed", type=int, default=0)

    engine_parser = subparsers.add_parser(
        "engine", help="drive a keyed workload through the sharded multi-stream engine"
    )
    _add_engine_recipe_arguments(engine_parser)
    engine_parser.add_argument("--workload", default="keyed-zipf", choices=available_keyed_workloads())
    engine_parser.add_argument("--records", type=int, default=100_000, help="records to ingest")
    engine_parser.add_argument("--keys", type=int, default=1_000, help="size of the keyspace")
    engine_parser.add_argument(
        "--input", metavar="PATH",
        help="stream JSONL records from PATH ('-' for stdin) instead of a synthetic workload;"
        ' lines are {"key":..., "value":..., "timestamp":...} objects or [key, value, ts] arrays',
    )
    engine_parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="records per ingest batch for --input streams",
    )
    engine_parser.add_argument("--top", type=int, default=5, help="hottest keys to report")
    engine_parser.add_argument(
        "--query-file", metavar="PATH",
        help="after ingest, resolve a batch of queries in one fleet pass: JSONL op"
        ' documents ({"op": "sample", "key": ...}, {"op": "hottest", "top": 5}, ...;'
        " '-' for stdin), one JSON result line each",
    )
    engine_parser.add_argument("--checkpoint", metavar="PATH", help="write an engine checkpoint at the end")
    engine_parser.add_argument("--resume", metavar="PATH", help="resume from an engine checkpoint first")
    _add_observability_arguments(engine_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="run the standing async ingest/query daemon"
    )
    _add_engine_recipe_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=9500,
        help="HTTP port (0 picks an ephemeral port; default 9500)",
    )
    serve_parser.add_argument(
        "--socket-port", type=int, default=None, metavar="PORT",
        help="also listen for raw line-per-record TCP ingest on PORT"
        " (0 picks an ephemeral port; default: disabled)",
    )
    serve_parser.add_argument(
        "--tenant", action="append", default=None, metavar="NAME",
        help="tenant namespace (repeatable; default: one tenant named 'default')",
    )
    serve_parser.add_argument(
        "--track-occurrences", action="store_true",
        help="maintain per-candidate occurrence counts so /moments can answer",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write one checkpoint directory per tenant under DIR on shutdown"
        " (and every --checkpoint-interval seconds)",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="restore each tenant from its --checkpoint-dir checkpoint at startup",
    )
    serve_parser.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="also checkpoint every SECONDS while running (requires --checkpoint-dir)",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=DEFAULT_MAX_PENDING_RECORDS, metavar="N",
        help="per-tenant backlog bound in records before ingest answers 429"
        f" (default {DEFAULT_MAX_PENDING_RECORDS})",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="records per engine ingest batch",
    )
    serve_parser.add_argument(
        "--ready-file", metavar="PATH",
        help="write a JSON readiness file (pid + bound ports) once listening",
    )
    _add_observability_arguments(serve_parser)

    experiment_parser = subparsers.add_parser("experiment", help="run one of the E1-E10 experiments")
    experiment_parser.add_argument("experiment", help="experiment id, e.g. E3, or 'all'")
    experiment_parser.add_argument("--scale", choices=list(SCALES), default="default")
    experiment_parser.add_argument("--seed", type=int, default=0)
    experiment_parser.add_argument("--markdown", action="store_true", help="print GitHub markdown")
    experiment_parser.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    return parser


def _command_list() -> int:
    print("Algorithms:")
    for name, description in algorithm_catalog().items():
        print(f"  {name:<14} {description}")
    print("\nWorkloads:")
    for name in available_workloads():
        print(f"  {name}")
    print("\nKeyed workloads (swsample engine):")
    for name in available_keyed_workloads():
        print(f"  {name}")
    print("\nExperiments:")
    for experiment_id in available_experiments():
        _, summary = EXPERIMENTS[experiment_id]
        print(f"  {experiment_id:<4} {summary}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    sampler = sliding_window_sampler(
        args.window,
        k=args.k,
        n=args.n,
        t0=args.t0,
        replacement=not args.without_replacement,
        algorithm=args.algorithm,
        rng=args.seed,
    )
    stream = build_workload(args.workload, args.length, rng=args.seed)
    for element in stream:
        if args.window == "timestamp" and hasattr(sampler, "advance_time"):
            sampler.advance_time(element.timestamp)
        sampler.append(element.value, element.timestamp)
    drawn = sampler.sample()
    print(f"algorithm      : {sampler.algorithm}")
    print(f"window         : {args.window} ({'n=' + str(args.n) if args.window == 'sequence' else 't0=' + str(args.t0)})")
    print(f"stream length  : {args.length} ({args.workload})")
    print(f"memory (words) : {sampler.memory_words()}")
    print(f"sample ({len(drawn)} element{'s' if len(drawn) != 1 else ''}):")
    for element in drawn:
        print(f"  index={element.index:<10} t={element.timestamp:<12.3f} value={element.value!r}")
    return 0


def _check_writable_path(path: str) -> Optional[str]:
    """Probe that ``path`` can be written *now*, before hours of ingest.

    Existing files are opened for append (no truncation — the probe must not
    destroy anything); missing files are created exclusively and removed
    again.  Returns the OS error message when the path is unwritable, else
    ``None``.  ``"-"`` (stdout) always passes.
    """
    if path == "-":
        return None
    try:
        if os.path.exists(path):
            with open(path, "a", encoding="utf-8"):
                pass
        else:
            with open(path, "x", encoding="utf-8"):
                pass
            os.unlink(path)
    except OSError as error:
        return str(error)
    return None


def _run_query_file(engine: "object", path: str, *, stdin_taken: bool) -> int:
    """Resolve a ``--query-file`` batch against a just-ingested engine.

    The file is JSONL: one op document per line (blank lines and ``#``
    comments skipped), the same wire shapes the serve daemon's
    ``POST /v1/<tenant>/query`` accepts.  The whole batch resolves in one
    fleet pass via ``query_batch``; each op prints one JSON result line.
    """
    try:
        if path == "-":
            if stdin_taken:
                print("error: --input - and --query-file - cannot share stdin", file=sys.stderr)
                return 2
            lines = sys.stdin.read().splitlines()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
    except OSError as error:
        print(f"error: cannot read --query-file {path}: {error}", file=sys.stderr)
        return 2
    documents = []
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            documents.append(json.loads(stripped))
        except ValueError as error:
            print(
                f"error: --query-file {path} line {number} is not JSON: {error}",
                file=sys.stderr,
            )
            return 2
    if not documents:
        print(f"error: --query-file {path} contains no ops", file=sys.stderr)
        return 2
    try:
        ops = [_query_op_from_json(document) for document in documents]
        outcomes = engine.query_batch(ops)
    except ConfigurationError as error:
        print(f"error: bad query op: {error}", file=sys.stderr)
        return 2
    print(f"query batch     : {len(ops)} ops, one fleet pass")
    for op, outcome in zip(ops, outcomes):
        payload = {"op": op[0]}
        payload.update(_query_outcome_payload(op, outcome))
        print(json.dumps(payload, sort_keys=True, default=repr))
    return 0


def _validate_recipe_flags(args: argparse.Namespace, *, fresh: bool) -> Optional[str]:
    """Cross-flag validation of the engine recipe (shared by ``engine`` and
    ``serve``): the worker layout, then the durability flags.
    ``fresh`` says a fleet may be built from ``--shards`` (``engine --resume``
    takes its shards from the checkpoint instead).  Returns the error
    message for the rc-2 path, or None when the combination is coherent."""
    workers = args.workers
    if workers is not None and workers <= 0:
        return "--workers must be positive"
    if args.executor is not None and workers is None:
        # Catches e.g. `--input - --executor process` with the worker count
        # forgotten: without --workers the engine is serial and the executor
        # flavour would be silently ignored.
        return (
            f"--executor {args.executor} requires --workers N"
            " (without workers the engine runs serially)"
        )
    if fresh and workers is not None and workers > args.shards:
        return (
            f"--workers {workers} exceeds --shards {args.shards}"
            " (each worker owns at least one shard; extra workers would sit idle)"
        )
    return _validate_durability_flags(args, workers)


def _validate_durability_flags(args: argparse.Namespace, workers) -> Optional[str]:
    """Cross-flag validation for --wal-dir / --wal-fsync / --supervise /
    --max-restarts; returns the error message for the rc-2 path, or None
    when the combination is coherent."""
    if args.wal_dir is not None and workers is None:
        return "--wal-dir requires --workers N (the journal guards worker processes)"
    if args.wal_fsync is not None and args.wal_dir is None:
        return "--wal-fsync requires --wal-dir DIR"
    if args.supervise and args.wal_dir is None:
        return "--supervise requires --wal-dir DIR (recovery replays the journal)"
    if args.max_restarts is not None:
        if not args.supervise:
            return "--max-restarts requires --supervise"
        if args.max_restarts < 1:
            return "--max-restarts must be positive"
    return None


def _engine_settings(args: argparse.Namespace, track_occurrences: bool = False) -> EngineSettings:
    """The engine recipe the ``engine`` and ``serve`` flags describe (raises
    :class:`~repro.exceptions.ConfigurationError` on an incoherent one)."""
    from .engine import SamplerSpec

    spec = SamplerSpec(
        window=args.window,
        k=args.k,
        n=args.n if args.window == "sequence" else None,
        t0=args.t0 if args.window == "timestamp" else None,
        replacement=not args.without_replacement,
        algorithm=args.algorithm,
    )
    return EngineSettings(
        spec=spec,
        shards=args.shards,
        seed=args.seed,
        max_keys_per_shard=args.max_keys_per_shard,
        idle_ttl=args.idle_ttl,
        track_occurrences=track_occurrences,
        workers=args.workers,
        supervise=args.supervise,
        wal_dir=args.wal_dir,
        wal_fsync=args.wal_fsync or "batch",
        max_restarts=args.max_restarts,
    )


def _command_engine(args: argparse.Namespace) -> int:
    from .engine import ingest_jsonl, write_checkpoint
    from .obs import MetricsRegistry, configure_logging, to_prometheus_text

    if args.log_level or args.log_json:
        # Workers inherit this: the process engine ships the active config
        # dict to every worker it spawns.
        configure_logging(level=args.log_level or "info", json_lines=args.log_json)
    if args.metrics_out:
        # Catch an unwritable path before the ingest run, not after it; the
        # late-write error path below stays as a fallback (the filesystem can
        # still change out from under a long run).
        problem = _check_writable_path(args.metrics_out)
        if problem is not None:
            print(
                f"error: --metrics-out {args.metrics_out} is not writable: {problem}",
                file=sys.stderr,
            )
            return 2
    registry = MetricsRegistry() if args.metrics_out else None

    workers = args.workers
    problem = _validate_recipe_flags(args, fresh=not args.resume)
    if problem is None and args.batch_size <= 0:
        problem = "--batch-size must be positive"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        settings = _engine_settings(args)
    except ConfigurationError as error:
        # e.g. -k 0: fail loudly up front.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.resume:
        try:
            # Validates the worker count against the manifest before paying
            # for the restore.
            engine = settings.resume(args.resume, registry)
        except (OSError, ConfigurationError) as error:
            print(f"error: cannot resume from {args.resume}: {error}", file=sys.stderr)
            return 2
        replayed = engine.replay_wal()
        if replayed:
            print(f"wal replay      : {replayed} journaled records re-applied")
        resumed = engine.stats()
        print(f"resumed         : {args.resume} ({resumed['keys']} keys, {resumed['arrivals']} records)")
    else:
        engine = settings.build(registry)
        # A fresh (non-resuming) run over an old WAL directory: the stale
        # journal covers state this fleet never held — drop it loudly.
        engine.discard_wal()
    try:
        if args.checkpoint and engine.spec.algorithm != "optimal":
            print(
                "error: --checkpoint requires --algorithm optimal"
                " (baseline samplers do not support state snapshots)",
                file=sys.stderr,
            )
            return 2
        started = time.perf_counter()
        if args.input:
            try:
                if args.input == "-":
                    ingested = ingest_jsonl(engine, sys.stdin, batch_size=args.batch_size)
                else:
                    with open(args.input, "r", encoding="utf-8") as handle:
                        ingested = ingest_jsonl(engine, handle, batch_size=args.batch_size)
            except OSError as error:
                print(f"error: cannot read --input {args.input}: {error}", file=sys.stderr)
                return 2
            except SWSampleError as error:
                print(f"error: bad record in --input {args.input}: {error}", file=sys.stderr)
                return 2
            source = args.input if args.input != "-" else "stdin"
            key_space = "streamed"
        else:
            records = build_keyed_workload(args.workload, args.records, num_keys=args.keys, rng=args.seed)
            if engine.spec.is_timestamp and engine.now != float("-inf"):
                # Synthetic workload clocks restart at zero; a resumed engine's clock
                # must keep moving forward, so shift the batch past it.
                offset = engine.now
                records = [(record.key, record.value, record.timestamp + offset) for record in records]
            ingested = engine.ingest(records)
            source = args.workload
            key_space = str(args.keys)
        engine.flush()
        elapsed = time.perf_counter() - started
        rate = ingested / elapsed if elapsed > 0 else float("inf")
        print(f"spec            : {engine.spec.describe()}")
        print(f"workload        : {source} ({ingested} records over {key_space} keys)")
        print(f"shards          : {engine.shards}"
              + (f" ({engine.workers} process workers)" if workers is not None else ""))
        print(f"ingest          : {elapsed:.3f}s ({rate / 1000.0:.1f} krec/s)")
        stats = engine.stats()
        evictions = stats["evictions"]
        print(
            f"live keys       : {stats['keys']} ({evictions['total']} evicted:"
            f" {evictions['lru']} lru, {evictions['ttl']} ttl)"
        )
        print(f"memory (words)  : {stats['memory_words']}")
        hottest = engine.hottest_keys(args.top)
        print(f"hottest {args.top} keys  :")
        for key, arrivals in hottest:
            print(f"  {key!r:<12} {arrivals} arrivals")
        if hottest:
            key = hottest[0][0]
            print(f"sample of hottest key {key!r}: {engine.sample_values(key)}")
        merged = engine.merged_frequent_items(0.01, top=args.top)
        print(f"merged frequent values (>=1%): {[(value, round(freq, 4)) for value, freq in merged]}")
        if args.query_file:
            code = _run_query_file(engine, args.query_file, stdin_taken=args.input == "-")
            if code != 0:
                return code
        if args.checkpoint:
            try:
                result = write_checkpoint(engine, args.checkpoint)
            except (OSError, ConfigurationError) as error:
                print(f"error: cannot checkpoint to {args.checkpoint}: {error}", file=sys.stderr)
                return 2
            print(
                f"checkpoint      : {result.path} ({result.segments_written} segments written,"
                f" {result.segments_reused} reused)"
            )
        if args.metrics_out:
            snapshot = engine.metrics_snapshot()
            if args.metrics_format == "prom":
                rendered = to_prometheus_text(snapshot)
            else:
                rendered = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            if args.metrics_out == "-":
                sys.stdout.write(rendered)
            else:
                try:
                    with open(args.metrics_out, "w", encoding="utf-8") as handle:
                        handle.write(rendered)
                except OSError as error:
                    print(
                        f"error: cannot write --metrics-out {args.metrics_out}: {error}",
                        file=sys.stderr,
                    )
                    return 2
                print(f"metrics         : {args.metrics_out} ({args.metrics_format})")
        return 0
    finally:
        if workers is not None:
            engine.close()


def _command_serve(args: argparse.Namespace) -> int:
    from .obs import configure_logging
    from .serve import ServeApp, ServeConfig

    if args.log_level or args.log_json:
        configure_logging(level=args.log_level or "info", json_lines=args.log_json)
    # Tenants without a checkpoint are built fresh even under --resume, so
    # --shards always applies.
    problem = _validate_recipe_flags(args, fresh=True)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_interval is not None and not args.checkpoint_dir:
        print("error: --checkpoint-interval requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir and args.algorithm != "optimal":
        print(
            "error: --checkpoint-dir requires --algorithm optimal"
            " (baseline samplers do not support state snapshots)",
            file=sys.stderr,
        )
        return 2
    if args.metrics_out:
        problem = _check_writable_path(args.metrics_out)
        if problem is not None:
            print(
                f"error: --metrics-out {args.metrics_out} is not writable: {problem}",
                file=sys.stderr,
            )
            return 2
    try:
        config = ServeConfig(
            engine=_engine_settings(args, track_occurrences=args.track_occurrences),
            host=args.host,
            http_port=args.port,
            socket_port=args.socket_port,
            tenants=tuple(args.tenant) if args.tenant else ("default",),
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            checkpoint_interval=args.checkpoint_interval,
            max_pending_records=args.max_pending,
            batch_size=args.batch_size,
            ready_file=args.ready_file,
            metrics_out=args.metrics_out,
            metrics_format=args.metrics_format,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return ServeApp(config).run()
    except (OSError, SWSampleError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _command_experiment(args: argparse.Namespace) -> int:
    if args.experiment.lower() == "all":
        experiment_ids = available_experiments()
    else:
        experiment_ids = [args.experiment]
    for experiment_id in experiment_ids:
        table = run_experiment(experiment_id, scale=args.scale, seed=args.seed)
        print(table.to_markdown() if args.markdown else table.to_text())
        print()
        if args.csv:
            path = args.csv if len(experiment_ids) == 1 else f"{args.csv}.{experiment_id}.csv"
            table.write_csv(path)
            print(f"(csv written to {path})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``swsample`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "engine":
        return _command_engine(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "experiment":
        return _command_experiment(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover - argparse guards this
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
