"""``swsample serve`` — the standing async ingest/query daemon.

The engine so far lives for one CLI invocation; this module keeps it alive.
:class:`ServeApp` is an asyncio front-end over the existing transport-agnostic
pieces — :mod:`repro.engine.source` parses records, either engine (the
serial :class:`~repro.engine.ShardedEngine` or the worker-process
:class:`~repro.engine.ProcessEngine`) ingests them, :mod:`repro.obs` renders
telemetry, and the checkpoint layer persists the fleet across restarts.

Surface
-------
* **HTTP ingest** — ``POST /v1/<tenant>/ingest`` with a JSONL body (the same
  line grammar as ``swsample engine --input``).  Admission is bounded: when a
  tenant's pending backlog would exceed ``max_pending_records`` the request is
  refused with ``429`` and a ``Retry-After`` header instead of buffering
  without bound.
* **Raw-socket ingest** — a line-per-record TCP listener (``--socket-port``).
  ``#tenant NAME`` lines switch tenants mid-stream; backpressure here is
  *blocking* (the reader simply stops consuming until the engine drains),
  which propagates to the sender via TCP — the right behaviour for a pipe.
* **Query API** — ``GET /v1/<tenant>/sample?key=K`` (``key`` is a JSON
  document, or a bare string when it does not parse as JSON), ``/hottest``,
  ``/frequent``, ``/moments``, ``/stats``: each is one ``/query`` op built
  from the query string (same defaults) and answered by the engine's
  :meth:`~repro.engine.ShardedEngine.query`; every route maps engine
  errors to HTTP statuses through one table.  Plus fleet-wide ``/healthz``
  (loop-side only — never blocks on an engine), ``/v1/tenants`` and
  ``/metrics`` (Prometheus text: server-level counters via
  :func:`~repro.obs.to_prometheus_text` plus every tenant's fleet-merged
  engine snapshot via :func:`~repro.obs.labeled_prometheus_text`, one
  ``tenant="..."`` label per namespace).
* **Batched queries** — ``POST /v1/<tenant>/query`` with a JSON body
  ``{"ops": [{"op": "sample", "key": ...}, {"op": "hottest", "top": 5},
  ...]}`` resolves the whole list through the engine's
  :meth:`~repro.engine.ShardedEngine.query_batch` in one engine-thread trip
  (one request/reply round per worker on a :class:`ProcessEngine` fleet).
  Each op yields ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``
  independently — one missing key never fails the batch.
* **Result caching** — every tenant engine gets a
  :class:`~repro.engine.QueryCache` stamped with per-shard generations, so
  repeated dashboard queries between ingest batches are cache hits
  (``querycache.*`` counters surface per tenant in ``/metrics``).
* **Continuous queries** — ``POST /v1/<tenant>/subscribe`` registers a
  standing query (typically ``hottest`` or ``frequent``) plus an
  ``interval``; the response streams JSONL deltas (close-delimited, no
  Content-Length) whenever the re-evaluated answer changes, with a final
  ``{"event": "end"}`` line when the daemon drains on SIGTERM.
* **Multi-tenant namespaces** — one engine recipe instantiated per tenant
  name, each with an isolated :class:`~repro.obs.MetricsRegistry` and its own
  single-thread executor, so tenants cannot observe each other's state.
* **Graceful shutdown** — SIGTERM/SIGINT stop accepting connections, drain
  in-flight batches through the engine's ``flush`` barrier, write one
  checkpoint directory per tenant (``<checkpoint_dir>/<tenant>``) and close
  the engines.  ``--resume`` restores those checkpoints losslessly on the
  next start (stable-hash routing makes the restored fleet bit-identical).

Threading model
---------------
Every engine — including the serial :class:`~repro.engine.ShardedEngine`,
which is single-caller by contract — is only ever touched from its tenant's
one-thread executor.  Ingests and queries are submitted to that executor from
the event loop, so they serialise in arrival order and the loop itself never
blocks on sampler work.  The pending-records ledger that drives 429s is
mutated only on the event loop (``run_in_executor`` completion callbacks run
there), so it needs no lock.

The module is stdlib-only (``asyncio`` + the existing package layers): no
web framework, by design — the wire surface is small and the dependency
budget is zero.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .engine import (
    ProcessEngine,
    QueryCache,
    RestartPolicy,
    SamplerSpec,
    ShardedEngine,
    checkpoint_shards,
    freeze_key,
    ingest_jsonl,
    load_checkpoint,
    write_checkpoint,
)
from .engine.source import DEFAULT_BATCH_SIZE
from .exceptions import (
    ConfigurationError,
    EmptyWindowError,
    InsufficientSampleError,
    SamplingFailureError,
    ShardRecovering,
    StreamOrderError,
    SWSampleError,
    WorkerFailure,
)
from .obs import MetricsRegistry, labeled_prometheus_text, to_prometheus_text

__all__ = ["EngineSettings", "ServeConfig", "ServeApp", "ServeThread"]

#: Default per-tenant backlog bound (records) before ingest returns 429.
DEFAULT_MAX_PENDING_RECORDS = 100_000

#: Largest accepted HTTP body; a JSONL batch bigger than this should be
#: split by the client (or streamed over the raw socket instead).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest HTTP request line or header line (the stream reader's limit);
#: a longer one answers 414 or 431.
_HEAD_LINE_LIMIT = 64 * 1024

#: ``Retry-After`` clamp for 429 responses: never tell a client to come back
#: sooner than 1s, never make it sit out longer than 30s even when the drain
#: estimate says the backlog needs minutes.
RETRY_AFTER_MIN_SECONDS = 1
RETRY_AFTER_MAX_SECONDS = 30

#: Default re-evaluation interval (seconds) for ``/subscribe`` standing
#: queries when the request does not name one.
DEFAULT_SUBSCRIBE_INTERVAL = 1.0

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: unwind request handling into an error response."""

    def __init__(self, status: int, message: str, headers: Sequence[Tuple[str, str]] = ()):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = tuple(headers)


def _http_error(error: Exception) -> Exception:
    """The HTTP error an engine error maps to, for every route.

    Bad input (``ConfigurationError``, an out-of-order record) is 400, a key
    with no live sampler 404, a window too thin to sample 409.  A query
    that needs a mid-recovery shard is a 503 with ``Retry-After`` — unlike
    the sticky ``WorkerFailure`` 503, the fleet is healing itself and the
    same request will succeed shortly.  Any other error comes back
    unchanged (and answers 500).
    """
    if isinstance(error, (ConfigurationError, StreamOrderError)):
        return _HttpError(400, str(error))
    if isinstance(error, KeyError):
        return _HttpError(404, str(error.args[0]) if error.args else "no such key")
    if isinstance(error, (InsufficientSampleError, SamplingFailureError)):
        return _HttpError(409, str(error))
    if isinstance(error, ShardRecovering):
        retry = max(
            RETRY_AFTER_MIN_SECONDS,
            min(RETRY_AFTER_MAX_SECONDS, math.ceil(error.retry_after)),
        )
        return _HttpError(503, str(error), headers=(("Retry-After", str(retry)),))
    if isinstance(error, WorkerFailure):
        return _HttpError(503, str(error))
    return error


@dataclass
class EngineSettings:
    """The per-tenant engine recipe: which sampler fleet each tenant gets.

    ``build`` constructs a fresh engine (serial by default; worker processes
    when ``workers`` is set), ``resume`` restores one from a
    checkpoint directory — under *any* worker count, which the manifest is
    validated against before paying for the restore.  ``swsample engine``
    and ``swsample serve`` both build their engines through this recipe.
    """

    spec: SamplerSpec
    shards: int = 4
    seed: int = 0
    max_keys_per_shard: Optional[int] = None
    idle_ttl: Optional[int] = None
    track_occurrences: bool = False
    workers: Optional[int] = None
    supervise: bool = False
    wal_dir: Optional[str] = None
    wal_fsync: str = "batch"
    max_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.supervise or self.wal_dir is not None) and self.workers is None:
            raise ConfigurationError("supervise/wal_dir need workers=N")
        if self.supervise and self.wal_dir is None:
            raise ConfigurationError(
                "supervise needs a wal_dir — recovery replays the journal"
            )
        if self.max_restarts is not None and not self.supervise:
            raise ConfigurationError("max_restarts only applies with supervise")

    def _restart_policy(self) -> Optional[RestartPolicy]:
        if self.max_restarts is None:
            return None
        return RestartPolicy(max_restarts=self.max_restarts)

    def _durability(self, wal_dir: Optional[str]) -> Dict[str, Any]:
        """Supervision kwargs for one tenant; ``wal_dir`` is the per-tenant
        journal path (each tenant fleet needs its own shard files), falling
        back to the recipe's own ``wal_dir`` for direct single-fleet use."""
        if wal_dir is None:
            wal_dir = self.wal_dir
        if wal_dir is None:
            return {}
        return dict(
            supervise=self.supervise,
            wal_dir=wal_dir,
            wal_fsync=self.wal_fsync,
            restart_policy=self._restart_policy(),
        )

    def build(self, registry: Any, wal_dir: Optional[str] = None) -> Any:
        config = dict(
            shards=self.shards,
            seed=self.seed,
            max_keys_per_shard=self.max_keys_per_shard,
            idle_ttl=self.idle_ttl,
            track_occurrences=self.track_occurrences,
            registry=registry,
        )
        if self.workers is not None:
            config.update(self._durability(wal_dir))
            return ProcessEngine(self.spec, workers=self.workers, **config)
        return ShardedEngine(self.spec, **config)

    def resume(self, path: str, registry: Any, wal_dir: Optional[str] = None) -> Any:
        if self.workers is not None:
            known_shards = checkpoint_shards(path)
            if known_shards is not None and self.workers > known_shards:
                raise ConfigurationError(
                    f"workers={self.workers} exceeds the checkpoint's"
                    f" {known_shards} shards (each worker owns at least one shard)"
                )
        return load_checkpoint(
            path,
            workers=self.workers,
            registry=registry,
            **self._durability(wal_dir),
        )


@dataclass
class ServeConfig:
    """Everything :class:`ServeApp` needs to stand up a daemon."""

    engine: EngineSettings
    host: str = "127.0.0.1"
    http_port: int = 0
    socket_port: Optional[int] = None
    tenants: Sequence[str] = ("default",)
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    checkpoint_interval: Optional[float] = None
    max_pending_records: int = DEFAULT_MAX_PENDING_RECORDS
    batch_size: int = DEFAULT_BATCH_SIZE
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    drain_timeout: float = 10.0
    ready_file: Optional[str] = None
    metrics_out: Optional[str] = None
    metrics_format: str = "json"
    #: Test hook: ``(tenant_name, registry) -> engine`` overrides
    #: ``engine.build``/``engine.resume`` entirely.
    engine_factory: Optional[Callable[[str, Any], Any]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("serve needs at least one tenant")
        if len(set(self.tenants)) != len(self.tenants):
            raise ConfigurationError("tenant names must be unique")
        if self.max_pending_records <= 0:
            raise ConfigurationError("max_pending_records must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        if self.resume and not self.checkpoint_dir:
            raise ConfigurationError("resume requires a checkpoint_dir")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")
        if self.metrics_format not in ("json", "prom"):
            raise ConfigurationError("metrics_format must be 'json' or 'prom'")


class _Tenant:
    """One tenant's engine plus its single-thread access discipline.

    All engine calls — ingest, queries, flush, checkpoint, close — go through
    ``self._executor`` (one thread), which makes the serial engine safe under
    concurrent HTTP traffic and gives worker-backed engines a single caller
    for their public surface.  ``pending_records`` and ``_waiters`` are
    event-loop state: touched only on the loop thread.
    """

    def __init__(
        self,
        name: str,
        engine: Any,
        registry: MetricsRegistry,
        loop: asyncio.AbstractEventLoop,
        *,
        max_pending: int,
        batch_size: int,
    ) -> None:
        self.name = name
        self.engine = engine
        self.registry = registry
        self._loop = loop
        self._max_pending = max_pending
        self._batch_size = batch_size
        self.pending_records = 0
        self.ingested_records = 0
        self._waiters: List[asyncio.Future] = []
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"swsample-serve-{name}"
        )
        # EWMA of the engine's drain throughput (records/second), fed by
        # batch completions; drives the 429 Retry-After estimate.  Zero
        # until the first batch settles — i.e. "no evidence it drains".
        self._drain_rate = 0.0
        self._last_settled: Optional[float] = None
        self._accepted = registry.counter("serve.ingest.accepted.records")
        self._rejected = registry.counter("serve.ingest.rejected.batches")
        self.checkpoint_failures = registry.counter("serve.checkpoint.failures")
        registry.register_callback("serve.pending.records", lambda: self.pending_records)

    # -- ingest ----------------------------------------------------------------

    def _ingest_sync(self, text: str) -> int:
        return ingest_jsonl(self.engine, io.StringIO(text), batch_size=self._batch_size)

    def try_ingest(self, text: str) -> Optional["asyncio.Future[int]"]:
        """Admit a JSONL body, or return ``None`` when the backlog is full.

        The estimate is the body's line count — exact for well-formed JSONL,
        close enough for admission control otherwise.  A batch larger than
        the whole budget is still admitted when the tenant is idle, so one
        oversized client cannot deadlock itself.
        """
        estimate = text.count("\n") + (0 if text.endswith("\n") else 1)
        if self.pending_records > 0 and self.pending_records + estimate > self._max_pending:
            self._rejected.inc()
            return None
        self.pending_records += estimate
        future = self._loop.run_in_executor(self._executor, self._ingest_sync, text)

        def _settled(done: "asyncio.Future[int]", estimate: int = estimate) -> None:
            self.pending_records -= estimate
            self._observe_drain(estimate)
            if not done.cancelled() and done.exception() is None:
                count = done.result()
                self.ingested_records += count
                self._accepted.inc(count)
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

        future.add_done_callback(_settled)
        return future

    def _observe_drain(self, records: int) -> None:
        """Fold one settled batch into the drain-rate EWMA.

        A batch that settles counts as drained regardless of outcome — a
        failed parse also leaves the backlog.  Runs on the event loop (done
        callbacks), so no lock.
        """
        now = time.monotonic()
        if self._last_settled is not None:
            elapsed = now - self._last_settled
            if elapsed > 0:
                rate = records / elapsed
                if self._drain_rate > 0:
                    self._drain_rate = 0.7 * self._drain_rate + 0.3 * rate
                else:
                    self._drain_rate = rate
        self._last_settled = now

    def retry_after(self) -> int:
        """Seconds a 429'd client should wait: backlog over observed drain
        rate, clamped to [1, 30].  A tenant with no drain evidence yet — a
        stalled engine, or a first oversized burst — gets the upper clamp
        rather than an optimistic ``1``."""
        if self._drain_rate <= 0:
            return RETRY_AFTER_MAX_SECONDS
        estimate = math.ceil(self.pending_records / self._drain_rate)
        return max(RETRY_AFTER_MIN_SECONDS, min(RETRY_AFTER_MAX_SECONDS, estimate))

    async def admit(self, text: str) -> "asyncio.Future[int]":
        """Blocking admission for the raw-socket path: wait for the backlog
        to drain instead of refusing, then return the in-flight future.

        The caller awaits *admission* before reading more input — that stalls
        the TCP receive window, pushing backpressure to the sender — while
        admitted batches still pipeline through the engine thread.
        """
        while True:
            future = self.try_ingest(text)
            if future is not None:
                return future
            waiter: asyncio.Future = self._loop.create_future()
            self._waiters.append(waiter)
            await waiter

    async def ingest_wait(self, text: str) -> int:
        """Blocking-admission ingest: admit, then await completion."""
        return await (await self.admit(text))

    # -- serialized engine access ---------------------------------------------

    async def query(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the tenant's engine thread, after any queued
        ingests (single executor thread ⇒ strict arrival order)."""
        return await self._loop.run_in_executor(self._executor, fn, *args)

    async def drain(self) -> None:
        await self.query(self.engine.flush)

    async def checkpoint(self, path: str) -> Any:
        return await self.query(lambda: write_checkpoint(self.engine, path))

    async def metrics_snapshot(self) -> Dict[str, Any]:
        return await self.query(self.engine.metrics_snapshot)

    async def aclose(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            await self.query(close)
        self._executor.shutdown(wait=False)


def _element_payload(element: Any) -> Dict[str, Any]:
    return {
        "index": element.index,
        "timestamp": element.timestamp,
        "value": element.value,
    }


def _key_document(raw: str) -> Any:
    """A query-string key: a JSON document, or a bare string when it isn't.

    ``key=7`` is the integer key ``7``; the *string* ``"7"`` must be sent
    JSON-quoted (``key=%227%22``).  Nested array keys arrive as JSON arrays;
    :func:`_query_op_from_json` freezes them exactly like ingest does.
    """
    try:
        return json.loads(raw)
    except ValueError:
        return raw


#: The GET query routes (``/v1/<tenant>/<op>``) and the query-string
#: parameters each reads, with their parsers; absent parameters take the
#: ``/query`` defaults.
_GET_QUERY_PARAMS: Dict[str, Dict[str, Callable[[str], Any]]] = {
    "sample": {"key": _key_document},
    "hottest": {"top": int},
    "frequent": {"threshold": float, "top": int},
    "moments": {"order": float},
    "stats": {},
}

#: The op argument a GET query route echoes back in its body.
_GET_ECHOES = {"sample": "key", "frequent": "threshold", "moments": "order"}


def _get_op_document(action: str, params: Dict[str, List[str]]) -> Dict[str, Any]:
    """A GET query route's query string as a ``/query`` op document."""
    document: Dict[str, Any] = {"op": action}
    for name, parse in _GET_QUERY_PARAMS[action].items():
        raw = _single_param(params, name)
        if raw is None:
            continue
        try:
            document[name] = parse(raw)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise _HttpError(400, f"{name} must be {kind}, got {raw!r}") from None
    return document


#: Sentinel for "the standing query has not produced a first answer yet" —
#: distinct from every real outcome, so the first evaluation always pushes.
_UNEVALUATED = object()


def _json_document(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise _HttpError(400, f"body is not valid JSON: {error}") from None


def _query_op_from_json(document: Any) -> Tuple[Any, ...]:
    """One wire-format op document → the engine's canonical op tuple.

    ``{"op": "sample", "key": K}`` / ``{"op": "contains", "key": K}`` /
    ``{"op": "hottest", "top": N}`` / ``{"op": "frequent", "threshold": T,
    "top": N?}`` / ``{"op": "moments", "order": P}`` / ``{"op": "stats"}``.
    Keys are frozen exactly like ingest keys (JSON arrays become tuples).
    Argument *values* are validated engine-side; this only maps shapes.
    """
    if not isinstance(document, dict) or not isinstance(document.get("op"), str):
        raise ConfigurationError(
            f'each op must be an object with an "op" name, got {document!r}'
        )
    kind = document["op"]
    if kind in ("sample", "contains"):
        if "key" not in document:
            raise ConfigurationError(f'{kind!r} needs a "key"')
        return (kind, freeze_key(document["key"]))
    if kind == "hottest":
        return ("hottest", document.get("top", 10))
    if kind == "frequent":
        return ("frequent", document.get("threshold", 0.01), document.get("top"))
    if kind == "moments":
        return ("moments", document.get("order", 2.0))
    if kind == "stats":
        return ("stats",)
    raise ConfigurationError(f"unknown query op {kind!r}")


def _query_outcome_payload(op: Tuple[Any, ...], outcome: Tuple[Any, ...]) -> Dict[str, Any]:
    """One ``query_batch`` outcome → its JSON wire shape, mirroring the
    scalar endpoints' payloads (samples as element objects, hottest as
    key/arrivals pairs, ...)."""
    if outcome[0] == "error":
        return {"ok": False, "error": outcome[1], "message": outcome[2]}
    value = outcome[1]
    kind = op[0]
    if kind == "sample":
        return {"ok": True, "sample": [_element_payload(element) for element in value]}
    if kind == "contains":
        return {"ok": True, "contains": bool(value)}
    if kind == "hottest":
        return {
            "ok": True,
            "hottest": [{"key": key, "arrivals": arrivals} for key, arrivals in value],
        }
    if kind == "frequent":
        return {
            "ok": True,
            "frequent": [
                {"value": item, "frequency": frequency} for item, frequency in value
            ],
        }
    if kind == "moments":
        return {
            "ok": True,
            "moments": [
                {"key": key, "moment": moment}
                for key, moment in sorted(value.items(), key=lambda item: repr(item[0]))
            ],
        }
    return {"ok": True, "stats": value}


class ServeApp:
    """The daemon: tenants, listeners, lifecycle.  See the module docstring.

    ``await start()`` inside a running loop (tests, :class:`ServeThread`);
    ``run()`` from a main thread for the real daemon (installs SIGTERM/SIGINT
    handlers, blocks until stopped, shuts down cleanly, returns an exit
    code).
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.http_port: Optional[int] = None
        self.socket_port: Optional[int] = None
        self._tenants: Dict[str, _Tenant] = {}
        self._registry = MetricsRegistry()
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._socket_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._subs_stop: Optional[asyncio.Event] = None
        self._shutdown_started = False
        self._http_requests = self._registry.counter("serve.http.requests")
        self._http_errors = self._registry.counter("serve.http.errors")
        self._socket_conns = self._registry.counter("serve.socket.connections")
        self._sub_conns = self._registry.counter("serve.subscribe.connections")
        self._sub_deltas = self._registry.counter("serve.subscribe.deltas")

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Build the tenant engines (resuming when configured), bind the
        listeners and write the ready file.  Idempotency is not attempted —
        one app, one start."""
        config = self.config
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._subs_stop = asyncio.Event()
        if config.checkpoint_dir:
            os.makedirs(config.checkpoint_dir, exist_ok=True)
        for name in config.tenants:
            registry = MetricsRegistry()
            if config.engine_factory is not None:
                engine = config.engine_factory(name, registry)
            else:
                checkpoint_path = self._tenant_checkpoint_path(name)
                wal_path = self._tenant_wal_path(name)
                if (
                    config.resume
                    and checkpoint_path is not None
                    and os.path.exists(checkpoint_path)
                ):
                    engine = config.engine.resume(
                        checkpoint_path, registry, wal_dir=wal_path
                    )
                    # Records journaled after the checkpoint the daemon died
                    # on are re-applied here; the journal stays on disk until
                    # the next committed save truncates it.
                    engine.replay_wal()
                else:
                    engine = config.engine.build(registry, wal_dir=wal_path)
                    # Fresh start: any journal a previous daemon left covers
                    # state this fleet never held — drop it, loudly.
                    engine.discard_wal()
            # Every tenant queries through a generation-invalidated result
            # cache: repeated dashboard hits between ingest batches never
            # touch the pools, and the hit/miss counters land in this
            # tenant's registry (visible under /metrics).  Factory-built
            # stubs without the property simply go uncached.
            if hasattr(type(engine), "query_cache") and engine.query_cache is None:
                engine.query_cache = QueryCache(registry=registry)
            self._tenants[name] = _Tenant(
                name,
                engine,
                registry,
                self._loop,
                max_pending=config.max_pending_records,
                batch_size=config.batch_size,
            )
        self._http_server = await asyncio.start_server(
            self._on_http_connection,
            config.host,
            config.http_port,
            limit=_HEAD_LINE_LIMIT,
        )
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        if config.socket_port is not None:
            self._socket_server = await asyncio.start_server(
                self._on_socket_connection,
                config.host,
                config.socket_port,
                limit=1 << 20,
            )
            self.socket_port = self._socket_server.sockets[0].getsockname()[1]
        if config.checkpoint_interval is not None and config.checkpoint_dir:
            self._checkpoint_task = self._loop.create_task(self._checkpoint_periodically())
        self._write_ready_file()

    def _tenant_checkpoint_path(self, name: str) -> Optional[str]:
        if not self.config.checkpoint_dir:
            return None
        return os.path.join(self.config.checkpoint_dir, name)

    def _tenant_wal_path(self, name: str) -> Optional[str]:
        wal_dir = getattr(self.config.engine, "wal_dir", None)
        if not wal_dir:
            return None
        return os.path.join(wal_dir, name)

    def _write_ready_file(self) -> None:
        path = self.config.ready_file
        if not path:
            return
        payload = {
            "pid": os.getpid(),
            "host": self.config.host,
            "http_port": self.http_port,
            "socket_port": self.socket_port,
            "tenants": list(self.config.tenants),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp, path)

    async def _checkpoint_periodically(self) -> None:
        """The periodic-checkpoint loop.  Deliberately unkillable short of
        cancellation: *any* per-tenant failure — transient
        ``CheckpointError``, full disk, even a bug in the checkpoint layer —
        is logged, counted in that tenant's registry
        (``serve.checkpoint.failures``), and survived.  A loop that dies
        silently means no further checkpoints with no signal, which is the
        one unacceptable outcome."""
        assert self.config.checkpoint_interval is not None
        while True:
            await asyncio.sleep(self.config.checkpoint_interval)
            for name, tenant in self._tenants.items():
                path = self._tenant_checkpoint_path(name)
                if path is None:  # pragma: no cover - task only starts with a dir
                    continue
                try:
                    await tenant.drain()
                    await tenant.checkpoint(path)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - loop must stay alive
                    tenant.checkpoint_failures.inc()
                    print(
                        f"warning: periodic checkpoint for tenant {name!r}"
                        f" failed: {type(error).__name__}: {error}",
                        file=sys.stderr,
                    )

    def request_stop(self) -> None:
        """Thread-safe stop signal (what SIGTERM/SIGINT hook into)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def shutdown(self) -> None:
        """Stop listening, drain, checkpoint, persist metrics, close.

        Safe to call twice (the second call is a no-op) and safe to call
        even if ``start`` only partially completed.
        """
        if self._shutdown_started:
            return
        self._shutdown_started = True
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
        for server in (self._http_server, self._socket_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        # Release standing subscriptions *before* waiting on connection
        # tasks: each subscriber writes its final "end" line and closes, so
        # the wait below is a real drain rather than a timeout.
        if self._subs_stop is not None:
            self._subs_stop.set()
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
        # Drain, snapshot, checkpoint, close — best-effort per tenant, so one
        # dead worker fleet cannot keep the others from persisting cleanly.
        for name, tenant in self._tenants.items():
            try:
                await tenant.drain()
            except SWSampleError as error:
                print(f"warning: tenant {name!r} drain failed: {error}", file=sys.stderr)
        snapshots: Optional[Dict[str, Dict[str, Any]]] = None
        if self.config.metrics_out:
            # Snapshot before closing: a ProcessEngine fleet cannot answer
            # metrics queries once its workers are gone.
            snapshots = {
                name: await tenant.metrics_snapshot()
                for name, tenant in self._tenants.items()
            }
        for name, tenant in self._tenants.items():
            path = self._tenant_checkpoint_path(name)
            if path is None:
                continue
            try:
                await tenant.checkpoint(path)
            except (SWSampleError, OSError) as error:
                print(
                    f"warning: tenant {name!r} shutdown checkpoint failed: {error}",
                    file=sys.stderr,
                )
        for tenant in self._tenants.values():
            try:
                await tenant.aclose()
            except SWSampleError as error:
                # close() re-raises a sticky WorkerFailure so callers cannot
                # miss it; at shutdown the fleet is already reaped — log it
                # and keep closing the other tenants.
                print(
                    f"warning: tenant {tenant.name!r} closed with a failure:"
                    f" {error}",
                    file=sys.stderr,
                )
        if snapshots is not None:
            self._write_metrics_out(snapshots)
        if self.config.ready_file:
            try:
                os.unlink(self.config.ready_file)
            except OSError:
                pass

    def _write_metrics_out(self, snapshots: Dict[str, Dict[str, Any]]) -> None:
        if self.config.metrics_format == "prom":
            rendered = to_prometheus_text(self._registry.snapshot())
            rendered += labeled_prometheus_text(snapshots, "tenant")
        else:
            rendered = (
                json.dumps(
                    {"server": self._registry.snapshot(), "tenants": snapshots},
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        assert self.config.metrics_out is not None
        if self.config.metrics_out == "-":
            sys.stdout.write(rendered)
            return
        try:
            with open(self.config.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as error:
            print(
                f"error: cannot write metrics to {self.config.metrics_out}: {error}",
                file=sys.stderr,
            )

    async def _serve_until_stopped(self) -> int:
        await self.start()
        assert self._loop is not None and self._stop_event is not None
        installed: List[signal.Signals] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._stop_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
                pass
        listening = f"listening on http://{self.config.host}:{self.http_port}"
        if self.socket_port is not None:
            listening += f" (raw socket {self.config.host}:{self.socket_port})"
        print(listening, flush=True)
        try:
            await self._stop_event.wait()
        finally:
            for signum in installed:
                self._loop.remove_signal_handler(signum)
            await self.shutdown()
        return 0

    def run(self) -> int:
        """Run the daemon to completion on a fresh event loop (the CLI
        entry point; must be the main thread for signal handling)."""
        return asyncio.run(self._serve_until_stopped())

    # -- HTTP ------------------------------------------------------------------

    async def _on_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._handle_http(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._http_requests.inc()
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, body = request
            subscribe = self._subscribe_target(target)
            if subscribe is not None:
                # Streaming response: headers + JSONL deltas until shutdown
                # or disconnect, delimited by connection close (no
                # Content-Length).  Setup errors (_HttpError) raised before
                # the status line fall through to the normal error path.
                await self._handle_subscribe(method, subscribe, body, writer)
                return
            status, content_type, payload, headers = await self._route(method, target, body)
        except _HttpError as error:
            self._http_errors.inc()
            status, content_type, payload, headers = (
                error.status,
                "application/json",
                _json_body({"error": error.message}),
                error.headers,
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as error:  # noqa: BLE001 - the daemon must not die per-request
            self._http_errors.inc()
            status, content_type, payload, headers = (
                500,
                "application/json",
                _json_body({"error": f"{type(error).__name__}: {error}"}),
                (),
            )
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(payload)}")
        for key, value in headers:
            head.append(f"{key}: {value}")
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await _read_line(reader, 414, "request line")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(100):
            line = await _read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" not in line:
                raise _HttpError(400, "malformed header line")
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        if "transfer-encoding" in headers:
            raise _HttpError(411, "chunked bodies are not supported; send Content-Length")
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length: {raw_length!r}") from None
        if length < 0:
            raise _HttpError(400, f"bad Content-Length: {raw_length!r}")
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                f"body of {length} bytes exceeds the {self.config.max_body_bytes}-byte"
                " limit; split the batch or use the raw-socket listener",
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    def _tenant_or_404(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise _HttpError(404, f"unknown tenant {name!r}")
        return tenant

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
        split = urlsplit(target)
        path = split.path
        params = parse_qs(split.query)
        if path == "/healthz":
            _require(method, "GET")
            return _json_response(200, self._health_payload())
        if path == "/metrics":
            _require(method, "GET")
            return await self._metrics_response()
        if path == "/v1/tenants":
            _require(method, "GET")
            return _json_response(200, {"tenants": sorted(self._tenants)})
        segments = [segment for segment in path.split("/") if segment]
        if len(segments) == 3 and segments[0] == "v1":
            _, tenant_name, action = segments
            tenant = self._tenant_or_404(tenant_name)
            if action == "ingest":
                _require(method, "POST")
                return await self._ingest_response(tenant, body)
            if action == "query":
                _require(method, "POST")
                return await self._query_response(tenant, body)
            if action == "checkpoint":
                _require(method, "POST")
                return await self._checkpoint_response(tenant)
            if action in _GET_QUERY_PARAMS:
                _require(method, "GET")
                return await self._get_query_response(tenant, action, params)
        raise _HttpError(404, f"no route for {path!r}")

    def _health_payload(self) -> Dict[str, Any]:
        # Loop-side state only: health must answer even when every engine
        # thread is busy chewing a batch.  ``liveness()`` is explicitly
        # lock-free on every engine flavour, so a mid-recovery fleet — the
        # moment health matters most — still answers instantly.
        degraded = False
        tenants: Dict[str, Any] = {}
        for name, tenant in self._tenants.items():
            entry: Dict[str, Any] = {
                "pending_records": tenant.pending_records,
                "ingested_records": tenant.ingested_records,
            }
            liveness = getattr(tenant.engine, "liveness", None)
            if callable(liveness):
                try:
                    entry["liveness"] = liveness()
                except Exception:  # pragma: no cover - torn engine
                    entry["liveness"] = {"degraded": True, "error": "unavailable"}
                if entry["liveness"].get("degraded") or entry["liveness"].get("failed"):
                    degraded = True
            tenants[name] = entry
        status = "ok" if not self._shutdown_started else "stopping"
        if degraded and status == "ok":
            status = "degraded"
        return {"status": status, "degraded": degraded, "tenants": tenants}

    async def _metrics_response(self) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
        snapshots = {
            name: await tenant.metrics_snapshot()
            for name, tenant in self._tenants.items()
        }
        text = to_prometheus_text(self._registry.snapshot())
        text += labeled_prometheus_text(snapshots, "tenant")
        return 200, "text/plain; version=0.0.4", text.encode("utf-8"), ()

    async def _ingest_response(
        self, tenant: _Tenant, body: bytes
    ) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise _HttpError(400, f"body is not UTF-8: {error}") from None
        if not text.strip():
            return _json_response(200, {"tenant": tenant.name, "ingested": 0})
        future = tenant.try_ingest(text)
        if future is None:
            raise _HttpError(
                429,
                f"tenant {tenant.name!r} has {tenant.pending_records} records pending"
                f" (limit {self.config.max_pending_records}); retry later",
                headers=(("Retry-After", str(tenant.retry_after())),),
            )
        try:
            ingested = await future
        except (SWSampleError, KeyError) as error:
            raise _http_error(error) from None
        return _json_response(200, {"tenant": tenant.name, "ingested": ingested})

    async def _query_response(
        self, tenant: _Tenant, body: bytes
    ) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
        """``POST /v1/<tenant>/query``: a multi-op batch in one engine trip.

        Body: ``{"ops": [...]}`` (or a bare JSON array of ops).  Shape
        errors fail the whole request with 400 — batches are all-or-nothing
        on shape — while per-op *runtime* failures (missing key, empty
        window) come back inline as ``{"ok": false, ...}`` results.
        """
        document = _json_document(body)
        ops_json = document.get("ops") if isinstance(document, dict) else document
        if not isinstance(ops_json, list) or not ops_json:
            raise _HttpError(400, 'query body needs a non-empty "ops" array')
        try:
            ops = [_query_op_from_json(item) for item in ops_json]
            outcomes = await tenant.query(tenant.engine.query_batch, ops)
        except (SWSampleError, KeyError) as error:
            raise _http_error(error) from None
        results = [
            _query_outcome_payload(op, outcome)
            for op, outcome in zip(ops, outcomes)
        ]
        return _json_response(200, {"tenant": tenant.name, "results": results})

    def _subscribe_target(self, target: str) -> Optional[str]:
        """The tenant name when ``target`` is ``/v1/<tenant>/subscribe``."""
        segments = [seg for seg in urlsplit(target).path.split("/") if seg]
        if len(segments) == 3 and segments[0] == "v1" and segments[2] == "subscribe":
            return segments[1]
        return None

    async def _handle_subscribe(
        self,
        method: str,
        tenant_name: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """``POST /v1/<tenant>/subscribe``: a standing query pushed as JSONL.

        Body: one op document (same vocabulary as ``/query``) plus an
        optional ``"interval"`` in seconds.  The first evaluation always
        pushes a snapshot delta; afterwards a line is pushed only when the
        re-evaluated answer *changes* — between ingest batches every
        re-evaluation is a pure cache hit.  The stream ends with an
        ``{"event": "end"}`` line on daemon shutdown (or silently when the
        consumer disconnects).  All validation happens before the status
        line goes out, so setup failures still produce clean HTTP errors.
        """
        _require(method, "POST")
        tenant = self._tenant_or_404(tenant_name)
        document = _json_document(body)
        if not isinstance(document, dict):
            raise _HttpError(400, "subscribe body must be a JSON object")
        interval = document.get("interval", DEFAULT_SUBSCRIBE_INTERVAL)
        if not isinstance(interval, (int, float)) or not interval > 0:
            raise _HttpError(400, f"interval must be a positive number, got {interval!r}")
        interval = float(interval)
        try:
            op = _query_op_from_json(document)
            # Validate shape now (coordinator-side, no pool access) so a
            # malformed op is a 400, not a mid-stream error line.
            tenant.engine._normalize_query_op(op)
        except ConfigurationError as error:
            raise _HttpError(400, str(error)) from None
        self._sub_conns.inc()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        stop = self._subs_stop
        assert stop is not None
        seq = 0
        last: Any = _UNEVALUATED
        while not stop.is_set() and not writer.is_closing():
            try:
                outcome = (await tenant.query(tenant.engine.query_batch, [op]))[0]
            except SWSampleError as error:
                # A sticky fleet failure ends the stream with an error line;
                # the consumer re-subscribes once the daemon is healthy.
                writer.write(_json_body({"event": "error", "error": str(error)}))
                await writer.drain()
                return
            if outcome != last:
                last = outcome
                seq += 1
                self._sub_deltas.inc()
                writer.write(
                    _json_body(
                        {
                            "seq": seq,
                            "tenant": tenant.name,
                            "result": _query_outcome_payload(op, outcome),
                        }
                    )
                )
                await writer.drain()
            try:
                await asyncio.wait_for(stop.wait(), timeout=interval)
            except asyncio.TimeoutError:
                pass
        writer.write(_json_body({"event": "end", "deltas": seq}))
        await writer.drain()

    async def _checkpoint_response(
        self, tenant: _Tenant
    ) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
        path = self._tenant_checkpoint_path(tenant.name)
        if path is None:
            raise _HttpError(400, "server started without --checkpoint-dir")
        await tenant.drain()
        result = await tenant.checkpoint(path)
        return _json_response(
            200,
            {
                "tenant": tenant.name,
                "path": str(result.path),
                "segments_written": result.segments_written,
                "segments_reused": result.segments_reused,
            },
        )

    async def _get_query_response(
        self, tenant: _Tenant, action: str, params: Dict[str, List[str]]
    ) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
        """``GET /v1/<tenant>/{sample,hottest,frequent,moments,stats}``: one
        ``/query`` op built from the query string, answered by
        ``engine.query``, with the op's argument echoed back (``key``,
        ``threshold``, ``order``).  An expired window answers
        ``expired: true`` with an empty sample; ``stats`` answers the flat
        stats dict plus the tenant's pending records."""
        expired = False
        try:
            op = _query_op_from_json(_get_op_document(action, params))
            value = await tenant.query(tenant.engine.query, op)
        except EmptyWindowError:
            value, expired = [], True
        except (SWSampleError, KeyError) as error:
            raise _http_error(error) from None
        if action == "stats":
            payload = dict(value)
            payload["pending_records"] = tenant.pending_records
        else:
            payload = _query_outcome_payload(op, ("ok", value))
            del payload["ok"]
        payload["tenant"] = tenant.name
        if action in _GET_ECHOES:
            payload[_GET_ECHOES[action]] = op[1]
        if action == "sample":
            payload["expired"] = expired
        return _json_response(200, payload)

    # -- raw socket ------------------------------------------------------------

    async def _on_socket_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._socket_conns.inc()
        try:
            await self._handle_socket(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    async def _handle_socket(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Line-per-record ingest: buffer ``batch_size`` lines, push each
        batch with *blocking* admission, answer one JSON status line at EOF.

        ``#tenant NAME`` switches the target namespace (the pending buffer is
        flushed first, so records never leak across tenants).
        """
        tenant = self._tenants[self.config.tenants[0]]
        buffered: List[str] = []
        futures: List["asyncio.Future[int]"] = []
        error: Optional[str] = None

        async def _flush_buffer(target: _Tenant) -> None:
            if buffered:
                text = "\n".join(buffered) + "\n"
                buffered.clear()
                # Await *admission* (not completion): a full backlog stalls
                # the read loop here, so TCP pushes back on the sender.
                futures.append(await target.admit(text))

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.decode("utf-8").strip()
                if not stripped:
                    continue
                if stripped.startswith("#tenant "):
                    name = stripped[len("#tenant "):].strip()
                    next_tenant = self._tenants.get(name)
                    await _flush_buffer(tenant)
                    if next_tenant is None:
                        # The valid prefix still lands (ingested-prefix
                        # contract); everything after the bad directive dies.
                        error = f"unknown tenant {name!r}"
                        break
                    tenant = next_tenant
                    continue
                if stripped.startswith("#"):
                    continue
                buffered.append(stripped)
                if len(buffered) >= self.config.batch_size:
                    await _flush_buffer(tenant)
        except UnicodeDecodeError as decode_error:
            error = f"stream is not UTF-8: {decode_error}"
        if error is None:
            await _flush_buffer(tenant)
        ingested = 0
        for future in futures:
            try:
                ingested += await future
            except SWSampleError as ingest_error:
                if error is None:
                    error = str(ingest_error)
        payload: Dict[str, Any] = {"ok": error is None, "ingested": ingested}
        if error is not None:
            payload["error"] = error
        writer.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
        await writer.drain()


class ServeThread:
    """Host a :class:`ServeApp` on a private event loop in a daemon thread.

    The in-process harness for tests and examples: ``start()`` returns once
    the listeners are bound (raising whatever ``ServeApp.start`` raised),
    ``stop()`` triggers the same graceful shutdown as SIGTERM and joins the
    thread.  Also a context manager.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.app = ServeApp(config)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> "ServeThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="swsample-serve",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):  # pragma: no cover - hang guard
            raise RuntimeError("serve thread did not come up within 60s")
        if self._error is not None:
            self._thread.join(timeout=10)
            raise self._error
        return self

    async def _main(self) -> None:
        try:
            await self.app.start()
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        assert self.app._stop_event is not None
        await self.app._stop_event.wait()
        await self.app.shutdown()

    @property
    def http_port(self) -> int:
        assert self.app.http_port is not None
        return self.app.http_port

    @property
    def socket_port(self) -> Optional[int]:
        return self.app.socket_port

    def stop(self) -> None:
        if self._thread is None:
            return
        self.app.request_stop()
        self._thread.join(timeout=60)
        if self._thread.is_alive():  # pragma: no cover - hang guard
            raise RuntimeError("serve thread did not shut down within 60s")
        self._thread = None

    def __enter__(self) -> "ServeThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# -- small response helpers ---------------------------------------------------


def _json_body(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _json_response(
    status: int, payload: Any
) -> Tuple[int, str, bytes, Sequence[Tuple[str, str]]]:
    return status, "application/json", _json_body(payload), ()


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, f"use {expected} for this endpoint")


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One request-head line; a line longer than the reader's limit is the
    client's error (``status``), not a 500."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio.LimitOverrunError surfaces as ValueError
        raise _HttpError(status, f"{what} exceeds the {_HEAD_LINE_LIMIT}-byte limit") from None


def _single_param(params: Dict[str, List[str]], name: str) -> Optional[str]:
    values = params.get(name)
    if not values:
        return None
    return values[-1]


