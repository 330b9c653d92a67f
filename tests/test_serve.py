"""The standing daemon: ingest/query over HTTP and raw sockets, backpressure,
checkpoint-on-SIGTERM / --resume, and /metrics scrapeability.

In-process tests host the app with :class:`repro.serve.ServeThread` (a private
event loop on a daemon thread — no pytest-asyncio needed); the lifecycle tests
drive the real ``python -m repro.cli serve`` process and speak SIGTERM.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import SamplerSpec, ShardedEngine
from repro.exceptions import ConfigurationError, ShardRecovering
from repro.obs import parse_prometheus_text
from repro.serve import EngineSettings, ServeConfig, ServeThread

SPEC = SamplerSpec(window="sequence", n=64, k=4, replacement=True)


def serve_config(**overrides):
    settings = overrides.pop("engine", EngineSettings(spec=SPEC, shards=2, seed=11))
    return ServeConfig(engine=settings, http_port=0, **overrides)


def http_get(port, path, timeout=30):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ) as response:
            return response.status, json.loads(response.read().decode()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), error.headers


def http_post(port, path, body, timeout=30):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body if isinstance(body, bytes) else body.encode(),
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), error.headers


def jsonl(records):
    return "\n".join(json.dumps(record) for record in records) + "\n"


def keyed_lines(prefix, count, keys=5):
    return jsonl(
        [{"key": f"{prefix}-{i % keys}", "value": i} for i in range(count)]
    )


class TestHttpSurface:
    def test_healthz_tenants_and_basic_flow(self):
        with ServeThread(serve_config(tenants=("default", "acme"))) as server:
            port = server.http_port
            status, health, _ = http_get(port, "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert set(health["tenants"]) == {"default", "acme"}

            status, listing, _ = http_get(port, "/v1/tenants")
            assert status == 200 and listing["tenants"] == ["acme", "default"]

            status, reply, _ = http_post(port, "/v1/default/ingest", keyed_lines("u", 100))
            assert status == 200 and reply["ingested"] == 100

            status, sample, _ = http_get(port, "/v1/default/sample?key=%22u-1%22")
            assert status == 200 and not sample["expired"]
            assert 1 <= len(sample["sample"]) <= 4
            for element in sample["sample"]:
                assert element["value"] % 5 == 1

            status, hottest, _ = http_get(port, "/v1/default/hottest?top=3")
            assert status == 200 and len(hottest["hottest"]) == 3

            status, frequent, _ = http_get(
                port, "/v1/default/frequent?threshold=0.001&top=5"
            )
            assert status == 200 and len(frequent["frequent"]) <= 5

            status, stats, _ = http_get(port, "/v1/default/stats")
            assert status == 200 and stats["arrivals"] == 100 and stats["keys"] == 5

            # Tenants are isolated: acme saw none of default's traffic.
            status, stats, _ = http_get(port, "/v1/acme/stats")
            assert status == 200 and stats["arrivals"] == 0

    def test_error_surface(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            status, body, _ = http_get(port, "/v1/nope/stats")
            assert status == 404 and "unknown tenant" in body["error"]
            status, body, _ = http_get(port, "/v1/default/sample?key=%22ghost%22")
            assert status == 404 and "no live sampler" in body["error"]
            status, body, _ = http_get(port, "/v1/default/sample")
            assert status == 400 and "key" in body["error"]
            status, body, _ = http_get(port, "/v1/default/ingest")
            assert status == 405
            status, body, _ = http_post(port, "/v1/default/ingest", '{"broken": true}\n')
            assert status == 400 and "line 1" in body["error"]
            status, body, _ = http_get(port, "/v1/default/hottest?top=0")
            assert status == 400
            status, body, _ = http_get(port, "/v1/default/hottest?top=wibble")
            assert status == 400
            status, body, _ = http_get(port, "/no/such/route")
            assert status == 404
            # Unhashable key documents are refused loudly, not 500.
            status, body, _ = http_get(port, "/v1/default/sample?key=%7B%22a%22:1%7D")
            assert status == 400 and "dict" in body["error"]

    def test_ingest_error_keeps_the_prefix(self):
        # batch_size=2: the first two records form a complete batch and land
        # before line 3 aborts the stream — the engine's ingested-prefix
        # contract, surfaced at batch granularity.
        with ServeThread(serve_config(batch_size=2)) as server:
            port = server.http_port
            bad = '["ok-1", 1]\n["ok-2", 2]\n{"key only": true}\n'
            status, body, _ = http_post(port, "/v1/default/ingest", bad)
            assert status == 400 and "line 3" in body["error"]
            status, stats, _ = http_get(port, "/v1/default/stats")
            assert stats["arrivals"] == 2

    def test_bad_timestamps_are_400_and_the_tenant_keeps_serving(self):
        # A sequence window keeps no clock, yet a timestamp must still be
        # null or a finite number; Python's json parses NaN and Infinity.
        with ServeThread(serve_config()) as server:
            port = server.http_port
            bad = '["a", 1, 1.0]\n["b", 2, "abc"]\n'
            status, body, _ = http_post(port, "/v1/default/ingest", bad)
            assert status == 400 and "must be a number" in body["error"]
            for literal in ("NaN", "Infinity", "-Infinity"):
                line = '{"key": "c", "value": 1, "timestamp": %s}\n' % literal
                status, body, _ = http_post(port, "/v1/default/ingest", line)
                assert status == 400 and "must be finite" in body["error"]
            huge = '{"key": "c", "value": 1, "timestamp": 1%s}\n' % ("0" * 400)
            status, body, _ = http_post(port, "/v1/default/ingest", huge)
            assert status == 400 and "must be a number" in body["error"]
            status, stats, _ = http_get(port, "/v1/default/stats")
            assert stats["keys"] == 1 and stats["arrivals"] == 1  # the prefix
            status, reply, _ = http_post(port, "/v1/default/ingest", '["b", 2, 2.0]\n')
            assert status == 200 and reply["ingested"] == 1

    def test_nested_keys_round_trip(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            lines = jsonl([{"key": [["a", ["b"]], 4], "value": 1}])
            status, reply, _ = http_post(port, "/v1/default/ingest", lines)
            assert status == 200 and reply["ingested"] == 1
            raw = urllib.request.quote(json.dumps([["a", ["b"]], 4]))
            status, sample, _ = http_get(port, f"/v1/default/sample?key={raw}")
            assert status == 200
            # k=4 with replacement over a single-record window: four copies.
            assert {element["value"] for element in sample["sample"]} == {1}

    def test_metrics_endpoint_is_scrapeable(self):
        with ServeThread(serve_config(tenants=("default", "acme"))) as server:
            port = server.http_port
            http_post(port, "/v1/default/ingest", keyed_lines("u", 50))
            http_post(port, "/v1/acme/ingest", keyed_lines("v", 20))
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=30
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode()
            parsed = parse_prometheus_text(text)  # the validator raises on bad text
            by_tenant = {
                labels.get("tenant"): value
                for name, labels, value in parsed["samples"]
                if name == "swsample_engine_ingest_records"
            }
            assert by_tenant == {"default": 50, "acme": 20}
            accepted = {
                labels["tenant"]: value
                for name, labels, value in parsed["samples"]
                if name == "swsample_serve_ingest_accepted_records"
            }
            assert accepted == {"default": 50, "acme": 20}
            # Server-level counters render unlabeled alongside.
            assert "swsample_serve_http_requests" in parsed["types"]


TS_SPEC = SamplerSpec(window="timestamp", t0=10.0, k=2, replacement=False)

STATS_KEYS = {
    "tenant", "pending_records", "shards", "keys", "arrivals",
    "memory_words", "evictions", "degraded",
}
SAMPLE_KEYS = {"tenant", "key", "sample", "expired"}

#: Every GET query route: (spec, track_occurrences, path, status, the
#: body's JSON keys, exact values the body must carry).
GET_ROUTES = [
    pytest.param(SPEC, False, "/v1/default/sample?key=%22u-1%22", 200, SAMPLE_KEYS,
                 {"key": "u-1", "expired": False}, id="sample"),
    pytest.param(SPEC, False, "/v1/default/sample?key=%22ghost%22", 404, {"error"}, {},
                 id="sample-unknown-key"),
    pytest.param(SPEC, False, "/v1/default/sample", 400, {"error"}, {}, id="sample-no-key"),
    pytest.param(TS_SPEC, False, "/v1/default/sample?key=%22u-1%22", 200, SAMPLE_KEYS,
                 {"key": "u-1", "sample": [], "expired": True}, id="sample-expired"),
    pytest.param(SPEC, False, "/v1/default/hottest?top=3", 200, {"tenant", "hottest"}, {},
                 id="hottest"),
    pytest.param(SPEC, False, "/v1/default/hottest?top=0", 400, {"error"}, {},
                 id="hottest-top-0"),
    pytest.param(SPEC, False, "/v1/default/frequent?threshold=0.001&top=5", 200,
                 {"tenant", "threshold", "frequent"}, {"threshold": 0.001}, id="frequent"),
    pytest.param(SPEC, False, "/v1/default/frequent?threshold=2", 400, {"error"}, {},
                 id="frequent-threshold-2"),
    pytest.param(SPEC, True, "/v1/default/moments", 200, {"tenant", "order", "moments"},
                 {"order": 2.0}, id="moments"),
    pytest.param(SPEC, False, "/v1/default/moments", 400, {"error"}, {},
                 id="moments-untracked"),
    pytest.param(SPEC, False, "/v1/default/stats", 200, STATS_KEYS,
                 {"tenant": "default", "arrivals": 2, "pending_records": 0}, id="stats"),
]


class TestGetRoutes:
    @pytest.mark.parametrize("spec, track, path, status, keys, values", GET_ROUTES)
    def test_status_and_body_keys(self, spec, track, path, status, keys, values):
        settings = EngineSettings(spec=spec, shards=2, seed=11, track_occurrences=track)
        # Two records: on the timestamp spec, u-2 arrives past u-1's window.
        records = [
            {"key": "u-1", "value": 1, "timestamp": 0.0},
            {"key": "u-2", "value": 2, "timestamp": 100.0},
        ]
        with ServeThread(serve_config(engine=settings)) as server:
            port = server.http_port
            assert http_post(port, "/v1/default/ingest", jsonl(records))[0] == 200
            got_status, body, _ = http_get(port, path)
        assert got_status == status, body
        assert set(body) == keys
        for name, value in values.items():
            assert body[name] == value, name


def raw_http(port, request):
    """Send raw request bytes; return the status code and the JSON body."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(request)
        data = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def http_errors(port):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=30) as response:
        parsed = parse_prometheus_text(response.read().decode())
    return sum(
        value for name, _, value in parsed["samples"] if name == "swsample_serve_http_errors"
    )


class TestOverLongHeadLines:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            pytest.param(
                b"GET /v1/default/stats?pad=" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
                414,
                id="request-line-414",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 70_000 + b"\r\n\r\n",
                431,
                id="header-line-431",
            ),
        ],
    )
    def test_over_long_line_is_a_client_error(self, request_bytes, status):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            before = http_errors(port)
            got_status, body = raw_http(port, request_bytes)
            assert got_status == status
            assert "65536-byte limit" in body["error"]
            assert http_errors(port) == before + 1
            # The daemon keeps serving after the refusal.
            assert http_get(port, "/healthz")[0] == 200


class TestOracleEquivalence:
    def test_concurrent_ingest_and_query_match_a_serial_oracle(self):
        posters, per_poster, keys = 4, 300, 3
        config = serve_config(engine=EngineSettings(spec=SPEC, shards=2, seed=23))
        with ServeThread(config) as server:
            port = server.http_port
            errors = []

            def post(index):
                # Disjoint key ranges per poster: cross-poster interleaving
                # cannot change any single key's record order.
                try:
                    for start in range(0, per_poster, 50):
                        lines = jsonl(
                            [
                                {"key": f"p{index}-{i % keys}", "value": i}
                                for i in range(start, start + 50)
                            ]
                        )
                        status, reply, _ = http_post(port, f"/v1/default/ingest", lines)
                        assert status == 200, reply
                except Exception as error:  # pragma: no cover - surfaced below
                    errors.append(error)

            def read_loop(stop):
                # Concurrent readers: correctness is checked after the dust
                # settles; these must simply never crash the daemon.
                while not stop.is_set():
                    http_get(port, "/healthz")
                    http_get(port, "/v1/default/hottest?top=5")

            threads = [
                threading.Thread(target=post, args=(index,)) for index in range(posters)
            ]
            stop = threading.Event()
            reader = threading.Thread(target=read_loop, args=(stop,))
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stop.set()
            reader.join()
            assert errors == []

            oracle = ShardedEngine(SPEC, shards=2, seed=23)
            for index in range(posters):
                oracle.ingest(
                    [(f"p{index}-{i % keys}", i) for i in range(per_poster)]
                )
            status, stats, _ = http_get(port, "/v1/default/stats")
            assert stats["arrivals"] == posters * per_poster
            assert stats["keys"] == posters * keys
            for index in range(posters):
                for key_index in range(keys):
                    key = f"p{index}-{key_index}"
                    raw = urllib.request.quote(json.dumps(key))
                    status, sample, _ = http_get(port, f"/v1/default/sample?key={raw}")
                    assert status == 200
                    expected = [
                        {"index": e.index, "timestamp": e.timestamp, "value": e.value}
                        for e in oracle.sample(key)
                    ]
                    assert sample["sample"] == expected, key


class _StallableEngine(ShardedEngine):
    """A serial engine whose ingest blocks until released — the test's way
    of making the backlog pile up deterministically."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def ingest(self, records):
        assert self.release.wait(timeout=60)
        return super().ingest(records)


class TestBackpressure:
    def test_429_with_retry_after_under_backlog(self):
        engines = {}

        def factory(name, registry):
            engines[name] = _StallableEngine(SPEC, shards=2, seed=3, registry=registry)
            return engines[name]

        config = serve_config(max_pending_records=30, engine_factory=factory)
        with ServeThread(config) as server:
            port = server.http_port
            first = threading.Thread(
                target=http_post,
                args=(port, "/v1/default/ingest", keyed_lines("a", 25)),
            )
            first.start()
            # Wait until the stalled batch occupies the backlog.
            deadline = time.time() + 30
            while time.time() < deadline:
                _, health, _ = http_get(port, "/healthz")
                if health["tenants"]["default"]["pending_records"] == 25:
                    break
                time.sleep(0.01)
            else:  # pragma: no cover - hang guard
                pytest.fail("backlog never filled")

            status, body, headers = http_post(
                port, "/v1/default/ingest", keyed_lines("b", 25)
            )
            assert status == 429
            # A stalled engine has produced no drain evidence, so the header
            # is the conservative upper clamp — not an optimistic "1".
            assert headers["Retry-After"] == "30"
            assert "retry" in body["error"]

            engines["default"].release.set()
            first.join(timeout=30)
            assert not first.is_alive()
            # Backlog drained: the same batch is welcome again.
            status, reply, _ = http_post(port, "/v1/default/ingest", keyed_lines("b", 25))
            assert status == 200 and reply["ingested"] == 25
            status, stats, _ = http_get(port, "/v1/default/stats")
            assert stats["arrivals"] == 50

    def test_oversized_batch_admitted_when_idle(self):
        # A single batch larger than the whole budget must not deadlock: it
        # is admitted alone, and only concurrent traffic is refused.
        config = serve_config(max_pending_records=10)
        with ServeThread(config) as server:
            status, reply, _ = http_post(
                server.http_port, "/v1/default/ingest", keyed_lines("big", 50)
            )
            assert status == 200 and reply["ingested"] == 50


class TestRawSocket:
    def test_line_protocol_with_tenant_directive(self):
        config = serve_config(tenants=("default", "acme"), socket_port=0)
        with ServeThread(config) as server:
            conn = socket.create_connection(("127.0.0.1", server.socket_port), timeout=30)
            payload = (
                '["d-1", 1]\n'
                "\n"
                "# a comment line\n"
                '#tenant acme\n'
                '["a-1", 2]\n'
                '["a-1", 3]\n'
            )
            conn.sendall(payload.encode())
            conn.shutdown(socket.SHUT_WR)
            reply = json.loads(conn.makefile().readline())
            conn.close()
            assert reply == {"ingested": 3, "ok": True}
            _, stats, _ = http_get(server.http_port, "/v1/default/stats")
            assert stats["arrivals"] == 1
            _, stats, _ = http_get(server.http_port, "/v1/acme/stats")
            assert stats["arrivals"] == 2

    def test_unknown_tenant_and_bad_records_reported(self):
        with ServeThread(serve_config(socket_port=0)) as server:
            conn = socket.create_connection(("127.0.0.1", server.socket_port), timeout=30)
            conn.sendall(b'["ok", 1]\n#tenant ghost\n["dropped", 2]\n')
            conn.shutdown(socket.SHUT_WR)
            reply = json.loads(conn.makefile().readline())
            conn.close()
            assert reply["ok"] is False
            assert "unknown tenant" in reply["error"]
            assert reply["ingested"] == 1

            conn = socket.create_connection(("127.0.0.1", server.socket_port), timeout=30)
            conn.sendall(b'["fine", 1]\n{"not a record": 1}\n')
            conn.shutdown(socket.SHUT_WR)
            reply = json.loads(conn.makefile().readline())
            conn.close()
            assert reply["ok"] is False and "line" in reply["error"]


class TestCheckpointing:
    def test_checkpoint_endpoint_and_shutdown_metrics(self, tmp_path):
        metrics_path = tmp_path / "final.prom"
        config = serve_config(
            checkpoint_dir=str(tmp_path / "ckpt"),
            metrics_out=str(metrics_path),
            metrics_format="prom",
        )
        with ServeThread(config) as server:
            port = server.http_port
            http_post(port, "/v1/default/ingest", keyed_lines("u", 40))
            status, reply, _ = http_post(port, "/v1/default/checkpoint", b"")
            assert status == 200 and reply["segments_written"] >= 1
            assert os.path.isdir(tmp_path / "ckpt" / "default")
        # Shutdown wrote the final metrics document, and it is scrapeable.
        parsed = parse_prometheus_text(metrics_path.read_text())
        ingested = [
            value
            for name, labels, value in parsed["samples"]
            if name == "swsample_engine_ingest_records"
            and labels.get("tenant") == "default"
        ]
        assert ingested == [40]

    def test_checkpoint_without_dir_is_refused(self):
        with ServeThread(serve_config()) as server:
            status, body, _ = http_post(server.http_port, "/v1/default/checkpoint", b"")
            assert status == 400 and "checkpoint-dir" in body["error"]

    def test_serve_thread_resume_round_trip(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        settings = EngineSettings(spec=SPEC, shards=2, seed=31)
        with ServeThread(
            serve_config(engine=settings, checkpoint_dir=checkpoint_dir)
        ) as server:
            http_post(server.http_port, "/v1/default/ingest", keyed_lines("u", 80))
            _, before, _ = http_get(server.http_port, "/v1/default/sample?key=%22u-2%22")
        with ServeThread(
            serve_config(engine=settings, checkpoint_dir=checkpoint_dir, resume=True)
        ) as server:
            _, after, _ = http_get(server.http_port, "/v1/default/sample?key=%22u-2%22")
            _, stats, _ = http_get(server.http_port, "/v1/default/stats")
        assert after["sample"] == before["sample"]
        assert stats["arrivals"] == 80


class TestBatchedQuery:
    def test_multi_op_batch_matches_scalar_endpoints(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            http_post(port, "/v1/default/ingest", keyed_lines("u", 200))
            ops = {
                "ops": [
                    {"op": "sample", "key": "u-1"},
                    {"op": "contains", "key": "u-2"},
                    {"op": "contains", "key": "ghost"},
                    {"op": "hottest", "top": 3},
                    {"op": "frequent", "threshold": 0.001, "top": 5},
                    {"op": "stats"},
                    {"op": "sample", "key": "ghost"},
                ]
            }
            status, reply, _ = http_post(port, "/v1/default/query", json.dumps(ops))
            assert status == 200
            results = reply["results"]
            assert [r["ok"] for r in results] == [
                True, True, True, True, True, True, False,
            ]
            # Each batched result equals its scalar endpoint's payload.
            _, sample, _ = http_get(port, "/v1/default/sample?key=%22u-1%22")
            assert results[0]["sample"] == sample["sample"]
            assert results[1]["contains"] is True
            assert results[2]["contains"] is False
            _, hottest, _ = http_get(port, "/v1/default/hottest?top=3")
            assert results[3]["hottest"] == hottest["hottest"]
            _, frequent, _ = http_get(port, "/v1/default/frequent?threshold=0.001&top=5")
            assert results[4]["frequent"] == frequent["frequent"]
            _, stats, _ = http_get(port, "/v1/default/stats")
            assert results[5]["stats"]["arrivals"] == stats["arrivals"]
            # The missing key fails its own op only, not the batch.
            assert results[6]["error"] == "KeyError"

    def test_shape_errors_fail_the_whole_batch(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            for body in (
                "not json",
                json.dumps({"ops": []}),
                json.dumps({"ops": "nope"}),
                json.dumps({"ops": [{"no-op": 1}]}),
                json.dumps({"ops": [{"op": "wibble"}]}),
                json.dumps({"ops": [{"op": "sample"}]}),
                json.dumps({"ops": [{"op": "hottest", "top": 0}]}),
            ):
                status, reply, _ = http_post(port, "/v1/default/query", body)
                assert status == 400, body
            status, _, _ = http_get(port, "/v1/default/query")
            assert status == 405

    def test_non_numeric_arguments_are_400_not_500(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            for op in (
                {"op": "hottest", "top": "wibble"},
                {"op": "frequent", "threshold": [0.1]},
                {"op": "frequent", "threshold": 0.1, "top": {}},
            ):
                status, reply, _ = http_post(
                    port, "/v1/default/query", json.dumps({"ops": [op]})
                )
                assert status == 400, op
                assert "needs a number" in reply["error"]

    def test_repeated_query_is_served_from_cache(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            http_post(port, "/v1/default/ingest", keyed_lines("u", 100))
            ops = json.dumps({"ops": [{"op": "hottest", "top": 3}, {"op": "stats"}]})

            def cache_counters():
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=30
                ) as response:
                    text = response.read().decode()
                parsed = parse_prometheus_text(text)
                return {
                    name: value
                    for name, labels, value in parsed["samples"]
                    if name.startswith("swsample_querycache") and labels.get("tenant") == "default"
                }

            first = http_post(port, "/v1/default/query", ops)
            assert first[0] == 200
            before = cache_counters()
            assert before["swsample_querycache_misses"] >= 2
            second = http_post(port, "/v1/default/query", ops)
            assert second[0] == 200
            assert second[1] == first[1]  # bit-identical payload
            after = cache_counters()
            assert after["swsample_querycache_hits"] >= before.get(
                "swsample_querycache_hits", 0
            ) + 2
            # New ingest moves shard generations: the cached answers die.
            http_post(port, "/v1/default/ingest", keyed_lines("u", 10))
            third = http_post(port, "/v1/default/query", ops)
            assert third[0] == 200
            final = cache_counters()
            assert final["swsample_querycache_invalidations"] >= 1


class TestSubscribe:
    def _subscribe_raw(self, port, body, collected, connected):
        conn = socket.create_connection(("127.0.0.1", port), timeout=60)
        payload = body.encode()
        conn.sendall(
            (
                f"POST /v1/default/subscribe HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode()
            + payload
        )
        data = b""
        while b"\r\n\r\n" not in data:
            data += conn.recv(65536)
        head, _, rest = data.partition(b"\r\n\r\n")
        collected.append(head.decode().split("\r\n")[0])
        connected.set()
        buffer = rest
        while True:
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                if line.strip():
                    collected.append(line.decode())
            chunk = conn.recv(65536)
            if not chunk:
                break
            buffer += chunk
        conn.close()
        if buffer.strip():
            collected.append(buffer.decode().strip())

    def test_snapshot_change_deltas_and_clean_end(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            http_post(port, "/v1/default/ingest", keyed_lines("u", 50))
            collected, connected = [], threading.Event()
            body = json.dumps({"op": "hottest", "top": 2, "interval": 0.05})
            reader = threading.Thread(
                target=self._subscribe_raw, args=(port, body, collected, connected)
            )
            reader.start()
            assert connected.wait(timeout=30)
            # Let the first evaluation land, then change the answer.
            deadline = time.time() + 30
            while time.time() < deadline and not collected[1:]:
                time.sleep(0.02)
            hot = jsonl([{"key": "blazing", "value": 1} for _ in range(200)])
            http_post(port, "/v1/default/ingest", hot)
            deadline = time.time() + 30
            while time.time() < deadline and len(collected) < 3:
                time.sleep(0.02)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert collected[0].startswith("HTTP/1.1 200")
        lines = [json.loads(line) for line in collected[1:]]
        deltas = [line for line in lines if "seq" in line]
        assert len(deltas) >= 2
        assert deltas[0]["seq"] == 1
        assert deltas[0]["result"]["ok"] is True
        # The ingest burst changed the top-2: a change delta was pushed.
        assert any(
            entry["key"] == "blazing"
            for delta in deltas[1:]
            for entry in delta["result"]["hottest"]
        )
        # Shutdown closed the stream with the end line, not a cut socket.
        assert lines[-1]["event"] == "end"
        assert lines[-1]["deltas"] == deltas[-1]["seq"]

    def test_subscribe_validation_is_plain_http(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            for body in (
                "not json",
                json.dumps(["not", "an", "object"]),
                json.dumps({"op": "wibble"}),
                json.dumps({"op": "hottest", "top": 2, "interval": 0}),
                json.dumps({"op": "hottest", "top": 2, "interval": "fast"}),
            ):
                status, reply, _ = http_post(port, "/v1/default/subscribe", body)
                assert status == 400, body
            status, _, _ = http_get(port, "/v1/ghost/subscribe")
            assert status in (404, 405)


class TestRetryAfterEstimate:
    def test_clamped_backlog_over_drain_rate(self):
        with ServeThread(serve_config()) as server:
            tenant = server.app._tenants["default"]
            # No drain evidence yet: the conservative upper clamp.
            assert tenant.retry_after() == 30
            # 1000 pending at 100 rec/s -> 10s, inside the clamp.
            tenant._drain_rate = 100.0
            tenant.pending_records = 1000
            assert tenant.retry_after() == 10
            # Fast drain: never below 1s.
            tenant._drain_rate = 1e9
            assert tenant.retry_after() == 1
            # Glacial drain: never above 30s.
            tenant._drain_rate = 0.001
            assert tenant.retry_after() == 30
            tenant.pending_records = 0

    def test_drain_rate_learned_from_settled_batches(self):
        with ServeThread(serve_config()) as server:
            port = server.http_port
            for _ in range(5):
                http_post(port, "/v1/default/ingest", keyed_lines("u", 100))
            tenant = server.app._tenants["default"]
            assert tenant._drain_rate > 0


class _FlakyCheckpointEngine(ShardedEngine):
    """Checkpoint attempts fail (injected OSError) while ``failing`` is set;
    every attempt is counted so the test can see the loop still running."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failing = threading.Event()
        self.attempts = 0

    def _checkpoint_guard(self):
        self.attempts += 1
        if self.failing.is_set():
            raise OSError("disk full (injected)")
        return super()._checkpoint_guard()


class TestCheckpointLoopResilience:
    def test_failing_periodic_checkpoint_keeps_the_loop_alive(self, tmp_path, capfd):
        engines = {}

        def factory(name, registry):
            engines[name] = _FlakyCheckpointEngine(
                SPEC, shards=2, seed=5, registry=registry
            )
            return engines[name]

        config = serve_config(
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=0.05,
            engine_factory=factory,
        )
        with ServeThread(config) as server:
            engine = engines["default"]
            engine.failing.set()
            # Several failing rounds: were the task dead, attempts would stop.
            deadline = time.time() + 30
            while time.time() < deadline and engine.attempts < 3:
                time.sleep(0.02)
            assert engine.attempts >= 3
            # The failures are counted in the tenant's registry (/metrics).
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.http_port}/metrics", timeout=30
            ) as response:
                text = response.read().decode()
            parsed = parse_prometheus_text(text)
            failures = [
                value
                for name, labels, value in parsed["samples"]
                if name == "swsample_serve_checkpoint_failures"
                and labels.get("tenant") == "default"
            ]
            assert failures and failures[0] >= 3
            # Recovery: once writes succeed again, a checkpoint lands.
            engine.failing.clear()
            manifest = tmp_path / "ckpt" / "default" / "MANIFEST.json"
            deadline = time.time() + 30
            while time.time() < deadline and not manifest.exists():
                time.sleep(0.02)
            assert manifest.exists()
        captured = capfd.readouterr()
        assert "periodic checkpoint" in captured.err
        assert "disk full (injected)" in captured.err


def _wait_for_ready(path, process, deadline=60):
    start = time.time()
    while time.time() - start < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"serve exited early ({process.returncode}): {process.stderr.read()}"
            )
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        time.sleep(0.05)
    raise AssertionError("ready file never appeared")  # pragma: no cover


class TestDaemonLifecycle:
    def _spawn(self, tmp_path, *extra):
        ready = tmp_path / "ready.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--ready-file", str(ready),
                "--n", "64", "-k", "4", "--seed", "17",
                "--checkpoint-dir", str(tmp_path / "ckpt"), *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        return process, ready

    def test_sigterm_checkpoints_and_resume_restores_losslessly(self, tmp_path):
        process, ready = self._spawn(tmp_path)
        try:
            info = _wait_for_ready(str(ready), process)
            assert info["pid"] == process.pid
            assert sorted(info["tenants"]) == ["default"]
            port = info["http_port"]
            status, reply, _ = http_post(port, "/v1/default/ingest", keyed_lines("u", 200))
            assert status == 200 and reply["ingested"] == 200
            _, before, _ = http_get(port, "/v1/default/sample?key=%22u-3%22")
            assert before["sample"]
        finally:
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "listening on http://127.0.0.1" in stdout
        assert not ready.exists()  # readiness is withdrawn on shutdown
        manifest = tmp_path / "ckpt" / "default" / "MANIFEST.json"
        assert manifest.exists(), stderr

        process, ready = self._spawn(tmp_path, "--resume")
        try:
            info = _wait_for_ready(str(ready), process)
            port = info["http_port"]
            _, after, _ = http_get(port, "/v1/default/sample?key=%22u-3%22")
            _, stats, _ = http_get(port, "/v1/default/stats")
        finally:
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert after["sample"] == before["sample"]
        assert stats["arrivals"] == 200


class _RecoveringEngine(ShardedEngine):
    """Serial engine with a switchable fake mid-recovery window, so the
    daemon's degraded-mode surface is testable without real worker death
    (the genuine article is exercised end-to-end in test_chaos.py)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recovering = False
        self.retry_after = 0.25

    def _gate(self):
        if self.recovering:
            raise ShardRecovering(
                "shards [0] are mid-recovery — retry shortly",
                shards=(0,),
                retry_after=self.retry_after,
            )

    def ingest(self, records):
        self._gate()
        return super().ingest(records)

    def query(self, op):
        self._gate()
        return super().query(op)

    def query_batch(self, ops):
        self._gate()
        return super().query_batch(ops)

    def liveness(self):
        return {
            "degraded": self.recovering,
            "failed": False,
            "recovering_shards": [0] if self.recovering else [],
            "restarts": 1 if self.recovering else 0,
            "workers": [],
        }


class TestDegradedServing:
    """While a tenant's fleet is mid-recovery the daemon must keep running:
    recovering-shard requests get a retryable 503 with a Retry-After hint,
    /healthz reports the incident, and nothing is ever answered wrong."""

    def degraded_server(self):
        engines = {}

        def factory(name, registry):
            engines[name] = _RecoveringEngine(SPEC, shards=2, seed=3, registry=registry)
            return engines[name]

        return engines, serve_config(engine_factory=factory)

    def test_503_with_retry_after_on_recovering_shards(self):
        engines, config = self.degraded_server()
        with ServeThread(config) as server:
            port = server.http_port
            status, _, _ = http_post(port, "/v1/default/ingest", keyed_lines("u", 50))
            assert status == 200
            engines["default"].recovering = True
            for method, path in [
                ("GET", "/v1/default/sample?key=%22u-1%22"),
                ("GET", "/v1/default/hottest?top=3"),
                ("POST", "/v1/default/ingest"),
                ("POST", "/v1/default/query"),
            ]:
                if method == "GET":
                    status, body, headers = http_get(port, path)
                else:
                    payload = (
                        keyed_lines("v", 5)
                        if path.endswith("ingest")
                        else json.dumps({"ops": [{"op": "hottest", "top": 2}]})
                    )
                    status, body, headers = http_post(port, path, payload)
                assert status == 503, path
                assert "mid-recovery" in body["error"]
                # retry_after=0.25s rounds up to the 1-second floor.
                assert headers["Retry-After"] == "1"
            # Recovery over: the same requests answer again.
            engines["default"].recovering = False
            status, sample, _ = http_get(port, "/v1/default/sample?key=%22u-1%22")
            assert status == 200 and sample["sample"]

    def test_retry_after_clamped_to_upper_bound(self):
        engines, config = self.degraded_server()
        with ServeThread(config) as server:
            engines["default"].recovering = True
            engines["default"].retry_after = 1e6  # silly backoff: clamp to 30
            status, _, headers = http_get(
                server.http_port, "/v1/default/sample?key=%22u-1%22"
            )
            assert status == 503
            assert headers["Retry-After"] == "30"

    def test_healthz_reports_degraded_then_recovers(self):
        engines, config = self.degraded_server()
        with ServeThread(config) as server:
            port = server.http_port
            status, health, _ = http_get(port, "/healthz")
            assert status == 200
            assert health["status"] == "ok" and health["degraded"] is False
            engines["default"].recovering = True
            status, health, _ = http_get(port, "/healthz")
            # Health stays 200 — load balancers read the body, and a
            # degraded fleet is still serving healthy shards.
            assert status == 200
            assert health["status"] == "degraded" and health["degraded"] is True
            liveness = health["tenants"]["default"]["liveness"]
            assert liveness["recovering_shards"] == [0]
            assert liveness["restarts"] == 1
            engines["default"].recovering = False
            status, health, _ = http_get(port, "/healthz")
            assert health["status"] == "ok" and health["degraded"] is False


class TestDurabilitySettings:
    def test_supervise_needs_process_workers(self):
        with pytest.raises(ConfigurationError, match="need workers=N"):
            EngineSettings(spec=SPEC, supervise=True, wal_dir="/tmp/x")
        with pytest.raises(ConfigurationError, match="need workers=N"):
            EngineSettings(spec=SPEC, wal_dir="/tmp/x")
        # Any worker count means process workers: no executor to choose.
        settings = EngineSettings(spec=SPEC, workers=2, wal_dir="/tmp/x", supervise=True)
        assert settings.supervise and settings.workers == 2

    def test_supervise_needs_wal_dir(self):
        with pytest.raises(ConfigurationError, match="wal_dir"):
            EngineSettings(spec=SPEC, supervise=True, workers=2)

    def test_max_restarts_needs_supervise(self):
        with pytest.raises(ConfigurationError, match="max_restarts"):
            EngineSettings(spec=SPEC, wal_dir="/tmp/x", workers=2, max_restarts=3)
