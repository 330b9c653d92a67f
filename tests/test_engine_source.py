"""Streaming ingest sources: JSONL parsing, batching, engine wiring."""

import json

import pytest

from repro.engine import (
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    batched,
    freeze_key,
    ingest_jsonl,
    jsonl_records,
)
from repro.exceptions import ConfigurationError


class TestFreezeKey:
    def test_scalars_pass_through(self):
        for key in ("a", b"a", 7, 7.5, True, None):
            assert freeze_key(key) is key

    def test_nested_lists_become_nested_tuples(self):
        assert freeze_key([["a", ["b"]], 4]) == (("a", ("b",)), 4)
        assert freeze_key([]) == ()

    def test_rejects_unhashable_leaves_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 12.*dict"):
            freeze_key(["a", {"b": 1}], line_number=12)
        with pytest.raises(ConfigurationError, match="dict"):
            freeze_key({"b": 1})


class TestJsonlRecords:
    def test_object_and_array_forms(self):
        lines = [
            '{"key": "alice", "value": 1}',
            '{"key": "bob", "value": 2, "timestamp": 3.5}',
            '["carol", 7]',
            '["dave", 8, 9.0]',
        ]
        assert list(jsonl_records(lines)) == [
            ("alice", 1),
            ("bob", 2, 3.5),
            ("carol", 7),
            ("dave", 8, 9.0),
        ]

    def test_blank_lines_skipped(self):
        assert list(jsonl_records(["", "  \n", '["a", 1]', "\n"])) == [("a", 1)]

    def test_array_keys_become_tuples(self):
        records = list(jsonl_records(['{"key": ["tenant", 4], "value": 1}', '[["t", 5], 2]']))
        assert records == [(("tenant", 4), 1), (("t", 5), 2)]
        # ... so they are routable stream keys.
        engine = ShardedEngine(SamplerSpec(window="sequence", n=8, k=1))
        engine.ingest(records)
        assert engine.key_count == 2

    def test_nested_array_keys_become_nested_tuples(self):
        # Regression: the conversion used to be shallow (`tuple(key)`), so a
        # nested key smuggled an inner list past parsing and blew up with an
        # opaque TypeError inside ingest.
        records = list(
            jsonl_records(['{"key": [["a", ["b"]], 4], "value": 1}', '[[["x"], 2], 9]'])
        )
        assert records == [((("a", ("b",)), 4), 1), ((("x",), 2), 9)]
        engine = ShardedEngine(SamplerSpec(window="sequence", n=8, k=1))
        engine.ingest(records)
        assert engine.key_count == 2
        assert engine.sample_values((("a", ("b",)), 4)) == [1]

    def test_unhashable_keys_fail_loudly_with_line_number(self):
        for bad in ('{"key": {"a": 1}, "value": 1}', '[["ok", {"a": 1}], 2]'):
            with pytest.raises(ConfigurationError, match="line 2.*dict"):
                list(jsonl_records(['["fine", 0]', bad]))

    def test_invalid_json_reports_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            list(jsonl_records(['["a", 1]', "{nope"]))

    def test_wrong_shapes_rejected(self):
        with pytest.raises(ConfigurationError, match="'key' and 'value'"):
            list(jsonl_records(['{"value": 1}']))
        with pytest.raises(ConfigurationError, match="2 or 3 items"):
            list(jsonl_records(['["only-key"]']))
        with pytest.raises(ConfigurationError, match="object or an array"):
            list(jsonl_records(["42"]))

    def test_prefix_yields_before_the_failure(self):
        produced = []
        with pytest.raises(ConfigurationError):
            for record in jsonl_records(['["a", 1]', "broken"]):
                produced.append(record)
        assert produced == [("a", 1)]


class TestBatched:
    def test_slices_evenly_and_keeps_remainder(self):
        assert list(batched(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(batched([], 3)) == []

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            list(batched([1], 0))

    def test_rejects_nonpositive_size_eagerly(self):
        # Regression: batched() was a plain generator, so the size check was
        # deferred until first iteration — an unconsumed batched(records, 0)
        # failed silently.  The wrapper must raise at the call site.
        with pytest.raises(ConfigurationError):
            batched([1], 0)
        with pytest.raises(ConfigurationError):
            batched([1], -3)

    def test_stays_lazy_after_eager_validation(self):
        def exploding():
            raise AssertionError("source must not be consumed at call time")
            yield  # pragma: no cover

        batches = batched(exploding(), 2)  # no error: source untouched
        with pytest.raises(AssertionError):
            next(iter(batches))


class TestIngestJsonl:
    def lines(self, count):
        return [json.dumps({"key": f"u{i % 9}", "value": i}) for i in range(count)]

    def test_streams_into_serial_engine(self):
        engine = ShardedEngine(SamplerSpec(window="sequence", n=16, k=2), shards=2)
        assert ingest_jsonl(engine, self.lines(1_000), batch_size=64) == 1_000
        assert engine.total_arrivals == 1_000
        assert engine.key_count == 9

    def test_streams_into_parallel_engine(self):
        with ProcessEngine(
            SamplerSpec(window="sequence", n=16, k=2), shards=4, workers=2
        ) as engine:
            assert ingest_jsonl(engine, self.lines(1_000), batch_size=64) == 1_000
            assert engine.total_arrivals == 1_000

    def test_limit_caps_the_stream(self):
        engine = ShardedEngine(SamplerSpec(window="sequence", n=16, k=2), shards=2)
        assert ingest_jsonl(engine, self.lines(1_000), batch_size=64, limit=100) == 100
        assert engine.total_arrivals == 100

    def test_matches_direct_ingest(self):
        lines = self.lines(500)
        streamed = ShardedEngine(SamplerSpec(window="sequence", n=16, k=2), shards=2, seed=4)
        ingest_jsonl(streamed, lines, batch_size=37)
        direct = ShardedEngine(SamplerSpec(window="sequence", n=16, k=2), shards=2, seed=4)
        direct.ingest([(f"u{i % 9}", i) for i in range(500)])
        assert streamed.state_dict() == direct.state_dict()
