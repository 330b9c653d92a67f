"""Batched fleet-wide queries (``query_batch``): bit-identity and batching.

The contract under test: a batch of ``(name, *args)`` ops resolves to exactly
the same answers as the scalar query methods, on the serial engine and on
process workers in every fleet shape — one outcome per op, per-op
runtime failures captured inline (a missing key never aborts the batch),
malformed shapes refused up front.  Ranked reports (``hottest``, ``frequent``) break count ties on a
stable byte encoding of the key, so the serial path and the worker-merged
path order tie-heavy workloads identically — pinned here because the query
cache and the cross-executor equivalence suite both depend on it.
"""

import pytest

from repro.engine import ProcessEngine, SamplerSpec, ShardedEngine
from repro.exceptions import ConfigurationError
from repro.streams.workloads import build_keyed_workload

SEQ_SPEC = SamplerSpec(window="sequence", n=32, k=4, replacement=True)
TS_SPEC = SamplerSpec(window="timestamp", t0=64.0, k=3, replacement=False)

#: Engine columns, built by the ``factory`` fixture in conftest.py: the
#: serial engine, a plain two-worker fleet, and that fleet varied along what
#: still differs on the dispatch path (journaled under supervision, one
#: worker, small sub-batches).
EXECUTORS = [
    "serial",
    "process",
    "process-supervised-wal",
    "process-one-worker",
    "process-small-batch",
]


def keyed_records(count, keys=23, seed=5):
    return [
        (record.key, record.value)
        for record in build_keyed_workload("keyed-zipf", count, num_keys=keys, rng=seed)
    ]


def close(engine):
    closer = getattr(engine, "close", None)
    if closer is not None:
        closer()


QUERY_OPS = [
    ("sample", 0),
    ("sample", 1),
    ("sample", "never-seen"),
    ("contains", 0),
    ("contains", "never-seen"),
    ("hottest", 5),
    ("frequent", 0.01, 5),
    ("frequent", 0.02),
    ("moments", 2.0),
    ("stats",),
]


class TestBatchVersusScalar:
    @pytest.mark.parametrize("factory", EXECUTORS, indirect=True)
    def test_batch_outcomes_match_scalar_calls(self, factory):
        engine = factory(SEQ_SPEC, shards=3, seed=11, track_occurrences=True)
        try:
            engine.ingest(keyed_records(2_000))
            outcomes = engine.query_batch(QUERY_OPS)
            assert len(outcomes) == len(QUERY_OPS)
            assert outcomes[0] == ("ok", engine.sample(0))
            assert outcomes[1] == ("ok", engine.sample(1))
            assert outcomes[2][0] == "error" and outcomes[2][1] == "KeyError"
            assert outcomes[3] == ("ok", True)
            assert outcomes[4] == ("ok", False)
            assert outcomes[5] == ("ok", engine.hottest_keys(5))
            assert outcomes[6] == ("ok", engine.merged_frequent_items(0.01, top=5))
            assert outcomes[7] == ("ok", engine.merged_frequent_items(0.02))
            assert outcomes[8] == ("ok", engine.per_key_moments(2.0))
            assert outcomes[9] == ("ok", engine.stats())
        finally:
            close(engine)

    @pytest.mark.parametrize("factory", EXECUTORS, indirect=True)
    def test_timestamp_spec_batch_matches_scalar(self, factory):
        engine = factory(TS_SPEC, shards=2, seed=3)
        oracle = ShardedEngine(TS_SPEC, shards=2, seed=3)
        scalar = factory(TS_SPEC, shards=2, seed=3)
        try:
            records = [
                (f"k{i % 7}", float(i), float(i)) for i in range(400)
            ]
            engine.ingest(records)
            oracle.ingest(records)
            scalar.ingest(records)
            ops = [("sample", f"k{i}") for i in range(7)] + [
                ("hottest", 3),
                ("stats",),
            ]
            outcomes = engine.query_batch(ops)
            expected = oracle.query_batch(ops)
            assert outcomes == expected
            scalar.query_batch(ops)  # the same history as the other two
            # Timestamp samplers draw query coins from a per-key generator,
            # and "frequent" samples every key: the batch must answer in
            # slot order on every executor, exactly like scalar calls.
            mixed = [
                ("frequent", 0.05),
                ("sample", "k1"),
                ("sample", "k2"),
                ("frequent", 0.05),
                ("sample", "k1"),
                ("frequent", 0.01, 4),
                ("sample", "k2"),
            ]
            outcomes = engine.query_batch(mixed)
            assert outcomes == oracle.query_batch(mixed)
            in_order = []
            for op in mixed:
                if op[0] == "sample":
                    in_order.append(("ok", scalar.sample(op[1])))
                else:
                    top = op[2] if len(op) == 3 else None
                    in_order.append(("ok", scalar.merged_frequent_items(op[1], top=top)))
            assert outcomes == in_order
        finally:
            close(engine)
            close(scalar)

    def test_results_identical_across_executors(self):
        records = keyed_records(3_000, keys=41, seed=9)
        results = []
        for factory in (
            lambda spec, **kw: ShardedEngine(spec, **kw),
            lambda spec, **kw: ProcessEngine(spec, workers=3, **kw),
        ):
            engine = factory(SEQ_SPEC, shards=4, seed=17, track_occurrences=True)
            try:
                engine.ingest(records)
                results.append(engine.query_batch(QUERY_OPS))
            finally:
                close(engine)
        assert results[0] == results[1]


class TestShapeValidation:
    @pytest.mark.parametrize("factory", EXECUTORS, indirect=True)
    def test_malformed_ops_fail_the_whole_batch(self, factory):
        engine = factory(SEQ_SPEC, shards=2, seed=1)
        try:
            engine.ingest([("a", 1)])
            for bad in (
                "sample",
                ("sample",),
                ("sample", "a", "extra"),
                ("hottest",),
                ("hottest", 0),
                ("frequent", 2.0),
                ("frequent", 0.01, 0),
                ("moments", 2.0),  # track_occurrences is off
                ("stats", "extra"),
                ("wibble",),
                (42, "a"),
            ):
                with pytest.raises(ConfigurationError):
                    engine.query_batch([("contains", "a"), bad])
            # Nothing partial happened: the engine still answers.
            assert engine.query_batch([("contains", "a")]) == [("ok", True)]
        finally:
            close(engine)

    def test_lists_are_accepted_as_ops(self):
        engine = ShardedEngine(SEQ_SPEC, shards=2, seed=1)
        engine.ingest([("a", 1)])
        assert engine.query_batch([["contains", "a"], ["hottest", 2]]) == [
            ("ok", True),
            ("ok", [("a", 1)]),
        ]

    def test_empty_batch_is_empty(self):
        engine = ShardedEngine(SEQ_SPEC, shards=2, seed=1)
        assert engine.query_batch([]) == []


class TestDeterministicTies:
    """Satellite regression: tie-heavy workloads order identically on the
    serial path and on every worker-merged path."""

    def _tied_records(self):
        # 40 keys, every one with exactly 5 arrivals: counts give the
        # ranking no signal at all, so ordering is pure tie-breaking.
        return [(f"key-{i:02d}", float(i * 40 + j)) for j in range(5) for i in range(40)]

    def test_hottest_and_frequent_tie_order_across_executors(self):
        reports = []
        for factory in (
            lambda spec, **kw: ShardedEngine(spec, **kw),
            lambda spec, **kw: ProcessEngine(spec, workers=2, **kw),
            lambda spec, **kw: ProcessEngine(spec, workers=4, **kw),
        ):
            engine = factory(SEQ_SPEC, shards=4, seed=29)
            try:
                engine.ingest(self._tied_records())
                reports.append(
                    (engine.hottest_keys(7), engine.merged_frequent_items(0.001, top=9))
                )
            finally:
                close(engine)
        assert all(report == reports[0] for report in reports[1:])
        hottest, frequent = reports[0]
        assert len(hottest) == 7
        assert {count for _, count in hottest} == {5}
        assert len(frequent) == 9

    def test_tied_ranking_is_stable_under_shard_count(self):
        # The merged top-N must equal the top-N of the merged union — with a
        # total order on (count, tie-bytes) the shard layout cannot matter.
        outputs = []
        for shards in (1, 2, 4, 8):
            engine = ShardedEngine(SEQ_SPEC, shards=shards, seed=29)
            engine.ingest(self._tied_records())
            outputs.append(engine.hottest_keys(7))
        assert all(output == outputs[0] for output in outputs[1:])

    def test_mixed_type_keys_do_not_crash_the_tie_break(self):
        # int and str keys in one fleet: ranked reports still total-order.
        engine = ShardedEngine(SEQ_SPEC, shards=2, seed=29)
        engine.ingest([(key, 1.0) for key in (1, "1", 2, "two", (3, "a")) for _ in range(4)])
        report = engine.hottest_keys(5)
        assert len(report) == 5
        assert {count for _, count in report} == {4}


class TestCountFirstHottest:
    """``hottest`` selects by count before it encodes any tiebreak; the
    answer must equal the reference ``heapq.nlargest`` over the full
    ``(count, tiebreak)`` order, boundary ties and display order included."""

    class _Counted:
        __slots__ = ("total_arrivals",)

        def __init__(self, count):
            self.total_arrivals = count

    class _Pool:
        def __init__(self, entries):
            self._entries = entries

        def items(self):
            return iter(self._entries)

        def arrival_counts(self):
            return (
                [key for key, _ in self._entries],
                [sampler.total_arrivals for _, sampler in self._entries],
            )

    KEY_MAKERS = (
        lambda rng, i: i,
        lambda rng, i: f"k{i}",
        lambda rng, i: (i, f"t{rng.randrange(3)}"),
        lambda rng, i: f"{i}".encode(),
        lambda rng, i: float(i) + 0.5,
    )

    def _pools(self, rng):
        keys = set()
        pools = []
        for _ in range(rng.randrange(0, 5)):
            entries = []
            for _ in range(rng.randrange(0, 30)):
                key = rng.choice(self.KEY_MAKERS)(rng, rng.randrange(60))
                if key in keys:
                    continue
                keys.add(key)
                # Few distinct counts: heavy ties at every boundary.
                entries.append((key, self._Counted(rng.choice((0, 1, 1, 2, 3, 3, 3, 7)))))
            pools.append(self._Pool(entries))
        return pools

    def test_matches_the_reference_selection(self):
        import heapq
        import random

        from repro.engine.engine import _hottest_order, _hottest_partial, _tie_break_bytes

        rng = random.Random(20)
        for case in range(3000):
            pools = self._pools(rng)
            pairs = [
                (key, sampler.total_arrivals)
                for pool in pools
                for key, sampler in pool.items()
            ]
            top = rng.choice((0, 1, 2, 3, 5, 8, len(pairs), len(pairs) + 3))
            reference = heapq.nlargest(top, pairs, key=_hottest_order)
            reference.sort(key=lambda pair: (-pair[1], _tie_break_bytes(pair[0])))
            assert _hottest_partial(pools, top) == reference, (case, top, pairs)
