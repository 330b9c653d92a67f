"""The answer oracle must accept legal samples and reject corrupted ones.

Run with ``python3 -m pytest perfbench/test_oracle.py`` or
``python3 perfbench/test_oracle.py``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import WindowModel, check_outcomes, check_run, check_sample  # noqa: E402


def _sequence_model() -> WindowModel:
    model = WindowModel("sequence", k=2, n=3)
    model.ingest([("a", 10), ("b", 11), ("a", 12), ("a", 13), ("a", 14)])
    return model


def _timestamp_model() -> WindowModel:
    model = WindowModel("timestamp", k=2, t0=1.0)
    model.ingest([("a", 10, 0.0), ("a", 11, 0.5), ("b", 12, 0.9), ("a", 13, 1.2)])
    return model


def test_legal_sequence_sample_passes() -> None:
    assert check_sample(_sequence_model(), "a", [(14, 3, None), (12, 1, None)]) is None


def test_sequence_rejects_a_record_outside_the_window() -> None:
    # "a" has 4 records; with n=3 the first one (value 10, index 0) has left.
    problem = check_sample(_sequence_model(), "a", [(14, 3, None), (10, 0, None)])
    assert problem is not None and "left the last 3" in problem


def test_rejects_a_value_that_is_not_the_keys_record() -> None:
    problem = check_sample(_sequence_model(), "a", [(14, 3, None), (11, 1, None)])
    assert problem is not None and "not this key's record" in problem


def test_rejects_a_wrong_sample_size() -> None:
    problem = check_sample(_sequence_model(), "a", [(14, 3, None)])
    assert problem is not None and "expected k=2" in problem


def test_rejects_an_answer_for_a_key_never_ingested() -> None:
    problem = check_sample(_sequence_model(), "zzz", [(14, 3, None), (14, 3, None)])
    assert problem is not None and "no live sampler" in problem


def test_legal_timestamp_sample_passes() -> None:
    assert check_sample(_timestamp_model(), "a", [(11, 1, 0.5), (13, 2, 1.2)]) is None


def test_timestamp_rejects_an_expired_record() -> None:
    # The clock is 1.2; a record stamped 0.0 is not within t0=1.0 of it.
    problem = check_sample(_timestamp_model(), "a", [(10, 0, 0.0), (13, 2, 1.2)])
    assert problem is not None and "expired" in problem


def test_timestamp_rejects_a_forged_timestamp() -> None:
    problem = check_sample(_timestamp_model(), "a", [(11, 1, 0.7), (13, 2, 1.2)])
    assert problem is not None and "timestamp" in problem


def test_lru_budget_restarts_an_evicted_key() -> None:
    model = WindowModel("sequence", k=1, n=8, max_keys_per_shard=1, shard_of=lambda key: 0)
    model.ingest([("a", 1), ("b", 2), ("a", 3)])
    # "a" was evicted by "b", then born again: its only record is value 3.
    assert check_sample(model, "a", [(3, 0, None)]) is None
    assert check_sample(model, "a", [(1, 0, None)]) is not None
    assert check_sample(model, "b", [(2, 0, None)]) is not None


def test_check_outcomes_counts_errors_and_corrupted_answers() -> None:
    ops = [("sample", "a"), ("sample", "b"), ("hottest", 1)]
    outcomes = [
        ("ok", [(14, 3, None), (99, 3, None)]),
        ("error", "EmptyWindowError: window expired"),
        ("ok", [("a", 4), ("b", 1)]),
    ]
    assert len(check_outcomes(_sequence_model(), ops, outcomes)) == 3


def test_check_run_checks_each_query_at_its_point_in_the_stream() -> None:
    queries = [[("sample", "a")], [("sample", "a")]]
    legal = [[("ok", [(1, 0, None)])], [("ok", [(3, 1, None)])]]
    assert check_run(WindowModel("sequence", k=1, n=1), [], [[("a", 1)], [("a", 3)]],
                     queries, legal) == []
    stale = [[("ok", [(1, 0, None)])], [("ok", [(1, 0, None)])]]
    assert len(check_run(WindowModel("sequence", k=1, n=1), [], [[("a", 1)], [("a", 3)]],
                         queries, stale)) == 1


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as error:
                failures += 1
                print(f"FAIL {name}: {error}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failures else 0)
