"""The snapshot format, pinned byte for byte.

``state_dict()`` is what checkpoints store, so its content is a format:
``STATE_FORMAT`` 2.  Each case below feeds one sampler a fixed stream — two
300-element batches, five appends, a clock advance on timestamp windows and
one ``sample()`` — and compares a sha256 of the snapshot's ``repr`` with a
recorded digest.  A refactor of the samplers' internals must leave every
digest as it is; a change that alters one changes the format, and says so.

``repr`` is hashed rather than pickle bytes so the digests do not depend on
the Python version.  Only the python kernel is pinned: numpy does not promise
the same ``Generator`` streams across its versions.
"""

import hashlib

import pytest

from repro import sliding_window_sampler
from repro.core.serialization import STATE_FORMAT
from repro.core.tracking import OccurrenceCounter

SEQUENCE = dict(window="sequence", n=64)
TIMESTAMP = dict(window="timestamp", t0=2.0)

# Digests recorded at STATE_FORMAT 2 (counter-based streams, shared
# timestamp singletons); sequence snapshots carry both bucket ids.
CASES = [
    pytest.param(
        SEQUENCE, False, "88b53f6475ef1fcbd1e4e70cc6f53c760fe6dc631b959f17c7faa37fb578c206",
        id="seq-wr",
    ),
    pytest.param(
        dict(SEQUENCE, replacement=False),
        False,
        "a7d4263cf2bb5bbbfda3985e9e6828172fdbe6569227ccfc2fd0a10d3639d09e",
        id="seq-wor",
    ),
    pytest.param(
        TIMESTAMP, False, "92d27dc541d63f20f46af08f113c227daa509af67092b0b224a9e0dc57a7985f",
        id="ts-wr",
    ),
    pytest.param(
        dict(TIMESTAMP, replacement=False),
        False,
        "202a764f3db969d95cb092b9f596bd1eaffd23e8b84f60f1c0bf0716b29d4dea",
        id="ts-wor",
    ),
    pytest.param(
        SEQUENCE, True, "eca6474b5a8147cb68b6f732f5d0ef407ffc67116c2bba9f9d2de36a36d09fc4",
        id="seq-wr-occurrences",
    ),
    pytest.param(
        TIMESTAMP, True, "cfd70e82e9ff00d1e8f8a56c625b7ada967846c147c866b2460b3df22b3ca061",
        id="ts-wr-occurrences",
    ),
]


def fed_sampler(params, observe):
    sampler = sliding_window_sampler(
        k=4, rng=2009, observer=OccurrenceCounter() if observe else None, **params
    )
    values = [(position * 37) % 11 for position in range(605)]
    stamps = [position / 64 for position in range(605)]
    sampler.process_batch(values[:300], stamps[:300])
    sampler.process_batch(values[300:600], stamps[300:600])
    for position in range(600, 605):
        sampler.append(values[position], stamps[position])
    if params["window"] == "timestamp":
        sampler.advance_time(stamps[604] + 1.5)
    sampler.sample()
    return sampler


@pytest.mark.parametrize("params, observe, digest", CASES)
def test_snapshot_matches_the_recorded_format(params, observe, digest):
    state = fed_sampler(params, observe).state_dict()
    assert state["format"] == STATE_FORMAT == 2
    assert hashlib.sha256(repr(state).encode("utf-8")).hexdigest() == digest
