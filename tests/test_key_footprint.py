"""Per-key footprint budgets: resident bytes and snapshot bytes per key.

A keyed engine holds one sampler per key, so what one key costs is what the
fleet costs.  The paper's claim is Θ(k) words per sampler; these budgets pin
the implementation near it for short-lived keys (3 records each), where the
fixed per-sampler overhead — generators, lane objects, candidate records —
dominates.  While each random stream was a Mersenne Twister (~2.5 KB
resident, ~3 KB pickled, five per key) the same keys took 16–21 KB resident
and ~19–20 KB pickled, 2.6–19x over these budgets.
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.engine import SamplerSpec

KEYS = 2_000
RECORDS = 3

CASES = [
    pytest.param(SamplerSpec(window="sequence", n=256, k=4), 3 * 1024, 1024, id="seq-wr"),
    pytest.param(SamplerSpec(window="timestamp", t0=4.0, k=4), 8 * 1024, 2 * 1024, id="ts-wr"),
]


def build_keys(spec):
    samplers = []
    for key in range(KEYS):
        sampler = spec.build(rng=key * 7919 + 1)
        for record in range(RECORDS):
            sampler.append(record, float(record))
        samplers.append(sampler)
    return samplers


@pytest.mark.parametrize("spec, resident_budget, snapshot_budget", CASES)
def test_bytes_per_key_stay_in_budget(spec, resident_budget, snapshot_budget):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samplers = build_keys(spec)
        resident = (tracemalloc.get_traced_memory()[0] - before) / KEYS
    finally:
        tracemalloc.stop()
    assert resident <= resident_budget, f"{resident:.0f} B resident per key"
    snapshot = max(
        len(pickle.dumps(sampler.state_dict(), protocol=pickle.HIGHEST_PROTOCOL))
        for sampler in samplers
    )
    assert snapshot <= snapshot_budget, f"{snapshot} B pickled state per key"
