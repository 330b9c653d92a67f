"""Per-key footprint budgets: resident bytes and snapshot bytes per key.

A keyed engine holds one sampler per key, so what one key costs is what the
fleet costs.  The paper's claim is Θ(k) words per sampler; these budgets pin
the implementation near it for short-lived keys (3 records each), where the
fixed per-sampler overhead — generators, lane objects, candidate records —
dominates.  While each random stream was a Mersenne Twister (~2.5 KB
resident, ~3 KB pickled, five per key) the same keys took 16–21 KB resident
and ~19–20 KB pickled, 2.6–19x over these budgets.  The timestamp budgets
assume one candidate record per arrival shared by the k lanes (and encoded
once in a snapshot): with a copy per lane, ts-WR took 4.2 KB resident and
1.4 KB pickled, ts-WOR 3.9 KB and 1.0 KB.

The resident budgets are the measurement plus 5%, rounded up to 16 B.  They
assume one object per lane: a seq-WR lane is its reservoir (no wrapper
holding two bucket ids), and a ts-WOR lane is its covering automaton (no
separate decomposition object).  ts-WR's lanes hold only their generators:
they are sample columns of one flat bucket list, which stores each bucket's
geometry once.  Measured on CPython 3.11: seq-WR 1,318 B, ts-WR
1,398 B, ts-WOR 2,678 B resident, and 495, 644 and 650 B pickled.  With a
wrapper per lane they took 1,542, 2,134 and 2,902 B resident; with one
covering automaton and one bucket list per lane, ts-WR took 1,910 B.
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.engine import SamplerSpec

KEYS = 2_000
RECORDS = 3

CASES = [
    pytest.param(SamplerSpec(window="sequence", n=256, k=4), 1392, 1024, id="seq-wr"),
    pytest.param(SamplerSpec(window="timestamp", t0=4.0, k=4), 1472, 768, id="ts-wr"),
    pytest.param(
        SamplerSpec(window="timestamp", t0=4.0, k=4, replacement=False), 2816, 768, id="ts-wor"
    ),
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
