#!/usr/bin/env python3
"""Worker-process shard executor + incremental checkpoints, end to end.

A day in the life of a production fleet:

1. stream a JSONL click feed through a :class:`repro.engine.ProcessEngine`
   — shards resident in worker processes, so sampler updates run on as many
   cores as there are workers;
2. prove the process fleet is *bit-identical* to a serial one — workers
   are a throughput knob, never a correctness knob;
3. take an incremental checkpoint (each worker process writes its own
   segments), absorb a hot-tenant burst that touches a few shards,
   checkpoint again and watch only the dirty segments rewrite;
4. restore the checkpoint into a serial engine (worker count and engine
   are both orthogonal to the manifest) and keep ingesting.

Run:  python examples/parallel_ingest.py
"""

from __future__ import annotations

import json
import os
import random
import tempfile

from repro.engine import (
    ProcessEngine,
    SamplerSpec,
    ShardedEngine,
    ingest_jsonl,
    load_checkpoint,
    write_checkpoint,
)

USERS = 1_000
CLICKS = 120_000
PAGES = ["/home", "/search", "/cart", "/checkout", "/help", "/deals"]
SHARDS = 32
SPEC = SamplerSpec(window="sequence", n=128, k=6, replacement=True)


def jsonl_feed(length: int, seed: int):
    """The wire form a real feed arrives in: one JSON document per line."""
    source = random.Random(seed)
    user_weights = [1.0 / (rank + 1) ** 1.1 for rank in range(USERS)]
    for _ in range(length):
        user = source.choices(range(USERS), weights=user_weights, k=1)[0]
        page = source.choice(PAGES)
        yield json.dumps({"key": f"user-{user}", "value": page})


def main() -> None:
    print("=" * 72)
    print("Process-worker shard executor + incremental checkpoints")
    print("=" * 72)

    with ProcessEngine(SPEC, shards=SHARDS, workers=4, seed=42) as fleet:
        ingested = ingest_jsonl(fleet, jsonl_feed(CLICKS, seed=7), batch_size=4096)
        fleet.flush()
        print(f"streamed      : {ingested:,} JSONL clicks over {fleet.key_count:,} users")
        print(f"topology      : {fleet.shards} shards / {fleet.workers} process workers")

        serial = ShardedEngine(SPEC, shards=SHARDS, seed=42)
        serial.ingest(_tuples(jsonl_feed(CLICKS, seed=7)))
        identical = fleet.state_dict() == serial.state_dict()
        print(f"determinism   : process fleet bit-identical to serial fleet: {identical}")
        assert identical

        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fleet.ckpt")
            first = write_checkpoint(fleet, path)
            print(f"checkpoint #1 : {first.segments_written} segments "
                  f"({first.bytes_written // 1024} KiB; each worker process "
                  f"wrote its own shards)")

            # A hot tenant bursts: every record lands on one user, one shard.
            fleet.ingest([("user-0", "/deals")] * 500)
            second = write_checkpoint(fleet, path)
            print(f"checkpoint #2 : {second.segments_written} rewritten, "
                  f"{second.segments_reused} reused after a 1-user burst")
            assert second.segments_written == 1

            # A serial engine restores the 4-worker manifest: workers own
            # no state, so the checkpoint does not record them.
            resumed = load_checkpoint(path)
            match = resumed.sample("user-0") == fleet.sample("user-0")
            print(f"restore       : serial fleet from a 4 process-worker manifest, "
                  f"hot user's sample identical: {match}")
            assert match
            resumed.ingest([("user-1", "/home")] * 100)
            print(f"resume        : restored fleet keeps ingesting "
                  f"({resumed.total_arrivals:,} total arrivals)")

    print()
    print("Workers change wall-clock, never samples;")
    print("checkpoints pay only for the shards that changed, and any engine")
    print("restores them.")


def _tuples(lines):
    for line in lines:
        document = json.loads(line)
        yield (document["key"], document["value"])


if __name__ == "__main__":
    main()
