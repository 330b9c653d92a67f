#!/usr/bin/env python3
"""Keyed clickstream: one sliding-window sampler per user, at fleet scale.

A clickstream multiplexes millions of logical streams — one per user — on a
single feed.  This example drives a Zipf-skewed clickstream through
:class:`repro.engine.ShardedEngine`, which maintains one Θ(k)-word sampler per
user behind a batched ingest API, then:

* queries individual users' window samples,
* reports the hottest users and the merged frequent pages across every
  user's window,
* enforces a per-shard memory budget via LRU eviction, and
* checkpoints the whole fleet and proves the restored engine resumes with
  identical samples.

Run:  python examples/keyed_clickstream.py
"""

from __future__ import annotations

import os
import random
import tempfile

from repro.engine import SamplerSpec, ShardedEngine, load_checkpoint, write_checkpoint

USERS = 2_000
CLICKS = 200_000
PAGES = ["/home", "/search", "/cart", "/checkout", "/help", "/account", "/deals"]


def clickstream(length: int, seed: int):
    """(user, page, time) records: Zipfian users, skewed pages, Poisson clock."""
    source = random.Random(seed)
    user_weights = [1.0 / (rank + 1) ** 1.2 for rank in range(USERS)]
    page_weights = [1.0 / (rank + 1) for rank in range(len(PAGES))]
    users = source.choices(range(USERS), weights=user_weights, k=length)
    pages = source.choices(PAGES, weights=page_weights, k=length)
    clock = 0.0
    records = []
    for user, page in zip(users, pages):
        clock += source.expovariate(200.0)  # ~200 clicks/second across the site
        records.append((f"user-{user}", page, clock))
    return records


def main() -> None:
    print("=" * 72)
    print("Keyed clickstream through the sharded engine")
    print("=" * 72)
    spec = SamplerSpec(window="sequence", n=200, k=8, replacement=False)
    engine = ShardedEngine(spec, shards=8, seed=7, max_keys_per_shard=400)
    records = clickstream(CLICKS, seed=11)
    engine.ingest(records)

    print(f"per-user spec : {spec.describe()}")
    print(f"ingested      : {engine.total_arrivals:,} clicks over {USERS:,} users")
    print(f"live users    : {engine.key_count:,} (budget: 8 shards x 400 users, "
          f"{engine.evictions:,} evicted)")
    print(f"fleet memory  : {engine.memory_words():,} words "
          f"(~{engine.memory_words() // max(engine.key_count, 1)} words/user)")
    print()

    print("hottest users (lifetime clicks):")
    for user, clicks in engine.hottest_keys(5):
        print(f"  {user:<12} {clicks:>7,} clicks   last-200-clicks sample: "
              f"{sorted(engine.sample_values(user))[:4]} ...")
    print()

    print("merged frequent pages across every user's window (>= 5%):")
    for page, frequency in engine.merged_frequent_items(0.05):
        print(f"  {page:<12} {frequency:6.1%}")
    print()

    with tempfile.TemporaryDirectory() as directory:
        # Checkpoints are directories now: a JSON manifest plus one
        # digest-verified segment file per shard (see repro.engine.checkpoint).
        path = write_checkpoint(engine, os.path.join(directory, "engine.ckpt")).path
        size_kb = sum(
            os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
        ) / 1024.0
        restored = load_checkpoint(path)
        probe = [user for user, _ in engine.hottest_keys(25)]
        matches = sum(engine.sample(user) == restored.sample(user) for user in probe)
        print(f"checkpoint    : {size_kb:,.0f} KiB for {engine.key_count:,} users")
        print(f"restore check : {matches}/{len(probe)} probed users produce identical samples")
        assert matches == len(probe)

    print()
    print("Every user pays the paper's Θ(k) words; the fleet pays users x Θ(k).")


if __name__ == "__main__":
    main()
