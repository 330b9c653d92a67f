"""The ``Incr`` merge cascade (Lemma 3.4) as a compile-friendly module.

This is the one ``Incr`` of a single covering decomposition: per-element
appends, batches and observer-carrying automata all extend their bucket lists
through :func:`merge_cascade` (called from :meth:`~repro.core.covering.
CoveringDecomposition.incr` and :meth:`~repro.core.covering.WindowCoverage.
observe_batch`, so by ts-WOR and the standalone automata).  ts-WR's k lanes
share one geometry and run the same walk once for all of them
(:func:`~repro.core.shared_coverage.merge_run`).  It is factored out so it
can optionally be compiled
with `mypyc <https://mypyc.readthedocs.io/>`_ — the module deliberately
sticks to the mypyc-supported subset (plain functions, no dynamic attribute
tricks, fully annotated signatures) so that

.. code-block:: console

   $ python -m mypyc src/repro/core/_cascade.py

produces a drop-in extension.  Nothing in the repository builds or
requires the compiled form: the interpreted module is the reference.

:func:`merge_cascade` mutates the bucket list **in place** and takes two
fair coins per merge, ``getrandbits(2)``, in front-to-back cascade order —
the order of Definition 3.1's front-to-back walk, which the cascade
replaced.  On a :class:`~repro.rng.LaneRng` the coins are bits of its
64-bit draws, so one draw pays for 32 merges.  Its observer form merges
through :meth:`~repro.core.bucket_structure.BucketStructure.merge`, which
takes the same two coins and reports the losing samples to
``on_discard``; the walk is the same either way.

The callers keep the O(1) "does this arrival merge at all?" probe inline —
``n >= 3 and buckets[n - 3].start == index - 3`` — because most arrivals fail
it and a cross-module call would dominate the cost of the probe itself.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .bucket_structure import BucketStructure
from .tracking import CandidateObserver

__all__ = ["merge_cascade"]


def _run_start(buckets: List[BucketStructure], index: int) -> int:
    """Front of the merge run ending at the third-from-last bucket.

    The walk merges exactly where ``⌊log(b+2-a)⌋`` steps — where ``b+2-a`` is
    a power of two — and in a canonical decomposition those positions always
    form a stride-2 run (pinned exhaustively against the reference walk by
    the covering tests' ``TestMergeRunGeometry``).  The caller has already
    probed that the run is non-empty.
    """
    first = len(buckets) - 3
    while first >= 2:
        gap = index + 1 - buckets[first - 2].start
        if gap & (gap - 1):
            break
        first -= 2
    return first


def merge_cascade(
    buckets: List[BucketStructure],
    index: int,
    rng: Any,
    observer: Optional[CandidateObserver] = None,
) -> None:
    """Run the in-place merge cascade for arrival ``index``.

    Takes two coins per merge (``rng.getrandbits(2)``: R, then Q; a set bit
    keeps the left sample) in front-to-back cascade order.  With an
    ``observer`` each merge is :meth:`BucketStructure.merge`, which takes the
    same coins and reports the discarded samples, so the bucket list *and*
    the generator position do not depend on whether an observer is attached.
    """
    n = len(buckets)
    first = _run_start(buckets, index)
    merge_fast = BucketStructure.merge_fast
    getrandbits = rng.getrandbits
    read = first
    write = first
    while read <= n - 3:
        bucket = buckets[read]
        right = buckets[read + 1]
        if observer is None:
            coins = getrandbits(2)
            r_sample = bucket.r_sample if coins & 1 else right.r_sample
            q_sample = bucket.q_sample if coins & 2 else right.q_sample
            buckets[write] = merge_fast(bucket, right, r_sample, q_sample)
        else:
            buckets[write] = BucketStructure.merge(bucket, right, rng, observer)
        read += 2
        write += 1
    buckets[write] = buckets[n - 1]
    del buckets[write + 1 :]
