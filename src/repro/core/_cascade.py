"""The ``Incr`` merge cascade (Lemma 3.4) as a compile-friendly module.

This is the innermost loop of :meth:`~repro.core.covering.WindowCoverage.
observe_batch`, factored out so it can optionally be compiled with
`mypyc <https://mypyc.readthedocs.io/>`_ — the module deliberately sticks to
the mypyc-supported subset (plain functions, no dynamic attribute tricks,
fully annotated signatures) so that

.. code-block:: console

   $ python -m mypyc src/repro/core/_cascade.py

produces a drop-in extension.  Nothing in the repository builds or
requires the compiled form: the interpreted module is the reference.

:func:`merge_cascade` mutates the bucket list **in place** and takes two
fair coins per merge, ``getrandbits(2)``, in front-to-back cascade order —
exactly the coins :meth:`~repro.core.bucket_structure.BucketStructure.merge`
takes in the per-element ``Incr`` walk, which keeps the batched path
bit-identical to it.  On a :class:`~repro.rng.LaneRng` the coins are bits of
its 64-bit draws, so one draw pays for 32 merges.

The callers keep the O(1) "does this arrival merge at all?" probe inline —
``n >= 3 and buckets[n - 3].start == index - 3`` — because most arrivals fail
it and a cross-module call would dominate the cost of the probe itself.
"""

from __future__ import annotations

from typing import Callable, List

from .bucket_structure import BucketStructure

__all__ = ["merge_cascade"]


def _run_start(buckets: List[BucketStructure], index: int) -> int:
    """Front of the merge run ending at the third-from-last bucket.

    The walk merges exactly where ``⌊log(b+2-a)⌋`` steps — where ``b+2-a`` is
    a power of two — and in a canonical decomposition those positions always
    form a stride-2 run (pinned exhaustively against the reference walk in
    ``tests/test_covering_decomposition.py``).  The caller has already probed
    that the run is non-empty.
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
    getrandbits: Callable[[int], int],
) -> None:
    """Run the in-place merge cascade for arrival ``index``.

    Takes two coins per merge (``getrandbits(2)``: R, then Q; a set bit keeps
    the left sample) in front-to-back cascade order, exactly as the
    per-element ``Incr`` walk does, so the resulting bucket list *and*
    generator position are bit-identical to the reference.
    """
    n = len(buckets)
    first = _run_start(buckets, index)
    merged = BucketStructure.merge_fast
    read = first
    write = first
    while read <= n - 3:
        bucket = buckets[read]
        right = buckets[read + 1]
        coins = getrandbits(2)
        r_sample = bucket.r_sample if coins & 1 else right.r_sample
        q_sample = bucket.q_sample if coins & 2 else right.q_sample
        buckets[write] = merged(bucket, right, r_sample, q_sample)
        read += 2
        write += 1
    buckets[write] = buckets[n - 1]
    del buckets[write + 1 :]
