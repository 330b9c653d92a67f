"""The ``Incr`` merge cascade (Lemma 3.4) as a compile-friendly module.

This is the innermost loop of :meth:`~repro.core.covering.WindowCoverage.
observe_batch`, factored out so it can optionally be compiled with
`mypyc <https://mypyc.readthedocs.io/>`_ — the module deliberately sticks to
the mypyc-supported subset (plain functions, a ``__slots__``-free final class,
no dynamic attribute tricks, fully annotated signatures) so that

.. code-block:: console

   $ python -m mypyc src/repro/core/_cascade.py

produces a drop-in extension.  Nothing in the repository builds or
requires the compiled form: the interpreted module is the reference.

Both entry points mutate the bucket list **in place** and consume randomness
exactly as the historical inline loop did, preserving the batched path's
bit-identity contract:

* :func:`merge_cascade` draws two ``rng_random() < 0.5`` coins per merge, in
  cascade order — byte-identical to the per-element ``Incr`` walk;
* :func:`merge_cascade_fast` takes its coins from a :class:`CoinSlab`
  (one ``randbytes(512)`` slab buys 512 fair coins, the high bit of each
  byte), matching the ``fast=True`` trajectory.

The callers keep the O(1) "does this arrival merge at all?" probe inline —
``n >= 3 and buckets[n - 3].start == index - 3`` — because most arrivals fail
it and a cross-module call would dominate the cost of the probe itself.
"""

from __future__ import annotations

from typing import Callable, List

from .bucket_structure import BucketStructure

__all__ = ["CoinSlab", "merge_cascade", "merge_cascade_fast"]


class CoinSlab:
    """Fair coins carved out of 512-byte ``randbytes`` slabs.

    Each byte of generator output is one coin (its high bit: ``byte < 128``),
    refilled lazily so the unconsumed tail of the final slab is simply
    discarded — exact, because the coins are i.i.d.  One instance lives for
    one ``observe_batch`` chunk so consecutive merge runs share a slab.
    """

    def __init__(self, randbytes: Callable[[int], bytes]) -> None:
        self._randbytes = randbytes
        self._slab = b""
        self._pos = 0

    def flip(self) -> bool:
        """One fair coin; ``True`` keeps the left bucket's sample."""
        if self._pos == len(self._slab):
            self._slab = self._randbytes(512)
            self._pos = 0
        coin = self._slab[self._pos] < 128
        self._pos += 1
        return coin


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
    rng_random: Callable[[], float],
) -> None:
    """Run the in-place merge cascade for arrival ``index`` (default coins).

    Draws two ``rng_random() < 0.5`` coins per merge in front-to-back cascade
    order, exactly as the per-element ``Incr`` walk does, so the resulting
    bucket list *and* generator position are bit-identical to the reference.
    """
    n = len(buckets)
    first = _run_start(buckets, index)
    merged = BucketStructure.merge_fast
    read = first
    write = first
    while read <= n - 3:
        bucket = buckets[read]
        right = buckets[read + 1]
        r_sample = bucket.r_sample if rng_random() < 0.5 else right.r_sample
        q_sample = bucket.q_sample if rng_random() < 0.5 else right.q_sample
        buckets[write] = merged(bucket, right, r_sample, q_sample)
        read += 2
        write += 1
    buckets[write] = buckets[n - 1]
    del buckets[write + 1 :]


def merge_cascade_fast(
    buckets: List[BucketStructure],
    index: int,
    coins: CoinSlab,
) -> None:
    """Run the in-place merge cascade for arrival ``index`` (slab coins).

    Identical structure to :func:`merge_cascade` but takes its fair coins
    from a chunk-lived :class:`CoinSlab`, matching the ``fast=True`` path's
    randomness trajectory byte for byte.
    """
    n = len(buckets)
    first = _run_start(buckets, index)
    merged = BucketStructure.merge_fast
    read = first
    write = first
    while read <= n - 3:
        bucket = buckets[read]
        right = buckets[read + 1]
        r_sample = bucket.r_sample if coins.flip() else right.r_sample
        q_sample = bucket.q_sample if coins.flip() else right.q_sample
        buckets[write] = merged(bucket, right, r_sample, q_sample)
        read += 2
        write += 1
    buckets[write] = buckets[n - 1]
    del buckets[write + 1 :]
