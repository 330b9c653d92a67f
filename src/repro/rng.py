"""Deterministic random-number helpers.

Two kinds of generator live here:

* **``random.Random``** (Mersenne Twister) feeds the stream generators, the
  experiment harness and the baselines, which are the reference
  implementations.  :func:`ensure_rng` normalises the ``rng``/``seed``
  arguments they accept and :func:`spawn` derives independent children.
* **:class:`LaneRng`** feeds the four optimal samplers.  It is splitmix64
  (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number Generators*,
  OOPSLA'14) used as a counter-based generator: draw ``c`` of stream ``s``
  of sampler seed ``x`` is ``mix64(key(x, s) + c * GAMMA)``.  A stream's
  whole state is therefore one draw counter plus a bit cursor for its fair
  coins, so a sampler stores its seed once and two small ints per stream —
  against ~2.5 KB of Mersenne-Twister state per stream — and a key's birth
  pays no generator seeding.

:func:`sampler_seed` turns a sampler's public ``rng`` argument into the one
64-bit seed its streams derive from; :func:`bernoulli` draws a biased coin,
the primitive used by the implicit event generation of §3.3.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
from typing import Any, List, Sequence, Union

__all__ = [
    "RngLike",
    "LaneRng",
    "QUERY_STREAM",
    "KERNEL_STREAM",
    "ensure_rng",
    "sampler_seed",
    "stream_seed",
    "spawn",
    "bernoulli",
    "uniform_index",
]

#: Anything accepted as a source of randomness by public constructors.
RngLike = Union[None, int, random.Random]

# A fixed, arbitrary large odd constant used to decorrelate spawned child
# generators from their parent while remaining fully deterministic.
_SPAWN_MIX = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1
_SPAN64 = 1 << 64
#: splitmix64's Weyl increment (the golden ratio in 64 bits) and finaliser.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_POW_M53 = 2.0**-53

#: Stream id of a sampler's query generator (lanes use ``0 .. k-1``).
QUERY_STREAM = -1
#: Stream id the numpy kernels' generator is seeded from.
KERNEL_STREAM = -2


def _mix64(z: int) -> int:
    """splitmix64's output finaliser (a bijection of 64-bit words)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def ensure_rng(rng: Any = None) -> Any:
    """Return a generator for ``rng``.

    ``None`` yields a freshly seeded ``random.Random`` (non-deterministic),
    an ``int`` is treated as its seed, and an existing ``random.Random`` or
    :class:`LaneRng` is returned unchanged so that callers can share a
    generator between components when they explicitly want to.
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, (random.Random, LaneRng)):
        return rng
    if isinstance(rng, bool):  # bool is an int subclass; almost surely a bug.
        raise TypeError("rng must be None, an int seed or a random.Random")
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(f"rng must be None, an int seed or a random.Random, got {type(rng)!r}")


def sampler_seed(rng: RngLike = None) -> int:
    """The 64-bit seed a sampler's :class:`LaneRng` streams derive from.

    An ``int`` is the seed itself (folded into 64 bits when it does not fit),
    so key-derived seeds map to streams directly; a ``random.Random`` gives
    up one 64-bit draw, and ``None`` takes 64 bits from the OS (a
    non-deterministic sampler).
    """
    if rng is None:
        return int.from_bytes(os.urandom(8), "little")
    if isinstance(rng, random.Random):
        return rng.getrandbits(64)
    if isinstance(rng, bool):
        raise TypeError("rng must be None, an int seed or a random.Random")
    if isinstance(rng, int):
        if 0 <= rng <= _MASK64:
            return rng
        data = rng.to_bytes((rng.bit_length() + 8) // 8, "little", signed=True)
        return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
    raise TypeError(f"rng must be None, an int seed or a random.Random, got {type(rng)!r}")


@functools.lru_cache(maxsize=None)
def _stream_salt(stream: int) -> int:
    return _mix64(((stream & _MASK64) + 1) * _GAMMA & _MASK64)


def stream_seed(seed: int, stream: int) -> int:
    """The 64-bit starting point of stream ``stream`` of sampler seed ``seed``.

    Streams of one seed start at unrelated points of the splitmix64 sequence,
    so they overlap only if a stream draws ~2^64 times.
    """
    return _mix64((seed ^ _stream_salt(stream)) & _MASK64)


class LaneRng:
    """One compact counter-based random stream (splitmix64).

    State: the stream's starting point (derived from the sampler seed and the
    stream id), a draw counter, and a cursor into the current 64-bit word of
    fair coins.  It offers the subset of the ``random.Random`` interface the
    samplers call — :meth:`random`, :meth:`randrange`, :meth:`sample` and
    :meth:`getrandbits` — so the structures that take a generator accept
    either.  :meth:`getrandbits` is the coin stream: it hands out the bits of
    64-bit draws in order, 64 coins per draw, and ``getrandbits(a)`` then
    ``getrandbits(b)`` yields exactly the bits of one ``getrandbits(a + b)``.
    Every other draw discards the rest of the current coin word, which keeps
    the word recomputable from the counter alone.
    """

    __slots__ = ("_key", "_counter", "_word", "_cursor")

    def __init__(self, seed: int, stream: int) -> None:
        self._key = stream_seed(seed, stream)
        self._counter = 0
        self._word = 0
        self._cursor = 64

    # -- snapshots -----------------------------------------------------------

    def get_state(self) -> List[int]:
        """``[draw counter, coin cursor]`` — the whole stream position."""
        return [self._counter, self._cursor]

    def set_state(self, seed: int, stream: int, state: Sequence[int]) -> None:
        """Move to a :meth:`get_state` position of stream ``(seed, stream)``."""
        counter, cursor = (int(part) for part in state)
        if counter < 0 or not 0 <= cursor <= 64 or (counter == 0 and cursor != 64):
            raise ValueError(f"invalid LaneRng position {list(state)!r}")
        self._key = stream_seed(seed, stream)
        self._counter = counter
        self._cursor = cursor
        self._word = _mix64((self._key + counter * _GAMMA) & _MASK64) if cursor < 64 else 0

    # -- draws ---------------------------------------------------------------

    def next64(self) -> int:
        """The next 64-bit draw."""
        counter = self._counter + 1
        self._counter = counter
        self._cursor = 64
        z = (self._key + counter * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """A float in ``[0, 1)`` on the 2^-53 grid."""
        # next64 inlined: a method call is a fifth of a draw's cost.
        counter = self._counter + 1
        self._counter = counter
        self._cursor = 64
        z = (self._key + counter * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * _TWO_POW_M53

    def randrange(self, n: int) -> int:
        """A uniform integer in ``[0, n)`` for ``n <= 2^64`` (exact:
        rejection, not modulo bias)."""
        n = int(n)
        if not 0 < n <= _SPAN64:
            raise ValueError(f"randrange({n}) needs 0 < n <= 2^64")
        limit = _SPAN64 - _SPAN64 % n
        while True:
            draw = self.next64()
            if draw < limit:
                return draw % n

    def sample(self, population: Sequence[Any], k: int) -> List[Any]:
        """A uniform ``k``-subset of ``population``, in draw order."""
        pool = list(population)
        size = len(pool)
        if not 0 <= k <= size:
            raise ValueError("sample larger than population or is negative")
        randrange = self.randrange
        for position in range(k):
            other = position + randrange(size - position)
            pool[position], pool[other] = pool[other], pool[position]
        return pool[:k]

    def getrandbits(self, n: int) -> int:
        """The next ``n`` fair coins of the bit stream, first coin lowest."""
        cursor = self._cursor
        end = cursor + n
        if end <= 64:
            self._cursor = end
            return (self._word >> cursor) & ((1 << n) - 1)
        if n == 64 and cursor == 64:
            return self.next64()
        bits = self._word >> cursor
        have = 64 - cursor
        while True:
            word = self.next64()
            need = n - have
            if need <= 64:
                self._word = word
                self._cursor = need
                return bits | ((word & ((1 << need) - 1)) << have)
            bits |= word << have
            have += 64

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneRng(counter={self._counter}, cursor={self._cursor})"


def spawn(parent: random.Random, stream_id: int) -> random.Random:
    """Derive an independent child generator from ``parent``.

    The child is seeded from the parent's stream, mixed with ``stream_id`` so
    that different ids give different, reproducible children.  Used to give
    each of the ``k`` independent samplers of a k-sample its own source.
    """
    base = parent.getrandbits(64)
    return random.Random((base ^ (stream_id * 2 + 1) * _SPAWN_MIX) & (2**64 - 1))


def bernoulli(rng: Any, probability: float) -> bool:
    """Return ``True`` with the given probability.

    Probabilities are clamped to ``[0, 1]``; values outside that range by more
    than a floating-point hair indicate a logic error and raise ``ValueError``.
    """
    if probability <= 0.0:
        if probability < -1e-9:
            raise ValueError(f"negative probability: {probability}")
        return False
    if probability >= 1.0:
        if probability > 1.0 + 1e-9:
            raise ValueError(f"probability larger than one: {probability}")
        return True
    return rng.random() < probability


def uniform_index(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in the inclusive range ``[lo, hi]``."""
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return rng.randint(lo, hi)
