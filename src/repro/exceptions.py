"""Exception hierarchy for the sliding-window sampling library.

All library-specific errors derive from :class:`SWSampleError` so that callers
can catch every failure mode of the library with a single ``except`` clause
while still being able to distinguish the individual conditions.
"""

from __future__ import annotations

__all__ = [
    "SWSampleError",
    "EmptyWindowError",
    "InsufficientSampleError",
    "StreamOrderError",
    "ConfigurationError",
    "SamplingFailureError",
    "CheckpointError",
    "ExecutorError",
    "WorkerFailure",
    "ShardRecovering",
    "TransportError",
]


class SWSampleError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class EmptyWindowError(SWSampleError):
    """Raised when a sample is requested but the current window is empty.

    For sequence-based windows this only happens before the first element
    arrives.  For timestamp-based windows it also happens when every stored
    element has expired (no element arrived during the last ``t0`` time
    units).
    """


class InsufficientSampleError(SWSampleError):
    """Raised when a k-sample without replacement is requested but the window
    currently holds fewer than ``k`` elements and the caller asked for strict
    behaviour (``allow_partial=False``)."""


class StreamOrderError(SWSampleError):
    """Raised when elements are pushed with decreasing timestamps or when the
    logical clock is moved backwards.

    The sliding-window model assumes ``T(p_i) <= T(p_{i+1})`` (paper, §3.1);
    violating this would silently corrupt every expiry decision, so the
    library refuses the operation instead.
    """


class ConfigurationError(SWSampleError):
    """Raised for invalid constructor arguments (``k <= 0``, ``n <= 0``,
    ``t0 <= 0``, unknown algorithm names, ...)."""


class SamplingFailureError(SWSampleError):
    """Raised by *baseline* algorithms whose success is only probabilistic.

    The over-sampling baseline, for example, may find fewer than ``k``
    non-expired candidates; the paper cites exactly this failure mode as
    disadvantage (b) of over-sampling.  The optimal algorithms of the paper
    never raise this error.
    """


class CheckpointError(ConfigurationError):
    """Raised when a checkpoint on disk cannot be trusted: a missing or
    corrupt shard segment, a digest mismatch, a malformed manifest, or a
    version this build does not understand.

    Subclasses :class:`ConfigurationError` so callers that treated every
    bad-checkpoint condition as a configuration problem keep working, while
    recovery tooling can distinguish "the file is damaged" from "the
    arguments are wrong".
    """


class TransportError(SWSampleError, ValueError):
    """Raised when a columnar transport payload cannot be decoded: a bad
    magic, an unknown column tag, a column that does not hold the header's
    record count, trailing bytes, or a truncated/corrupt buffer.

    Carries enough context (byte offset, column name) to diagnose a corrupt
    write-ahead-log record or a torn queue message.  Subclasses
    :class:`ValueError` because the codec historically raised bare
    ``ValueError`` for bad magics — existing ``except ValueError`` handlers
    keep working.
    """


class ExecutorError(SWSampleError):
    """Raised when the process engine cannot make progress: a shard worker
    failed (re-raised at the next ingest/flush/query), or an operation was
    attempted on a closed engine."""


class WorkerFailure(ExecutorError):
    """Raised when a shard worker has failed and its shards' state can no
    longer be trusted: a worker raised while applying records, or a worker
    process died (crash, OOM kill, SIGKILL) taking its resident shards with
    it.

    The failure is sticky — the engine refuses all further ingest and
    queries rather than serving from a fleet that may have lost arrivals.
    Recover by loading the last checkpoint into a fresh engine, or enable
    supervision (``ProcessEngine(supervise=True, wal_dir=...)``) so worker
    death is repaired automatically; supervision only degrades to this
    sticky failure once its :class:`RestartPolicy` budget is exhausted.
    """


class ShardRecovering(ExecutorError):
    """Raised while a supervised worker is being restarted: the operation
    touches shards whose owner died and is mid-recovery (checkpoint restore
    plus WAL replay), so answering now could be wrong or lose arrivals.

    Unlike :class:`WorkerFailure` this is *retryable* — the fleet is healing
    itself and the same call will succeed once recovery drains.  ``shards``
    names the affected shard indexes and ``retry_after`` is the engine's
    estimate (seconds) of when to try again; the serve layer maps this to
    HTTP 503 with a ``Retry-After`` header.
    """

    def __init__(self, message: str, *, shards: tuple = (), retry_after: float = 1.0):
        super().__init__(message)
        self.shards = tuple(shards)
        self.retry_after = float(retry_after)

    def __reduce__(self):
        # Keyword-only attributes need explicit pickle support so the error
        # survives multiprocessing reply queues intact.
        return (_rebuild_shard_recovering, (self.args[0] if self.args else "", self.shards, self.retry_after))


def _rebuild_shard_recovering(message, shards, retry_after):
    return ShardRecovering(message, shards=shards, retry_after=retry_after)
