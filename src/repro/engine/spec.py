"""Declarative sampler specifications shared by every key of an engine.

A :class:`SamplerSpec` captures the three orthogonal choices of
:func:`~repro.core.facade.sliding_window_sampler` (window type, replacement,
algorithm family) plus the window parameter and sample size, as a frozen
value object.  The engine stores one spec and stamps out thousands of per-key
samplers from it; the spec also travels inside checkpoints so a restarted
engine rebuilds identically-shaped samplers before loading their states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..core.facade import sliding_window_sampler
from ..core.tracking import CandidateObserver
from ..exceptions import ConfigurationError
from ..rng import RngLike

__all__ = ["SamplerSpec"]


@dataclass(frozen=True)
class SamplerSpec:
    """A recipe for one per-key sliding-window sampler.

    Parameters mirror :func:`~repro.core.facade.sliding_window_sampler`,
    except ``kernel``: every per-key sampler runs the python batched path,
    the one that is bit-identical across executors.  ``options`` carries any
    extra keyword arguments for the concrete sampler (e.g.
    ``allow_partial``).  Structural validation happens eagerly so a
    misconfigured engine fails at construction, not at first ingest.
    """

    window: str = "sequence"
    k: int = 1
    n: Optional[int] = None
    t0: Optional[float] = None
    replacement: bool = True
    algorithm: str = "optimal"
    #: Normalised to a sorted tuple of ``(name, value)`` pairs so the frozen
    #: spec stays hashable (usable in sets / as dict keys); accepts a mapping.
    options: Any = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", str(self.window).lower())
        object.__setattr__(self, "algorithm", str(self.algorithm).lower())
        if self.window not in ("sequence", "timestamp"):
            raise ConfigurationError(
                f"window must be 'sequence' or 'timestamp', got {self.window!r}"
            )
        if self.k <= 0:
            raise ConfigurationError("sample size k must be positive")
        if self.window == "sequence":
            if self.n is None or self.n <= 0:
                raise ConfigurationError("sequence windows require a positive window size n")
        else:
            if self.t0 is None or self.t0 <= 0:
                raise ConfigurationError("timestamp windows require a positive window span t0")
        object.__setattr__(self, "options", tuple(sorted(dict(self.options).items())))
        if "kernel" in dict(self.options):
            raise ConfigurationError("engine samplers run the python kernel; 'kernel' is not an option")

    @property
    def is_timestamp(self) -> bool:
        return self.window == "timestamp"

    @property
    def window_param(self) -> float:
        """The window parameter matching the window type (``n`` or ``t0``)."""
        return self.n if self.window == "sequence" else self.t0  # type: ignore[return-value]

    def build(self, rng: RngLike = None, observer: Optional[CandidateObserver] = None):
        """Instantiate one sampler from this spec.

        Algorithm-name and algorithm/window compatibility errors surface here
        (raised by the facade as :class:`~repro.exceptions.ConfigurationError`).
        """
        return sliding_window_sampler(
            self.window,
            k=self.k,
            n=self.n,
            t0=self.t0,
            replacement=self.replacement,
            algorithm=self.algorithm,
            rng=rng,
            observer=observer,
            **dict(self.options),
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form for checkpoints."""
        return {
            "window": self.window,
            "k": self.k,
            "n": self.n,
            "t0": self.t0,
            "replacement": self.replacement,
            "algorithm": self.algorithm,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplerSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Specs written while engines had an apply-path switch carry a
        ``kernel`` key (and older ones a ``fast`` key).  Both are ignored:
        every engine spec runs the python path.  A numpy sampler's snapshot
        is a python snapshot plus ``kernel_rng``, which python samplers
        ignore, so such a checkpoint keeps its retained samples exactly and
        only later coins differ.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"spec snapshot must be a mapping, got {type(data).__name__}")
        return cls(
            window=data.get("window", "sequence"),
            k=int(data.get("k", 1)),
            n=data.get("n"),
            t0=data.get("t0"),
            replacement=bool(data.get("replacement", True)),
            algorithm=data.get("algorithm", "optimal"),
            options=dict(data.get("options", {})),
        )

    def describe(self) -> str:
        """A one-line human-readable summary (used by the CLI)."""
        window = f"n={self.n}" if self.window == "sequence" else f"t0={self.t0}"
        mode = "WR" if self.replacement else "WoR"
        return f"{self.window} window ({window}), k={self.k} {mode}, algorithm={self.algorithm}"
