"""One-call factory for every sampler in the library.

``sliding_window_sampler`` builds the right sampler from three orthogonal
choices — window type, replacement, algorithm family — so that applications,
benchmarks and the CLI can switch between the paper's algorithms and the
baselines with a single string.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from ..exceptions import ConfigurationError
from ..rng import RngLike
from .base import WindowSampler
from .sequence import SequenceSamplerWOR, SequenceSamplerWR
from .timestamp import TimestampSamplerWR
from .timestamp_wor import TimestampSamplerWOR
from .tracking import CandidateObserver

__all__ = ["sliding_window_sampler", "ALGORITHMS", "algorithm_catalog"]


def _optimal_sampler_class(window: str, replacement: bool) -> Type[WindowSampler]:
    table: Dict[tuple, Type[WindowSampler]] = {
        ("sequence", True): SequenceSamplerWR,
        ("sequence", False): SequenceSamplerWOR,
        ("timestamp", True): TimestampSamplerWR,
        ("timestamp", False): TimestampSamplerWOR,
    }
    return table[(window, replacement)]


def _baseline_classes() -> Dict[str, Type[WindowSampler]]:
    # Imported lazily to keep ``repro.core`` free of a hard dependency on the
    # baselines package (and to avoid circular imports).
    from ..baselines.chain import ChainSamplerWR
    from ..baselines.oversampling import OversamplingSamplerSeqWOR, OversamplingSamplerTsWOR
    from ..baselines.priority import PrioritySamplerWR
    from ..baselines.priority_wor import PrioritySamplerWOR
    from ..baselines.vanilla_reservoir import WholeStreamReservoir
    from ..baselines.window_buffer import BufferSamplerSeq, BufferSamplerTs

    return {
        "chain": ChainSamplerWR,
        "priority": PrioritySamplerWR,
        "priority-wor": PrioritySamplerWOR,
        "oversampling-seq": OversamplingSamplerSeqWOR,
        "oversampling-ts": OversamplingSamplerTsWOR,
        "buffer-seq": BufferSamplerSeq,
        "buffer-ts": BufferSamplerTs,
        "whole-stream": WholeStreamReservoir,
    }


#: Public names of the paper's algorithms accepted by :func:`sliding_window_sampler`.
ALGORITHMS = ("optimal", "chain", "priority", "priority-wor", "oversampling", "buffer", "whole-stream")


def algorithm_catalog() -> Dict[str, str]:
    """Mapping of algorithm name -> one-line description (for the CLI)."""
    return {
        "optimal": "Braverman-Ostrovsky-Zaniolo optimal sampler (this paper)",
        "chain": "Chain sampling, Babcock-Datar-Motwani (sequence windows, WR)",
        "priority": "Priority sampling, Babcock-Datar-Motwani (timestamp windows, WR)",
        "priority-wor": "k-highest-priority sampling, Gemulla-Lehner (timestamp windows, WoR)",
        "oversampling": "Bernoulli over-sampling baseline (WoR, randomized memory, may fail)",
        "buffer": "Exact window buffer (O(n) memory ground truth)",
        "whole-stream": "Plain whole-stream reservoir (ignores expiry; intentionally wrong)",
    }


def sliding_window_sampler(
    window: str,
    *,
    k: int = 1,
    n: Optional[int] = None,
    t0: Optional[float] = None,
    replacement: bool = True,
    algorithm: str = "optimal",
    rng: RngLike = None,
    observer: Optional[CandidateObserver] = None,
    kernel: str = "python",
    **kwargs: Any,
) -> WindowSampler:
    """Create a sliding-window sampler.

    Parameters
    ----------
    window:
        ``"sequence"`` (fixed-size window of the last ``n`` elements) or
        ``"timestamp"`` (window of the last ``t0`` time units).
    k:
        Number of samples to maintain.
    n, t0:
        The window parameter matching the window type.
    replacement:
        ``True`` for k independent samples, ``False`` for a uniform k-subset.
    algorithm:
        ``"optimal"`` (the paper's algorithms) or one of the baseline names in
        :data:`ALGORITHMS`.
    rng:
        Seed or ``random.Random`` for reproducibility.  The optimal samplers
        derive every random stream from one 64-bit seed (an ``int`` seed
        itself, or one draw of the generator); see :class:`repro.rng.LaneRng`.
    observer:
        Optional :class:`~repro.core.tracking.CandidateObserver` for the
        Section-5 applications.
    kernel:
        Batched-ingest kernel for the optimal samplers: ``"python"`` (the
        default bit-identity reference: batched ingest draws exactly like
        per-element ingest) or ``"numpy"`` (the vectorized kernels of
        :mod:`repro.core.kernels`: distributionally exact, not
        bit-identical; requires the optional ``[fast]`` extra and fails
        loudly without it).  Baselines support only ``"python"``.
    kwargs:
        Extra keyword arguments passed to the concrete sampler (for example
        ``allow_partial`` or a baseline's over-sampling factor).
    """
    window = window.lower()
    if window not in ("sequence", "timestamp"):
        raise ConfigurationError(f"window must be 'sequence' or 'timestamp', got {window!r}")
    if window == "sequence":
        if n is None:
            raise ConfigurationError("sequence windows require the window size n")
    else:
        if t0 is None:
            raise ConfigurationError("timestamp windows require the window span t0")

    algorithm = algorithm.lower()
    kernel = str(kernel).lower()
    if algorithm == "optimal":
        sampler_class = _optimal_sampler_class(window, replacement)
        if window == "sequence":
            return sampler_class(n=n, k=k, rng=rng, observer=observer, kernel=kernel, **kwargs)
        return sampler_class(t0=t0, k=k, rng=rng, observer=observer, kernel=kernel, **kwargs)

    if kernel != "python":
        raise ConfigurationError(
            f"kernel={kernel!r} is only supported by the optimal samplers,"
            f" not by algorithm={algorithm!r}"
        )
    baselines = _baseline_classes()
    if algorithm == "chain":
        if window != "sequence" or not replacement:
            raise ConfigurationError("chain sampling supports sequence windows with replacement only")
        return baselines["chain"](n=n, k=k, rng=rng, observer=observer, **kwargs)
    if algorithm == "priority":
        if window != "timestamp" or not replacement:
            raise ConfigurationError("priority sampling supports timestamp windows with replacement only")
        return baselines["priority"](t0=t0, k=k, rng=rng, observer=observer, **kwargs)
    if algorithm == "priority-wor":
        if window != "timestamp" or replacement:
            raise ConfigurationError("priority-wor supports timestamp windows without replacement only")
        return baselines["priority-wor"](t0=t0, k=k, rng=rng, observer=observer, **kwargs)
    if algorithm == "oversampling":
        if replacement:
            raise ConfigurationError("the over-sampling baseline is a without-replacement scheme")
        if window == "sequence":
            return baselines["oversampling-seq"](n=n, k=k, rng=rng, observer=observer, **kwargs)
        return baselines["oversampling-ts"](t0=t0, k=k, rng=rng, observer=observer, **kwargs)
    if algorithm == "buffer":
        if window == "sequence":
            return baselines["buffer-seq"](n=n, k=k, replacement=replacement, rng=rng, **kwargs)
        return baselines["buffer-ts"](t0=t0, k=k, replacement=replacement, rng=rng, **kwargs)
    if algorithm == "whole-stream":
        if window != "sequence":
            raise ConfigurationError("the whole-stream reservoir baseline is exposed as a sequence sampler")
        return baselines["whole-stream"](n=n, k=k, replacement=replacement, rng=rng, **kwargs)
    raise ConfigurationError(
        f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
    )
