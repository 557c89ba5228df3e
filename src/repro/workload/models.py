"""DNN model profiles for placement-sensitive performance modelling.

Distributed training alternates compute (forward/backward) with gradient
synchronisation, so how much a job suffers from a spread-out placement
depends on its gradient size relative to its compute time.  This module
carries a small catalogue of representative model profiles (communication-
light CNNs through communication-heavy transformers) and helpers to assign
them to trace jobs, which the execution layer (:mod:`repro.execlayer`) turns
into slowdown factors and the F9 locality experiment sweeps.

Numbers are representative of published per-iteration measurements on V100
hardware; only their *ratios* matter to the experiments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .job import Job
from .trace import Trace


@dataclass(frozen=True)
class ModelProfile:
    """Per-iteration profile of one training workload.

    Attributes:
        name: Catalogue key.
        gradient_mb: Bytes exchanged per iteration per replica (MB).
        compute_ms: Forward+backward time per iteration on one reference
            GPU (V100), milliseconds.
        batch_memory_gb: Approximate per-GPU working set, used by the
            schema layer to sanity-check memory requests.
    """

    name: str
    gradient_mb: float
    compute_ms: float
    batch_memory_gb: float

    def __post_init__(self) -> None:
        if self.gradient_mb <= 0 or self.compute_ms <= 0:
            raise ConfigError(f"model profile {self.name} has non-positive fields")

    @property
    def comm_intensity(self) -> float:
        """MB of gradient per millisecond of compute — higher = more
        sensitive to placement."""
        return self.gradient_mb / self.compute_ms


MODEL_CATALOG: dict[str, ModelProfile] = {
    profile.name: profile
    for profile in [
        ModelProfile("resnet50", gradient_mb=98.0, compute_ms=160.0, batch_memory_gb=9.0),
        ModelProfile("vgg16", gradient_mb=528.0, compute_ms=210.0, batch_memory_gb=11.0),
        ModelProfile("bert-base", gradient_mb=418.0, compute_ms=185.0, batch_memory_gb=12.0),
        ModelProfile("bert-large", gradient_mb=1340.0, compute_ms=340.0, batch_memory_gb=15.0),
        ModelProfile("gpt2-medium", gradient_mb=1420.0, compute_ms=310.0, batch_memory_gb=16.0),
        ModelProfile("gpt2-xl", gradient_mb=6200.0, compute_ms=720.0, batch_memory_gb=28.0),
        ModelProfile("dlrm", gradient_mb=2200.0, compute_ms=95.0, batch_memory_gb=20.0),
        ModelProfile("pointnet", gradient_mb=14.0, compute_ms=60.0, batch_memory_gb=4.0),
    ]
}

#: GPU-demand classes, by ``bisect_left`` index: at most 2 GPUs, at most 8, wider.
_DEMAND_BOUNDS = (2, 8)
#: Default model mix per demand class: small jobs are mostly small CNNs /
#: notebooks, wide jobs skew to large transformers.
_DEFAULT_MIXES = (
    ("resnet50", "pointnet", "bert-base", "vgg16"),
    ("resnet50", "bert-base", "bert-large", "vgg16", "dlrm"),
    ("bert-large", "gpt2-medium", "gpt2-xl", "dlrm"),
)
_DEFAULT_PROFILES = ("resnet50", "bert-base", "bert-large")


def get_model_profile(name: str) -> ModelProfile:
    """Catalogue lookup with a helpful error on a miss."""
    try:
        return MODEL_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_CATALOG))
        raise ConfigError(f"unknown model {name!r}; known models: {known}") from None


def default_profile_for(num_gpus: int) -> ModelProfile:
    """Deterministic fallback profile for jobs without an assigned model."""
    return MODEL_CATALOG[_DEFAULT_PROFILES[bisect_left(_DEMAND_BOUNDS, num_gpus)]]


def assign_models(trace: Trace, seed: int | np.random.Generator = 0) -> Trace:
    """Assign a model name to every job in *trace* (in place; returns it).

    Jobs that already carry a ``model_name`` are left untouched so traces
    loaded from disk replay identically.  The others pick, in trace order,
    from one ``integers`` draw with per-job bounds, which consumes the stream
    exactly as a per-job ``rng.choice(mix)`` does (same 32-bit Lemire step).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    jobs = [job for job in trace if not job.model_name]
    mixes = [_DEFAULT_MIXES[bisect_left(_DEMAND_BOUNDS, job.num_gpus)] for job in jobs]
    picks = rng.integers(0, [len(mix) for mix in mixes]).tolist()  # no jobs: no draw
    for job, mix, pick in zip(jobs, mixes, picks):
        job.model_name = mix[pick]
    return trace


def profile_of(job: Job) -> ModelProfile:
    """Resolve a job's model profile (catalogue entry or size-based default)."""
    if job.model_name:
        return get_model_profile(job.model_name)
    return default_profile_for(job.num_gpus)
