"""Pipeline-shaped workflow traces: multi-stage jobs with dependencies.

Campus ML work is increasingly *pipelines*, not single jobs: preprocess →
train → evaluate chains, hyper-parameter fan-outs, sharded-ETL fan-ins,
and RAG refresh diamonds (ingest → embed shards → index → evaluate).  This
module synthesizes such traces as plain :class:`~repro.workload.trace.Trace`
objects whose jobs carry ``workflow_id`` / ``depends_on`` / ``artifact_bytes``
— every stage is submitted at the workflow's arrival time and the
dependency-aware control plane holds downstream stages until their
upstreams finish.

Four templates cover the shapes that matter for transfer-aware placement:

* ``chain`` — a strict sequence (each artifact hops once);
* ``fan-out`` — one producer, many consumers of the same artifact;
* ``fan-in`` — many shard producers, one aggregator fetching all of them;
* ``rag`` — the diamond: ingest → parallel embed shards → index → eval.

All randomness flows through one :class:`numpy.random.Generator`, so a
seed fully determines the trace, matching :mod:`repro.workload.synth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..config import require_fraction, require_positive
from ..errors import ConfigError
from .job import Job, JobTier, ResourceRequest
from .synth import Categorical, DurationModel
from .trace import Trace

#: Template name → builder of ``[(stage_name, [upstream indices]), ...]``.
#: Builders take the sampled branch width; fixed-shape templates ignore it.
TEMPLATE_NAMES = ("chain", "fan-out", "fan-in", "rag")


def _chain_stages(length: int) -> list[tuple[str, list[int]]]:
    return [
        (f"stage-{index:02d}", [index - 1] if index else [])
        for index in range(length)
    ]


def _fan_out_stages(width: int) -> list[tuple[str, list[int]]]:
    stages: list[tuple[str, list[int]]] = [("produce", [])]
    stages.extend((f"branch-{index:02d}", [0]) for index in range(width))
    return stages


def _fan_in_stages(width: int) -> list[tuple[str, list[int]]]:
    stages: list[tuple[str, list[int]]] = [
        (f"shard-{index:02d}", []) for index in range(width)
    ]
    stages.append(("aggregate", list(range(width))))
    return stages


def _rag_stages(width: int) -> list[tuple[str, list[int]]]:
    stages: list[tuple[str, list[int]]] = [("ingest", [])]
    stages.extend((f"embed-{index:02d}", [0]) for index in range(width))
    stages.append(("index", list(range(1, width + 1))))
    stages.append(("evaluate", [width + 1]))
    return stages


_TEMPLATES = {
    "chain": _chain_stages,
    "fan-out": _fan_out_stages,
    "fan-in": _fan_in_stages,
    "rag": _rag_stages,
}


@dataclass(frozen=True)
class PipelineTraceConfig:
    """Parameterisation of a synthetic pipeline (workflow-DAG) trace."""

    days: float = 1.0
    workflows_per_day: float = 40.0
    #: Probability of each template per workflow; must sum to 1.
    template_mix: dict[str, float] = field(
        default_factory=lambda: {
            "chain": 0.35,
            "fan-out": 0.25,
            "fan-in": 0.25,
            "rag": 0.15,
        }
    )
    #: Chain length and fan width ranges (inclusive), sampled uniformly.
    chain_length: tuple[int, int] = (3, 5)
    fan_width: tuple[int, int] = (2, 4)

    #: Per-stage GPU demand distribution (stages are small relative to the
    #: monolithic training jobs around them).
    stage_gpu_pmf: dict[int, float] = field(
        default_factory=lambda: {1: 0.50, 2: 0.25, 4: 0.15, 8: 0.10}
    )
    stage_median_minutes: float = 25.0
    stage_sigma: float = 0.9
    min_stage_seconds: float = 60.0
    max_stage_seconds: float = 6.0 * 3600.0

    #: Artifact size (log-normal, GB) written by every stage that feeds a
    #: downstream stage — the quantity transfer-aware placement moves.
    artifact_gb_median: float = 8.0
    artifact_gb_sigma: float = 1.2

    guaranteed_fraction: float = 0.6
    num_labs: int = 4
    gpus_per_node_cap: int = 8
    name: str = "pipelines"
    #: Job/workflow id prefix; sweeps use it to keep merged ids disjoint
    #: from the base trace's ``job-*`` namespace.
    id_prefix: str = "wf"

    def __post_init__(self) -> None:
        require_positive("days", self.days)
        require_positive("workflows_per_day", self.workflows_per_day)
        if not self.template_mix:
            raise ConfigError("template_mix must be non-empty")
        unknown = set(self.template_mix) - set(TEMPLATE_NAMES)
        if unknown:
            raise ConfigError(
                f"unknown workflow templates {sorted(unknown)}; "
                f"known: {list(TEMPLATE_NAMES)}"
            )
        if any(p < 0 for p in self.template_mix.values()):
            raise ConfigError("template_mix probabilities must be non-negative")
        total = sum(self.template_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"template_mix must sum to 1, sums to {total}")
        for label, (low, high) in (
            ("chain_length", self.chain_length),
            ("fan_width", self.fan_width),
        ):
            if low < 1 or high < low:
                raise ConfigError(f"{label} must satisfy 1 <= low <= high")
        if not self.stage_gpu_pmf or any(d <= 0 for d in self.stage_gpu_pmf):
            raise ConfigError("stage_gpu_pmf demands must be positive")
        if abs(sum(self.stage_gpu_pmf.values()) - 1.0) > 1e-6:
            raise ConfigError("stage_gpu_pmf must sum to 1")
        require_positive("stage_median_minutes", self.stage_median_minutes)
        require_positive("stage_sigma", self.stage_sigma)
        if self.max_stage_seconds <= self.min_stage_seconds:
            raise ConfigError("max_stage_seconds must exceed min_stage_seconds")
        require_positive("artifact_gb_median", self.artifact_gb_median)
        require_positive("artifact_gb_sigma", self.artifact_gb_sigma)
        require_fraction("guaranteed_fraction", self.guaranteed_fraction)
        require_positive("num_labs", self.num_labs)
        require_positive("gpus_per_node_cap", self.gpus_per_node_cap)
        if not self.id_prefix:
            raise ConfigError("id_prefix must be non-empty")


class PipelineSynthesizer:
    """Generates a workflow-DAG :class:`Trace` from a config and a seed.

    >>> trace = PipelineSynthesizer(PipelineTraceConfig(days=0.5), seed=0).generate()
    >>> any(job.depends_on for job in trace)
    True
    """

    def __init__(
        self, config: PipelineTraceConfig, seed: int | np.random.Generator = 0
    ) -> None:
        self.config = config
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self._templates = Categorical(config.template_mix)
        self._stage_gpus = Categorical(config.stage_gpu_pmf)
        self._stage_duration = DurationModel(  # one demand class: every stage alike
            {1: config.stage_median_minutes}, config.stage_sigma,
            config.min_stage_seconds, config.max_stage_seconds,
        )
        self._log_artifact_gb = np.log(config.artifact_gb_median)

    def _sample_arrivals(self) -> np.ndarray:
        horizon = self.config.days * 86400.0
        count = int(self.rng.poisson(self.config.workflows_per_day * self.config.days))
        return np.sort(self.rng.uniform(0.0, horizon, size=count))

    def _sample_artifact_bytes(self) -> float:
        gb = float(self.rng.lognormal(self._log_artifact_gb, self.config.artifact_gb_sigma))
        return gb * 1e9

    def _stage_request(self) -> ResourceRequest:
        cfg = self.config
        num_gpus = self._stage_gpus.draw(self.rng)
        return ResourceRequest(
            num_gpus=num_gpus,
            gpus_per_node=min(num_gpus, cfg.gpus_per_node_cap)
            if num_gpus > cfg.gpus_per_node_cap
            else None,
        )

    def _build_workflow(self, index: int, submit_time: float) -> list[Job]:
        cfg = self.config
        template = self._templates.draw(self.rng)
        if template == "chain":
            width = int(self.rng.integers(cfg.chain_length[0], cfg.chain_length[1] + 1))
        else:
            width = int(self.rng.integers(cfg.fan_width[0], cfg.fan_width[1] + 1))
        stages = _TEMPLATES[template](width)
        workflow_id = f"{cfg.id_prefix}-{index:05d}"
        lab_index = int(self.rng.integers(cfg.num_labs))
        tier = (
            JobTier.GUARANTEED
            if self.rng.random() < cfg.guaranteed_fraction
            else JobTier.OPPORTUNISTIC
        )
        has_dependents = {
            upstream for _, upstreams in stages for upstream in upstreams
        }
        jobs: list[Job] = []
        for stage_index, (stage_name, upstreams) in enumerate(stages):
            jobs.append(
                Job(
                    job_id=f"{workflow_id}-s{stage_index:02d}",
                    user_id=f"user-{lab_index:02d}-wf",
                    lab_id=f"lab-{lab_index:02d}",
                    request=self._stage_request(),
                    submit_time=float(submit_time),
                    duration=self._stage_duration.sample(1, self.rng),
                    tier=tier,
                    workflow_id=workflow_id,
                    depends_on=tuple(
                        f"{workflow_id}-s{upstream:02d}" for upstream in upstreams
                    ),
                    artifact_bytes=(
                        self._sample_artifact_bytes()
                        if stage_index in has_dependents
                        else 0.0
                    ),
                    name=f"{template}:{stage_name}",
                )
            )
        return jobs

    def generate(self) -> Trace:
        cfg = self.config
        jobs: list[Job] = []
        for index, submit_time in enumerate(self._sample_arrivals()):
            jobs.extend(self._build_workflow(index, submit_time))
        return Trace(
            jobs,
            name=cfg.name,
            metadata={"config": cfg.name, "days": cfg.days, "generator": "pipelines"},
        )


def pipeline_trace(
    days: float = 1.0,
    workflows_per_day: float = 40.0,
    seed: int = 0,
    **overrides: object,
) -> Trace:
    """One-call pipeline-trace synthesis."""
    config = replace(
        PipelineTraceConfig(days=days, workflows_per_day=workflows_per_day),
        **overrides,  # type: ignore[arg-type]
    )
    return PipelineSynthesizer(config, seed=seed).generate()
