"""Workload model: jobs, traces, synthesis, and DNN model profiles."""

from .adapters import load_public_trace
from .fleet import FleetTraceSynthesizer, fleet_trace
from .job import (
    FailureCategory,
    FailurePlan,
    Job,
    JobTier,
    LifecycleState,
    ResourceRequest,
)
from .models import (
    MODEL_CATALOG,
    ModelProfile,
    assign_models,
    default_profile_for,
    get_model_profile,
    profile_of,
)
from .pipelines import (
    PipelineSynthesizer,
    PipelineTraceConfig,
    pipeline_trace,
)
from .synth import (
    CAMPUS_DIURNAL,
    calibrate_jobs_per_day,
    deadline_cycle,
    expected_gpu_seconds_per_job,
    with_load,
    DurationModel,
    SyntheticTraceConfig,
    TraceSynthesizer,
    helios_like,
    philly_like,
    synthesize,
    tacc_campus,
)
from .trace import Trace

__all__ = [
    "CAMPUS_DIURNAL",
    "MODEL_CATALOG",
    "DurationModel",
    "FailureCategory",
    "FailurePlan",
    "FleetTraceSynthesizer",
    "Job",
    "JobTier",
    "LifecycleState",
    "ModelProfile",
    "PipelineSynthesizer",
    "PipelineTraceConfig",
    "ResourceRequest",
    "SyntheticTraceConfig",
    "Trace",
    "TraceSynthesizer",
    "assign_models",
    "load_public_trace",
    "calibrate_jobs_per_day",
    "deadline_cycle",
    "expected_gpu_seconds_per_job",
    "default_profile_for",
    "fleet_trace",
    "get_model_profile",
    "helios_like",
    "philly_like",
    "pipeline_trace",
    "profile_of",
    "synthesize",
    "tacc_campus",
    "with_load",
]
