"""Experiment harness: regenerate every table and figure of the study."""

from .common import ExperimentResult, ExperimentSpec, campus_trace, fresh_trace_copy, run_policy
from .registry import EXPERIMENTS, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSpec",
    "campus_trace",
    "fresh_trace_copy",
    "run_experiment",
]
