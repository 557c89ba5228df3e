"""Operational analytics: distributions and time series over runs.

These are the measurement tools of the operational study: empirical CDFs
(durations, demands, waits), time-binned series (arrivals per hour,
utilization over time), and queueing statistics — all pure functions over
traces and simulation results so the experiment harness can compose them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..sim.metrics import Sample
from ..workload.job import Job, LifecycleState
from ..workload.trace import Trace


@dataclass(frozen=True)
class Cdf:
    """Empirical CDF: sorted values with cumulative probabilities."""

    values: np.ndarray
    probabilities: np.ndarray

    @classmethod
    def of(cls, data) -> "Cdf":
        array = np.sort(np.asarray(list(data), dtype=float))
        if array.size == 0:
            return cls(np.array([]), np.array([]))
        probs = np.arange(1, array.size + 1) / array.size
        return cls(array, probs)

    def at(self, value: float) -> float:
        """P(X <= value)."""
        if self.values.size == 0:
            return float("nan")
        return float(np.searchsorted(self.values, value, side="right") / self.values.size)

    def quantile(self, q: float) -> float:
        """Inverse CDF (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"quantile must be in (0, 1], got {q}")
        if self.values.size == 0:
            return float("nan")
        index = min(self.values.size - 1, int(np.ceil(q * self.values.size)) - 1)
        return float(self.values[max(0, index)])

    def points(self, max_points: int = 200) -> list[tuple[float, float]]:
        """Downsampled (value, probability) pairs for plotting/printing."""
        if self.values.size == 0:
            return []
        if self.values.size <= max_points:
            return list(zip(self.values.tolist(), self.probabilities.tolist()))
        indices = np.linspace(0, self.values.size - 1, max_points).astype(int)
        return [
            (float(self.values[i]), float(self.probabilities[i])) for i in indices
        ]


# --------------------------------------------------------------------------
# Trace characterization (F1–F3)
# --------------------------------------------------------------------------


def arrivals_per_hour_of_day(trace: Trace) -> dict[int, float]:
    """Mean submissions per hour-of-day across the trace span (F1)."""
    if len(trace) == 0:
        return {hour: 0.0 for hour in range(24)}
    days = max(1.0, np.ceil((trace.jobs[-1].submit_time + 1) / 86400.0))
    counts = {hour: 0 for hour in range(24)}
    for job in trace:
        counts[int(job.submit_time % 86400.0 // 3600)] += 1
    return {hour: counts[hour] / days for hour in range(24)}


def gpu_demand_distribution(trace: Trace) -> dict[int, dict[str, float]]:
    """Per-demand job share and GPU-hour share (F2)."""
    histogram = trace.gpu_demand_histogram()
    hours = trace.gpu_hours_by_demand()
    total_jobs = max(1, len(trace))
    total_hours = max(1e-9, sum(hours.values()))
    return {
        demand: {
            "jobs": histogram[demand],
            "job_share": histogram[demand] / total_jobs,
            "gpu_hour_share": hours.get(demand, 0.0) / total_hours,
        }
        for demand in sorted(histogram)
    }


def duration_cdf_by_class(
    trace: Trace, boundaries: tuple[int, ...] = (1, 2, 8)
) -> dict[str, Cdf]:
    """Duration CDFs per GPU-demand class (F3).

    ``boundaries`` split demands into labelled classes, e.g. (1, 2, 8) →
    "1", "2-7", "8+".
    """
    classes: dict[str, list[float]] = {}
    for job in trace:
        label = _class_label(job.num_gpus, boundaries)
        classes.setdefault(label, []).append(job.duration)
    return {label: Cdf.of(values) for label, values in sorted(classes.items())}


def _class_label(demand: int, boundaries: tuple[int, ...]) -> str:
    sorted_bounds = sorted(boundaries)
    for lower, upper in zip(sorted_bounds, sorted_bounds[1:]):
        if lower <= demand < upper:
            return str(lower) if upper == lower + 1 else f"{lower}-{upper - 1}"
    return f"{sorted_bounds[-1]}+"


# --------------------------------------------------------------------------
# Run analysis (F4–F5)
# --------------------------------------------------------------------------


def utilization_series(samples: list[Sample], bin_s: float = 3600.0) -> list[tuple[float, float]]:
    """(bin start hour, mean utilization) series from samples (F4)."""
    if not samples:
        return []
    bins: dict[int, list[float]] = {}
    for sample in samples:
        bins.setdefault(int(sample.time // bin_s), []).append(sample.utilization)
    return [
        (index * bin_s / 3600.0, float(np.mean(values)))
        for index, values in sorted(bins.items())
    ]


def queue_depth_series(samples: list[Sample], bin_s: float = 3600.0) -> list[tuple[float, float]]:
    """(bin start hour, mean queue depth) series from samples."""
    if not samples:
        return []
    bins: dict[int, list[float]] = {}
    for sample in samples:
        bins.setdefault(int(sample.time // bin_s), []).append(float(sample.queue_depth))
    return [
        (index * bin_s / 3600.0, float(np.mean(values)))
        for index, values in sorted(bins.items())
    ]


def wait_cdf(jobs: dict[str, Job] | list[Job], tier: str | None = None) -> Cdf:
    """Queueing-delay CDF over started jobs, optionally one tier (F5/F7)."""
    population = jobs.values() if isinstance(jobs, dict) else jobs
    waits = [
        job.wait_time
        for job in population
        if job.wait_time is not None and (tier is None or job.tier.value == tier)
    ]
    return Cdf.of(waits)


def slowdown_stats(jobs: dict[str, Job] | list[Job]) -> dict[str, float]:
    """Bounded-slowdown statistics over completed jobs (JCT / max(runtime, 10min))."""
    population = jobs.values() if isinstance(jobs, dict) else jobs
    slowdowns = []
    for job in population:
        if job.lifecycle is not LifecycleState.FINISHED or job.jct is None:
            continue
        slowdowns.append(job.jct / max(job.duration, 600.0))
    if not slowdowns:
        return {"mean": float("nan"), "p50": float("nan"), "p99": float("nan")}
    array = np.asarray(slowdowns)
    return {
        "mean": float(array.mean()),
        "p50": float(np.percentile(array, 50)),
        "p99": float(np.percentile(array, 99)),
    }
