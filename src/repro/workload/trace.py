"""Trace container with CSV/JSONL round-tripping and summary statistics.

A :class:`Trace` is an ordered list of jobs plus provenance metadata.  The
on-disk formats carry only the *static* trace fields (never runtime state),
so a trace loaded from disk always replays from scratch.  The CSV format is
the interchange format for the characterization experiments (F1–F3); JSONL
preserves nested fields exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import TraceError
from .job import FailureCategory, FailurePlan, Job, JobTier, ResourceRequest

_CSV_COLUMNS = [
    "job_id",
    "user_id",
    "lab_id",
    "submit_time",
    "duration",
    "num_gpus",
    "gpus_per_node",
    "gpu_type",
    "cpus_per_gpu",
    "memory_gb_per_gpu",
    "tier",
    "partition",
    "walltime_estimate",
    "interactive",
    "failure_category",
    "failure_at_fraction",
    "elastic_min",
    "dataset_gb",
    "model",
    "name",
    "workflow",
    "depends_on",
    "artifact_bytes",
]

#: Columns a CSV may omit (pre-workflow traces); readers default them.
_OPTIONAL_COLUMNS = {"workflow", "depends_on", "artifact_bytes"}


@dataclass
class Trace:
    """An ordered job trace.

    Jobs are kept sorted by ``(submit_time, job_id)``; construction
    validates id uniqueness so downstream indexing is safe.
    """

    jobs: list[Job]
    name: str = "trace"
    metadata: dict[str, object] = field(default_factory=dict)
    #: Lazy snapshot of the static serialisation rows (see frozen_rows).
    _rows: tuple[dict[str, object], ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            dupes = sorted({i for i in ids if i in seen or seen.add(i)})  # type: ignore[func-returns-value]
            raise TraceError(f"duplicate job ids in trace: {dupes[:5]}")
        self.jobs.sort(key=lambda job: (job.submit_time, job.job_id))

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> Job:
        return self.jobs[index]

    @property
    def span_seconds(self) -> float:
        """Time between first and last submission (0 for empty/singleton)."""
        if len(self.jobs) < 2:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def total_gpu_seconds_requested(self) -> float:
        return sum(job.duration * job.num_gpus for job in self.jobs)

    def filter(self, predicate: Callable[[Job], bool], name: str | None = None) -> "Trace":
        """New trace with the jobs satisfying *predicate* (jobs shared)."""
        return Trace(
            [job for job in self.jobs if predicate(job)],
            name=name or f"{self.name}-filtered",
            metadata=dict(self.metadata),
        )

    def head(self, n: int) -> "Trace":
        return Trace(self.jobs[:n], name=f"{self.name}-head{n}", metadata=dict(self.metadata))

    def users(self) -> tuple[str, ...]:
        return tuple(sorted({job.user_id for job in self.jobs}))

    def labs(self) -> tuple[str, ...]:
        return tuple(sorted({job.lab_id for job in self.jobs}))

    # -- characterization helpers (F1–F3) -------------------------------------

    def gpu_demand_histogram(self) -> dict[int, int]:
        """Job count per GPU-demand value."""
        histogram: dict[int, int] = {}
        for job in self.jobs:
            histogram[job.num_gpus] = histogram.get(job.num_gpus, 0) + 1
        return dict(sorted(histogram.items()))

    def gpu_hours_by_demand(self) -> dict[int, float]:
        """GPU-hours requested per GPU-demand value."""
        hours: dict[int, float] = {}
        for job in self.jobs:
            hours[job.num_gpus] = (
                hours.get(job.num_gpus, 0.0) + job.duration * job.num_gpus / 3600.0
            )
        return dict(sorted(hours.items()))

    def durations(self) -> np.ndarray:
        return np.array([job.duration for job in self.jobs], dtype=float)

    def summary(self) -> dict[str, float]:
        """Headline numbers used by reports and tests."""
        if not self.jobs:
            return {"jobs": 0.0}
        durations = self.durations()
        demands = np.array([job.num_gpus for job in self.jobs], dtype=float)
        return {
            "jobs": float(len(self.jobs)),
            "users": float(len(self.users())),
            "labs": float(len(self.labs())),
            "span_days": self.span_seconds / 86400.0,
            "gpu_hours": self.total_gpu_seconds_requested / 3600.0,
            "duration_p50_min": float(np.percentile(durations, 50)) / 60.0,
            "duration_p99_hours": float(np.percentile(durations, 99)) / 3600.0,
            "mean_gpus": float(demands.mean()),
            "single_gpu_fraction": float((demands == 1).mean()),
        }

    # -- serialisation ----------------------------------------------------------

    def frozen_rows(self) -> tuple[dict[str, object], ...]:
        """The trace's static fields as serialisation rows, computed once.

        This is the single row form shared by replay copies
        (:func:`repro.experiments.common.fresh_trace_copy`), the sweep
        engine's worker shipping, and its result cache: serialising each
        job once and rehydrating per consumer replaces the old
        serialize+deserialize round-trip per compared policy.

        The snapshot is taken on first call — mutate static job fields
        (e.g. ``assign_models``) *before* handing the trace to anything
        that replays it.  Runtime state is never captured, so every
        rehydrated copy starts pristine.
        """
        if self._rows is None:
            self._rows = tuple(_job_to_row(job) for job in self.jobs)
        return self._rows

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[dict[str, object]],
        name: str = "trace",
        metadata: dict[str, object] | None = None,
    ) -> "Trace":
        """Rebuild a trace from serialisation rows (inverse of frozen_rows)."""
        return cls(
            [_job_from_row(row) for row in rows],
            name=name,
            metadata=dict(metadata or {}),
        )

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
            writer.writeheader()
            for job in self.jobs:
                writer.writerow(_job_to_row(job))

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "Trace":
        path = Path(path)
        jobs: list[Job] = []
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            missing = set(_CSV_COLUMNS) - _OPTIONAL_COLUMNS - set(reader.fieldnames or [])
            if missing:
                raise TraceError(f"trace CSV {path} is missing columns: {sorted(missing)}")
            for line_number, row in enumerate(reader, start=2):
                try:
                    jobs.append(_job_from_row(row))
                except (ValueError, KeyError, OverflowError) as exc:
                    raise TraceError(f"{path}:{line_number}: bad trace row: {exc}") from exc
        return cls(jobs, name=name or path.stem)

    def to_jsonl(self, path: str | Path) -> None:
        with Path(path).open("w") as handle:
            header = {"trace": self.name, "metadata": self.metadata}
            handle.write(json.dumps(header) + "\n")
            for job in self.jobs:
                handle.write(json.dumps(_job_to_row(job)) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Trace":
        path = Path(path)
        jobs: list[Job] = []
        name = path.stem
        metadata: dict[str, object] = {}
        with path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise TraceError(
                        f"{path}:{line_number}: expected a JSON object, "
                        f"got {type(record).__name__}"
                    )
                if line_number == 1 and "trace" in record:
                    name = str(record["trace"])
                    metadata = record.get("metadata") or {}
                    if not isinstance(metadata, dict):
                        raise TraceError(f"{path}:1: trace metadata must be a JSON object")
                    continue
                try:
                    jobs.append(_job_from_row(record))
                except (ValueError, KeyError, OverflowError) as exc:
                    raise TraceError(f"{path}:{line_number}: bad trace record: {exc}") from exc
        return cls(jobs, name=name, metadata=metadata)


def _job_to_row(job: Job) -> dict[str, object]:
    plan = job.failure_plan
    return {
        "job_id": job.job_id,
        "user_id": job.user_id,
        "lab_id": job.lab_id,
        "submit_time": job.submit_time,
        "duration": job.duration,
        "num_gpus": job.request.num_gpus,
        "gpus_per_node": "" if job.request.gpus_per_node is None else job.request.gpus_per_node,
        "gpu_type": job.request.gpu_type or "",
        "cpus_per_gpu": job.request.cpus_per_gpu,
        "memory_gb_per_gpu": job.request.memory_gb_per_gpu,
        "tier": job.tier.value,
        "partition": job.partition or "",
        "walltime_estimate": job.walltime_estimate,
        "interactive": int(job.interactive),
        "failure_category": plan.category.value if plan else "",
        "failure_at_fraction": plan.at_fraction if plan else "",
        "elastic_min": "" if job.elastic_min_gpus is None else job.elastic_min_gpus,
        "dataset_gb": job.dataset_gb,
        "model": job.model_name,
        "name": job.name,
        "workflow": job.workflow_id or "",
        "depends_on": ";".join(job.depends_on),
        "artifact_bytes": job.artifact_bytes,
    }


def _job_from_row(row: dict[str, object]) -> Job:
    def text(key: str) -> str:
        value = row.get(key, "")
        return "" if value is None else str(value)

    def number(key: str, default: str = "") -> float:
        value = float(text(key) or default)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be a finite number, got {value}")
        return value

    plan = None
    if text("failure_category"):
        plan = FailurePlan(
            category=FailureCategory(text("failure_category")),
            at_fraction=number("failure_at_fraction"),
        )
    gpus_per_node = text("gpus_per_node")
    return Job(
        job_id=text("job_id"),
        user_id=text("user_id"),
        lab_id=text("lab_id"),
        submit_time=number("submit_time"),
        duration=number("duration"),
        request=ResourceRequest(
            num_gpus=int(float(text("num_gpus"))),
            gpus_per_node=int(float(gpus_per_node)) if gpus_per_node else None,
            gpu_type=text("gpu_type") or None,
            cpus_per_gpu=int(float(text("cpus_per_gpu") or 4)),
            memory_gb_per_gpu=number("memory_gb_per_gpu", "32.0"),
        ),
        tier=JobTier(text("tier") or "guaranteed"),
        partition=text("partition") or None,
        walltime_estimate=number("walltime_estimate") if text("walltime_estimate") else None,
        interactive=bool(int(float(text("interactive") or 0))),
        failure_plan=plan,
        elastic_min_gpus=int(float(text("elastic_min"))) if text("elastic_min") else None,
        dataset_gb=number("dataset_gb", "0.0"),
        model_name=text("model"),
        name=text("name"),
        workflow_id=text("workflow") or None,
        depends_on=tuple(d for d in text("depends_on").split(";") if d),
        artifact_bytes=number("artifact_bytes", "0.0"),
    )
