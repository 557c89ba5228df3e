"""Adapters for public GPU-cluster trace formats.

Besides its own synthesizer, the library replays *real* published traces.
Two widely used formats are supported in their common CSV renditions:

* **Philly-style** (Microsoft's Philly trace): one row per job with a
  virtual cluster, submission time, GPU count, observed runtime, and final
  status (``Pass`` / ``Failed`` / ``Killed``);
* **Helios-style** (SenseTime's Helios traces): one row per job with user,
  gpu/cpu counts, state, submission time and duration.

Both adapters normalise timestamps so the first submission is ``t = 0``,
map virtual clusters / user groups onto labs, and convert terminal
statuses into this library's semantics: a job that *failed after running
H hours* becomes a job whose duration is H with a failure plan firing at
its very end — replaying it consumes exactly the observed resources.

Timestamps may be epoch seconds or ISO-8601 (``2017-10-03 14:21:08``).
Columns are matched case-insensitively with common aliases, so minor
variations between trace dumps parse without editing.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime
from pathlib import Path
from typing import Callable

from ..errors import TraceError
from .job import FailureCategory, FailurePlan, Job, JobTier, ResourceRequest
from .trace import Trace, finite_number

#: Column aliases, canonical name → accepted headers (lowercase).
_ALIASES = {
    "job_id": ("job_id", "jobid", "job", "job_name"),
    "user": ("user", "user_id", "username"),
    "group": ("vc", "virtual_cluster", "group", "lab", "queue"),
    "submit_time": ("submit_time", "submitted_time", "submission_time", "arrival_time"),
    "duration": ("duration", "duration_s", "runtime", "run_time", "runtime_s"),
    "start_time": ("start_time", "started_time"),
    "end_time": ("end_time", "finished_time", "completed_time"),
    "gpus": ("gpus", "gpu_num", "num_gpus", "gpu_count", "gpu_request"),
    "cpus": ("cpus", "cpu_num", "num_cpus", "cpu_count"),
    "status": ("status", "state", "final_status", "job_status"),
}

_STATUS_MAP = {
    "pass": "completed",
    "passed": "completed",
    "completed": "completed",
    "success": "completed",
    "succeeded": "completed",
    "failed": "failed",
    "fail": "failed",
    "error": "failed",
    "killed": "killed",
    "cancelled": "killed",
    "canceled": "killed",
    "stopped": "killed",
}


def _parse_timestamp(column: str, text: str) -> float:
    try:
        float(text)
    except ValueError:
        try:
            return datetime.fromisoformat(text).timestamp()
        except ValueError as exc:
            raise ValueError(f"{column}: unparseable timestamp {text!r}") from exc
    return finite_number(column, text)


def _resolve_columns(fieldnames: list[str], required: tuple[str, ...]) -> dict[str, str]:
    lowered = {name.lower().strip(): name for name in fieldnames}
    resolved: dict[str, str] = {}
    for canonical, aliases in _ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                resolved[canonical] = lowered[alias]
                break
    missing = [name for name in required if name not in resolved]
    if missing:
        raise TraceError(
            f"trace CSV is missing required columns {missing}; "
            f"found {sorted(lowered)}"
        )
    return resolved


def _row_value(row: dict[str, str | None], columns: dict[str, str], canonical: str) -> str:
    column = columns.get(canonical)
    value = None if column is None else row.get(column)
    return "" if value is None else value.strip()


def load_public_trace(
    path: str | Path,
    name: str | None = None,
    default_gpus_per_node: int = 8,
) -> Trace:
    """Load a Philly/Helios-style CSV into a :class:`Trace`.

    Rows with zero GPUs (CPU-only jobs) and rows whose runtime cannot be
    established are skipped with a count recorded in ``trace.metadata``.
    """
    path = Path(path)
    jobs: list[Job] = []
    skipped = 0
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if not reader.fieldnames:
            raise TraceError(f"{path}: empty trace CSV")
        columns = _resolve_columns(list(reader.fieldnames), ("job_id", "submit_time", "gpus"))
        for line_number, row in enumerate(reader, start=2):
            try:
                job = _job_from_public_row(row, columns, default_gpus_per_node)
            except (ValueError, KeyError) as exc:
                raise TraceError(f"{path}:{line_number}: {exc}") from exc
            if job is None:
                skipped += 1
                continue
            jobs.append(job)
    if not jobs:
        raise TraceError(f"{path}: no usable jobs in trace")
    origin = min(job.submit_time for job in jobs)
    rebased = [
        _rebase(job, origin) for job in jobs
    ]
    trace = Trace(rebased, name=name or path.stem, metadata={"skipped_rows": skipped})
    return trace


def _rebase(job: Job, origin: float) -> Job:
    # Jobs are mutable dataclasses with derived state; rebuild cleanly.
    return Job(
        job_id=job.job_id,
        user_id=job.user_id,
        lab_id=job.lab_id,
        request=job.request,
        submit_time=job.submit_time - origin,
        duration=job.duration,
        tier=job.tier,
        walltime_estimate=job.walltime_estimate,
        failure_plan=job.failure_plan,
        name=job.name,
    )


def _job_from_public_row(
    row: dict[str, str | None], columns: dict[str, str], default_gpus_per_node: int
) -> Job | None:
    def text(canonical: str) -> str:
        return _row_value(row, columns, canonical)

    def number(canonical: str, parse: Callable[[str, str], float] = finite_number) -> float:
        return parse(columns[canonical], text(canonical))

    gpus = int(number("gpus")) if text("gpus") else 0
    if gpus <= 0:
        return None  # CPU-only job; outside this cluster model's scope
    submit = number("submit_time", _parse_timestamp)
    if text("duration"):
        duration = number("duration")
    elif text("start_time") and text("end_time"):
        duration = number("end_time", _parse_timestamp) - number("start_time", _parse_timestamp)
        if not math.isfinite(duration):
            raise ValueError(f"end_time - start_time must be a finite number, got {duration}")
    else:
        return None
    if duration <= 0:
        return None

    status = _STATUS_MAP.get(text("status").lower(), "completed")
    failure_plan = None
    if status == "failed":
        # The observed runtime ends in failure: replay reproduces exactly
        # the resources the failed run consumed.
        failure_plan = FailurePlan(FailureCategory.USER_ERROR, at_fraction=1.0)

    user = text("user") or "unknown-user"
    group = text("group") or "default"
    cpus_per_gpu = max(1, int(number("cpus")) // gpus) if text("cpus") else 4

    gpus_per_node = None
    if gpus > default_gpus_per_node:
        if gpus % default_gpus_per_node:
            # Ragged wide request: round down to whole nodes (as the
            # original cluster's gang scheduler would have).
            gpus = (gpus // default_gpus_per_node) * default_gpus_per_node
        gpus_per_node = default_gpus_per_node

    return Job(
        job_id=text("job_id"),
        user_id=user,
        lab_id=f"lab-{group}",
        request=ResourceRequest(
            num_gpus=gpus, gpus_per_node=gpus_per_node, cpus_per_gpu=cpus_per_gpu
        ),
        submit_time=submit,
        duration=duration,
        tier=JobTier.GUARANTEED,
        failure_plan=failure_plan,
        name=status,
    )
