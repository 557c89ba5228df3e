"""Tiresias-style discretized Least-Attained-Service scheduling.

Tiresias (NSDI'19) schedules DL jobs without duration knowledge by
prioritising jobs that have *attained* the least GPU-service
(``gpus × time``), discretized into queues to avoid thrashing: a job starts
in the high-priority queue and is demoted once its attained service crosses
a threshold.  High-queue jobs may preempt low-queue jobs.

This implementation uses the classic two-queue discretization.  Demotion is
checked on a periodic tick (attained service grows while running), and
starvation is avoided by promoting jobs whose queue wait exceeds the
``starvation_timeout``.
"""

from __future__ import annotations

from ..config import require_positive
from ..workload.job import Job
from .base import ScheduleContext, Scheduler
from .placement.base import PlacementPolicy


class TiresiasScheduler(Scheduler):
    """Two-queue discretized LAS with preemption."""

    name = "tiresias"

    def __init__(
        self,
        placement: PlacementPolicy | None = None,
        queue_threshold_gpu_s: float = 8.0 * 3600.0,
        tick_s: float = 300.0,
        starvation_timeout_s: float = 12.0 * 3600.0,
    ) -> None:
        super().__init__(placement)
        require_positive("queue_threshold_gpu_s", queue_threshold_gpu_s)
        require_positive("tick_s", tick_s)
        require_positive("starvation_timeout_s", starvation_timeout_s)
        self.queue_threshold_gpu_s = queue_threshold_gpu_s
        self.tick_s = tick_s
        self.starvation_timeout_s = starvation_timeout_s
        self._queued_since: dict[str, float] = {}

    def tick_interval(self) -> float | None:
        return self.tick_s

    def on_enqueue(self, job: Job, now: float) -> None:
        self._queued_since[job.job_id] = now

    def on_start(self, job: Job, now: float) -> None:
        self._queued_since.pop(job.job_id, None)

    def on_finish(self, job: Job, now: float) -> None:
        self._queued_since.pop(job.job_id, None)

    # -- queue classification ----------------------------------------------------

    def attained_service(self, job: Job, now: float) -> float:
        """GPU-seconds of service attained, including the live segment."""
        return job.gpu_seconds_at(now)

    def queue_index(self, job: Job, now: float) -> int:
        """0 = high priority (little service), 1 = demoted."""
        if self.attained_service(job, now) < self.queue_threshold_gpu_s:
            return 0
        queued_since = self._queued_since.get(job.job_id)
        if queued_since is not None and now - queued_since >= self.starvation_timeout_s:
            return 0  # starvation promotion
        return 1

    # -- scheduling ------------------------------------------------------------------

    def schedule(self, ctx: ScheduleContext) -> None:
        ordered = sorted(
            self.queue,
            key=lambda job: (
                self.queue_index(job, ctx.now),
                self.attained_service(job, ctx.now),
                job.submit_time,
                job.job_id,
            ),
        )
        for job in ordered:
            if not job.lifecycle.queued:
                continue
            placement = self.try_place(ctx, job)
            if placement is None and self.queue_index(job, ctx.now) == 0:
                demoted = (
                    running
                    for running in ctx.running.values()
                    if self.queue_index_running(running, ctx.now) == 1
                )
                placement, _ = self.preempt_until_placed(ctx, job, demoted)
            if placement is not None:
                ctx.start_job(job, placement)

    def queue_index_running(self, job: Job, now: float) -> int:
        """Queue index for a *running* job (no starvation promotion)."""
        return 0 if self.attained_service(job, now) < self.queue_threshold_gpu_s else 1
