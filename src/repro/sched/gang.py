"""Gang scheduling with time-slicing.

All tasks of a distributed job start together (gang semantics are already
enforced by atomic placements); this scheduler adds Slurm-style *time
slicing*: when demand exceeds capacity, running preemptible jobs yield the
cluster at quantum boundaries so queued jobs get a turn, approximating
round-robin over job *time* rather than making latecomers wait for whole
jobs to finish.  Interactive jobs feel this strongly — the F11 experiment
measures their wait with and without slicing.

Rotation rule at each quantum: if jobs are queued, running preemptible
jobs that have consumed at least a full quantum are preempted (oldest
running first); the queue is then served least-recently-run first.
"""

from __future__ import annotations

from ..config import require_positive
from ..workload.job import Job
from .base import ScheduleContext, Scheduler
from .placement.base import PlacementPolicy


class GangScheduler(Scheduler):
    """Gang scheduling with round-robin time slicing."""

    name = "gang"

    def __init__(
        self,
        placement: PlacementPolicy | None = None,
        quantum_s: float = 1800.0,
    ) -> None:
        super().__init__(placement)
        require_positive("quantum_s", quantum_s)
        self.quantum_s = quantum_s
        #: When each job last yielded the cluster (rotation fairness key).
        self._last_ran: dict[str, float] = {}

    def tick_interval(self) -> float | None:
        return self.quantum_s

    def on_finish(self, job: Job, now: float) -> None:
        self._last_ran.pop(job.job_id, None)

    def _rotation_key(self, job: Job):
        # Never-ran jobs first (at -inf), then least-recently-run.
        return (self._last_ran.get(job.job_id, float("-inf")), job.submit_time, job.job_id)

    def schedule(self, ctx: ScheduleContext) -> None:
        # Rotate out stale running jobs only when someone is waiting.
        if self.queue_depth > 0:
            expired = [
                job
                for job in ctx.running.values()
                if job.preemptible
                and job.last_start_time is not None
                and ctx.now - job.last_start_time >= self.quantum_s - 1e-9
            ]
            expired.sort(key=lambda job: (job.last_start_time or 0.0, job.job_id))
            for job in expired:
                self._last_ran[job.job_id] = ctx.now
                ctx.preempt_job(job)

        for job in sorted(self.queue, key=self._rotation_key):
            if not job.lifecycle.queued:
                continue
            placement = self.try_place(ctx, job)
            if placement is not None:
                ctx.start_job(job, placement)
