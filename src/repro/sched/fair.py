"""Fair-share scheduling via the Slurm multifactor priority.

The production configuration of the campus cluster: queue order is the
multifactor priority (fair-share dominant, age second), recomputed each
pass against exponentially-decayed per-user GPU-second usage.  Usage is
accounted incrementally — on every job start/finish/preemption the delta of
``job.gpu_seconds_used`` since the last accounting is charged to the user —
so long-running jobs depress their owner's priority while they run, not
only at completion.
"""

from __future__ import annotations

from ..workload.job import Job
from .base import OrderedQueueScheduler, ScheduleContext
from .placement.base import PlacementPolicy
from .priority import MultifactorPriority, PriorityWeights, UsageTracker


class FairShareScheduler(OrderedQueueScheduler):
    """Multifactor-priority queue ordering with decayed usage accounting."""

    name = "fair-share"
    blocking = False

    def __init__(
        self,
        placement: PlacementPolicy | None = None,
        weights: PriorityWeights | None = None,
        usage_half_life_s: float = 7.0 * 86400.0,
    ) -> None:
        super().__init__(placement)
        self.usage = UsageTracker(half_life_s=usage_half_life_s)
        self.priority = MultifactorPriority(weights=weights, usage=self.usage)
        self._accounted: dict[str, float] = {}  # job_id -> gpu_seconds charged

    # -- accounting -------------------------------------------------------------

    def _charge(self, job: Job, now: float) -> None:
        previously = self._accounted.get(job.job_id, 0.0)
        delta = job.gpu_seconds_used - previously
        if delta > 0:
            self.usage.add(job.user_id, delta, now)
            self._accounted[job.job_id] = job.gpu_seconds_used

    def on_enqueue(self, job: Job, now: float) -> None:
        # Requeued (preempted) jobs carry partial usage; charge it now.
        self._charge(job, now)

    def on_finish(self, job: Job, now: float) -> None:
        self._charge(job, now)
        self._accounted.pop(job.job_id, None)

    def schedule(self, ctx: ScheduleContext) -> None:
        # Charge running jobs' accrued usage so priorities reflect the
        # present, then run the ordinary ordered pass.
        for job in ctx.running.values():
            booked = self._accounted.get(job.job_id, 0.0)
            total_booked = job.gpu_seconds_at(ctx.now)
            if total_booked > booked:
                self.usage.add(job.user_id, total_booked - booked, ctx.now)
                self._accounted[job.job_id] = total_booked
        super().schedule(ctx)

    def sort_key(self, job: Job, now: float):
        return -self.priority.priority(job, now)
