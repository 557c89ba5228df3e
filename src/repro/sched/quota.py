"""Tiered-quota preemptive scheduling — the campus cluster's own policy.

The cluster sells *guaranteed* quota to labs (grant-funded GPU counts) and
gives everything idle away as a *free tier*:

* a **guaranteed-tier** job whose lab still has quota headroom is
  *entitled*: it schedules ahead of everything else and, when the cluster
  is full, reclaims GPUs by preempting free-tier jobs;
* a guaranteed job beyond its lab's quota may **borrow** idle capacity,
  but runs at free-tier priority and is marked preemptible for the
  borrowed run;
* **opportunistic** (free-tier) jobs soak up idle GPUs and absorb all
  preemptions.

This gives labs near-dedicated latency on what they paid for while keeping
cluster utilization high — the F7 experiment shows guaranteed-tier waits
stay near zero while opportunistic jobs trade wait/preemption churn for
free capacity.

Quota accounting charges a lab only for its *entitled* running GPUs;
borrowed runs never consume quota.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import QuotaError
from ..ids import JobId, LabId
from ..workload.job import Job, JobTier
from .base import ScheduleContext, Scheduler
from .placement.base import PlacementPolicy


@dataclass(frozen=True)
class QuotaConfig:
    """Per-lab guaranteed GPU quotas.

    Attributes:
        quotas: Guaranteed GPUs per lab.  Labs absent from the map have
            zero quota (all their guaranteed jobs borrow).
        allow_borrowing: Whether over-quota guaranteed jobs may run on idle
            capacity at free-tier priority.
        max_preemptions_per_pass: Eviction budget of one scheduling pass,
            bounding preemption storms.
    """

    quotas: dict[LabId, int] = field(default_factory=dict)
    allow_borrowing: bool = True
    max_preemptions_per_pass: int = 64

    def __post_init__(self) -> None:
        for lab, quota in self.quotas.items():
            if quota < 0:
                raise QuotaError(f"negative quota for lab {lab}: {quota}")
        if self.max_preemptions_per_pass < 0:
            raise QuotaError("max_preemptions_per_pass must be >= 0")

    @classmethod
    def equal_shares(
        cls, labs: list[LabId] | tuple[LabId, ...], total_gpus: int, fraction: float = 0.6
    ) -> "QuotaConfig":
        """Split ``fraction`` of the cluster evenly across *labs*."""
        if not labs:
            raise QuotaError("equal_shares needs at least one lab")
        if not 0.0 < fraction <= 1.0:
            raise QuotaError(f"fraction must be in (0, 1], got {fraction}")
        per_lab = int(total_gpus * fraction / len(labs))
        return cls(quotas={lab: per_lab for lab in sorted(labs)})


class TieredQuotaScheduler(Scheduler):
    """Guaranteed/opportunistic two-tier scheduling with quota reclaim."""

    name = "tiered-quota"

    def __init__(
        self,
        quota: QuotaConfig,
        placement: PlacementPolicy | None = None,
    ) -> None:
        super().__init__(placement)
        self.quota = quota
        #: Running jobs charged against their lab's quota.
        self._charged: dict[JobId, LabId] = {}
        #: Guaranteed jobs currently running as borrowers (evictable via
        #: :meth:`is_preemptible` while they hold borrowed capacity).
        self._borrowed: set[JobId] = set()

    # -- accounting ----------------------------------------------------------------

    def charged_gpus(self, lab: LabId, ctx: ScheduleContext) -> int:
        """GPUs of *lab* currently charged against its quota."""
        return sum(
            ctx.running[job_id].num_gpus
            for job_id, charged_lab in self._charged.items()
            if charged_lab == lab and job_id in ctx.running
        )

    def quota_of(self, lab: LabId) -> int:
        return self.quota.quotas.get(lab, 0)

    def is_entitled(self, job: Job, ctx: ScheduleContext) -> bool:
        """Would starting *job* keep its lab within quota?"""
        if job.tier is not JobTier.GUARANTEED:
            return False
        headroom = self.quota_of(job.lab_id) - self.charged_gpus(job.lab_id, ctx)
        return job.num_gpus <= headroom

    def on_finish(self, job: Job, now: float) -> None:
        self._charged.pop(job.job_id, None)
        self._borrowed.discard(job.job_id)

    def on_enqueue(self, job: Job, now: float) -> None:
        # A preempted borrower returns to the queue; it may be entitled next
        # time (quota may have freed), so clear its borrowed status.
        self._charged.pop(job.job_id, None)
        self._borrowed.discard(job.job_id)

    def is_preemptible(self, job: Job) -> bool:
        """Borrowed runs consent to eviction regardless of the job's tier.

        Borrowing is scheduler state (``_borrowed``), not a property of the
        job — mutating ``job.preemptible`` here would bypass the control
        plane and leak policy state into the workload model.
        """
        return bool(job.preemptible) or job.job_id in self._borrowed

    # -- scheduling -------------------------------------------------------------------

    def schedule(self, ctx: ScheduleContext) -> None:
        preemption_budget = self.quota.max_preemptions_per_pass

        entitled = [job for job in self.queue if self.is_entitled(job, ctx)]
        entitled.sort(key=lambda job: (job.submit_time, job.job_id))
        for job in entitled:
            if not job.lifecycle.queued:
                continue
            if not self.is_entitled(job, ctx):
                continue  # an earlier start in this pass consumed the headroom
            placement = self.try_place(ctx, job)
            if placement is None and preemption_budget > 0:
                # Free tier: opportunistic runs and borrowers (no quota charge).
                free_tier = (
                    running
                    for running in ctx.running.values()
                    if running.job_id not in self._charged
                )
                placement, evicted = self.preempt_until_placed(
                    ctx, job, free_tier, preemption_budget
                )
                preemption_budget -= evicted
            if placement is not None:
                self._charged[job.job_id] = job.lab_id
                ctx.start_job(job, placement)

        # Free tier: opportunistic jobs plus over-quota guaranteed borrowers.
        best_effort = [
            job
            for job in self.queue
            if job.lifecycle.queued and not self.is_entitled(job, ctx)
        ]
        best_effort.sort(key=lambda job: (job.submit_time, job.job_id))
        for job in best_effort:
            if job.tier is JobTier.GUARANTEED and not self.quota.allow_borrowing:
                continue  # must wait for quota headroom
            placement = self.try_place(ctx, job)
            if placement is None:
                continue
            if job.tier is JobTier.GUARANTEED:
                # Borrowed run: counts nothing against quota, but is
                # evictable the moment an entitled job needs the GPUs.
                self._borrowed.add(job.job_id)
            ctx.start_job(job, placement)
