"""Elastic (Pollux-style) adaptive scheduling.

Pollux (OSDI'21) showed that letting the scheduler *resize* DL jobs —
rather than holding their GPU count fixed — raises cluster goodput: under
contention everyone runs a bit narrower instead of queueing, and idle
capacity is soaked up by widening whoever benefits.  This scheduler is the
trace-driven distillation of that idea on top of this repository's elastic
job model (``Job.elastic_min_gpus``):

* a queued elastic job is started at the **largest grant that fits right
  now**, halving from its full request down to its minimum;
* on a periodic tick, if jobs are queueing, the widest resizable running
  job is checkpointed and restarted (narrower, since capacity is scarce) —
  **shrink to admit**;
* conversely, when the queue is empty and GPUs idle, the narrowest
  under-granted job is restarted to reclaim its full width — **grow into
  idleness**.

Resizes go through the ordinary preempt/requeue path (checkpoint cost
applies), and a per-job cooldown prevents resize thrashing.  Rigid jobs
are scheduled FIFO alongside, untouched.
"""

from __future__ import annotations

from dataclasses import replace

from ..config import require_positive
from ..ids import NodeId
from ..workload.job import Job
from .base import ScheduleContext, Scheduler
from .placement.base import PlacementPolicy


def grant_candidates(job: Job) -> list[int]:
    """Feasible grant sizes for *job*, widest first.

    Halves from the full request down to ``elastic_min_gpus`` (always
    included); multi-node jobs only get grants that keep whole per-node
    chunks.  Rigid jobs get exactly their request.
    """
    if not job.elastic:
        return [job.num_gpus]
    cap = job.request.gpus_per_node
    sizes: list[int] = []
    size = job.num_gpus
    while size > job.elastic_min_gpus:
        sizes.append(size)
        size //= 2
    sizes.append(job.elastic_min_gpus)
    if cap is not None:
        sizes = [s for s in sizes if s <= cap or s % cap == 0]
    return sizes


class ElasticScheduler(Scheduler):
    """FIFO with elastic shrink-to-admit / grow-into-idleness."""

    name = "elastic"

    def __init__(
        self,
        placement: PlacementPolicy | None = None,
        tick_s: float = 600.0,
        resize_cooldown_s: float = 1800.0,
        grow_free_fraction: float = 0.1,
    ) -> None:
        super().__init__(placement)
        require_positive("tick_s", tick_s)
        require_positive("resize_cooldown_s", resize_cooldown_s)
        self.tick_s = tick_s
        self.resize_cooldown_s = resize_cooldown_s
        self.grow_free_fraction = grow_free_fraction
        self._last_resize: dict[str, float] = {}

    def tick_interval(self) -> float | None:
        return self.tick_s

    def on_finish(self, job: Job, now: float) -> None:
        self._last_resize.pop(job.job_id, None)

    # -- placement at a grant size ------------------------------------------------

    def place_at_grant(
        self, ctx: ScheduleContext, job: Job, grant: int
    ) -> dict[NodeId, int] | None:
        cap = job.request.gpus_per_node
        shrunk = replace(
            job.request,
            num_gpus=grant,
            gpus_per_node=cap if cap is not None and grant > cap else None,
        )
        return self.placement.place(ctx.cluster, shrunk)

    def try_place_elastic(self, ctx: ScheduleContext, job: Job) -> dict[NodeId, int] | None:
        for grant in grant_candidates(job):
            placement = self.place_at_grant(ctx, job, grant)
            if placement is not None:
                return placement
        return None

    # -- resize decisions ------------------------------------------------------------

    def _resizable(self, ctx: ScheduleContext, now: float, shrinking: bool) -> list[Job]:
        candidates = []
        for job in ctx.running.values():
            if not (job.elastic and job.preemptible):
                continue
            if now - self._last_resize.get(job.job_id, -1e18) < self.resize_cooldown_s:
                continue
            if shrinking and job.current_gpus > job.elastic_min_gpus:
                candidates.append(job)
            elif not shrinking and job.current_gpus < job.num_gpus:
                candidates.append(job)
        return candidates

    def _admit(self, ctx: ScheduleContext) -> None:
        """Admit the queue FIFO, capping elastic grants to a fair share.

        When several jobs compete, an elastic job is granted at most
        ``free // competitors`` (never below its minimum) so one job cannot
        re-absorb everything another just yielded.
        """
        queued = sorted(self.queue, key=lambda j: (j.submit_time, j.job_id))
        for job in queued:
            if not job.lifecycle.queued:
                continue
            competitors = sum(1 for j in queued if j.lifecycle.queued)
            cap: int | None = None
            if job.elastic and competitors > 1:
                cap = max(job.elastic_min_gpus, ctx.cluster.free_gpus // competitors)
            for grant in grant_candidates(job):
                if cap is not None and grant > cap:
                    continue
                placement = self.place_at_grant(ctx, job, grant)
                if placement is not None:
                    ctx.start_job(job, placement)
                    break

    def schedule(self, ctx: ScheduleContext) -> None:
        # 1. Admit the queue, widest (fair) grant that fits, FIFO order.
        self._admit(ctx)

        still_queued = [job for job in self.queue if job.lifecycle.queued]
        if still_queued:
            # 2. Shrink to admit: one resize per pass, widest grant first.
            candidates = self._resizable(ctx, ctx.now, shrinking=True)
            if candidates:
                victim = max(
                    candidates, key=lambda j: (j.current_gpus, -j.submit_time, j.job_id)
                )
                self._last_resize[victim.job_id] = ctx.now
                ctx.preempt_job(victim)
                # Re-admit immediately so the freed GPUs are shared between
                # the victim (narrower) and the queue this same pass.
                self._admit(ctx)
            return

        # 3. Grow into idleness: queue empty and plenty free.
        free = ctx.cluster.free_gpus
        if free < max(1, int(ctx.cluster.total_gpus * self.grow_free_fraction)):
            return
        candidates = self._resizable(ctx, ctx.now, shrinking=False)
        growable = [j for j in candidates if j.num_gpus - j.current_gpus <= free]
        if growable:
            job = min(growable, key=lambda j: (j.current_gpus, j.submit_time, j.job_id))
            self._last_resize[job.job_id] = ctx.now
            ctx.preempt_job(job)
            placement = self.try_place_elastic(ctx, job)
            if placement is not None:
                ctx.start_job(job, placement)
