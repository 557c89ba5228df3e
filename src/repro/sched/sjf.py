"""Shortest-job-first scheduling on *user-estimated* runtimes.

Like the real cluster's scheduler, SJF here only sees the wall-time
estimate users attach at submission (systematically inflated — the trace
synthesizer models a 2–3× log-normal overestimate), never the true
duration.  The gap between SJF-on-estimates and SJF-on-truth (the oracle
variant, used in ablations) quantifies how much estimate quality matters.
"""

from __future__ import annotations

from ..workload.job import Job
from .base import OrderedQueueScheduler


class SjfScheduler(OrderedQueueScheduler):
    """Shortest estimated wall time first, non-blocking."""

    name = "sjf"
    blocking = False

    def sort_key(self, job: Job, now: float):
        return job.walltime_estimate


class SjfOracleScheduler(OrderedQueueScheduler):
    """SJF with oracle knowledge of true remaining work (upper bound)."""

    name = "sjf-oracle"
    blocking = False

    def sort_key(self, job: Job, now: float):
        return job.remaining_work


class LargestJobFirstScheduler(OrderedQueueScheduler):
    """Widest job first — packs big jobs before fragmentation sets in.

    Used in the placement experiments as a stress generator, not as a
    recommended policy.
    """

    name = "ljf"
    blocking = False

    def sort_key(self, job: Job, now: float):
        return -job.num_gpus


class SrtfScheduler(OrderedQueueScheduler):
    """Preemptive shortest-remaining-time-first (oracle).

    The classic mean-JCT-optimal single-machine discipline adapted to
    gangs: a queued job with less remaining work may evict preemptible
    running jobs with more, through :meth:`Scheduler.preempt_until_placed`.
    Uses true remaining work (oracle) — it is the JCT upper-bound
    baseline, not a deployable policy.
    """

    name = "srtf"
    blocking = False

    def sort_key(self, job: Job, now: float):
        return job.remaining_work

    def schedule(self, ctx) -> None:
        super().schedule(ctx)  # plain greedy pass first
        for job in self.ordered_queue(ctx.now):
            if not job.lifecycle.queued:
                continue
            longer = (
                running
                for running in ctx.running.values()
                if running.remaining_work_at(ctx.now) > job.remaining_work
            )
            placement, _ = self.preempt_until_placed(ctx, job, longer)
            if placement is not None:
                ctx.start_job(job, placement)
