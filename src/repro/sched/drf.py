"""Dominant Resource Fairness scheduling across users.

DRF (Ghodsi et al., NSDI'11) generalises max-min fairness to multiple
resource types: each user's *dominant share* is the maximum of their shares
of GPUs, CPUs, and memory, and the scheduler repeatedly offers the next
slot to the user with the smallest dominant share.  On a GPU cluster the
dominant resource is almost always the GPU, but CPU-heavy preprocessing
jobs do flip it, which is why the cluster tracks all three.

Shares are recomputed from the live running set each pass (stateless), so
DRF here is progressive-filling over the current queue, not an offline
allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload.job import Job
from .base import ScheduleContext, Scheduler
from .placement.base import PlacementPolicy


@dataclass(frozen=True)
class _Totals:
    gpus: float
    cpus: float
    memory_gb: float


class DrfScheduler(Scheduler):
    """Progressive-filling DRF over users with queued jobs."""

    name = "drf"

    def __init__(self, placement: PlacementPolicy | None = None) -> None:
        super().__init__(placement)

    @staticmethod
    def _cluster_totals(ctx: ScheduleContext) -> _Totals:
        gpus = cpus = memory = 0.0
        for node in ctx.cluster.nodes.values():
            gpus += node.spec.num_gpus
            cpus += node.spec.cpus
            memory += node.spec.memory_gb
        return _Totals(max(gpus, 1.0), max(cpus, 1.0), max(memory, 1.0))

    @staticmethod
    def _job_vector(job: Job) -> tuple[float, float, float]:
        request = job.request
        return (
            float(request.num_gpus),
            float(request.cpus_per_gpu * request.num_gpus),
            float(request.memory_gb_per_gpu * request.num_gpus),
        )

    def dominant_share(
        self, usage: tuple[float, float, float], totals: _Totals
    ) -> float:
        return max(
            usage[0] / totals.gpus,
            usage[1] / totals.cpus,
            usage[2] / totals.memory_gb,
        )

    def schedule(self, ctx: ScheduleContext) -> None:
        totals = self._cluster_totals(ctx)

        usage: dict[str, tuple[float, float, float]] = {}
        for job in ctx.running.values():
            vector = self._job_vector(job)
            current = usage.get(job.user_id, (0.0, 0.0, 0.0))
            usage[job.user_id] = tuple(c + v for c, v in zip(current, vector))  # type: ignore[assignment]

        pending: dict[str, list[Job]] = {}
        for job in self.queue:
            pending.setdefault(job.user_id, []).append(job)
        for jobs in pending.values():
            jobs.sort(key=lambda j: (j.submit_time, j.job_id))

        # Progressive filling: repeatedly offer to the poorest user.
        active = set(pending)
        while active:
            # The key tie-breaks on the user id itself, a total order, so the
            # min over the set is deterministic despite hash iteration order.
            user = min(
                active,  # simlint: disable=R9
                key=lambda u: (self.dominant_share(usage.get(u, (0.0, 0.0, 0.0)), totals), u),
            )
            job = pending[user][0]
            placement = self.try_place(ctx, job)
            if placement is None:
                active.discard(user)  # this user's head job can't start now
                continue
            ctx.start_job(job, placement)
            vector = self._job_vector(job)
            current = usage.get(user, (0.0, 0.0, 0.0))
            usage[user] = tuple(c + v for c, v in zip(current, vector))  # type: ignore[assignment]
            pending[user].pop(0)
            if not pending[user]:
                active.discard(user)
