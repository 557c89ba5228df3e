"""Scheduler framework: the contract between policies and the simulator.

A scheduler owns the pending queue and, on every scheduling pass, decides
which queued jobs to start (and, for preemptive policies, which running jobs
to evict).  It acts through the :class:`ScheduleContext` the simulator
passes in: ``ctx.start_job`` / ``ctx.preempt_job`` mutate the cluster
immediately, so the policy always sees up-to-date free capacity as its pass
progresses.  Policies never touch the cluster directly.

:class:`OrderedQueueScheduler` implements the common skeleton — order the
queue, walk it, place greedily — from which FIFO, SJF, and fair-share derive
by overriding :meth:`~OrderedQueueScheduler.sort_key`.  ``blocking=True``
gives strict head-of-line semantics (nothing may overtake an unplaceable
head job); ``blocking=False`` lets later jobs skip over it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..cluster.cluster import Cluster
from ..errors import SchedulingError
from ..ids import JobId, NodeId
from ..workload.job import Job
from .placement.base import PlacementPolicy, node_eligible
from .placement.first_fit import FirstFitPlacement


@dataclass
class ScheduleContext:
    """One scheduling pass's view of the world.

    Attributes:
        now: Simulation time of the pass.
        cluster: Live cluster state (read for capacity; mutate only through
            the callbacks below).
        running: Currently running jobs by id.
        start_job: Callback that starts a queued job on a placement —
            allocates resources, computes slowdown, schedules its finish.
        preempt_job: Callback that gracefully preempts a running job —
            checkpoints, frees resources, and requeues it.
    """

    now: float
    cluster: Cluster
    running: Mapping[JobId, Job]
    start_job: Callable[[Job, dict[NodeId, int]], None]
    preempt_job: Callable[[Job], None]


class Scheduler(abc.ABC):
    """Base class for scheduling policies."""

    name: str = "abstract"

    def __init__(self, placement: PlacementPolicy | None = None) -> None:
        self.placement = placement or FirstFitPlacement()
        self._queue: dict[JobId, Job] = {}
        # Blocked-verdict cache: job id -> relax epoch at which placement
        # last failed.  Feasibility is monotone between capacity-increasing
        # events (allocations/failures only shrink the fit set; only frees
        # and repairs can flip "no placement" to "placement", and those tick
        # ``ClusterIndex.relax_epoch``), so while the epoch is unchanged the
        # failure verdict is still exact and the placement policy need not
        # be consulted.  This is what turns an O(queue x nodes) retry storm
        # on a congested cluster into O(queue) dictionary lookups.
        self._blocked_at_epoch: dict[JobId, int] = {}
        self._blocked_index: object | None = None

    # -- queue management (called by the simulator) ----------------------------

    @property
    def queue(self) -> tuple[Job, ...]:
        """Pending jobs in insertion order."""
        return tuple(self._queue.values())

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def enqueue(self, job: Job, now: float) -> None:
        """Admit a job to the pending queue (arrival or post-preemption)."""
        if not job.lifecycle.queued:
            raise SchedulingError(
                f"cannot enqueue job {job.job_id} in state {job.lifecycle.value}"
            )
        if job.job_id in self._queue:
            raise SchedulingError(f"job {job.job_id} is already queued")
        self._queue[job.job_id] = job
        self.on_enqueue(job, now)

    def remove(self, job_id: JobId) -> Job | None:
        """Drop a job from the queue (kill before start); None if absent."""
        self._blocked_at_epoch.pop(job_id, None)
        return self._queue.pop(job_id, None)

    def notify_start(self, job: Job, now: float) -> None:
        """Simulator notification: *job* left the queue and started."""
        self._queue.pop(job.job_id, None)
        self._blocked_at_epoch.pop(job.job_id, None)
        self.on_start(job, now)

    def notify_finish(self, job: Job, now: float) -> None:
        """Simulator notification: *job* reached a terminal state."""
        self._blocked_at_epoch.pop(job.job_id, None)
        self.on_finish(job, now)

    # -- policy hooks ------------------------------------------------------------

    def on_enqueue(self, job: Job, now: float) -> None:
        """Hook for subclasses (accounting, aging)."""

    def on_start(self, job: Job, now: float) -> None:
        """Hook for subclasses."""

    def on_finish(self, job: Job, now: float) -> None:
        """Hook for subclasses (usage accounting)."""

    def tick_interval(self) -> float | None:
        """Period of unconditional scheduler wake-ups, or ``None``.

        Time-slicing and aging policies (gang, Tiresias) need to act even
        when no arrival/finish occurs; they return a positive period here.
        """
        return None

    def is_preemptible(self, job: Job) -> bool:
        """Whether the policy may evict *job* right now.

        The default is the job's own (tier-derived) consent.  Policies
        that grant *conditional* placements — quota borrowing, where a
        guaranteed job runs on idle capacity only until an entitled job
        wants it back — override this instead of mutating
        ``job.preemptible``: eviction consent is policy state, and the
        control plane consults the policy when validating a preemption.
        """
        return bool(job.preemptible)

    @abc.abstractmethod
    def schedule(self, ctx: ScheduleContext) -> None:
        """Run one scheduling pass using the context callbacks."""

    # -- shared helpers ------------------------------------------------------------

    def try_place(self, ctx: ScheduleContext, job: Job) -> dict[NodeId, int] | None:
        """Ask the placement policy for a placement of *job* right now.

        Failures are cached against the cluster index's relax epoch: until
        capacity that could serve this job *increases* (a free or repair on
        an eligible GPU type), the failure verdict is provably still exact,
        so the placement policy is skipped entirely.  Returning the cached
        ``None`` is byte-indistinguishable from re-running the scan, which
        is what keeps golden summaries identical while collapsing
        ``nodes_examined`` on congested clusters.
        """
        index = ctx.cluster.index
        if index is not self._blocked_index:
            # New cluster behind the same scheduler object (fresh run or a
            # snapshot/fork): cached epochs are meaningless there.
            self._blocked_index = index
            self._blocked_at_epoch.clear()
        perf = index.perf
        perf.placement_attempts += 1
        epoch = index.relax_epoch(job.request.gpu_type)
        if self._blocked_at_epoch.get(job.job_id) == epoch:
            perf.blocked_cache_hits += 1
            return None
        placement = self.placement.place_job(ctx.cluster, job)
        if placement is None:
            self._blocked_at_epoch[job.job_id] = epoch
        else:
            self._blocked_at_epoch.pop(job.job_id, None)
        return placement

    def preempt_until_placed(
        self,
        ctx: ScheduleContext,
        job: Job,
        candidates: Iterable[Job],
        budget: int | None = None,
    ) -> tuple[dict[NodeId, int] | None, int]:
        """Evict *candidates* in :func:`drain_order` until *job* places.

        The one eviction path of every preemptive policy, each passing its
        own candidate set.  Victims are the candidates :meth:`is_preemptible`
        accepts that hold a GPU on a node *job* may use (``node_eligible``):
        evicting anything else frees nothing the job can take.  Evicts
        nothing when the victims' GPUs plus the free GPUs cannot cover the
        job; otherwise evicts at most *budget* victims (``None``: no limit),
        retrying placement after each.  Returns ``(placement, evicted)``.
        """
        cluster = ctx.cluster
        request = job.request
        victims = [
            candidate
            for candidate in candidates
            if self.is_preemptible(candidate)
            and any(node_eligible(cluster.node(n), request) for n in candidate.current_nodes)
        ]
        if sum(victim.num_gpus for victim in victims) + cluster.free_gpus < job.num_gpus:
            return None, 0  # eviction cannot possibly succeed; don't churn
        evicted = 0
        for victim in drain_order(victims):
            if budget is not None and evicted >= budget:
                break
            ctx.preempt_job(victim)
            evicted += 1
            placement = self.try_place(ctx, job)
            if placement is not None:
                return placement, evicted
        return None, evicted

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} queued={len(self._queue)}>"


class OrderedQueueScheduler(Scheduler):
    """Skeleton for non-preemptive, priority-ordered greedy schedulers.

    Subclasses provide :meth:`sort_key`; lower keys schedule first.
    """

    #: Strict head-of-line blocking (True = no job may overtake a stuck head).
    blocking: bool = False
    #: Greedy pass budget: stop scanning after this many consecutive
    #: placement failures.  Bounds pass cost when the queue is thousands
    #: deep under overload; generous enough that in practice only
    #: hopeless tails are skipped.
    max_consecutive_failures: int = 200

    def sort_key(self, job: Job, now: float):
        """Return the ordering key for *job* (lower = earlier). Ties are
        broken by (submit_time, job_id) appended by :meth:`ordered_queue`."""
        raise NotImplementedError

    def ordered_queue(self, now: float) -> list[Job]:
        return sorted(
            self._queue.values(),
            key=lambda job: (self.sort_key(job, now), job.submit_time, job.job_id),
        )

    def schedule(self, ctx: ScheduleContext) -> None:
        consecutive_failures = 0
        for job in self.ordered_queue(ctx.now):
            placement = self.try_place(ctx, job)
            if placement is not None:
                ctx.start_job(job, placement)
                consecutive_failures = 0
            elif self.blocking:
                break
            else:
                consecutive_failures += 1
                if consecutive_failures >= self.max_consecutive_failures:
                    break


def drain_order(jobs: Iterable[Job]) -> list[Job]:
    """Deterministic ordering helper used by preemptive policies when
    choosing eviction victims: latest-submitted, smallest jobs first (cheap
    to restart), id as final tiebreak."""
    return sorted(
        jobs,
        key=lambda job: (-job.submit_time, job.num_gpus, job.job_id),
    )
