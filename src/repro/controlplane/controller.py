"""The cluster control plane: one owner for every job/cluster mutation.

:class:`ClusterController` is the facade through which *every* actor —
the arrival path, the scheduler's start/preempt callbacks, the failure
injector's consequences, the serving autoscaler's retirements, and user
kills from ``tcloud`` — mutates job and cluster state.  Each mutation:

1. applies the matching :class:`~repro.workload.job.Job` transition, which
   writes the job's one stored :class:`~repro.workload.job.LifecycleState`
   (the controller itself writes ADMITTED and PENDING_DEPS), and the
   resource change (allocate/free, placement hooks, utilization
   accounting);
2. checks the edge the job took against the source state's
   ``successors`` in ``_apply``, the single transition path (illegal
   edges raise :class:`~repro.errors.IllegalTransitionError`);
3. logs the edge in the :class:`~repro.controlplane.lifecycle.TransitionLog`
   (as a typed :class:`~repro.controlplane.lifecycle.Transition` if it keeps
   records) — the run's only lifecycle record, from which churn counters,
   the Gantt timeline, ``tcloud history``, and the ops report derive.

The simulator keeps what is genuinely *simulation*: the event queue, the
execution/provisioning/staging models, and attempt-outcome planning.  The
controller keeps what is *control*: who may move which job where, and the
authoritative record that it happened.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from ..cluster.cluster import Cluster
from ..errors import IllegalTransitionError, SchedulingError, SimulationError
from ..ids import JobId, NodeId
from ..sched.base import Scheduler
from ..workload.job import FailureCategory, Job
from .lifecycle import Actor, Cause, LifecycleState, Transition, TransitionLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.metrics import MetricsCollector


class ReplicaHost(Protocol):
    """Capacity hooks a serving fleet exposes to the control plane."""

    def on_replica_start(
        self, now: float, job: Job, placement: dict[NodeId, int]
    ) -> None: ...

    def on_replica_stop(self, now: float, job: Job) -> None: ...


#: Outcome planned for one attempt: ("complete" | "fail" | "walltime", category).
AttemptOutcome = tuple[str, "FailureCategory | None"]


class ClusterController:
    """Owns all job-state and allocation mutations of one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        metrics: "MetricsCollector",
        *,
        checkpoint_loss_s: float = 30.0,
        max_job_preemptions: int = 0,
        record_transitions: bool = True,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.metrics = metrics
        self.checkpoint_loss_s = checkpoint_loss_s
        self.max_job_preemptions = max_job_preemptions
        self.jobs: dict[JobId, Job] = {}
        self.running: dict[JobId, Job] = {}
        self.log = TransitionLog(retain_records=record_transitions)
        #: Planned outcome per (job, attempt); consumed when the attempt ends.
        self.attempt_outcomes: dict[tuple[JobId, int], AttemptOutcome] = {}
        #: Cumulative running wall time per job (wall-time enforcement).
        self.wall_used: dict[JobId, float] = {}
        #: Serving fleet capacity hooks, if a fleet is co-located.
        self.serving: ReplicaHost | None = None
        #: Dependency bookkeeping for workflow stages held in PENDING_DEPS.
        #: ``waiting_on`` maps a held job to its still-unmet upstream ids;
        #: ``dependents`` is the reverse index consulted when an upstream
        #: reaches a terminal state.
        self.waiting_on: dict[JobId, set[JobId]] = {}
        self.dependents: dict[JobId, list[JobId]] = {}
        #: Simulator hook fired when a held job's last upstream finishes;
        #: the simulator schedules a DependencyRelease event so the release
        #: is an ordered, visible part of the event stream.  Without a hook
        #: (unit tests, direct controller use) the release is synchronous.
        self.on_deps_ready: Callable[[float, JobId], None] | None = None
        self._live_jobs = 0

    # -- tracking -----------------------------------------------------------------

    def track(self, job: Job) -> None:
        """Register a job with the control plane (trace load / submission)."""
        self.jobs[job.job_id] = job
        if not job.lifecycle.terminal:
            self._live_jobs += 1

    @property
    def live_jobs(self) -> int:
        return self._live_jobs

    def work_remains(self) -> bool:
        return self._live_jobs > 0

    # -- admission ----------------------------------------------------------------

    def admit(self, now: float, job: Job) -> None:
        """Accept an arriving job and hand it to the scheduler's queue."""
        source = job.lifecycle
        job.lifecycle = LifecycleState.ADMITTED
        self._apply(now, job, source, Cause.ADMIT, Actor.ADMISSION)
        self.scheduler.enqueue(job, now)

    def reject(self, now: float, job: Job) -> None:
        """Reject an arriving job at submission (infeasible / no partition)."""
        source = job.lifecycle
        job.kill(now)
        self._apply(now, job, source, Cause.REJECT, Actor.ADMISSION)

    def hold_for_deps(self, now: float, job: Job, unmet: Iterable[JobId]) -> None:
        """Park an arriving workflow stage until its upstreams finish.

        The job moves PENDING → PENDING_DEPS and is *not* handed to the
        scheduler — dependency-held jobs are invisible to every scheduling
        policy by construction, not by filtering.
        """
        unmet_set = set(unmet)
        if not unmet_set:
            raise SimulationError(f"hold_for_deps({job.job_id}) with no unmet deps")
        self.waiting_on[job.job_id] = unmet_set
        for upstream in sorted(unmet_set):
            self.dependents.setdefault(upstream, []).append(job.job_id)
        source = job.lifecycle
        job.lifecycle = LifecycleState.PENDING_DEPS
        self._apply(
            now,
            job,
            source,
            Cause.DEPS_HOLD,
            Actor.ADMISSION,
            detail=f"deps={len(unmet_set)}",
        )

    def release_deps(self, now: float, job: Job) -> None:
        """Admit a held stage whose upstreams have all finished."""
        self.waiting_on.pop(job.job_id, None)
        job.deps_released_at = now
        source = job.lifecycle
        job.lifecycle = LifecycleState.ADMITTED
        self._apply(now, job, source, Cause.DEPS_RELEASE, Actor.ADMISSION)
        self.scheduler.enqueue(job, now)

    def restrict_to_partition(self, job: Job, node_ids: Iterable[NodeId]) -> None:
        """Pin an arriving job's placement to its partition's node set.

        Rewriting the request is a job mutation, so it lives here rather
        than in the simulator's arrival handler: admission routing is
        control, not simulation.
        """
        job.request = replace(job.request, allowed_nodes=frozenset(node_ids))

    # -- placement ----------------------------------------------------------------

    def ensure_startable(self, job: Job, placement: dict[NodeId, int]) -> int:
        """Validate a scheduler's start request; returns the granted GPU total."""
        if not job.lifecycle.queued:
            raise SchedulingError(
                f"scheduler tried to start {job.job_id} in state {job.lifecycle.value}"
            )
        total = sum(placement.values())
        floor = job.elastic_min_gpus if job.elastic else job.num_gpus
        if not floor <= total <= job.num_gpus:
            raise SchedulingError(
                f"placement for {job.job_id} provides {total} GPUs, "
                f"job accepts [{floor}, {job.num_gpus}]"
            )
        return total

    def start(
        self,
        now: float,
        job: Job,
        placement: dict[NodeId, int],
        *,
        granted_gpus: int,
        slowdown: float,
        setup_s: float = 0.0,
    ) -> None:
        """Allocate resources and move the job to RUNNING.

        Precondition: :meth:`ensure_startable` has accepted *placement*
        for *job* and returned ``granted_gpus``.  This method does not
        check again; the simulator validates before its execution models
        draw from the RNG.
        """
        request = job.request
        self.cluster.allocate(
            job.job_id,
            placement,
            cpus_per_gpu=request.cpus_per_gpu,
            memory_gb_per_gpu=request.memory_gb_per_gpu,
        )
        self.scheduler.placement.on_allocate(self.cluster, job.job_id, dict(placement))
        self.metrics.on_used_changed(now, self.cluster.used_gpus)
        source = job.lifecycle
        job.start(
            now,
            tuple(sorted(placement)),
            slowdown,
            granted_gpus=granted_gpus,
            setup_s=setup_s,
        )
        self.scheduler.notify_start(job, now)
        self.running[job.job_id] = job
        if job.service_id is not None and self.serving is not None:
            self.serving.on_replica_start(now, job, dict(placement))
        self._apply(
            now,
            job,
            source,
            Cause.PLACE,
            Actor.SCHEDULER,
            detail=f"gpus={granted_gpus} nodes={len(placement)}",
        )

    def set_outcome(self, job: Job, outcome: AttemptOutcome) -> None:
        """Record the planned outcome of the job's current attempt."""
        self.attempt_outcomes[(job.job_id, job.attempts)] = outcome

    def pop_outcome(self, job_id: JobId, attempt: int) -> AttemptOutcome:
        return self.attempt_outcomes.pop((job_id, attempt))

    # -- attempt end --------------------------------------------------------------

    def finish(
        self, now: float, job: Job, outcome: str, category: FailureCategory | None
    ) -> None:
        """Apply the end of a completed attempt (complete/fail/walltime-kill)."""
        self._release(now, job)
        source = job.lifecycle
        if outcome == "fail":
            assert category is not None
            job.fail(now, category)
            self._apply(
                now,
                job,
                source,
                Cause.INTRINSIC_FAILURE,
                Actor.SIMULATOR,
                detail=category.value,
            )
        elif outcome == "walltime":
            job.kill(now)
            self._apply(
                now,
                job,
                source,
                Cause.WALLTIME_LIMIT,
                Actor.SIMULATOR,
                detail="walltime",
            )
        else:
            job.complete(now)
            self._apply(now, job, source, Cause.COMPLETE, Actor.SIMULATOR)
        self.scheduler.notify_finish(job, now)

    def preempt(self, now: float, job: Job) -> None:
        """Gracefully evict a running job (scheduler/quota reclaim)."""
        if job.lifecycle is not LifecycleState.RUNNING:
            raise SchedulingError(
                f"scheduler tried to preempt {job.job_id} in state {job.lifecycle.value}"
            )
        # Consent is the policy's call: borrowed runs are evictable even
        # though the job itself (guaranteed tier) is not.
        if not self.scheduler.is_preemptible(job):
            raise SchedulingError(f"job {job.job_id} is not preemptible")
        self._release(now, job)
        source = job.lifecycle
        job.preempt(now, checkpoint_loss=self.checkpoint_loss_s)
        self._apply(now, job, source, Cause.PREEMPT, Actor.SCHEDULER)
        limit = self.max_job_preemptions
        if limit and job.preemptions > limit:
            job.fail(now, FailureCategory.PREEMPTION_LIMIT)
            self._apply(
                now,
                job,
                LifecycleState.PREEMPTED,
                Cause.PREEMPTION_LIMIT,
                Actor.SIMULATOR,
                detail=FailureCategory.PREEMPTION_LIMIT.value,
            )
            self.scheduler.notify_finish(job, now)
            return
        self.scheduler.enqueue(job, now)

    def kill(
        self,
        now: float,
        job: Job,
        *,
        cause: Cause = Cause.USER_KILL,
        actor: Actor = Actor.USER,
        detail: str = "user",
    ) -> None:
        """Kill a queued or running job (user cancel, replica retirement)."""
        source = job.lifecycle
        if source.terminal:
            return
        if source is LifecycleState.RUNNING:
            self._release(now, job)
        else:
            self.scheduler.remove(job.job_id)
        job.kill(now)
        self._apply(now, job, source, cause, actor, detail=detail)
        self.scheduler.notify_finish(job, now)

    # -- failure domain -----------------------------------------------------------

    def apply_node_failure(
        self, now: float, node_id: NodeId, *, max_restarts: int
    ) -> list[JobId]:
        """Fail a node and evict its jobs; returns the victim ids."""
        victim_ids = sorted(self.cluster.fail_node(node_id))
        for job_id in victim_ids:
            job = self.jobs[job_id]
            if job.lifecycle is not LifecycleState.RUNNING:
                continue
            self._release(now, job)
            if job.attempts > max_restarts:
                job.fail(now, FailureCategory.HARDWARE)
                self._apply(
                    now,
                    job,
                    LifecycleState.RUNNING,
                    Cause.HARDWARE_FAILURE,
                    Actor.FAILURE_INJECTOR,
                    detail="hardware",
                )
                self.scheduler.notify_finish(job, now)
            else:
                job.requeue(now)
                self._apply(
                    now,
                    job,
                    LifecycleState.RUNNING,
                    Cause.NODE_FAILURE,
                    Actor.FAILURE_INJECTOR,
                    detail="node_failure",
                )
                self.scheduler.enqueue(job, now)
        self.metrics.node_failures += 1
        self.metrics.on_healthy_changed(now, self.cluster.healthy_gpus)
        return victim_ids

    def apply_node_repair(self, now: float, node_id: NodeId) -> None:
        self.cluster.repair_node(node_id)
        self.metrics.on_healthy_changed(now, self.cluster.healthy_gpus)

    # -- internals ----------------------------------------------------------------

    def _release(self, now: float, job: Job) -> None:
        """Free a running job's resources and metrics-account the change."""
        if job.service_id is not None and self.serving is not None:
            self.serving.on_replica_stop(now, job)
        if job.last_start_time is not None:
            self.wall_used[job.job_id] = self.wall_used.get(job.job_id, 0.0) + max(
                0.0, now - job.last_start_time
            )
        allocation = self.cluster.free(job.job_id)
        self.scheduler.placement.on_free(self.cluster, job.job_id, allocation.placement)
        self.running.pop(job.job_id, None)
        self.attempt_outcomes.pop((job.job_id, job.attempts), None)
        self.metrics.on_used_changed(now, self.cluster.used_gpus)

    def _apply(
        self,
        now: float,
        job: Job,
        source: LifecycleState,
        cause: Cause,
        actor: Actor,
        detail: str = "",
    ) -> Transition | None:
        """The single transition path: validate, log, account.

        The job has just moved from *source* to ``job.lifecycle``; that
        edge must be one of ``source.successors``.  Returns the record, if the log keeps one.
        """
        target = job.lifecycle
        if not source.successor_bits & target.bit:
            raise IllegalTransitionError(
                f"job {job.job_id}: illegal lifecycle transition "
                f"{source.value} -> {target.value} "
                f"(cause={cause.value}, actor={actor.value}, t={now})"
            )
        transition: Transition | None = None
        if self.log.retain_records:
            transition = Transition(
                job.job_id, now, source, target, cause, actor, job.attempts, detail
            )
            self.log.append(transition)
        else:
            self.log.tally(target, cause)
        if target.terminal:
            self._account(now, job.job_id, target)
        return transition

    def _account(self, now: float, job_id: JobId, target: LifecycleState) -> None:
        """Retire a job that reached a terminal state: live-job count and
        dependency bookkeeping.  Churn counts are read from the log."""
        self._live_jobs -= 1
        if self._live_jobs < 0:
            raise SimulationError(
                f"live-job counter went negative at {job_id}; "
                "a terminal transition was double-counted"
            )
        self.waiting_on.pop(job_id, None)
        self._on_upstream_terminal(now, job_id, target)

    def _on_upstream_terminal(self, now: float, job_id: JobId, target: LifecycleState) -> None:
        """Resolve held downstreams when one of their upstreams ends.

        A FINISHED upstream satisfies the dependency; any other terminal
        outcome (failed, killed, walltime) cascades: the downstream stage
        can never run, so it is killed with ``UPSTREAM_FAILED``, which
        recursively resolves *its* dependents through this same path.
        """
        downstream_ids = self.dependents.pop(job_id, None)
        if not downstream_ids:
            return
        satisfied = target is LifecycleState.FINISHED
        for downstream_id in downstream_ids:
            unmet = self.waiting_on.get(downstream_id)
            if unmet is None:
                continue  # already released or killed
            if not satisfied:
                self.kill(
                    now,
                    self.jobs[downstream_id],
                    cause=Cause.UPSTREAM_FAILED,
                    actor=Actor.SIMULATOR,
                    detail=f"upstream={job_id}",
                )
                continue
            unmet.discard(job_id)
            if not unmet:
                if self.on_deps_ready is not None:
                    self.on_deps_ready(now, downstream_id)
                else:
                    self.release_deps(now, self.jobs[downstream_id])
