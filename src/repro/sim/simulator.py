"""Trace-driven cluster simulator: wires cluster, scheduler, and workload.

:class:`ClusterSimulator` replays a job trace against a cluster under a
scheduling policy, producing :class:`~repro.sim.metrics.SimMetrics`.  All
state mutation — allocations, job lifecycle transitions, metric updates —
flows through the :class:`~repro.controlplane.controller.ClusterController`
owned by the simulator; the simulator's event handlers decide *when* and
*what* (outcome planning, provisioning, staging), the control plane decides
*whether* (lifecycle legality) and records *that it happened* (the
transition log).  Schedulers act only through the ``start_job`` /
``preempt_job`` callbacks in their
:class:`~repro.sched.base.ScheduleContext`, and placement policies only
observe via their hooks.

Event flow per job: ``JobArrival`` enqueues it with the scheduler and
requests a scheduling pass; the pass may start it (allocating resources and
scheduling a ``JobFinish`` at ``now + provision + remaining_work ×
slowdown``); preemption or a node failure cancels the attempt (the stale
``JobFinish`` is ignored via the attempt counter) and requeues the job;
the final ``JobFinish`` completes or fails it per its scripted failure
plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..cluster.cluster import Cluster
from ..controlplane.controller import ClusterController
from ..controlplane.lifecycle import Actor, Cause, LifecycleState, TransitionLog
from ..errors import ConfigError, SimulationError
from ..execlayer.runtime import RuntimeRegistry
from ..execlayer.speedup import ExecutionModel, UnitExecutionModel
from ..execlayer.transfer import artifact_fetch_seconds
from ..ids import JobId, NodeId
from ..perf import PerfCounters
from ..sched.base import ScheduleContext, Scheduler
from ..sched.placement.base import request_chunks
from ..workload.job import FailureCategory, Job
from ..workload.trace import Trace
from .engine import SimulationEngine
from .events import (
    DependencyRelease,
    JobArrival,
    JobFinish,
    MetricsSample,
    NodeFailure,
    NodeRepair,
    QuantumExpiry,
    SchedulerTick,
    StageComplete,
)
from .failures import FailureConfig, FailureInjector
from .metrics import MetricsCollector, Sample, SimMetrics, summarize

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from ..execlayer.storage import SharedFilesystem
    from ..serving.fleet import ServingFleet


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs independent of policy.

    Attributes:
        sample_interval_s: Period of time-series snapshots (0 disables).
        checkpoint_loss_s: Work redone after a graceful preemption
            (checkpoint granularity).
        provisioning: When True, runtime provisioning time (execution layer)
            is charged at the start of every attempt.
        audit: Audit the books at the end of every scheduler pass, job
            finish and node failure: cluster invariants, the placement
            policy's own books, and no dependency-held job in the
            scheduler queue.  Audits draw no randomness, so enabling them
            never perturbs the simulated outcome, only adds checking.  The
            end-of-run audit (conservation, drain, workflow bound) runs on
            every run regardless.
        max_events: Safety valve against livelocked policies.
        seed: Seed for simulator-owned randomness (provisioning failures,
            node failure sampling).
        enforce_walltime: Kill jobs whose cumulative running wall time
            exceeds their user wall-time limit, as Slurm does.  Off by
            default because several experiments study estimate *quality*,
            which enforcement would entangle.
        max_job_preemptions: A job preempted more than this many times is
            failed with ``PREEMPTION_LIMIT`` instead of requeued forever
            (0 = unlimited).
        record_transitions: Retain the control plane's individual
            :class:`~repro.controlplane.lifecycle.Transition` records in
            the result's log (Gantt rendering, ``tcloud history``).  On by
            default; fleet-scale runs (~1M jobs) turn it off to save
            gigabytes — all aggregate counts (``log.count``, churn
            metrics, the ops report's by-cause table) stay exact either
            way.
    """

    sample_interval_s: float = 600.0
    checkpoint_loss_s: float = 30.0
    provisioning: bool = False
    audit: bool = False
    max_events: int | None = None
    seed: int = 0
    enforce_walltime: bool = False
    max_job_preemptions: int = 0
    record_transitions: bool = True


@dataclass
class SimulationResult:
    """Everything a run produced."""

    scheduler: str
    placement: str
    trace_name: str
    metrics: SimMetrics
    jobs: dict[JobId, Job]
    samples: list[Sample]
    end_time: float
    events_processed: int
    #: The control plane's transition log, the run's only lifecycle
    #: record: every edge of every job with cause/actor/timestamp (the
    #: Gantt timeline and the churn counts derive from it).  Its records
    #: are empty when the run set ``record_transitions=False`` (fleet
    #: scale); its counts are exact either way.
    log: TransitionLog
    #: Hot-path counters (wall time, nodes examined).  Observational only:
    #: excluded from summary() so results stay byte-identical across runs.
    perf: PerfCounters = field(default_factory=PerfCounters)

    def summary(self) -> dict[str, float]:
        row = self.metrics.as_row()
        row["events"] = float(self.events_processed)
        return row


class ClusterSimulator:
    """Replays a trace on a cluster under a scheduling policy."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        trace: Trace,
        exec_model: ExecutionModel | None = None,
        failure_config: FailureConfig | None = None,
        runtime_registry: RuntimeRegistry | None = None,
        storage: "SharedFilesystem | None" = None,
        config: SimConfig | None = None,
        serving: "ServingFleet | None" = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.trace = trace
        self.config = config or SimConfig()
        self.exec_model = exec_model or UnitExecutionModel()
        self.rng = np.random.default_rng(self.config.seed)
        self.runtime_registry = runtime_registry or RuntimeRegistry()
        self.storage = storage
        self.engine = SimulationEngine()
        self.metrics = MetricsCollector(total_gpus=cluster.total_gpus)
        # The control plane owns all job/cluster mutations; the simulator's
        # job/running attributes alias its structures so existing
        # observers (schedulers, dashboards, tests) read the same state.
        self.controller = ClusterController(
            cluster,
            scheduler,
            self.metrics,
            checkpoint_loss_s=self.config.checkpoint_loss_s,
            max_job_preemptions=self.config.max_job_preemptions,
            record_transitions=self.config.record_transitions,
        )
        self.jobs: dict[JobId, Job] = self.controller.jobs
        self.running: dict[JobId, Job] = self.controller.running
        self._tick_pending = False
        # Static-feasibility verdicts per distinct request shape: node specs
        # never change mid-run, so the answer is a pure function of the shape.
        self._feasibility_cache: dict[tuple[object, ...], bool] = {}
        # Fresh counters per run, shared with the cluster index so the
        # placement layer accounts into the same struct.
        self.perf = PerfCounters()
        cluster.index.perf = self.perf
        self._failure_injector: FailureInjector | None = None
        if failure_config is not None:
            self._failure_injector = FailureInjector(failure_config, self.rng)

        for job in trace:
            if job.job_id in self.jobs:
                raise SimulationError(f"duplicate job id {job.job_id} in trace")
            self.controller.track(job)
        for job in trace:
            for upstream_id in job.depends_on:
                if upstream_id not in self.jobs:
                    raise SimulationError(
                        f"job {job.job_id} depends on unknown job {upstream_id}"
                    )
        # Held workflow stages re-enter admission via a DependencyRelease
        # event (never synchronously inside the upstream's finish handler),
        # so the release lands at a deterministic rank in the event order.
        self.controller.on_deps_ready = self._schedule_dependency_release
        # Job-aware placement policies (transfer-aware) resolve upstream
        # ids against the live job table.
        scheduler.placement.bind(self.jobs)

        engine = self.engine
        engine.register(JobArrival, self._on_arrival)
        engine.register(JobFinish, self._on_finish)
        engine.register(SchedulerTick, self._on_tick)
        engine.register(QuantumExpiry, self._on_quantum)
        engine.register(MetricsSample, self._on_sample)
        engine.register(NodeFailure, self._on_node_failure)
        engine.register(NodeRepair, self._on_node_repair)
        engine.register(StageComplete, self._on_stage_complete)
        engine.register(DependencyRelease, self._on_dependency_release)

        for job in trace:
            engine.schedule_at(job.submit_time, JobArrival(job.job_id))
        if self.config.sample_interval_s > 0 and trace:
            engine.schedule_at(0.0, MetricsSample())
        quantum = scheduler.tick_interval()
        if quantum is not None and trace:
            engine.schedule_at(quantum, QuantumExpiry())
        if self._failure_injector is not None:
            for time, node_id in self._failure_injector.initial_failures(cluster):
                engine.schedule_at(time, NodeFailure(node_id))
        # The serving fleet (if any) registers its own event handlers and
        # seeds its rate-change timeline; replicas then flow through the
        # ordinary submit/schedule/preempt machinery like any other job.
        self.serving = serving
        if serving is not None:
            serving.attach(self)
            self.controller.serving = serving
            if self.config.sample_interval_s > 0 and not trace:
                engine.schedule_at(0.0, MetricsSample())

    # -- public API ---------------------------------------------------------------

    def submit_job(self, job: Job) -> None:
        """Dynamically submit a job to a live simulation (tcloud path).

        The job's ``submit_time`` must not precede the simulation clock.
        """
        if job.job_id in self.jobs:
            raise SimulationError(f"job {job.job_id} already submitted")
        if job.submit_time < self.engine.now - 1e-9:
            raise SimulationError(
                f"job {job.job_id} submit_time {job.submit_time} is in the past "
                f"(now={self.engine.now})"
            )
        self.controller.track(job)
        self.engine.schedule_at(job.submit_time, JobArrival(job.job_id))
        if self.config.sample_interval_s > 0 and not self.engine.has_pending(MetricsSample):
            self.engine.schedule_at(self.engine.now, MetricsSample())
        quantum = self.scheduler.tick_interval()
        if quantum is not None and not self.engine.has_pending(QuantumExpiry):
            self.engine.schedule_in(quantum, QuantumExpiry())

    def kill_job(
        self,
        job_id: JobId,
        *,
        cause: "Cause | None" = None,
        actor: "Actor | None" = None,
        detail: str = "user",
    ) -> None:
        """Kill a queued or running job immediately (user cancellation).

        Callers other than the user (e.g. the serving autoscaler retiring
        replicas) pass their own ``cause``/``actor`` so the transition log
        attributes the kill correctly.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise SimulationError(f"unknown job {job_id}")
        if job.lifecycle.terminal:
            return
        now = self.engine.now
        self.controller.kill(
            now,
            job,
            cause=cause or Cause.USER_KILL,
            actor=actor or Actor.USER,
            detail=detail,
        )
        self._request_tick(now)

    def run(self, until: float | None = None) -> SimulationResult:
        """Run to quiescence (or *until*) and return aggregated results."""
        self.engine.run(until=until, max_events=self.config.max_events)
        now = self.engine.now
        self.metrics.on_used_changed(now, self.cluster.used_gpus)
        self.metrics.on_healthy_changed(now, self.cluster.healthy_gpus)
        # Event-queue telemetry lives on the engine; fold it into the run's
        # counters so benchmarks and run reports see one flat struct.
        self.perf.events_enqueued = self.engine.events_enqueued
        self.perf.events_dequeued = self.engine.events_processed
        self.perf.peak_pending_events = self.engine.peak_pending
        serving_metrics = self.serving.finalize(now) if self.serving is not None else None
        metrics = summarize(
            self.jobs, self.metrics, now, self.controller.log, serving=serving_metrics
        )
        self._audit_end_of_run(now, metrics)
        return SimulationResult(
            scheduler=self.scheduler.name,
            placement=self.scheduler.placement.name,
            trace_name=self.trace.name,
            metrics=metrics,
            jobs=self.jobs,
            samples=self.metrics.samples,
            end_time=now,
            events_processed=self.engine.events_processed,
            log=self.controller.log,
            perf=self.perf,
        )

    # -- event handlers --------------------------------------------------------------

    def _on_arrival(self, now: float, event: JobArrival) -> None:
        job = self.jobs[event.job_id]
        if job.lifecycle.terminal:
            return  # killed while still pending (tcloud cancel before arrival)
        if not self._admit_partition(job) or not self.statically_feasible(job):
            self.controller.reject(now, job)
            return
        if job.depends_on:
            unmet = self._unmet_dependencies(now, job)
            if unmet is None:
                return  # an upstream already died; the stage was cascade-killed
            if unmet:
                self.controller.hold_for_deps(now, job, unmet)
                return
        self.controller.admit(now, job)
        self._request_tick(now)

    def _unmet_dependencies(self, now: float, job: Job) -> list[JobId] | None:
        """Upstream ids *job* must still wait on, or ``None`` if doomed.

        An upstream that already failed or was killed dooms the stage on
        the spot: the controller cascade-kills it (which recursively kills
        its own dependents) and this returns ``None``.
        """
        unmet: list[JobId] = []
        for upstream_id in job.depends_on:
            state = self.jobs[upstream_id].lifecycle
            if state is LifecycleState.FINISHED:
                continue
            if state.terminal:
                self.controller.kill(
                    now,
                    job,
                    cause=Cause.UPSTREAM_FAILED,
                    actor=Actor.SIMULATOR,
                    detail=f"upstream={upstream_id}",
                )
                return None
            unmet.append(upstream_id)
        return unmet

    def _schedule_dependency_release(self, now: float, job_id: JobId) -> None:
        self.engine.schedule_at(now, DependencyRelease(job_id))

    def _on_dependency_release(self, now: float, event: DependencyRelease) -> None:
        job = self.jobs[event.job_id]
        if job.lifecycle is not LifecycleState.PENDING_DEPS:
            return  # killed (or cascade-killed) while held; release is stale
        self.controller.release_deps(now, job)
        self._request_tick(now)

    def _admit_partition(self, job: Job) -> bool:
        """Route a partition-named job: admission limits + node restriction.

        Jobs that name no partition bypass routing entirely (the campus
        default); jobs naming an unknown or rejecting partition are
        rejected at submission, as Slurm would.
        """
        if job.partition is None:
            return True
        try:
            partition = self.cluster.partitions.get(job.partition)
        except ConfigError:
            return False
        walltime_hours = (job.walltime_estimate or job.duration) / 3600.0
        if not partition.admits(job.num_gpus, walltime_hours, job.tier.value):
            return False
        self.controller.restrict_to_partition(job, partition.node_ids)
        return True

    def _on_tick(self, now: float, event: SchedulerTick) -> None:
        self._tick_pending = False
        self._run_scheduler_pass(now)

    def _on_quantum(self, now: float, event: QuantumExpiry) -> None:
        self._run_scheduler_pass(now)
        quantum = self.scheduler.tick_interval()
        if quantum is not None and self.controller.work_remains():
            self.engine.schedule_in(quantum, QuantumExpiry())

    def _run_scheduler_pass(self, now: float) -> None:
        ctx = ScheduleContext(
            now=now,
            cluster=self.cluster,
            running=self.running,
            start_job=lambda job, placement: self._start_job(now, job, placement),
            preempt_job=lambda job: self._preempt_job(now, job),
        )
        self.scheduler.schedule(ctx)
        self.perf.scheduler_passes += 1
        if self.config.audit:
            self._audit()

    def _on_finish(self, now: float, event: JobFinish) -> None:
        job = self.jobs[event.job_id]
        if job.attempts != event.attempt or job.lifecycle is not LifecycleState.RUNNING:
            return  # stale event from a preempted/killed attempt
        outcome, category = self.controller.pop_outcome(job.job_id, event.attempt)
        self.controller.finish(now, job, outcome, category)
        self._request_tick(now)
        if self.config.audit:
            self._audit()

    def _on_sample(self, now: float, event: MetricsSample) -> None:
        self.metrics.sample(
            now, self.cluster.used_gpus, self.scheduler.queue_depth, len(self.running)
        )
        if self.config.sample_interval_s > 0 and self.controller.work_remains():
            self.engine.schedule_in(self.config.sample_interval_s, MetricsSample())

    def _on_node_failure(self, now: float, event: NodeFailure) -> None:
        node = self.cluster.node(event.node_id)
        if not node.healthy:
            return  # already down (overlapping failure sample)
        injector = self._failure_injector
        max_restarts = injector.config.max_job_restarts if injector else 0
        self.controller.apply_node_failure(now, event.node_id, max_restarts=max_restarts)
        assert injector is not None
        self.engine.schedule_in(injector.repair_time_s(), NodeRepair(event.node_id))
        self._request_tick(now)
        if self.config.audit:
            self._audit()

    def _on_stage_complete(self, now: float, event: StageComplete) -> None:
        assert self.storage is not None
        self.storage.end_stage()

    def _on_node_repair(self, now: float, event: NodeRepair) -> None:
        self.controller.apply_node_repair(now, event.node_id)
        assert self._failure_injector is not None
        node = self.cluster.node(event.node_id)
        if self.controller.work_remains():
            self.engine.schedule_in(
                self._failure_injector.time_to_failure_s(node), NodeFailure(event.node_id)
            )
        self._request_tick(now)

    # -- scheduler callbacks -------------------------------------------------------------

    def _start_job(self, now: float, job: Job, placement: dict[NodeId, int]) -> None:
        # Validate before the execution models run: a bad scheduler call
        # must raise without consuming RNG draws (provisioning samples).
        total = self.controller.ensure_startable(job, placement)
        slowdown = self.exec_model.slowdown(job, placement, self.cluster)
        provision_s = 0.0
        if self.config.provisioning:
            env_key = job.model_name or job.name or job.job_id
            result = self.runtime_registry.provision(
                env_key, self.rng, multi_node=len(placement) > 1
            )
            provision_s = result.provision_s
            slowdown *= self.runtime_registry.get(result.runtime).overhead_factor
            self.metrics.provision_seconds += provision_s
        if self.storage is not None and job.dataset_gb > 0:
            dataset_key = f"{job.user_id}:{job.model_name or job.name or job.job_id}"
            self.storage.begin_stage()
            stage_s = self.storage.stage(
                tuple(sorted(placement)), dataset_key, job.dataset_gb
            )
            self.engine.schedule_in(stage_s, StageComplete(job.job_id))
            provision_s += stage_s
            self.metrics.stage_seconds += stage_s
        if job.depends_on:
            # Upstream artifacts must reach this placement before work
            # starts; priced by the same fabric model the transfer-aware
            # placement policy ranks with.
            fetch_s = artifact_fetch_seconds(
                job, tuple(sorted(placement)), self.jobs, self.cluster.topology
            )
            if fetch_s > 0:
                provision_s += fetch_s
                self.metrics.transfer_seconds += fetch_s

        self.controller.start(
            now,
            job,
            placement,
            granted_gpus=total,
            slowdown=slowdown,
            setup_s=provision_s,
        )

        outcome: tuple[str, FailureCategory | None] = ("complete", None)
        wall = job.remaining_work * slowdown
        plan = job.failure_plan
        if plan is not None:
            fail_point = job.duration * plan.at_fraction
            if job.work_done < fail_point <= job.work_done + job.remaining_work + 1e-9:
                wall = (fail_point - job.work_done) * slowdown
                outcome = ("fail", plan.category)
        if self.config.enforce_walltime:
            # The wall-time limit covers the whole allocation (provisioning
            # included), cumulatively across attempts, as in Slurm.
            cap = (job.walltime_estimate or job.duration) - self.controller.wall_used.get(
                job.job_id, 0.0
            )
            if provision_s + wall > cap + 1e-9:
                wall = max(0.0, cap - provision_s)
                outcome = ("walltime", None)
        self.controller.set_outcome(job, outcome)
        self.engine.schedule_in(provision_s + wall, JobFinish(job.job_id, job.attempts))

    def _preempt_job(self, now: float, job: Job) -> None:
        self.controller.preempt(now, job)

    # -- internals ---------------------------------------------------------------------

    def _request_tick(self, now: float) -> None:
        if not self._tick_pending:
            self._tick_pending = True
            self.engine.schedule_at(now, SchedulerTick())

    def statically_feasible(self, job: Job) -> bool:
        """Could this request EVER be satisfied on an empty, healthy cluster?

        Arrival admission applies this verdict, and federation routers probe
        it.  It depends only on static node specs and the request *shape*,
        so it is memoized per distinct shape — arrival processing does the
        O(cluster) spec scan once per shape instead of once per job.
        """
        request = job.request
        chunks = request_chunks(request)
        chunk = chunks[0]
        key = (
            request.gpu_type,
            chunk,
            len(chunks),
            request.cpus_per_gpu,
            request.memory_gb_per_gpu,
            request.allowed_nodes,
        )
        cached = self._feasibility_cache.get(key)
        if cached is not None:
            return cached
        by_type: dict[str, int] = {}
        feasible = False
        for node in self.cluster.index.candidate_pool(request.gpu_type):
            spec = node.spec
            if request.allowed_nodes is not None and node.node_id not in request.allowed_nodes:
                continue
            if spec.num_gpus < chunk:
                continue
            if spec.cpus < request.cpus_per_gpu * chunk:
                continue
            if spec.memory_gb < request.memory_gb_per_gpu * chunk:
                continue
            count = by_type.get(spec.gpu_type, 0) + 1
            if count >= len(chunks):
                feasible = True
                break
            by_type[spec.gpu_type] = count
        self._feasibility_cache[key] = feasible
        return feasible

    def _audit(self) -> None:
        """Per-checkpoint audit (under ``SimConfig.audit``).

        Cluster books, the placement policy's own books, and no
        dependency-held job in the scheduler queue: ``hold_for_deps``
        never enqueues, so a PENDING_DEPS job there means a lifecycle edge
        leaked around the control plane.
        """
        self.cluster.verify_invariants()
        self.scheduler.placement.verify_invariants(self.cluster)
        for job in self.scheduler.queue:
            if job.lifecycle is LifecycleState.PENDING_DEPS:
                raise SimulationError(
                    f"dependency-held job {job.job_id} leaked into the scheduler queue"
                )

    def _audit_end_of_run(self, now: float, metrics: SimMetrics) -> None:
        """End-of-run audit, on every run: allocated GPU-seconds equal what
        the jobs were charged (a live attempt up to *now*); a drained event
        queue leaves every job terminal and no GPU allocated; no workflow
        beat its critical path (exact only under the unit execution model,
        which runs stages at their nominal duration)."""
        charged = 0.0
        for job in self.jobs.values():
            charged += job.gpu_seconds_at(now)
        served = self.metrics.served_gpu_seconds(now)
        if abs(served - charged) > max(1.0, 1e-9 * abs(served)):
            raise SimulationError(
                f"GPU-seconds not conserved: allocated {served:.6f}, "
                f"charged to jobs {charged:.6f}"
            )
        if self.engine.pending == 0:
            for job in self.jobs.values():
                if not job.lifecycle.terminal:
                    raise SimulationError(
                        f"event queue drained with job {job.job_id} still {job.lifecycle.value}"
                    )
            if self.cluster.used_gpus:
                raise SimulationError(
                    f"event queue drained with {self.cluster.used_gpus} GPUs allocated"
                )
        workflow = metrics.workflow
        if (
            workflow is not None
            and type(self.exec_model) is UnitExecutionModel
            and workflow.completed_workflows
            and workflow.min_slack_s < -1e-6
        ):
            raise SimulationError(
                "workflow makespan beat its critical-path lower bound "
                f"(min slack {workflow.min_slack_s:.6f}s)"
            )


def simulate(
    cluster: Cluster,
    scheduler: Scheduler,
    trace: Trace,
    **kwargs: Any,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`ClusterSimulator`."""
    return ClusterSimulator(cluster, scheduler, trace, **kwargs).run()
