"""Metrics collection for trace-driven simulations.

Two kinds of measurement coexist:

* **exact integrals** — GPU utilization is integrated event-by-event
  (every allocation change contributes ``used_gpus × dt``), so the average
  utilization in a result is exact, not sampled;
* **time series samples** — periodic snapshots (queue depth, used GPUs,
  running jobs) drive the F4 utilization-over-time figure.

Aggregation happens once, in :func:`summarize`, which turns the raw job
population into the numbers the paper's tables report: JCT and queueing
percentiles, per-tier breakdowns, preemption and failure counts, makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..controlplane.lifecycle import Cause, LifecycleState, TransitionLog
from ..errors import SimulationError
from ..workload.job import FailureCategory, Job, JobTier


def percentiles(
    values: Iterable[float], points: Sequence[int] = (50, 90, 95, 99)
) -> dict[str, float]:
    """Named percentiles of a sequence (empty input → all NaN)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return {f"p{p}": float("nan") for p in points}
    return {f"p{p}": float(np.percentile(array, p)) for p in points}


@dataclass(frozen=True)
class Sample:
    """One periodic snapshot of cluster state."""

    time: float
    used_gpus: int
    total_gpus: int
    queue_depth: int
    running_jobs: int

    @property
    def utilization(self) -> float:
        return self.used_gpus / self.total_gpus if self.total_gpus else 0.0


@dataclass
class MetricsCollector:
    """Accumulates the utilization integral, samples, and the counters the
    transition log does not carry (node failures, setup seconds)."""

    total_gpus: int
    samples: list[Sample] = field(default_factory=list)
    node_failures: int = 0
    provision_seconds: float = 0.0
    stage_seconds: float = 0.0
    transfer_seconds: float = 0.0
    _last_time: float = 0.0
    _used_gpus: int = 0
    _used_integral: float = 0.0  # gpu-seconds
    _healthy_last_time: float = 0.0
    _healthy_gpus: int = field(default=-1)  # -1 = "all of total_gpus" (lazy init)
    _healthy_integral: float = 0.0  # gpu-seconds of healthy capacity

    def on_healthy_changed(self, now: float, healthy_gpus: int) -> None:
        """Advance the healthy-capacity integral to *now* with the new level.

        Feeds the *availability* factor of the goodput decomposition:
        healthy GPU-seconds over total GPU-seconds.  Called on node
        failure/repair; between calls the level is held constant.
        """
        if now < self._healthy_last_time - 1e-9:
            raise SimulationError(
                f"metrics time went backwards: {now} < {self._healthy_last_time}"
            )
        level = self._healthy_gpus if self._healthy_gpus >= 0 else self.total_gpus
        self._healthy_integral += level * max(0.0, now - self._healthy_last_time)
        self._healthy_last_time = now
        self._healthy_gpus = healthy_gpus

    def healthy_gpu_seconds(self, now: float) -> float:
        """Exact healthy-capacity GPU-seconds from time 0 to *now*."""
        level = self._healthy_gpus if self._healthy_gpus >= 0 else self.total_gpus
        return self._healthy_integral + level * max(0.0, now - self._healthy_last_time)

    def on_used_changed(self, now: float, used_gpus: int) -> None:
        """Advance the utilization integral to *now* with the new level."""
        if now < self._last_time - 1e-9:
            raise SimulationError(
                f"metrics time went backwards: {now} < {self._last_time}"
            )
        self._used_integral += self._used_gpus * max(0.0, now - self._last_time)
        self._last_time = now
        self._used_gpus = used_gpus

    def sample(self, now: float, used_gpus: int, queue_depth: int, running: int) -> None:
        self.samples.append(Sample(now, used_gpus, self.total_gpus, queue_depth, running))

    def served_gpu_seconds(self, now: float) -> float:
        """Exact GPU-seconds allocated from time 0 to *now*."""
        return self._used_integral + self._used_gpus * max(0.0, now - self._last_time)

    def average_utilization(self, now: float) -> float:
        if now <= 0 or self.total_gpus == 0:
            return 0.0
        return self.served_gpu_seconds(now) / (self.total_gpus * now)

    @classmethod
    def merged(cls, collectors: Sequence["MetricsCollector"], now: float) -> "MetricsCollector":
        """Fold several sites' collectors into one fleet-level collector.

        Integrals are finalised at the common horizon *now* (every site's
        exact GPU-second integral is evaluated there, so per-site figures
        sum exactly to the fleet figure) and counters are summed.  Samples
        are not merged — per-site time series stay on the site results —
        and churn counts come from the sites' merged transition logs.
        """
        fleet = cls(total_gpus=sum(c.total_gpus for c in collectors))
        for collector in collectors:
            fleet._used_integral += collector.served_gpu_seconds(now)
            fleet._healthy_integral += collector.healthy_gpu_seconds(now)
            fleet.node_failures += collector.node_failures
            fleet.provision_seconds += collector.provision_seconds
            fleet.stage_seconds += collector.stage_seconds
            fleet.transfer_seconds += collector.transfer_seconds
        fleet._last_time = now
        fleet._healthy_last_time = now
        fleet._used_gpus = 0
        fleet._healthy_gpus = 0
        return fleet


@dataclass(frozen=True)
class ServingMetrics:
    """Final aggregates of the inference-serving subsystem (one run).

    Request counts are expectations integrated from the offered-rate
    curve through the M/M/c capacity model — exact under the model, not
    sampled.  ``slo_attainment`` is the SLO-goodput ratio: requests
    answered within their service's SLO divided by requests offered.
    ``harvested_gpu_hours`` is capacity served by surge (opportunistic,
    preemptible) replicas — idle GPUs monetised for serving the same way
    the free tier monetises them for training.
    """

    services: int
    offered_requests: float
    served_requests: float
    slo_attained_requests: float
    slo_attainment: float
    goodput_rps: float
    baseline_gpu_hours: float
    harvested_gpu_hours: float
    replica_launches: int
    replica_preemptions: int
    scale_up_events: int
    scale_down_events: int
    per_service: dict[str, dict[str, float]]

    def as_row(self) -> dict[str, float]:
        return {
            "offered_mreq": self.offered_requests / 1e6,
            "slo_attainment": self.slo_attainment,
            "goodput_rps": self.goodput_rps,
            "harvested_gpu_h": self.harvested_gpu_hours,
            "serving_preemptions": float(self.replica_preemptions),
        }


@dataclass(frozen=True)
class GoodputMetrics:
    """The ML-productivity goodput decomposition of one run (or fleet).

    Follows the TPU-fleet framing: *goodput* is the share of the
    theoretically available GPU-time that produced retained training
    progress, factored into three multiplicative terms::

        goodput = availability × efficiency × productive_share
                = (healthy / total) × (served / healthy) × (productive / served)
                = productive / total            (the identity is exact)

    * **availability** — healthy GPU-time over total GPU-time (node
      failures and repair lag erode it);
    * **efficiency** — allocated (served) GPU-time over healthy GPU-time
      (queueing gaps and fragmentation erode it — this is classic
      utilization measured against *healthy* capacity);
    * **productive_share** — GPU-time that produced retained progress
      over allocated GPU-time (setup/provisioning, execution slowdown,
      discarded attempts, checkpoint loss, and migration restore/warmup
      erode it).

    Absolute GPU-hour components are carried alongside the ratios so
    per-site numbers sum exactly to fleet numbers.
    """

    total_gpu_hours: float
    healthy_gpu_hours: float
    served_gpu_hours: float
    productive_gpu_hours: float
    availability: float
    efficiency: float
    productive_share: float
    goodput: float

    @staticmethod
    def from_gpu_hours(
        total: float, healthy: float, served: float, productive: float
    ) -> "GoodputMetrics":
        """Build the decomposition from its four GPU-hour components."""
        return GoodputMetrics(
            total_gpu_hours=total,
            healthy_gpu_hours=healthy,
            served_gpu_hours=served,
            productive_gpu_hours=productive,
            availability=healthy / total if total > 0 else 0.0,
            efficiency=served / healthy if healthy > 0 else 0.0,
            productive_share=productive / served if served > 0 else 0.0,
            goodput=productive / total if total > 0 else 0.0,
        )

    def as_row(self) -> dict[str, float]:
        return {
            "goodput": self.goodput,
            "availability": self.availability,
            "efficiency": self.efficiency,
            "productive_share": self.productive_share,
            "productive_gpu_h": self.productive_gpu_hours,
        }


@dataclass(frozen=True)
class WorkflowMetrics:
    """Per-run rollup of multi-stage workflow (DAG) jobs.

    *Makespan* of a workflow is last stage end minus first stage submit.
    *Critical path* is the analytical lower bound on that makespan: the
    longest dependency chain of stage durations, assuming zero queueing,
    zero transfer, and unit execution speed — on any run with a unit
    execution model, ``makespan >= critical_path`` must hold per workflow
    (``min_slack_s >= 0``), which :mod:`repro.sim.simulator` audits at the
    end of every run.  Stage waiting decomposes into *dependency hold*
    (submit → last upstream finished) and *post-release queueing*
    (released → started): the first is the workflow's own structure, the
    second is the cluster's congestion — only the second is the
    scheduler's fault.
    """

    workflows: int
    completed_workflows: int
    stages: int
    makespan_mean_s: float
    makespan_max_s: float
    critical_path_mean_s: float
    #: min over completed workflows of (makespan − critical path); ≥ 0
    #: under unit execution (NaN when no workflow completed).
    min_slack_s: float
    dep_hold_wait_mean_s: float
    post_release_wait_mean_s: float
    transfer_seconds: float
    per_workflow: dict[str, dict[str, float]]

    def as_row(self) -> dict[str, float]:
        return {
            "workflows": float(self.workflows),
            "wf_completed": float(self.completed_workflows),
            "wf_makespan_mean_h": self.makespan_mean_s / 3600.0,
            "wf_critical_path_h": self.critical_path_mean_s / 3600.0,
            "wf_transfer_s": self.transfer_seconds,
        }


def _critical_path_s(group: list[Job]) -> float:
    """Longest dependency chain of stage durations within one workflow.

    Kahn's traversal over the in-group edges (cross-workflow dependencies
    are dropped — omitting an edge only loosens the lower bound).  A cycle
    in the trace's ``depends_on`` graph (which would deadlock-hold the
    stages forever in simulation) yields NaN rather than a bogus bound.
    """
    ids = {job.job_id for job in group}
    by_id = {job.job_id: job for job in group}
    indegree = {
        job.job_id: sum(1 for dep in job.depends_on if dep in ids) for job in group
    }
    dependents: dict[str, list[str]] = {job.job_id: [] for job in group}
    for job in group:
        for dep in job.depends_on:
            if dep in ids:
                dependents[dep].append(job.job_id)
    ready = [job_id for job_id, degree in indegree.items() if degree == 0]
    finish: dict[str, float] = {}
    while ready:
        job_id = ready.pop()
        job = by_id[job_id]
        start = max(
            (finish[dep] for dep in job.depends_on if dep in ids), default=0.0
        )
        finish[job_id] = start + job.duration
        for downstream in dependents[job_id]:
            indegree[downstream] -= 1
            if indegree[downstream] == 0:
                ready.append(downstream)
    if len(finish) != len(group):
        return float("nan")
    return max(finish.values()) if finish else 0.0


def workflow_rollup(
    jobs: Iterable[Job], transfer_seconds: float
) -> WorkflowMetrics | None:
    """Aggregate workflow-tagged jobs; ``None`` when the run has none."""
    groups: dict[str, list[Job]] = {}
    for job in jobs:
        if job.workflow_id is not None:
            groups.setdefault(job.workflow_id, []).append(job)
    if not groups:
        return None
    per_workflow: dict[str, dict[str, float]] = {}
    makespans: list[float] = []
    critical_paths: list[float] = []
    slacks: list[float] = []
    hold_waits: list[float] = []
    post_waits: list[float] = []
    stages = 0
    completed_workflows = 0
    for workflow_id, group in sorted(groups.items()):
        stages += len(group)
        submits = [job.submit_time for job in group]
        ends = [job.end_time for job in group if job.end_time is not None]
        makespan = (max(ends) - min(submits)) if ends else float("nan")
        critical_path = _critical_path_s(group)
        complete = all(job.lifecycle is LifecycleState.FINISHED for job in group)
        per_workflow[workflow_id] = {
            "stages": float(len(group)),
            "makespan_s": makespan,
            "critical_path_s": critical_path,
            "completed": 1.0 if complete else 0.0,
        }
        if complete:
            completed_workflows += 1
            makespans.append(makespan)
            critical_paths.append(critical_path)
            slacks.append(makespan - critical_path)
        for job in group:
            if job.deps_released_at is not None:
                hold_waits.append(max(0.0, job.deps_released_at - job.submit_time))
                if job.first_start_time is not None:
                    post_waits.append(
                        max(0.0, job.first_start_time - job.deps_released_at)
                    )
            elif job.wait_time is not None:
                post_waits.append(job.wait_time)
    return WorkflowMetrics(
        workflows=len(groups),
        completed_workflows=completed_workflows,
        stages=stages,
        makespan_mean_s=float(np.mean(makespans)) if makespans else float("nan"),
        makespan_max_s=max(makespans) if makespans else float("nan"),
        critical_path_mean_s=(
            float(np.mean(critical_paths)) if critical_paths else float("nan")
        ),
        min_slack_s=min(slacks) if slacks else float("nan"),
        dep_hold_wait_mean_s=(
            float(np.mean(hold_waits)) if hold_waits else float("nan")
        ),
        post_release_wait_mean_s=(
            float(np.mean(post_waits)) if post_waits else float("nan")
        ),
        transfer_seconds=transfer_seconds,
        per_workflow=per_workflow,
    )


def productive_gpu_seconds(jobs: Iterable[Job]) -> float:
    """Retained-progress GPU-seconds across a job population.

    Work counts as productive only if it was *kept*: completed jobs and
    still-live jobs contribute their accrued productive integral; failed
    and killed jobs contribute nothing (their progress died with them —
    migration shells are re-credited by the federation layer, which knows
    the checkpoint survived).  Serving replicas are productive for their
    whole allocation: their output is served requests, not checkpoints.
    """
    total = 0.0
    for job in jobs:
        if job.service_id is not None:
            total += job.gpu_seconds_used
        elif job.lifecycle is LifecycleState.FINISHED or not job.lifecycle.terminal:
            total += job.productive_gpu_seconds
    return total


@dataclass(frozen=True)
class SimMetrics:
    """Final aggregates of one simulation run."""

    jobs_total: int
    jobs_completed: int
    jobs_failed: int
    jobs_killed: int
    jobs_unfinished: int
    makespan_s: float
    avg_utilization: float
    served_gpu_hours: float
    jct_mean_s: float
    jct_percentiles: dict[str, float]
    wait_mean_s: float
    wait_percentiles: dict[str, float]
    wait_mean_by_tier: dict[str, float]
    preemptions: int
    preemptions_by_tier: dict[str, int]
    node_failures: int
    job_restarts: int
    rejected_jobs: int
    provision_seconds: float
    stage_seconds: float
    walltime_kills: int
    failure_taxonomy: dict[str, int]
    gpu_hours_by_lab: dict[str, float]
    #: Inference-serving aggregates; ``None`` for training-only runs, so
    #: their summaries (and the golden tests pinning them) are unchanged.
    serving: ServingMetrics | None = None
    #: Goodput decomposition (availability × efficiency × productive work).
    #: Deliberately excluded from :meth:`as_row` so existing golden
    #: summaries stay byte-identical; the ops report and the federation
    #: layer surface it.
    goodput: GoodputMetrics | None = None
    #: Workflow-DAG rollup; ``None`` unless the trace carried workflow
    #: stages, so summaries of plain traces (and every pre-existing
    #: golden) are byte-identical.
    workflow: WorkflowMetrics | None = None

    def as_row(self) -> dict[str, float]:
        """Flat row for the T2 scheduler-comparison table."""
        row = {
            "completed": float(self.jobs_completed),
            "avg_jct_h": self.jct_mean_s / 3600.0,
            "p50_jct_h": self.jct_percentiles["p50"] / 3600.0,
            "p99_jct_h": self.jct_percentiles["p99"] / 3600.0,
            "avg_wait_h": self.wait_mean_s / 3600.0,
            "p99_wait_h": self.wait_percentiles["p99"] / 3600.0,
            "utilization": self.avg_utilization,
            "makespan_h": self.makespan_s / 3600.0,
            "preemptions": float(self.preemptions),
        }
        if self.serving is not None:
            row.update(self.serving.as_row())
        if self.workflow is not None:
            row.update(self.workflow.as_row())
        return row


def summarize(
    jobs: dict[str, Job],
    collector: MetricsCollector,
    now: float,
    log: TransitionLog,
    serving: ServingMetrics | None = None,
) -> SimMetrics:
    """Aggregate a finished (or truncated) run into :class:`SimMetrics`.

    Churn counts (preemptions, restarts, rejections, wall-time kills) are
    read from the run's transition *log*, which counts exactly even when
    it retains no records.

    Service replicas (``job.service_id`` set) are excluded from the
    job-level population: their latency story is request latency, carried
    by *serving*, and a fleet of horizon-long replica "jobs" would drown
    the training JCT/wait distributions the paper's tables report.
    Cluster-level integrals (utilization, served GPU-hours) still include
    them — serving capacity is real capacity.
    """
    population = [job for job in jobs.values() if job.service_id is None]
    completed = [j for j in population if j.lifecycle is LifecycleState.FINISHED]
    failed = [j for j in population if j.lifecycle is LifecycleState.FAILED]
    killed = [j for j in population if j.lifecycle is LifecycleState.KILLED]
    unfinished = [j for j in population if not j.lifecycle.terminal]

    jcts = [j.jct for j in completed if j.jct is not None]
    waits = [j.wait_time for j in population if j.wait_time is not None]

    wait_by_tier: dict[str, list[float]] = {tier.value: [] for tier in JobTier}
    preempt_by_tier: dict[str, int] = {tier.value: 0 for tier in JobTier}
    for job in population:
        if job.wait_time is not None:
            wait_by_tier[job.tier.value].append(job.wait_time)
        preempt_by_tier[job.tier.value] += job.preemptions

    taxonomy: dict[str, int] = {category.value: 0 for category in FailureCategory}
    for job in failed:
        if job.failure_category is not None:
            taxonomy[job.failure_category.value] += 1

    gpu_hours_by_lab: dict[str, float] = {}
    for job in population:
        gpu_hours_by_lab[job.lab_id] = (
            gpu_hours_by_lab.get(job.lab_id, 0.0) + job.gpu_seconds_used / 3600.0
        )

    ends = [j.end_time for j in population if j.end_time is not None]
    submits = [j.submit_time for j in population]
    makespan = (max(ends) - min(submits)) if ends and submits else 0.0

    goodput = GoodputMetrics.from_gpu_hours(
        total=collector.total_gpus * now / 3600.0,
        healthy=collector.healthy_gpu_seconds(now) / 3600.0,
        served=collector.served_gpu_seconds(now) / 3600.0,
        productive=productive_gpu_seconds(jobs.values()) / 3600.0,
    )

    return SimMetrics(
        jobs_total=len(population),
        jobs_completed=len(completed),
        jobs_failed=len(failed),
        jobs_killed=len(killed),
        jobs_unfinished=len(unfinished),
        makespan_s=makespan,
        avg_utilization=collector.average_utilization(now),
        served_gpu_hours=collector.served_gpu_seconds(now) / 3600.0,
        jct_mean_s=float(np.mean(jcts)) if jcts else float("nan"),
        jct_percentiles=percentiles(jcts),
        wait_mean_s=float(np.mean(waits)) if waits else float("nan"),
        wait_percentiles=percentiles(waits),
        wait_mean_by_tier={
            tier: (float(np.mean(values)) if values else float("nan"))
            for tier, values in wait_by_tier.items()
        },
        preemptions=log.count(target=LifecycleState.PREEMPTED),
        preemptions_by_tier=preempt_by_tier,
        node_failures=collector.node_failures,
        job_restarts=log.count(target=LifecycleState.RESTARTING),
        rejected_jobs=log.count(cause=Cause.REJECT),
        provision_seconds=collector.provision_seconds,
        stage_seconds=collector.stage_seconds,
        walltime_kills=log.count(cause=Cause.WALLTIME_LIMIT),
        failure_taxonomy=taxonomy,
        gpu_hours_by_lab=dict(sorted(gpu_hours_by_lab.items())),
        serving=serving,
        goodput=goodput,
        workflow=workflow_rollup(population, collector.transfer_seconds),
    )
