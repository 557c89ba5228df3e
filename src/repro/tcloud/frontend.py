"""The cluster frontend ``tcloud`` talks to (simulated end to end).

:class:`TaccFrontend` is the server-side composition of the whole 4-layer
stack: submissions pass through the **schema** layer (validation), the
**compiler** layer (instruction + delta upload), and enter the
**scheduling** layer inside a live :class:`~repro.sim.simulator.
ClusterSimulator`; the **execution** layer's models stretch their runtime
by placement and hardware.  Time is simulated — callers advance it
explicitly with :meth:`advance`, which is what gives the CLI a serverless
feel: submit, advance, observe.

Log output is synthesized deterministically from job progress, one stream
per node, so `tcloud logs` can demonstrate distributed log aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.cluster import Cluster, build_tacc_cluster
from ..compiler.cache import ChunkStore
from ..controlplane.lifecycle import Transition
from ..compiler.compiler import CompileResult, TaskCompiler
from ..errors import SimulationError, ValidationError
from ..execlayer.speedup import ExecutionModel
from ..ids import IdFactory, JobId
from ..schema.taskspec import TaskSpec
from ..schema.validate import ValidationIssue, ensure_valid
from ..sched.backfill import EasyBackfillScheduler
from ..sched.base import Scheduler
from ..sim.simulator import ClusterSimulator, SimConfig
from ..workload.job import Job, LifecycleState
from ..workload.trace import Trace


def status_word(state: LifecycleState) -> str:
    """``tcloud``'s wire word for *state*: queued, running, completed,
    failed or killed (every waiting state reads as queued)."""
    if state.queued:
        return "queued"
    if state is LifecycleState.FINISHED:
        return "completed"
    return state.value


@dataclass(frozen=True)
class JobStatus:
    """One job's externally visible status."""

    job_id: JobId
    name: str
    state: str
    queue_position: int | None
    nodes: tuple[str, ...]
    submitted_at: float
    wait_s: float | None
    progress: float  # fraction of work done, 0..1
    preemptions: int

    def oneline(self) -> str:
        nodes = ",".join(self.nodes) if self.nodes else "-"
        return (
            f"{self.job_id}  {self.name:20s} {self.state:9s} "
            f"progress={self.progress:5.1%} nodes={nodes}"
        )


@dataclass
class _Submission:
    spec: TaskSpec
    compile_result: CompileResult
    job: Job
    warnings: list[ValidationIssue] = field(default_factory=list)


class TaccFrontend:
    """Simulated cluster frontend: submit / advance / observe / kill."""

    def __init__(
        self,
        cluster: Cluster | None = None,
        scheduler: Scheduler | None = None,
        sim_config: SimConfig | None = None,
    ) -> None:
        self.cluster = cluster or build_tacc_cluster()
        self.scheduler = scheduler or EasyBackfillScheduler()
        self.store = ChunkStore()
        self.compiler = TaskCompiler(self.store)
        self.sim = ClusterSimulator(
            self.cluster,
            self.scheduler,
            Trace([], name="live"),
            exec_model=ExecutionModel(),
            config=sim_config or SimConfig(sample_interval_s=0.0, provisioning=True),
        )
        self._ids = IdFactory("job")
        self._submissions: dict[JobId, _Submission] = {}

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.engine.now

    def advance(self, seconds: float) -> None:
        """Advance simulated time by *seconds*, processing due events."""
        if seconds < 0:
            raise ValidationError(f"cannot advance by negative time: {seconds}")
        self.sim.engine.run(until=self.now + seconds)

    def advance_until_done(self, job_id: JobId, max_seconds: float = 30 * 86400.0) -> JobStatus:
        """Advance until *job_id* reaches a terminal state (or the cap)."""
        job = self._job(job_id)
        deadline = self.now + max_seconds
        while not job.lifecycle.terminal and self.now < deadline:
            next_time = self.sim.engine.peek_time()
            if next_time is None:
                break
            self.sim.engine.run(until=min(next_time, deadline))
        return self.status(job_id)

    # -- submission -----------------------------------------------------------------

    def submit(
        self,
        spec: TaskSpec,
        workspace: dict[str, bytes] | None = None,
        user: str = "user-00",
        lab: str = "lab-00",
        duration_hint_s: float | None = None,
    ) -> tuple[JobId, CompileResult, list[ValidationIssue]]:
        """Run the full submission path; returns (job id, compile result, warnings).

        ``duration_hint_s`` is the job's *true* runtime in the simulated
        world (see :func:`build_job`).
        """
        warnings = ensure_valid(spec, self.cluster)
        if workspace is None:
            workspace = synthesize_workspace(spec)
        compile_result = self.compiler.compile(spec, workspace)
        job = build_job(spec, self._ids.next(), self.now, user, lab, duration_hint_s)
        self.sim.submit_job(job)
        self._submissions[job.job_id] = _Submission(
            spec=spec, compile_result=compile_result, job=job, warnings=warnings
        )
        self.advance(0.0)  # let the arrival + scheduling pass run
        return job.job_id, compile_result, warnings

    # -- observation ---------------------------------------------------------------------

    def _job(self, job_id: JobId) -> Job:
        submission = self._submissions.get(job_id)
        if submission is None:
            raise SimulationError(f"unknown job {job_id}")
        return submission.job

    def status(self, job_id: JobId) -> JobStatus:
        job = self._job(job_id)
        queue_position: int | None = None
        if job.lifecycle.queued:
            queued = sorted(self.scheduler.queue, key=lambda j: (j.submit_time, j.job_id))
            ids = [j.job_id for j in queued]
            queue_position = ids.index(job.job_id) + 1 if job.job_id in ids else None
        progress = (job.duration - job.remaining_work_at(self.now)) / job.duration
        return JobStatus(
            job_id=job.job_id,
            name=job.name,
            state=status_word(job.lifecycle),
            queue_position=queue_position,
            nodes=job.current_nodes,
            submitted_at=job.submit_time,
            wait_s=job.wait_time,
            progress=progress,
            preemptions=job.preemptions,
        )

    def list_jobs(self) -> list[JobStatus]:
        return [self.status(job_id) for job_id in sorted(self._submissions)]

    def logs(self, job_id: JobId, tail: int = 5) -> dict[str, list[str]]:
        """Aggregated per-node logs (synthesized from real progress).

        Returns ``{node_id: lines}`` — the distributed-monitoring feature:
        one call gathers every rank's output.
        """
        job = self._job(job_id)
        status = self.status(job_id)
        nodes = job.current_nodes or job.last_nodes
        if not nodes and not job.first_start_time:
            nodes = ("(not started)",)
        total_steps = 1000
        done_steps = int(status.progress * total_steps)
        streams: dict[str, list[str]] = {}
        for rank, node in enumerate(nodes):
            lines = [f"[{node}] rank {rank}/{len(nodes)} joined rendezvous"]
            first = max(0, done_steps - tail + 1)
            for step in range(first, done_steps + 1):
                loss = 2.5 * (1.0 + step) ** -0.35  # deterministic decay curve
                lines.append(f"[{node}] step {step}/{total_steps} loss={loss:.4f}")
            streams[node] = lines
        if job.lifecycle.terminal:
            marker = f"[frontend] job {job.job_id} {status_word(job.lifecycle)}"
            streams.setdefault("frontend", []).append(marker)
        return streams

    def history(self, job_id: JobId) -> list[Transition]:
        """The job's full lifecycle history from the control plane's log.

        Every transition carries its cause, the actor that requested it,
        and the simulated timestamp — ``tcloud``'s answer to "what
        happened to my job?" without grepping scheduler logs.
        """
        self._job(job_id)
        return self.sim.controller.log.for_job(job_id)

    def kill(self, job_id: JobId) -> JobStatus:
        self._job(job_id)  # raise on unknown ids before touching the sim
        self.sim.kill_job(job_id)
        return self.status(job_id)

    def cluster_info(self) -> dict[str, object]:
        return {
            "name": self.cluster.name,
            "nodes": len(self.cluster.nodes),
            "total_gpus": self.cluster.total_gpus,
            "free_gpus": self.cluster.free_gpus,
            "gpu_census": self.cluster.gpu_census(),
            "scheduler": self.scheduler.name,
            "queue_depth": self.scheduler.queue_depth,
            "sim_time_h": self.now / 3600.0,
        }


def build_job(
    spec: TaskSpec,
    job_id: JobId,
    submit_time: float,
    user: str = "user-00",
    lab: str = "lab-00",
    duration_hint_s: float | None = None,
) -> Job:
    """The ``Job`` a submission of *spec* enters the simulator as.

    ``duration_hint_s`` is the job's *true* runtime (unknown to the
    scheduler, which only sees the wall-time limit); it defaults to 40% of
    the requested wall time.
    """
    return Job(
        job_id=job_id,
        user_id=user,
        lab_id=lab,
        request=spec.resources.to_request(),
        submit_time=submit_time,
        duration=duration_hint_s or spec.resources.walltime_hours * 3600.0 * 0.4,
        tier=spec.qos.job_tier,
        walltime_estimate=spec.resources.walltime_hours * 3600.0,
        preemptible=spec.qos.preemptible,
        model_name=spec.model,
        name=spec.name,
    )


def synthesize_workspace(spec: TaskSpec) -> dict[str, bytes]:
    """Deterministic placeholder content for a spec's declared code files.

    Used when the caller has no real files (simulated submissions); content
    is a repeatable function of path and declared size so cache behaviour
    is realistic across resubmissions.
    """
    workspace: dict[str, bytes] = {}
    for file_spec in spec.code_files:
        seed_line = f"# {file_spec.path} ({file_spec.sha256[:8]})\n".encode()
        filler = seed_line * (file_spec.size_bytes // len(seed_line) + 1)
        workspace[file_spec.path] = filler[: file_spec.size_bytes]
    return workspace
