"""Job model and lifecycle state machine.

A :class:`Job` is the unit the scheduler reasons about: a resource request
plus service-time semantics.  ``duration`` is the job's *work* — the wall
time it needs on its requested GPUs at reference speed under ideal placement.
The execution layer stretches that by a slowdown factor for slower GPU types
or spread-out placements, and preemption checkpoints the remaining work, so
a job's lifetime can span several run attempts.

Each job stores exactly one state, its :class:`LifecycleState`
(``job.lifecycle``).  The transition methods below write the state they
mean; the control plane writes ADMITTED and PENDING_DEPS itself, checks
every edge against ``source.successors`` and logs it::

    PENDING ──admit──▶ ADMITTED ──start──▶ RUNNING ──complete──▶ FINISHED
       │ (deps_hold)      ▲                 │ │ │ └──fail──────▶ FAILED
       ▼                  │                 │ │ └──kill──────▶ KILLED
    PENDING_DEPS ─release─┘                 │ └──requeue──▶ RESTARTING
                                            └────preempt──▶ PREEMPTED
    (PREEMPTED / RESTARTING ──start──▶ RUNNING again; PREEMPTED may fail
    at the preemption limit; any live state may be killed)

Each member carries that relation as ``successors``, written once below
the class, and two flags derived from it: ``terminal`` (no successors:
FINISHED, FAILED and KILLED) and ``queued`` (live but not RUNNING:
PENDING, PENDING_DEPS, ADMITTED, PREEMPTED and RESTARTING).  The fine
state keeps *why* a job is queued (fresh, held, evicted, crashed), which
operational metrics and the timeline need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..errors import JobStateError, ValidationError
from ..ids import JobId, LabId, UserId


class LifecycleState(enum.Enum):
    """Where a job is in its life: the one stored state of a :class:`Job`."""

    #: The legal next states (set for every member below the class).
    successors: frozenset[LifecycleState]
    #: Declaration position, its one-hot bit, and the OR of the successors' bits.
    index: int
    bit: int
    successor_bits: int
    #: No successors: the job is done.
    terminal: bool
    #: Live and not RUNNING: the job waits for a start.
    queued: bool

    PENDING = "pending"  # submitted, arrival not yet processed
    PENDING_DEPS = "pending_deps"  # workflow stage held on upstream stages
    ADMITTED = "admitted"  # accepted and enqueued with the scheduler
    RUNNING = "running"
    PREEMPTED = "preempted"  # gracefully evicted, back in the queue
    RESTARTING = "restarting"  # evicted by a node failure, back in the queue
    FINISHED = "finished"
    KILLED = "killed"
    FAILED = "failed"


# The complete legal-transition relation; the control plane raises on any
# edge it does not list.  Plain member attributes, not a dict: the flags
# are read on every scheduling decision, and enum hashing is a Python call.
_S = LifecycleState
for _index, _state in enumerate(_S):
    _state.index = _index
    _state.bit = 1 << _index
for _state, _successors in (
    (_S.PENDING, (_S.PENDING_DEPS, _S.ADMITTED, _S.KILLED)),
    # Dependency-held stages are invisible to schedulers: the only ways out
    # are admission (all upstreams finished) or death (an upstream failed /
    # user kill), never directly to RUNNING.
    (_S.PENDING_DEPS, (_S.ADMITTED, _S.KILLED)),
    (_S.ADMITTED, (_S.RUNNING, _S.KILLED)),
    # Every failure is decided on a running attempt, except the preemption
    # limit, which fails the job right after its eviction.
    (_S.RUNNING, (_S.FINISHED, _S.FAILED, _S.KILLED, _S.PREEMPTED, _S.RESTARTING)),
    (_S.PREEMPTED, (_S.RUNNING, _S.KILLED, _S.FAILED)),
    (_S.RESTARTING, (_S.RUNNING, _S.KILLED)),
    (_S.FINISHED, ()),
    (_S.KILLED, ()),
    (_S.FAILED, ()),
):
    _state.successors = frozenset(_successors)
    _state.successor_bits = sum(successor.bit for successor in _successors)
    _state.terminal = not _successors
    _state.queued = not _state.terminal and _state is not _S.RUNNING
del _S, _index, _state, _successors


class JobTier(enum.Enum):
    """Access tiers of the campus cluster's quota model.

    GUARANTEED jobs draw on a lab's paid/granted quota and may preempt;
    OPPORTUNISTIC jobs run free-of-charge on idle GPUs and absorb
    preemptions.
    """

    GUARANTEED = "guaranteed"
    OPPORTUNISTIC = "opportunistic"


class FailureCategory(enum.Enum):
    """Taxonomy used by the operational failure analysis (T3)."""

    USER_ERROR = "user_error"  # bad code/config; fails early
    OOM = "oom"  # GPU memory exhaustion; fails mid-run
    HARDWARE = "hardware"  # node/GPU fault; externally injected
    PREEMPTION_LIMIT = "preemption_limit"  # too many preemptions


@dataclass(frozen=True, slots=True)
class ResourceRequest:
    """What a job asks for.

    Attributes:
        num_gpus: Total GPUs across all nodes.
        gpus_per_node: Max GPUs taken from one node; ``None`` lets the
            placement policy pack up to full nodes.  Multi-node jobs are
            gang-scheduled: all GPUs start together or not at all.
        gpu_type: Required GPU catalogue key, or ``None`` for any type.
        cpus_per_gpu: Host cores pinned per GPU.
        memory_gb_per_gpu: Host memory per GPU.
        allowed_nodes: Placement restricted to these nodes (``None`` = any).
            Set by the simulator when the job routes through a partition;
            not a user-facing field and not serialised with traces.
    """

    num_gpus: int
    gpus_per_node: int | None = None
    gpu_type: str | None = None
    cpus_per_gpu: int = 4
    memory_gb_per_gpu: float = 32.0
    allowed_nodes: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValidationError(f"num_gpus must be positive, got {self.num_gpus}")
        if self.gpus_per_node is not None:
            if self.gpus_per_node <= 0:
                raise ValidationError("gpus_per_node must be positive")
            if self.num_gpus % self.gpus_per_node and self.num_gpus > self.gpus_per_node:
                raise ValidationError(
                    f"num_gpus={self.num_gpus} is not a multiple of "
                    f"gpus_per_node={self.gpus_per_node}"
                )
        if self.cpus_per_gpu < 0 or self.memory_gb_per_gpu < 0:
            raise ValidationError("per-GPU CPU/memory requests must be non-negative")

    @property
    def num_nodes_min(self) -> int:
        """Minimum node count implied by the per-node cap (1 when uncapped)."""
        if self.gpus_per_node is None:
            return 1
        return -(-self.num_gpus // self.gpus_per_node)


@dataclass(frozen=True, slots=True)
class FailurePlan:
    """Intrinsic failure scripted into a trace job (user error, OOM).

    The job fails after completing ``at_fraction`` of its work on the
    attempt that crosses that point.
    """

    category: FailureCategory
    at_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction <= 1.0:
            raise ValidationError("FailurePlan.at_fraction must be in (0, 1]")


@dataclass(slots=True)
class Job:
    """One schedulable job with live lifecycle state.

    Static trace fields come first; fields below the comment are runtime
    state mutated only through the transition methods.

    ``slots=True`` matters at fleet scale: a million-job trace holds a
    million live ``Job`` objects, and slots cut both per-instance memory
    (no ``__dict__``) and construction time by roughly 3x.
    """

    job_id: JobId
    user_id: UserId
    lab_id: LabId
    request: ResourceRequest
    submit_time: float
    duration: float  # reference service time, seconds
    tier: JobTier = JobTier.GUARANTEED
    partition: str | None = None
    walltime_estimate: float | None = None  # user's estimate, seconds
    interactive: bool = False
    preemptible: bool | None = None  # default: tier-derived
    failure_plan: FailurePlan | None = None
    name: str = ""
    model_name: str = ""  # key into repro.workload.models.MODEL_CATALOG
    #: Elastic jobs may run on as few as this many GPUs (None = rigid).
    #: ``duration`` remains the service time at the FULL request; running
    #: narrower stretches wall time via the execution model.
    elastic_min_gpus: int | None = None
    #: Input dataset staged from the shared filesystem before the job runs
    #: (0 = none); drives the storage-staging model.
    dataset_gb: float = 0.0
    #: Inference-service replicas carry their service's id; batch training
    #: jobs leave this ``None``.  Service replicas are excluded from the
    #: job-level latency aggregates (their "latency" is request latency,
    #: reported via :class:`~repro.sim.metrics.ServingMetrics`).
    service_id: str | None = None
    #: Workflow membership: stages of one pipeline share a workflow_id and
    #: declare upstream stages in ``depends_on`` (job ids).  Plain jobs
    #: leave both empty and take the legacy code path everywhere.
    workflow_id: str | None = None
    depends_on: tuple[JobId, ...] = ()
    #: Bytes of output artifact downstream stages must fetch from this
    #: job's ``last_nodes`` before they can start (0 = none declared).
    artifact_bytes: float = 0.0

    # -- runtime state (managed by transition methods) --
    lifecycle: LifecycleState = field(default=LifecycleState.PENDING, init=False)
    remaining_work: float = field(init=False)
    attempts: int = 0
    preemptions: int = 0
    first_start_time: float | None = None
    last_start_time: float | None = None
    end_time: float | None = None
    current_slowdown: float = 1.0
    current_nodes: tuple[str, ...] = ()
    last_nodes: tuple[str, ...] = ()  # nodes of the most recent attempt
    current_gpus: int = 0  # GPUs of the live attempt (elastic jobs may vary)
    current_setup_s: float = 0.0  # provisioning/staging head of the attempt
    gpu_seconds_used: float = 0.0
    #: When the control plane released this job from PENDING_DEPS (None for
    #: jobs that never held); splits queueing delay into dependency hold vs
    #: post-release scheduler wait.
    deps_released_at: float | None = None
    #: GPU-seconds of *retained* progress: every accrued work segment books
    #: ``work × num_gpus`` (the ideal cost of the progress made at the full
    #: request), and re-done work (checkpoint loss, restore) is subtracted
    #: when it is scheduled for redoing.  The gap to ``gpu_seconds_used``
    #: is setup, slowdown, discarded attempts, and restore/warmup — the
    #: non-productive component of the goodput decomposition.
    productive_gpu_seconds: float = 0.0
    failure_category: FailureCategory | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValidationError(f"job {self.job_id}: duration must be positive")
        if self.submit_time < 0:
            raise ValidationError(f"job {self.job_id}: submit_time must be >= 0")
        if self.walltime_estimate is None:
            self.walltime_estimate = self.duration
        if self.preemptible is None:
            self.preemptible = self.tier is JobTier.OPPORTUNISTIC
        if self.elastic_min_gpus is not None and not (
            1 <= self.elastic_min_gpus <= self.request.num_gpus
        ):
            raise ValidationError(
                f"job {self.job_id}: elastic_min_gpus must be in "
                f"[1, {self.request.num_gpus}], got {self.elastic_min_gpus}"
            )
        if self.dataset_gb < 0:
            raise ValidationError(f"job {self.job_id}: dataset_gb must be >= 0")
        if self.artifact_bytes < 0:
            raise ValidationError(f"job {self.job_id}: artifact_bytes must be >= 0")
        if self.job_id in self.depends_on:
            raise ValidationError(f"job {self.job_id} depends on itself")
        self.remaining_work = self.duration

    # -- derived quantities ---------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return self.request.num_gpus

    @property
    def elastic(self) -> bool:
        return self.elastic_min_gpus is not None

    @property
    def work_done(self) -> float:
        return self.duration - self.remaining_work

    @property
    def wait_time(self) -> float | None:
        """Queueing delay: submission → first start (None if never started)."""
        if self.first_start_time is None:
            return None
        return self.first_start_time - self.submit_time

    @property
    def jct(self) -> float | None:
        """Job completion time: submission → terminal (None while live)."""
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    @property
    def finished(self) -> bool:
        return self.lifecycle.terminal

    def expected_runtime(self, slowdown: float = 1.0) -> float:
        """Wall time to finish remaining work at the given slowdown."""
        return self.remaining_work * slowdown

    def remaining_work_at(self, now: float) -> float:
        """True remaining work including live progress (oracle view).

        ``remaining_work`` is only checkpointed at segment boundaries;
        this extrapolates through the current running segment.
        """
        if self.lifecycle is LifecycleState.RUNNING and self.last_start_time is not None:
            elapsed = max(0.0, now - self.last_start_time - self.current_setup_s)
            return max(0.0, self.remaining_work - elapsed / self.current_slowdown)
        return self.remaining_work

    def gpu_seconds_at(self, now: float) -> float:
        """GPU-seconds charged so far, the live segment included up to *now*."""
        used = self.gpu_seconds_used
        if self.lifecycle is LifecycleState.RUNNING and self.last_start_time is not None:
            used += (now - self.last_start_time) * (self.current_gpus or self.num_gpus)
        return used

    def estimated_remaining(self, now: float) -> float:
        """Scheduler-visible remaining time based on the *user estimate*.

        Backfill reservations use this, never the true duration — mirroring
        real systems where the scheduler only sees wall-time limits.
        """
        if self.lifecycle is LifecycleState.RUNNING and self.last_start_time is not None:
            elapsed = now - self.last_start_time
            return max(0.0, self.walltime_estimate - elapsed)
        return self.walltime_estimate or 0.0

    # -- transitions ---------------------------------------------------------

    def _require_state(self, ok: bool, action: str, expected: str) -> None:
        if not ok:
            raise JobStateError(
                f"cannot {action} job {self.job_id}: state is "
                f"{self.lifecycle.value}, expected {expected}"
            )

    def start(
        self,
        now: float,
        nodes: tuple[str, ...],
        slowdown: float = 1.0,
        granted_gpus: int | None = None,
        setup_s: float = 0.0,
    ) -> None:
        """Queued → RUNNING on the given nodes at the given slowdown.

        ``granted_gpus`` defaults to the full request; elastic jobs may be
        granted anywhere in ``[elastic_min_gpus, num_gpus]``.  ``setup_s``
        is the provisioning/staging head of this attempt: resources are
        held (GPU-seconds accrue) but no *work* progresses during it.
        """
        self._require_state(self.lifecycle.queued, "start", "queued")
        if slowdown <= 0:
            raise ValidationError(f"slowdown must be positive, got {slowdown}")
        if setup_s < 0:
            raise ValidationError(f"setup_s must be non-negative, got {setup_s}")
        if now < self.submit_time:
            raise JobStateError(
                f"job {self.job_id} started at {now} before submission "
                f"at {self.submit_time}"
            )
        granted = self.num_gpus if granted_gpus is None else granted_gpus
        floor = self.elastic_min_gpus if self.elastic else self.num_gpus
        if not floor <= granted <= self.num_gpus:
            raise JobStateError(
                f"job {self.job_id} granted {granted} GPUs outside "
                f"[{floor}, {self.num_gpus}]"
            )
        self.lifecycle = LifecycleState.RUNNING
        self.attempts += 1
        self.last_start_time = now
        if self.first_start_time is None:
            self.first_start_time = now
        self.current_slowdown = slowdown
        self.current_nodes = nodes
        self.last_nodes = nodes
        self.current_gpus = granted
        self.current_setup_s = setup_s

    def _accrue(self, now: float) -> None:
        """Book the work done in the current run segment."""
        assert self.last_start_time is not None
        elapsed = now - self.last_start_time
        if elapsed < -1e-9:
            raise JobStateError(
                f"job {self.job_id}: segment end {now} precedes start "
                f"{self.last_start_time}"
            )
        productive = max(0.0, elapsed - self.current_setup_s)
        work = min(self.remaining_work, productive / self.current_slowdown)
        self.remaining_work -= work
        self.gpu_seconds_used += max(0.0, elapsed) * (self.current_gpus or self.num_gpus)
        self.productive_gpu_seconds += work * self.num_gpus

    def preempt(self, now: float, checkpoint_loss: float = 0.0) -> None:
        """RUNNING → PREEMPTED (queued), checkpointing progress.

        ``checkpoint_loss`` seconds of completed work are lost (re-done on
        the next attempt), modelling checkpoint granularity.
        """
        self._require_state(self.lifecycle is LifecycleState.RUNNING, "preempt", "running")
        self._accrue(now)
        before = self.remaining_work
        self.remaining_work = min(self.duration, self.remaining_work + checkpoint_loss)
        redone = self.remaining_work - before
        # No clamp at zero: migration clones start with a restore-work debt
        # (see checkpoint_clone), and an early preemption may briefly push
        # the integral negative before the redo is re-accrued.  For ordinary
        # jobs ``redone <= work_done`` always holds (the duration clamp), so
        # the value stays non-negative.
        self.productive_gpu_seconds -= redone * self.num_gpus
        self.preemptions += 1
        self.lifecycle = LifecycleState.PREEMPTED
        self.current_nodes = ()
        self.current_gpus = 0

    def requeue(self, now: float) -> None:
        """RUNNING → RESTARTING (queued) after an external kill (e.g. node failure).

        Unlike :meth:`preempt` there is no graceful checkpoint: the whole
        current attempt's progress is discarded, though its GPU time counts
        as spent.
        """
        self._require_state(self.lifecycle is LifecycleState.RUNNING, "requeue", "running")
        assert self.last_start_time is not None
        elapsed = max(0.0, now - self.last_start_time)
        self.gpu_seconds_used += elapsed * (self.current_gpus or self.num_gpus)
        self.lifecycle = LifecycleState.RESTARTING
        self.current_nodes = ()
        self.current_gpus = 0

    def complete(self, now: float) -> None:
        """RUNNING → FINISHED; remaining work must be exhausted."""
        self._require_state(self.lifecycle is LifecycleState.RUNNING, "complete", "running")
        self._accrue(now)
        if self.remaining_work > 1e-6:
            raise JobStateError(
                f"job {self.job_id} completed with {self.remaining_work:.3f}s "
                "of work remaining"
            )
        self.remaining_work = 0.0
        self.lifecycle = LifecycleState.FINISHED
        self.end_time = now
        self.current_nodes = ()
        self.current_gpus = 0

    def fail(self, now: float, category: FailureCategory) -> None:
        """Running or queued → FAILED with a taxonomy category.

        Failing from QUEUED covers administrative failures decided off the
        node, e.g. exceeding the preemption limit right after an eviction.
        """
        if self.lifecycle is LifecycleState.RUNNING:
            self._accrue(now)
        elif not self.lifecycle.queued:
            raise JobStateError(
                f"cannot fail job {self.job_id}: state is {self.lifecycle.value}"
            )
        self.lifecycle = LifecycleState.FAILED
        self.failure_category = category
        self.end_time = now
        self.current_nodes = ()
        self.current_gpus = 0

    def kill(self, now: float) -> None:
        """Any live state → KILLED (user cancellation)."""
        if self.lifecycle.terminal:
            raise JobStateError(f"cannot kill job {self.job_id}: already {self.lifecycle.value}")
        if self.lifecycle is LifecycleState.RUNNING:
            self._accrue(now)
        self.lifecycle = LifecycleState.KILLED
        self.end_time = now
        self.current_nodes = ()
        self.current_gpus = 0

    def checkpoint_clone(
        self,
        *,
        submit_time: float,
        restore_s: float = 0.0,
        job_id: JobId | None = None,
    ) -> Job:
        """A fresh QUEUED copy of this job resuming from its checkpoint.

        Used by cross-cluster migration: the source incarnation is killed
        and this clone is submitted to the target cluster at
        ``submit_time`` (source time + modelled transfer delay).  The
        clone carries the checkpointed ``remaining_work`` plus
        ``restore_s`` seconds of work re-done when resuming from the
        checkpoint; the redo is booked as a *debt* on the clone's
        productive integral, so restore time is exactly non-productive in
        the goodput decomposition once re-accrued.  ``job_id`` renames the
        incarnation (ids must stay unique if the job ever returns to a
        cluster it already visited).  Attempt counters and GPU-second
        accounting restart at zero — they are per-cluster; the federation
        layer stitches the incarnations back together.
        """
        clone = Job(
            job_id=self.job_id if job_id is None else job_id,
            user_id=self.user_id,
            lab_id=self.lab_id,
            # Node pins (partition routing) are per-cluster state, not part
            # of the user's request — the target cluster re-routes freely.
            request=replace(self.request, allowed_nodes=None)
            if self.request.allowed_nodes is not None
            else self.request,
            submit_time=submit_time,
            duration=self.duration,
            tier=self.tier,
            partition=None,  # partitions are per-cluster; the router re-admits
            walltime_estimate=self.walltime_estimate,
            interactive=self.interactive,
            preemptible=self.preemptible,
            failure_plan=self.failure_plan,
            name=self.name,
            model_name=self.model_name,
            elastic_min_gpus=self.elastic_min_gpus,
            dataset_gb=self.dataset_gb,
            service_id=self.service_id,
            workflow_id=self.workflow_id,
            depends_on=self.depends_on,
            artifact_bytes=self.artifact_bytes,
        )
        if restore_s < 0:
            raise ValidationError(f"restore_s must be non-negative, got {restore_s}")
        clone.remaining_work = min(self.duration, self.remaining_work + restore_s)
        # The restore redo is work the clone will accrue again; starting the
        # productive integral in debt makes the clone's final figure equal
        # its *retained* progress exactly (clone work − redo).
        redone = clone.remaining_work - self.remaining_work
        clone.productive_gpu_seconds = -redone * clone.num_gpus
        return clone
