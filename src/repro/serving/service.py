"""Inference-service model: specs, replica roles, and live service state.

A :class:`ServiceJob` is the serving counterpart of a training
:class:`~repro.workload.job.Job`: a *long-running, replicated* inference
service whose unit of scheduling is the replica.  Each replica is submitted
to the ordinary scheduler as a regular job (so placement, quota and
preemption all apply unchanged); the service tracks which replicas exist,
which are live, and at what per-replica request rate the execution layer
says each one serves.

Replicas come in two roles mirroring the campus quota tiers:

* **BASELINE** replicas run in the guaranteed tier — the capacity the
  service owner pays quota for, never preempted by training;
* **SURGE** replicas run opportunistic and preemptible — autoscaled
  harvest of idle GPUs that absorbs diurnal peaks and is reclaimed the
  moment a guaranteed training job needs the capacity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ValidationError
from ..ids import JobId, LabId, ServiceId, UserId
from ..workload.job import Job, JobTier, LifecycleState, ResourceRequest
from ..workload.models import get_model_profile


class ReplicaRole(enum.Enum):
    BASELINE = "baseline"  # guaranteed tier, quota-backed
    SURGE = "surge"  # opportunistic tier, harvested idle capacity


#: Replica job durations exceed the remaining horizon by this factor so a
#: faster-than-reference placement (execution slowdown < 1) can never
#: complete a replica early; the fleet retires every replica explicitly
#: when the serving horizon closes.
REPLICA_LIFETIME_SLACK = 8.0


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one inference service.

    Attributes:
        service_id: Unique id; replica job ids derive from it.
        user_id / lab_id: Owner, for quota and fairness accounting.
        model_name: Catalogue key (:data:`~repro.workload.models.MODEL_CATALOG`)
            of the served model; its per-iteration profile sets the
            reference service rate.
        slo_p99_s: Target p99 request latency the autoscaler holds.
        batch_requests: Requests served per model iteration (serving batch).
        gpus_per_replica: GPUs each replica occupies.
        gpu_type: Required GPU type, or ``None`` for any.
        base_replicas: Guaranteed-tier baseline replica count.
        max_replicas: Hard ceiling on total replicas (baseline + surge).
        cpus_per_gpu / memory_gb_per_gpu: Host resources per replica GPU.
    """

    service_id: ServiceId
    user_id: UserId
    lab_id: LabId
    model_name: str
    slo_p99_s: float
    batch_requests: int = 8
    gpus_per_replica: int = 1
    gpu_type: str | None = None
    base_replicas: int = 2
    max_replicas: int = 16
    cpus_per_gpu: int = 4
    memory_gb_per_gpu: float = 32.0

    def __post_init__(self) -> None:
        if not self.service_id:
            raise ValidationError("service_id must be non-empty")
        get_model_profile(self.model_name)  # fail fast on unknown models
        if self.slo_p99_s <= 0:
            raise ValidationError(f"{self.service_id}: slo_p99_s must be positive")
        if self.batch_requests <= 0:
            raise ValidationError(f"{self.service_id}: batch_requests must be positive")
        if self.gpus_per_replica <= 0:
            raise ValidationError(f"{self.service_id}: gpus_per_replica must be positive")
        if self.base_replicas < 0:
            raise ValidationError(f"{self.service_id}: base_replicas must be >= 0")
        if self.max_replicas < max(1, self.base_replicas):
            raise ValidationError(
                f"{self.service_id}: max_replicas must be >= max(1, base_replicas)"
            )

    def reference_rate_rps(self, reference_gpu: str = "v100") -> float:
        """Requests/s of one replica on the requested (or reference) GPU.

        The autoscaler plans with this nominal rate; the *achieved* rate of
        a live replica is recomputed from its actual placement when it
        starts.
        """
        from ..cluster.gpu import get_gpu_spec

        profile = get_model_profile(self.model_name)
        gpu = get_gpu_spec(self.gpu_type or reference_gpu)
        iteration_s = profile.compute_ms / 1000.0 / gpu.relative_speed
        return self.batch_requests / iteration_s


@dataclass
class Replica:
    """One replica's live record inside a :class:`ServiceJob`."""

    job: Job
    role: ReplicaRole
    #: Achieved request rate of the live attempt (None while queued).
    rate_rps: float | None = None

    @property
    def running(self) -> bool:
        return self.job.lifecycle is LifecycleState.RUNNING and self.rate_rps is not None

    @property
    def live(self) -> bool:
        """Still scheduled or schedulable (counts toward the desired fleet)."""
        return not self.job.lifecycle.terminal


@dataclass
class ServiceJob:
    """Live state of one replicated inference service.

    Created by the fleet from a :class:`ServiceSpec`; mutated only by the
    fleet's event handlers.  ``replicas`` maps replica job ids to their
    records in launch order (dict preserves insertion order, which the
    scale-down path relies on: surge replicas retire youngest-first).
    """

    spec: ServiceSpec
    rate_rps: float = 0.0
    replicas: dict[JobId, Replica] = field(default_factory=dict)
    launched: int = 0  # monotonically increasing replica counter
    #: Accounting state (integrated by the fleet).
    last_account_time: float = 0.0
    offered_requests: float = 0.0
    served_requests: float = 0.0
    slo_attained_requests: float = 0.0
    baseline_gpu_seconds: float = 0.0
    harvested_gpu_seconds: float = 0.0
    scale_up_events: int = 0
    scale_down_events: int = 0
    #: Autoscaler hysteresis: consecutive epochs the target sat below the
    #: live fleet size.
    epochs_below_target: int = 0

    @property
    def service_id(self) -> ServiceId:
        return self.spec.service_id

    def live_replicas(self, role: ReplicaRole | None = None) -> list[Replica]:
        return [
            replica
            for replica in self.replicas.values()
            if replica.live and (role is None or replica.role is role)
        ]

    def running_replicas(self) -> list[Replica]:
        return [replica for replica in self.replicas.values() if replica.running]

    def next_replica_job(self, spec_role: ReplicaRole, now: float, horizon_s: float) -> Job:
        """Mint the next replica job (QUEUED, ready for submission).

        The replica's ``duration`` is the remaining serving horizon padded
        by :data:`REPLICA_LIFETIME_SLACK`: services don't finish, they are
        retired — by a scale-down, or by the fleet when the study window
        closes.
        """
        spec = self.spec
        self.launched += 1
        tier = JobTier.GUARANTEED if spec_role is ReplicaRole.BASELINE else JobTier.OPPORTUNISTIC
        job = Job(
            job_id=f"{spec.service_id}-r{self.launched:04d}",
            user_id=spec.user_id,
            lab_id=spec.lab_id,
            request=ResourceRequest(
                num_gpus=spec.gpus_per_replica,
                gpu_type=spec.gpu_type,
                cpus_per_gpu=spec.cpus_per_gpu,
                memory_gb_per_gpu=spec.memory_gb_per_gpu,
            ),
            submit_time=now,
            duration=max(1.0, horizon_s - now) * REPLICA_LIFETIME_SLACK,
            tier=tier,
            preemptible=spec_role is ReplicaRole.SURGE,
            name=f"serve-{spec.model_name}",
            model_name=spec.model_name,
            service_id=spec.service_id,
        )
        self.replicas[job.job_id] = Replica(job=job, role=spec_role)
        return job
