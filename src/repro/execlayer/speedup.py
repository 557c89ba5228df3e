"""Placement- and hardware-sensitive slowdown model.

A trace job's ``duration`` is its wall time under *reference* conditions:
the GPU type it asked for (V100 when indifferent), packed into as few nodes
as its shape allows, all in one rack.  When the scheduler actually places it
somewhere else — slower/faster cards, more nodes, across the spine — the
execution layer stretches or shrinks the remaining work by the ratio of
per-iteration times:

    slowdown = iter_time(actual placement) / iter_time(reference placement)

where ``iter_time = compute / gpu_speed + sync_time(model, shape)`` using
the job's DNN profile (:mod:`repro.workload.models`) and the communication
models (:mod:`repro.execlayer.comm`).  Single-GPU jobs reduce to the pure
hardware-speed ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import Cluster
from ..cluster.gpu import get_gpu_spec
from ..cluster.topology import Locality
from ..errors import ValidationError
from ..workload.job import Job
from ..workload.models import profile_of
from .comm import CommMethod, PlacementShape, shape_from_placement, sync_time_s

#: GPU type assumed when a job expresses no preference.
REFERENCE_GPU = "v100"


@dataclass(frozen=True)
class ExecModelConfig:
    """Knobs of the execution-layer performance model.

    Attributes:
        comm_method: Synchronisation substrate in use cluster-wide.
        hardware_aware: When False, GPU-speed differences are ignored
            (slowdown depends on placement spread only) — used by ablations.
        placement_aware: When False, placement spread is ignored (slowdown
            depends on hardware only).
    """

    comm_method: CommMethod = CommMethod.RING
    hardware_aware: bool = True
    placement_aware: bool = True


class ExecutionModel:
    """Computes slowdown factors for job placements on a cluster."""

    def __init__(self, config: ExecModelConfig | None = None) -> None:
        self.config = config or ExecModelConfig()
        self._slowdowns: dict[tuple[object, ...], float] = {}

    def reference_shape(self, job: Job, nic_gbps: float = 100.0) -> PlacementShape:
        """The ideal placement shape implied by the job's request."""
        request = job.request
        per_node = request.gpus_per_node or request.num_gpus
        per_node = min(per_node, request.num_gpus, 8)
        nodes, remainder = divmod(request.num_gpus, per_node)
        gpus_per_node = [per_node] * nodes + ([remainder] if remainder else [])
        gpu = get_gpu_spec(request.gpu_type or REFERENCE_GPU)
        return PlacementShape(
            gpus_per_node=tuple(gpus_per_node),
            locality=Locality.SAME_NODE if len(gpus_per_node) == 1 else Locality.SAME_RACK,
            intra_node_gbps=gpu.intra_node_gbps,
            nic_gbps=nic_gbps,
            spine_oversubscription=1.0,
        )

    def iteration_time_s(self, job: Job, shape: PlacementShape, gpu_type: str) -> float:
        """Per-iteration wall time for the job on the given shape/hardware."""
        profile = profile_of(job)
        speed = get_gpu_spec(gpu_type).relative_speed if self.config.hardware_aware else 1.0
        compute_s = profile.compute_ms / 1000.0 / speed
        if not self.config.placement_aware or shape.total_gpus == 1:
            sync_s = 0.0
        else:
            sync_s = sync_time_s(profile.gradient_mb, shape, self.config.comm_method)
        return compute_s + sync_s

    def placement_iteration_s(self, job: Job, placement: dict[str, int], cluster: Cluster) -> float:
        """Per-iteration wall time of *job* on *placement*: the placement's
        shape on its slowest GPU type."""
        shape = shape_from_placement(placement, cluster)
        # sorted(): equal-speed GPU types must tie-break by name, not by
        # set hash order, or results drift across processes.
        gpu_types = {cluster.node(n).spec.gpu_type for n in placement}
        slowest = min(sorted(gpu_types), key=lambda t: get_gpu_spec(t).relative_speed)
        return self.iteration_time_s(job, shape, slowest)

    def slowdown(self, job: Job, placement: dict[str, int], cluster: Cluster) -> float:
        """Slowdown factor (>0) of running *job* on *placement*.

        1.0 means the placement matches the reference conditions; >1 means
        the job runs slower (remaining work stretches); <1 means faster
        hardware than requested.  *placement* is one the control plane
        already accepted (``ClusterController.ensure_startable``).  Memoized
        on every input it reads; a failing placement raises on every call.
        """
        request = job.request
        key: list[object] = [job.model_name, job.num_gpus, request.gpu_type, request.gpus_per_node]
        node_ids = sorted(placement)
        for node_id in node_ids:
            spec = cluster.node(node_id).spec
            key += (placement[node_id], spec.gpu_type, spec.nic_gbps)
        key += (cluster.topology.spread(node_ids), cluster.topology.fabric.oversubscription)
        signature = tuple(key)
        cached = self._slowdowns.get(signature)
        if cached is not None:
            return cached
        actual = self.placement_iteration_s(job, placement, cluster)
        reference_gpu = request.gpu_type or REFERENCE_GPU
        ref_shape = self.reference_shape(
            job, nic_gbps=min(cluster.node(n).spec.nic_gbps for n in placement)
        )
        reference = self.iteration_time_s(job, ref_shape, reference_gpu)
        if reference <= 0:
            raise ValidationError(f"reference iteration time is zero for {job.job_id}")
        # Data-parallel work rate also scales with replica count: an elastic
        # job granted g < N GPUs processes g/N of the global batch per
        # iteration, stretching wall time by N/g on top of the iteration-
        # time ratio.
        slowdown = (actual / reference) * (job.num_gpus / sum(placement.values()))
        self._slowdowns[signature] = slowdown
        return slowdown


class UnitExecutionModel(ExecutionModel):
    """Degenerate model: every placement runs at slowdown 1.0.

    Used by pure-scheduling experiments (F5–F7) so JCT differences come from
    queueing alone, and by tests that need exact arithmetic.
    """

    def __init__(self) -> None:
        super().__init__(ExecModelConfig(hardware_aware=False, placement_aware=False))

    def slowdown(self, job: Job, placement: dict[str, int], cluster: Cluster) -> float:
        return 1.0
