"""Cluster state: nodes + topology + partitions, with allocation bookkeeping.

The :class:`Cluster` is the single source of truth for who holds what.  The
scheduler proposes placements (``{node_id: gpu_count}``); the cluster turns
them into per-node allocations atomically — a multi-node placement either
fully commits or leaves no trace.  :func:`build_cluster` constructs a cluster
from a declarative :class:`ClusterSpec`, and :func:`build_tacc_cluster`
reproduces the campus cluster composition reported in experiment T1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import AllocationError, ConfigError, UnknownJobError, UnknownNodeError
from ..ids import JobId, NodeId, RackId
from .index import ClusterIndex
from .node import Node, NodeAllocation, NodeSpec
from .partition import PartitionSpec, PartitionTable
from .topology import FabricSpec, Topology

Placement = Mapping[NodeId, int]
"""A scheduler's placement decision: GPUs taken from each node."""


@dataclass(frozen=True)
class NodeGroup:
    """A homogeneous batch of nodes in a cluster spec.

    Attributes:
        count: Number of identical nodes.
        spec: Hardware of each node.
        nodes_per_rack: Rack granularity; racks are filled in order.
        name_prefix: Prefix for generated node ids (defaults to GPU type).
    """

    count: int
    spec: NodeSpec
    nodes_per_rack: int = 8
    name_prefix: str | None = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigError("NodeGroup.count must be positive")
        if self.nodes_per_rack <= 0:
            raise ConfigError("NodeGroup.nodes_per_rack must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of a whole cluster."""

    groups: tuple[NodeGroup, ...]
    fabric: FabricSpec = FabricSpec()
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigError("cluster spec has no node groups")

    @property
    def total_gpus(self) -> int:
        return sum(g.count * g.spec.num_gpus for g in self.groups)

    @property
    def total_nodes(self) -> int:
        return sum(g.count for g in self.groups)


@dataclass(frozen=True)
class JobAllocation:
    """Everything one job holds across the cluster."""

    job_id: JobId
    node_allocations: tuple[NodeAllocation, ...]

    @property
    def num_gpus(self) -> int:
        return sum(a.num_gpus for a in self.node_allocations)

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(a.node_id for a in self.node_allocations)

    @property
    def placement(self) -> dict[NodeId, int]:
        return {a.node_id: a.num_gpus for a in self.node_allocations}


@dataclass
class Cluster:
    """Live cluster state.

    Use :func:`build_cluster` rather than constructing directly; it wires
    nodes, racks, topology and partitions consistently.
    """

    name: str
    nodes: dict[NodeId, Node]
    topology: Topology
    partitions: PartitionTable = field(default_factory=PartitionTable)
    _job_allocations: dict[JobId, JobAllocation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The node set is fixed for the cluster's lifetime; the index keeps
        # O(1) aggregates and pre-sorted candidate pools over it.
        self._index = ClusterIndex(self.nodes)

    # -- capacity queries ------------------------------------------------------

    @property
    def index(self) -> ClusterIndex:
        """Incremental aggregates + candidate pools (read-optimised view)."""
        return self._index

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(self.nodes)

    @property
    def total_gpus(self) -> int:
        return self._index.total_gpus

    @property
    def healthy_gpus(self) -> int:
        return self._index.healthy_gpus

    @property
    def free_gpus(self) -> int:
        return self._index.free_healthy_gpus

    @property
    def used_gpus(self) -> int:
        return self._index.used_gpus

    @property
    def running_jobs(self) -> tuple[JobId, ...]:
        return tuple(self._job_allocations)

    def node(self, node_id: NodeId) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id}") from None

    def nodes_of_type(self, gpu_type: str) -> tuple[Node, ...]:
        return self._index.nodes_of_type(gpu_type)

    def gpu_census(self) -> dict[str, int]:
        """Total GPUs by type — the T1 composition table."""
        census: dict[str, int] = {}
        for node in self.nodes.values():
            census[node.spec.gpu_type] = census.get(node.spec.gpu_type, 0) + node.spec.num_gpus
        return census

    def free_gpus_by_node(self, gpu_type: str | None = None) -> dict[NodeId, int]:
        """Free GPU count for each healthy node, optionally filtered by type."""
        return {
            node_id: node.free_gpus
            for node_id, node in self.nodes.items()
            if node.healthy and (gpu_type is None or node.spec.gpu_type == gpu_type)
        }

    def holds_job(self, job_id: JobId) -> bool:
        return job_id in self._job_allocations

    def allocation_of(self, job_id: JobId) -> JobAllocation:
        try:
            return self._job_allocations[job_id]
        except KeyError:
            raise UnknownJobError(f"job {job_id} holds no allocation") from None

    # -- allocation --------------------------------------------------------------

    def allocate(
        self,
        job_id: JobId,
        placement: Placement,
        cpus_per_gpu: int = 0,
        memory_gb_per_gpu: float = 0.0,
    ) -> JobAllocation:
        """Atomically commit a placement for *job_id*.

        On any per-node failure the already-committed nodes are rolled back,
        so a raised :class:`AllocationError` leaves the cluster unchanged.
        """
        if job_id in self._job_allocations:
            raise AllocationError(f"job {job_id} already holds an allocation")
        if not placement:
            raise AllocationError(f"empty placement for job {job_id}")
        if any(count <= 0 for count in placement.values()):
            raise AllocationError(
                f"placement for {job_id} contains non-positive GPU counts: {dict(placement)}"
            )
        committed: list[NodeAllocation] = []
        try:
            # Sort for deterministic commit order (and deterministic errors).
            for node_id in sorted(placement):
                count = placement[node_id]
                node = self.node(node_id)
                committed.append(
                    node.allocate(
                        job_id,
                        gpus=count,
                        cpus=cpus_per_gpu * count,
                        memory_gb=memory_gb_per_gpu * count,
                    )
                )
        except Exception:
            for done in committed:
                self.nodes[done.node_id].free(job_id)
            raise
        for done in committed:
            self._index.on_allocate(self.nodes[done.node_id], done.num_gpus)
        allocation = JobAllocation(job_id, tuple(committed))
        self._job_allocations[job_id] = allocation
        return allocation

    def free(self, job_id: JobId) -> JobAllocation:
        """Release everything *job_id* holds; returns the released record."""
        allocation = self.allocation_of(job_id)
        for node_allocation in allocation.node_allocations:
            node = self.nodes[node_allocation.node_id]
            node.free(job_id)
            self._index.on_free(node, node_allocation.num_gpus)
        del self._job_allocations[job_id]
        return allocation

    def fail_node(self, node_id: NodeId) -> tuple[JobId, ...]:
        """Mark a node failed; return ids of jobs that were running on it.

        The returned jobs still hold cluster-wide allocations — the caller
        decides whether to kill or requeue them (and must then :meth:`free`).
        """
        node = self.node(node_id)
        was_healthy = node.healthy
        victims = node.fail()
        if was_healthy:
            self._index.on_fail(node)
        return victims

    def repair_node(self, node_id: NodeId) -> None:
        node = self.node(node_id)
        was_healthy = node.healthy
        node.repair()
        if not was_healthy:
            self._index.on_repair(node)

    # -- auditing -----------------------------------------------------------------

    def verify_invariants(self) -> None:
        """Audit all books: per-node invariants, cross-references, and the
        incremental index counters against a full scan."""
        for node in self.nodes.values():
            node.verify_invariants()
        self._index.verify(self.nodes)
        for job_id, allocation in self._job_allocations.items():
            for node_allocation in allocation.node_allocations:
                node = self.node(node_allocation.node_id)
                if not node.holds_job(job_id):
                    raise AllocationError(
                        f"cluster books list {job_id} on {node.node_id} "
                        "but the node does not"
                    )
        for node in self.nodes.values():
            for job_id in node.jobs:
                if job_id not in self._job_allocations:
                    raise AllocationError(
                        f"node {node.node_id} holds {job_id} unknown to the cluster"
                    )

    def utilization(self) -> float:
        """Fraction of healthy GPUs currently allocated (0 when none healthy)."""
        healthy = self.healthy_gpus
        if healthy == 0:
            return 0.0
        # Used-on-healthy falls out of the incremental aggregates: everything
        # on a healthy node is either free or allocated.
        return (healthy - self._index.free_healthy_gpus) / healthy


def build_cluster(spec: ClusterSpec, partitions: Iterable[PartitionSpec] = ()) -> Cluster:
    """Materialise a :class:`Cluster` from a declarative spec.

    Nodes in each group are laid out into racks of ``nodes_per_rack``; racks
    are never shared between groups (matching how the campus cluster racks
    homogeneous purchases together).
    """
    nodes: dict[NodeId, Node] = {}
    racks: dict[RackId, list[NodeId]] = {}
    rack_counter = 0
    for group in spec.groups:
        prefix = group.name_prefix or group.spec.gpu_type
        for index in range(group.count):
            if index % group.nodes_per_rack == 0:
                rack_counter += 1
            rack = f"rack-{rack_counter:02d}"
            node_id = f"{prefix}-{index:03d}"
            if node_id in nodes:
                raise ConfigError(f"duplicate node id {node_id}; use distinct name_prefix")
            nodes[node_id] = Node(node_id=node_id, spec=group.spec, rack_id=rack)
            racks.setdefault(rack, []).append(node_id)
    topology = Topology.build(racks, spec.fabric)
    table = PartitionTable()
    for partition in partitions:
        missing = set(partition.node_ids) - set(nodes)
        if missing:
            raise ConfigError(
                f"partition {partition.name} references unknown nodes: {sorted(missing)}"
            )
        table.add(partition)
    return Cluster(name=spec.name, nodes=nodes, topology=topology, partitions=table)


def tacc_cluster_spec() -> ClusterSpec:
    """The campus-cluster composition used throughout the evaluation (T1).

    A heterogeneous fleet mirroring the paper's mix of grant-funded
    datacenter parts and cost-efficient consumer cards:

    * 4 nodes × 8 A100-80GB  (32 GPUs)
    * 10 nodes × 8 V100      (80 GPUs)
    * 6 nodes × 8 RTX 3090   (48 GPUs)
    * 4 nodes × 4 RTX 2080Ti (16 GPUs)

    Total: 24 nodes, 176 GPUs.
    """
    return ClusterSpec(
        name="tacc-campus",
        groups=(
            NodeGroup(4, NodeSpec("a100-80", 8, 128, 1024, nic_gbps=200.0), nodes_per_rack=4),
            NodeGroup(10, NodeSpec("v100", 8, 96, 768, nic_gbps=100.0), nodes_per_rack=5),
            NodeGroup(6, NodeSpec("rtx3090", 8, 64, 512, nic_gbps=50.0), nodes_per_rack=6),
            NodeGroup(4, NodeSpec("rtx2080ti", 4, 32, 256, nic_gbps=25.0), nodes_per_rack=4),
        ),
        fabric=FabricSpec(node_uplink_gbps=100.0, leaf_uplink_gbps=400.0, oversubscription=2.0),
    )


def build_tacc_cluster() -> Cluster:
    """Build the campus cluster with its standard partitions."""
    spec = tacc_cluster_spec()
    cluster = build_cluster(spec)
    by_type: dict[str, list[NodeId]] = {}
    for node_id, node in cluster.nodes.items():
        by_type.setdefault(node.spec.gpu_type, []).append(node_id)
    cluster.partitions.add(
        PartitionSpec(
            "a100", tuple(by_type["a100-80"]), max_walltime_hours=72.0, max_gpus_per_job=32
        )
    )
    cluster.partitions.add(
        PartitionSpec("v100", tuple(by_type["v100"]), max_walltime_hours=120.0, default=True)
    )
    cluster.partitions.add(
        PartitionSpec(
            "consumer",
            tuple(by_type["rtx3090"] + by_type["rtx2080ti"]),
            max_walltime_hours=48.0,
            max_gpus_per_job=8,
        )
    )
    return cluster


#: Node flavours of the heterogeneous fleet preset, keyed by gpu type:
#: (cpus, memory_gb, nic_gbps), mirroring the campus cluster's hardware.
_HET_NODE_FLAVOURS: dict[str, tuple[int, float, float]] = {
    "a100-80": (128, 1024.0, 200.0),
    "v100": (96, 768.0, 100.0),
    "rtx3090": (64, 512.0, 50.0),
}

#: Default gpu-type mix of the heterogeneous fleet preset: the campus
#: cluster's 8-GPU node proportions (a100 : v100 : rtx3090 = 32 : 80 : 48),
#: which also covers every type the synthetic workloads may demand.
HETEROGENEOUS_MIX: tuple[tuple[str, float], ...] = (
    ("a100-80", 0.20),
    ("v100", 0.50),
    ("rtx3090", 0.30),
)


def heterogeneous_cluster_spec(
    num_nodes: int,
    gpus_per_node: int = 8,
    mix: tuple[tuple[str, float], ...] = HETEROGENEOUS_MIX,
    nodes_per_rack: int = 8,
    name: str | None = None,
) -> ClusterSpec:
    """A mixed-gpu-type fleet: *num_nodes* nodes split by the *mix* weights.

    Uniform benchmark clusters reject every job that names a gpu type the
    cluster lacks (~20 % of a campus-shaped trace); this preset carries
    all the types the synthetic workloads demand, in campus-like
    proportions, so fleet-scale benchmarks and federation sites exercise
    type-constrained placement instead of discarding it at admission.
    Node counts are rounded deterministically with the remainder going to
    the first (largest-weight stays stable) entry.
    """
    if num_nodes <= 0:
        raise ConfigError("heterogeneous cluster needs a positive node count")
    weights = [max(0.0, weight) for _gpu_type, weight in mix]
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ConfigError("heterogeneous mix weights must not all be zero")
    counts = [int(num_nodes * weight / total_weight) for weight in weights]
    counts[0] += num_nodes - sum(counts)  # deterministic remainder placement
    groups = []
    for (gpu_type, _weight), count in zip(mix, counts):
        if count <= 0:
            continue
        cpus, memory_gb, nic_gbps = _HET_NODE_FLAVOURS.get(gpu_type, (96, 768.0, 100.0))
        groups.append(
            NodeGroup(
                count,
                NodeSpec(gpu_type, gpus_per_node, cpus, memory_gb, nic_gbps=nic_gbps),
                nodes_per_rack=nodes_per_rack,
            )
        )
    return ClusterSpec(
        name=name or f"het-{num_nodes}x{gpus_per_node}",
        groups=tuple(groups),
        fabric=FabricSpec(node_uplink_gbps=100.0, leaf_uplink_gbps=400.0, oversubscription=2.0),
    )


def heterogeneous_cluster(
    num_nodes: int,
    gpus_per_node: int = 8,
    mix: tuple[tuple[str, float], ...] = HETEROGENEOUS_MIX,
    nodes_per_rack: int = 8,
    name: str | None = None,
) -> Cluster:
    """Build the heterogeneous fleet preset (see
    :func:`heterogeneous_cluster_spec`)."""
    return build_cluster(
        heterogeneous_cluster_spec(
            num_nodes,
            gpus_per_node=gpus_per_node,
            mix=mix,
            nodes_per_rack=nodes_per_rack,
            name=name,
        )
    )


def uniform_cluster(
    num_nodes: int,
    gpus_per_node: int = 8,
    gpu_type: str = "v100",
    cpus: int = 96,
    memory_gb: float = 768.0,
    nodes_per_rack: int = 8,
) -> Cluster:
    """Convenience factory for homogeneous clusters (tests, sweeps, F10)."""
    spec = ClusterSpec(
        name=f"uniform-{num_nodes}x{gpus_per_node}",
        groups=(
            NodeGroup(
                num_nodes,
                NodeSpec(gpu_type, gpus_per_node, cpus, memory_gb),
                nodes_per_rack=nodes_per_rack,
            ),
        ),
    )
    return build_cluster(spec)
