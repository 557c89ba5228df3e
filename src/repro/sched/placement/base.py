"""Placement policy interface and shared chunking logic.

Given a resource request and the live cluster, a placement policy returns
``{node_id: gpu_count}`` or ``None`` when it declines to place now.  All
policies share the same feasibility rules, implemented here:

* a placement uses a single GPU type (mixing types in one data-parallel
  job pins the job to the slowest card, so the cluster forbids it);
* a request splits into equal *chunks*: single-node jobs are one chunk of
  ``num_gpus``; multi-node jobs are ``num_gpus / gpus_per_node`` chunks,
  each filling its node allocation entirely (gang semantics);
* every chunk's node must also fit the per-GPU CPU/memory ask.

Stateful allocators (HiveD buddy cells) additionally receive
``on_allocate`` / ``on_free`` callbacks from the simulator so their internal
books track the cluster.
"""

from __future__ import annotations

import abc
from typing import Iterator, Mapping

from ...cluster.cluster import Cluster
from ...cluster.node import Node
from ...ids import JobId, NodeId
from ...workload.job import Job, ResourceRequest


def request_chunks(request: ResourceRequest) -> list[int]:
    """Split a request into per-node GPU chunks.

    >>> request_chunks(ResourceRequest(num_gpus=16, gpus_per_node=8))
    [8, 8]
    >>> request_chunks(ResourceRequest(num_gpus=4))
    [4]
    """
    per_node = request.gpus_per_node
    if per_node is None or request.num_gpus <= per_node:
        return [request.num_gpus]
    return [per_node] * (request.num_gpus // per_node)


def node_eligible(node: Node, request: ResourceRequest) -> bool:
    """True when *request* may use *node* at all: GPU type and partition.

    The one statement of the rule, used by chunk fitting, backfill
    reservations and eviction-victim selection.  Two hot scans apply it
    without calling here: :func:`iter_candidate_nodes` and
    ``ClusterSimulator.statically_feasible`` take nodes from the cluster
    index's per-type pools (the type half) and test ``allowed_nodes``
    (the partition half) inline.
    """
    if request.gpu_type is not None and node.spec.gpu_type != request.gpu_type:
        return False
    return request.allowed_nodes is None or node.node_id in request.allowed_nodes


def node_fits_chunk(node: Node, request: ResourceRequest, chunk: int) -> bool:
    """True when *node* can host one chunk of *request* right now."""
    return node_eligible(node, request) and node.can_fit(
        chunk,
        cpus=request.cpus_per_gpu * chunk,
        memory_gb=request.memory_gb_per_gpu * chunk,
    )


def iter_candidate_nodes(
    cluster: Cluster, request: ResourceRequest, chunk: int
) -> Iterator[Node]:
    """Lazily yield healthy nodes that can host one chunk, in id order.

    Scans the cluster index's pre-bucketed pools (per-type for typed
    requests) instead of re-sorting ``cluster.nodes`` per attempt, and
    yields in the same order the full sorted scan would — so consumers that
    stop early (first-fit needs only ``len(chunks)`` hits) skip the tail of
    the cluster entirely without changing any placement decision.
    """
    allowed = request.allowed_nodes
    cpus_needed = request.cpus_per_gpu * chunk
    memory_needed = request.memory_gb_per_gpu * chunk
    for node in cluster.index.iter_candidates(request.gpu_type, chunk):
        if allowed is not None and node.node_id not in allowed:
            continue
        if node.can_fit(chunk, cpus_needed, memory_needed):
            yield node


def candidate_nodes(cluster: Cluster, request: ResourceRequest, chunk: int) -> list[Node]:
    """Healthy nodes that can host one chunk, in deterministic id order."""
    return list(iter_candidate_nodes(cluster, request, chunk))


def placement_possible(cluster: Cluster, request: ResourceRequest) -> bool:
    """O(1) necessary condition for placing *request* right now.

    Checks the index's availability histogram: some single GPU type must
    have ``len(chunks)`` nodes with a chunk's worth of free GPUs.  When it
    fails, every candidate scan is guaranteed to come up short, so policies
    bail before examining a single node — the common case on a congested
    cluster, where most scheduler-pass placement attempts are doomed.
    """
    chunks = request_chunks(request)
    return cluster.index.placement_possible(request.gpu_type, chunks[0], len(chunks))


class PlacementPolicy(abc.ABC):
    """Strategy object answering "where should this request run?"."""

    name: str = "abstract"

    @abc.abstractmethod
    def place(self, cluster: Cluster, request: ResourceRequest) -> dict[NodeId, int] | None:
        """Return a placement or ``None`` when the request cannot start now."""

    def place_job(self, cluster: Cluster, job: Job) -> dict[NodeId, int] | None:
        """Job-aware entry point the scheduler calls.

        The default ignores job identity and delegates to :meth:`place`, so
        every existing policy behaves exactly as before.  Policies that care
        *which* job is being placed (transfer-aware: where do its upstream
        artifacts sit?) override this.
        """
        return self.place(cluster, job.request)

    def bind(self, jobs: Mapping[JobId, Job]) -> None:
        """Give the policy read access to the simulation's job table.

        Called once by the simulator at construction.  Default: no-op;
        job-aware policies keep the mapping to resolve dependency ids.
        """

    # -- lifecycle hooks for stateful allocators -------------------------------

    def on_allocate(self, cluster: Cluster, job_id: JobId, placement: dict[NodeId, int]) -> None:
        """Called by the simulator after a placement commits."""

    def on_free(self, cluster: Cluster, job_id: JobId, placement: dict[NodeId, int]) -> None:
        """Called by the simulator after a job's resources are released."""

    def verify_invariants(self, cluster: Cluster) -> None:
        """Audit the policy's own books against *cluster* (raise on drift).

        Called at every audit checkpoint under ``SimConfig.audit``.
        Default: no-op; stateful allocators check what they keep.
        """

    def _assemble(
        self,
        cluster: Cluster,
        request: ResourceRequest,
        ranked_nodes: list[Node],
    ) -> dict[NodeId, int] | None:
        """Greedily assign chunks to *ranked_nodes* (one chunk per node).

        Shared tail of most policies: the policy ranks candidates, this
        helper takes the first ``len(chunks)`` of them.  Since all chunks of
        a request are equal, feasibility per node is uniform.
        """
        chunks = request_chunks(request)
        if len(ranked_nodes) < len(chunks):
            return None
        if request.gpu_type is None:
            # Single-type constraint: take the best type that has enough
            # nodes.  Grouping preserves ranked order, and dict insertion
            # order is exactly first-occurrence-in-ranking order — no
            # O(n²) index() re-scan needed to rank the types.
            by_type: dict[str, list[Node]] = {}
            for node in ranked_nodes:
                by_type.setdefault(node.spec.gpu_type, []).append(node)
            for nodes in by_type.values():
                if len(nodes) >= len(chunks):
                    return {
                        node.node_id: chunk
                        for node, chunk in zip(nodes, chunks)
                    }
            return None
        return {node.node_id: chunk for node, chunk in zip(ranked_nodes, chunks)}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
