"""Shared-filesystem dataset staging model.

The cluster serves training data from a networked filesystem ("reliable
networked file system for shared big data storage" in the execution-layer
design).  Before a job's first iteration, its dataset is staged to each of
its nodes' local NVMe cache; repeated runs over the same dataset on the
same node hit the cache and start immediately.  Two effects matter to
end-to-end latency and are modelled here:

* **cold-stage time** — dataset bytes over the per-node staging bandwidth,
  bounded by the filesystem's aggregate bandwidth when many nodes stage
  concurrently (the contention term);
* **node-local cache** — LRU per node with finite capacity; a lab re-running
  experiments on the same data pays the stage once per node, not per job.

The simulator adds the stage time to a job's provisioning delay and
advances/queries the cache through :meth:`SharedFilesystem.stage`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import require_positive
from ..ids import NodeId


@dataclass(frozen=True)
class StorageConfig:
    """Parameters of the shared filesystem and node caches.

    Attributes:
        node_stage_gbps: Max per-node staging throughput (NIC/NVMe bound).
        aggregate_gbps: Filesystem backend's total read bandwidth; when
            concurrent stages would exceed it, everyone slows down
            proportionally.
        node_cache_gb: Local cache capacity per node (LRU eviction).
    """

    node_stage_gbps: float = 20.0
    aggregate_gbps: float = 80.0
    node_cache_gb: float = 2000.0

    def __post_init__(self) -> None:
        require_positive("node_stage_gbps", self.node_stage_gbps)
        require_positive("aggregate_gbps", self.aggregate_gbps)
        require_positive("node_cache_gb", self.node_cache_gb)


@dataclass
class SharedFilesystem:
    """Staging-time oracle with per-node LRU caches.

    The model is intentionally coarse in time: a stage's duration is fixed
    when it begins, using the contention level at that instant.  ``load``
    tracks concurrently active stages and is maintained by the simulator
    via :meth:`begin_stage` / :meth:`end_stage`.
    """

    config: StorageConfig = field(default_factory=StorageConfig)
    _cache: dict[NodeId, OrderedDict] = field(default_factory=dict)
    _active_stages: int = 0
    stage_count: int = 0
    cache_hits: int = 0
    bytes_staged_gb: float = 0.0

    def _node_cache(self, node_id: NodeId) -> OrderedDict:
        return self._cache.setdefault(node_id, OrderedDict())

    def is_cached(self, node_id: NodeId, dataset_key: str) -> bool:
        return dataset_key in self._node_cache(node_id)

    def effective_gbps(self, concurrent: int | None = None) -> float:
        """Per-stage bandwidth at the given concurrency level."""
        active = max(1, self._active_stages if concurrent is None else concurrent)
        fair_share = self.config.aggregate_gbps / active
        return min(self.config.node_stage_gbps, fair_share)

    def stage_time_s(self, node_id: NodeId, dataset_key: str, dataset_gb: float) -> float:
        """Seconds to make *dataset_key* available on *node_id* (0 on hit)."""
        if dataset_gb <= 0 or self.is_cached(node_id, dataset_key):
            return 0.0
        return dataset_gb * 8.0 / self.effective_gbps(self._active_stages + 1)

    def stage(self, node_ids: tuple[NodeId, ...], dataset_key: str, dataset_gb: float) -> float:
        """Stage a dataset onto all of a job's nodes; returns max stage time.

        Cache-admits on every node (evicting LRU past capacity) and books
        the statistics.  Gang semantics: the job waits for its slowest
        node.
        """
        if dataset_gb <= 0 or not node_ids:
            return 0.0
        worst = 0.0
        for node_id in node_ids:
            self.stage_count += 1
            if self.is_cached(node_id, dataset_key):
                self.cache_hits += 1
                self._node_cache(node_id).move_to_end(dataset_key)
                continue
            worst = max(worst, self.stage_time_s(node_id, dataset_key, dataset_gb))
            self.bytes_staged_gb += dataset_gb
            self._admit(node_id, dataset_key, dataset_gb)
        return worst

    def _admit(self, node_id: NodeId, dataset_key: str, dataset_gb: float) -> None:
        cache = self._node_cache(node_id)
        cache[dataset_key] = dataset_gb
        cache.move_to_end(dataset_key)
        while sum(cache.values()) > self.config.node_cache_gb and len(cache) > 1:
            cache.popitem(last=False)

    def begin_stage(self) -> None:
        self._active_stages += 1

    def end_stage(self) -> None:
        self._active_stages = max(0, self._active_stages - 1)

    @property
    def hit_rate(self) -> float:
        if self.stage_count == 0:
            return 1.0
        return self.cache_hits / self.stage_count
