"""Tests for cluster-level allocation, atomicity, and factories."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterSpec,
    NodeGroup,
    NodeSpec,
    build_cluster,
    build_tacc_cluster,
    tacc_cluster_spec,
    uniform_cluster,
)
from repro.cluster.partition import PartitionSpec
from repro.errors import AllocationError, ConfigError, UnknownJobError, UnknownNodeError


class TestBuildCluster:
    def test_uniform_factory(self):
        cluster = uniform_cluster(4, gpus_per_node=8, nodes_per_rack=2)
        assert cluster.total_gpus == 32
        assert len(cluster.topology.rack_ids) == 2

    def test_racks_not_shared_between_groups(self):
        spec = ClusterSpec(
            groups=(
                NodeGroup(2, NodeSpec("v100", 8, 64, 512), nodes_per_rack=8),
                NodeGroup(2, NodeSpec("rtx3090", 4, 32, 256), nodes_per_rack=8),
            )
        )
        cluster = build_cluster(spec)
        racks_by_type = {
            gpu_type: {node.rack_id for node in cluster.nodes_of_type(gpu_type)}
            for gpu_type in ("v100", "rtx3090")
        }
        assert not (racks_by_type["v100"] & racks_by_type["rtx3090"])

    def test_duplicate_prefix_rejected(self):
        spec = ClusterSpec(
            groups=(
                NodeGroup(1, NodeSpec("v100", 8, 64, 512), name_prefix="n"),
                NodeGroup(1, NodeSpec("rtx3090", 4, 32, 256), name_prefix="n"),
            )
        )
        with pytest.raises(ConfigError, match="duplicate node id"):
            build_cluster(spec)

    def test_partition_unknown_nodes_rejected(self):
        spec = ClusterSpec(groups=(NodeGroup(1, NodeSpec("v100", 8, 64, 512)),))
        with pytest.raises(ConfigError, match="unknown nodes"):
            build_cluster(spec, [PartitionSpec("p", ("ghost",))])

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(groups=())


class TestTaccCluster:
    def test_composition_matches_t1(self):
        cluster = build_tacc_cluster()
        assert cluster.total_gpus == 176
        assert len(cluster.nodes) == 24
        assert cluster.gpu_census() == {
            "a100-80": 32,
            "v100": 80,
            "rtx3090": 48,
            "rtx2080ti": 16,
        }

    def test_partitions_configured(self):
        cluster = build_tacc_cluster()
        assert {p.name for p in cluster.partitions} == {"a100", "v100", "consumer"}
        assert cluster.partitions.default_partition().name == "v100"

    def test_spec_totals(self):
        spec = tacc_cluster_spec()
        assert spec.total_gpus == 176
        assert spec.total_nodes == 24


class TestAllocation:
    def test_multi_node_allocation(self, small_cluster):
        nodes = sorted(small_cluster.nodes)[:2]
        alloc = small_cluster.allocate("j1", {nodes[0]: 8, nodes[1]: 8}, cpus_per_gpu=2)
        assert alloc.num_gpus == 16
        assert small_cluster.free_gpus == 16
        assert set(alloc.node_ids) == set(nodes)
        assert alloc.placement == {nodes[0]: 8, nodes[1]: 8}

    def test_atomic_rollback_on_partial_failure(self, small_cluster):
        nodes = sorted(small_cluster.nodes)
        small_cluster.allocate("filler", {nodes[1]: 8})
        with pytest.raises(AllocationError):
            small_cluster.allocate("j1", {nodes[0]: 8, nodes[1]: 1})
        # The first node's partial commit must have been rolled back.
        assert small_cluster.node(nodes[0]).free_gpus == 8
        assert not small_cluster.holds_job("j1")
        small_cluster.verify_invariants()

    def test_double_allocation_rejected(self, small_cluster):
        node = sorted(small_cluster.nodes)[0]
        small_cluster.allocate("j1", {node: 1})
        with pytest.raises(AllocationError, match="already holds"):
            small_cluster.allocate("j1", {node: 1})

    def test_empty_and_nonpositive_placements_rejected(self, small_cluster):
        with pytest.raises(AllocationError, match="empty placement"):
            small_cluster.allocate("j1", {})
        node = sorted(small_cluster.nodes)[0]
        with pytest.raises(AllocationError, match="non-positive"):
            small_cluster.allocate("j1", {node: 0})

    def test_free_returns_record_and_unknown_raises(self, small_cluster):
        node = sorted(small_cluster.nodes)[0]
        small_cluster.allocate("j1", {node: 4})
        released = small_cluster.free("j1")
        assert released.num_gpus == 4
        with pytest.raises(UnknownJobError):
            small_cluster.free("j1")

    def test_unknown_node_in_placement(self, small_cluster):
        with pytest.raises(UnknownNodeError):
            small_cluster.allocate("j1", {"ghost": 1})

    def test_utilization(self, small_cluster):
        assert small_cluster.utilization() == 0.0
        node = sorted(small_cluster.nodes)[0]
        small_cluster.allocate("j1", {node: 8})
        assert small_cluster.utilization() == pytest.approx(0.25)


class TestFailureInterplay:
    def test_fail_node_reports_jobs(self, small_cluster):
        nodes = sorted(small_cluster.nodes)
        small_cluster.allocate("j1", {nodes[0]: 4, nodes[1]: 4})
        victims = small_cluster.fail_node(nodes[0])
        assert victims == ("j1",)
        assert small_cluster.healthy_gpus == 24
        # Job still holds its whole allocation until the caller frees it.
        small_cluster.free("j1")
        small_cluster.repair_node(nodes[0])
        assert small_cluster.healthy_gpus == 32

    def test_free_gpus_excludes_unhealthy(self, small_cluster):
        node = sorted(small_cluster.nodes)[0]
        small_cluster.fail_node(node)
        assert small_cluster.free_gpus == 24


class TestFeasibility:
    def test_free_gpus_by_node_filter(self, hetero_cluster):
        by_node = hetero_cluster.free_gpus_by_node(gpu_type="rtx3090")
        assert len(by_node) == 2
        assert all(v == 4 for v in by_node.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 8)), min_size=1, max_size=30))
def test_cluster_books_balance_under_random_ops(operations):
    cluster = uniform_cluster(3, gpus_per_node=8)
    live: list[str] = []
    counter = 0
    for do_alloc, gpus in operations:
        if do_alloc:
            target = next(
                (nid for nid, free in sorted(cluster.free_gpus_by_node().items()) if free >= gpus),
                None,
            )
            if target is not None:
                counter += 1
                name = f"j{counter}"
                cluster.allocate(name, {target: gpus}, cpus_per_gpu=1, memory_gb_per_gpu=1.0)
                live.append(name)
        elif live:
            cluster.free(live.pop())
        cluster.verify_invariants()
        assert cluster.used_gpus + cluster.free_gpus == cluster.total_gpus
