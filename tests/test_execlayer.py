"""Tests for the execution layer: comm models, slowdown, runtimes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_tacc_cluster, uniform_cluster
from repro.cluster.topology import Locality
from repro.errors import ConfigError, RuntimeSwitchError, SchedulingError, ValidationError
from repro.execlayer import (
    CommMethod,
    ExecModelConfig,
    ExecutionModel,
    PlacementShape,
    RuntimeRegistry,
    RuntimeSystem,
    UnitExecutionModel,
    in_network_aggregation_s,
    parameter_server_s,
    ring_allreduce_s,
    shape_from_placement,
    sync_time_s,
    tree_allreduce_s,
)
from repro.sched import GreedyFifoScheduler
from repro.sim import ClusterSimulator
from repro.workload import Trace
from tests.conftest import make_job


def shape(gpus_per_node, locality=Locality.SAME_RACK, intra=300.0, nic=100.0, oversub=2.0):
    return PlacementShape(tuple(gpus_per_node), locality, intra, nic, oversub)


class TestPlacementShape:
    def test_validation(self):
        with pytest.raises(ValidationError):
            shape([])
        with pytest.raises(ValidationError):
            shape([0])
        with pytest.raises(ValidationError):
            PlacementShape((1,), Locality.SAME_NODE, 0.0, 1.0)
        with pytest.raises(ValidationError):
            PlacementShape((1,), Locality.SAME_NODE, 1.0, 1.0, 0.5)

    def test_effective_nic_penalised_cross_rack(self):
        same = shape([8, 8], Locality.SAME_RACK)
        cross = shape([8, 8], Locality.CROSS_RACK)
        assert same.effective_nic_gbps == 100.0
        assert cross.effective_nic_gbps == 50.0

    def test_totals(self):
        s = shape([4, 4, 2])
        assert s.total_gpus == 10
        assert s.num_nodes == 3


class TestCommModels:
    def test_single_gpu_no_sync(self):
        s = PlacementShape((1,), Locality.SAME_NODE, 300.0, 100.0)
        assert ring_allreduce_s(100.0, s) == 0.0
        assert parameter_server_s(100.0, s) == 0.0

    def test_locality_ordering_ring(self):
        times = [
            ring_allreduce_s(1000.0, shape([8, 8], locality))
            for locality in (Locality.SAME_RACK, Locality.CROSS_RACK)
        ]
        single = ring_allreduce_s(1000.0, PlacementShape((16,), Locality.SAME_NODE, 300.0, 100.0))
        assert single < times[0] < times[1]

    def test_ina_immune_to_spine(self):
        same = in_network_aggregation_s(1000.0, shape([8, 8], Locality.SAME_RACK))
        cross = in_network_aggregation_s(1000.0, shape([8, 8], Locality.CROSS_RACK))
        assert same == pytest.approx(cross)

    def test_ina_beats_ring_cross_rack(self):
        s = shape([8, 8, 8, 8], Locality.CROSS_RACK)
        assert in_network_aggregation_s(1000.0, s) < ring_allreduce_s(1000.0, s)

    def test_ps_scales_with_node_count(self):
        two = parameter_server_s(1000.0, shape([1, 1]))
        four = parameter_server_s(1000.0, shape([1, 1, 1, 1]))
        assert four == pytest.approx(2 * two)

    def test_ring_volume_grows_sublinearly(self):
        # Ring all-reduce moves 2(k-1)/k of the model per node: nearly flat.
        two = ring_allreduce_s(1000.0, shape([1, 1]))
        eight = ring_allreduce_s(1000.0, shape([1] * 8))
        assert eight < 2 * two

    def test_tree_pays_log_hops(self):
        two = tree_allreduce_s(1000.0, shape([1, 1]))
        eight = tree_allreduce_s(1000.0, shape([1] * 8))
        assert eight == pytest.approx(3 * two, rel=0.01)

    def test_sync_time_dispatch(self):
        s = shape([8, 8])
        for method in CommMethod:
            assert sync_time_s(500.0, s, method) > 0.0

    def test_invalid_model_size(self):
        with pytest.raises(ValidationError):
            ring_allreduce_s(0.0, shape([2, 2]))

    def test_shape_from_placement(self):
        cluster = uniform_cluster(4, gpus_per_node=8, nodes_per_rack=2)
        nodes = sorted(cluster.nodes)
        s = shape_from_placement({nodes[0]: 8, nodes[2]: 8}, cluster)
        assert s.locality is Locality.CROSS_RACK
        assert s.gpus_per_node == (8, 8)
        with pytest.raises(ValidationError):
            shape_from_placement({}, cluster)


class TestExecutionModel:
    def test_matching_reference_is_unity(self):
        cluster = uniform_cluster(2, gpus_per_node=8)
        model = ExecutionModel()
        job = make_job(num_gpus=8, model_name="resnet50")
        node = sorted(cluster.nodes)[0]
        assert model.slowdown(job, {node: 8}, cluster) == pytest.approx(1.0)

    def test_faster_gpu_speeds_up(self):
        cluster = build_tacc_cluster()
        model = ExecutionModel()
        job = make_job(num_gpus=1, model_name="resnet50")  # reference v100
        a100 = sorted(n for n in cluster.nodes if n.startswith("a100"))[0]
        assert model.slowdown(job, {a100: 1}, cluster) < 1.0

    def test_slower_gpu_slows_down(self):
        cluster = build_tacc_cluster()
        model = ExecutionModel()
        job = make_job(num_gpus=1, model_name="resnet50")
        slow = sorted(n for n in cluster.nodes if n.startswith("rtx2080"))[0]
        assert model.slowdown(job, {slow: 1}, cluster) > 1.0

    def test_spread_placement_slows_comm_heavy_job(self):
        cluster = uniform_cluster(16, gpus_per_node=8, nodes_per_rack=2)
        model = ExecutionModel()
        job = make_job(num_gpus=16, gpus_per_node=8, model_name="gpt2-xl")
        nodes = sorted(cluster.nodes)
        packed = model.slowdown(job, {nodes[0]: 8, nodes[1]: 8}, cluster)
        spread = model.slowdown(job, {nodes[0]: 8, nodes[4]: 8}, cluster)  # cross-rack
        assert spread > packed

    def test_comm_light_job_insensitive(self):
        cluster = uniform_cluster(16, gpus_per_node=8, nodes_per_rack=2)
        model = ExecutionModel()
        job = make_job(num_gpus=16, gpus_per_node=8, model_name="pointnet")
        nodes = sorted(cluster.nodes)
        packed = model.slowdown(job, {nodes[0]: 8, nodes[1]: 8}, cluster)
        spread = model.slowdown(job, {nodes[0]: 8, nodes[4]: 8}, cluster)
        assert spread / packed < 1.25

    def test_placement_must_cover_request(self):
        """A short placement is refused by the control plane before the
        execution model prices it."""

        class ShortChanging(GreedyFifoScheduler):
            def schedule(self, ctx):
                for job in list(self.queue):
                    ctx.start_job(job, {sorted(ctx.cluster.nodes)[0]: 4})

        simulator = ClusterSimulator(
            uniform_cluster(2, gpus_per_node=8),
            ShortChanging(),
            Trace([make_job(num_gpus=8)]),
            exec_model=ExecutionModel(),
        )
        with pytest.raises(SchedulingError, match="accepts"):
            simulator.run()

    def test_ablation_flags(self):
        cluster = build_tacc_cluster()
        job = make_job(num_gpus=1, model_name="resnet50")
        slow_node = sorted(n for n in cluster.nodes if n.startswith("rtx2080"))[0]
        blind = ExecutionModel(ExecModelConfig(hardware_aware=False))
        assert blind.slowdown(job, {slow_node: 1}, cluster) == pytest.approx(1.0)

    def test_unit_model_always_one(self):
        cluster = build_tacc_cluster()
        job = make_job(num_gpus=1, model_name="gpt2-xl")
        node = sorted(cluster.nodes)[0]
        assert UnitExecutionModel().slowdown(job, {node: 1}, cluster) == 1.0


class TestRuntimeRegistry:
    def test_default_chain(self):
        registry = RuntimeRegistry()
        chain = registry.chain_for()
        assert [r.name for r in chain] == ["container", "bare", "ray"]

    def test_preferred_first(self):
        registry = RuntimeRegistry()
        chain = registry.chain_for(preferred="bare")
        assert chain[0].name == "bare"
        assert len(chain) == 3

    def test_unknown_runtime(self):
        with pytest.raises(ConfigError, match="unknown runtime"):
            RuntimeRegistry().get("k8s")

    def test_warm_cache_speeds_second_provision(self, rng):
        registry = RuntimeRegistry()
        first = registry.provision("env-a", rng)
        second = registry.provision("env-a", rng)
        assert second.warm
        assert second.provision_s <= first.provision_s

    def test_distinct_envs_cold(self, rng):
        registry = RuntimeRegistry()
        registry.provision("env-a", rng)
        other = registry.provision("env-b", rng)
        assert not other.warm

    def test_failsafe_switching(self):
        flaky = RuntimeSystem("flaky", 10.0, 1.0, provision_failure_prob=1.0)
        solid = RuntimeSystem("solid", 20.0, 2.0, provision_failure_prob=0.0)
        registry = RuntimeRegistry(runtimes=(flaky, solid))
        result = registry.provision("env", np.random.default_rng(0))
        assert result.runtime == "solid"
        assert result.switched
        assert result.attempts == 2
        assert result.provision_s == pytest.approx(30.0)  # both attempts paid

    def test_whole_chain_failing_raises(self):
        doomed = RuntimeSystem("doomed", 1.0, 1.0, provision_failure_prob=1.0)
        registry = RuntimeRegistry(runtimes=(doomed,))
        with pytest.raises(RuntimeSwitchError):
            registry.provision("env", np.random.default_rng(0))

    def test_multi_node_filter(self):
        single = RuntimeSystem("single", 1.0, 1.0, supports_multi_node=False)
        multi = RuntimeSystem("multi", 1.0, 1.0)
        registry = RuntimeRegistry(runtimes=(single, multi))
        chain = registry.chain_for(multi_node=True)
        assert [r.name for r in chain] == ["multi"]
        with pytest.raises(RuntimeSwitchError):
            registry.chain_for(preferred="single", multi_node=True)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            RuntimeSystem("bad", 1.0, 2.0)  # warm > cold
        with pytest.raises(ConfigError):
            RuntimeSystem("bad", 1.0, 1.0, overhead_factor=0.9)
        with pytest.raises(ConfigError):
            RuntimeRegistry(runtimes=())
