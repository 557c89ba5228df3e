"""The slowdown memo returns exactly what a fresh computation returns.

``ExecutionModel.slowdown`` stores each result under a signature of every
input the computation reads.  These tests hold it to that: on a congested
heterogeneous episode every returned value is bitwise equal to the value
from a model with an empty memo; clusters that differ only in NIC speed
or fabric oversubscription get their own values; and a failing placement
is never stored.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.cluster.cluster import ClusterSpec, NodeGroup, heterogeneous_cluster
from repro.cluster.node import NodeSpec
from repro.cluster.topology import FabricSpec
from repro.errors import ValidationError
from repro.execlayer.speedup import ExecutionModel
from repro.sched import make_scheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.sim.failures import FailureConfig
from repro.workload.models import assign_models
from repro.workload.synth import TraceSynthesizer, tacc_campus, with_load
from tests.conftest import make_job


class OracleModel(ExecutionModel):
    """Checks every memoized answer against a model with an empty memo."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.multi_node_calls = 0

    def slowdown(self, job, placement, cluster):
        value = super().slowdown(job, placement, cluster)
        fresh = ExecutionModel().slowdown(job, placement, cluster)
        assert value.hex() == fresh.hex(), (job.job_id, placement)
        self.calls += 1
        self.multi_node_calls += len(placement) > 1
        return value


def test_memo_matches_fresh_model_on_congested_episode():
    cluster = heterogeneous_cluster(32, gpus_per_node=8)
    config = with_load(tacc_campus(days=1.0), cluster.total_gpus, 1.2)
    trace = TraceSynthesizer(config, seed=5).generate()
    assign_models(trace, seed=5)
    model = OracleModel()
    ClusterSimulator(
        cluster,
        make_scheduler("backfill-easy", placement="best-fit"),
        trace,
        exec_model=model,
        failure_config=FailureConfig(),
        config=SimConfig(sample_interval_s=1800.0, seed=5),
    ).run()
    assert model.multi_node_calls > 0
    # The memo did serve repeats, so the oracle compared hits, not misses.
    assert 0 < len(model._slowdowns) < model.calls


def _cluster(nic_gbps: float = 100.0, oversubscription: float = 2.0):
    return build_cluster(
        ClusterSpec(
            name="memo-probe",
            groups=(
                NodeGroup(
                    8, NodeSpec("v100", 8, 96, 768, nic_gbps=nic_gbps), nodes_per_rack=2
                ),
            ),
            fabric=FabricSpec(oversubscription=oversubscription),
        )
    )


@pytest.mark.parametrize(
    "variant",
    [{"nic_gbps": 25.0}, {"oversubscription": 4.0}],
    ids=["nic", "oversubscription"],
)
def test_one_model_prices_each_cluster_afresh(variant):
    base, other = _cluster(), _cluster(**variant)
    job = make_job(num_gpus=16, gpus_per_node=8, model_name="gpt2-xl")
    nodes = sorted(base.nodes)
    cross_rack = {nodes[0]: 8, nodes[4]: 8}
    model = ExecutionModel()
    first = model.slowdown(job, cross_rack, base)
    second = model.slowdown(job, cross_rack, other)
    assert first == ExecutionModel().slowdown(job, cross_rack, base)
    assert second == ExecutionModel().slowdown(job, cross_rack, other)
    assert first != second
    assert len(model._slowdowns) == 2


class ZeroTimeModel(ExecutionModel):
    def iteration_time_s(self, job, shape, gpu_type):
        return 0.0


def test_zero_reference_time_raises_every_call():
    cluster = _cluster()
    job = make_job(num_gpus=8, model_name="resnet50")
    placement = {sorted(cluster.nodes)[0]: 8}
    model = ZeroTimeModel()
    for _ in range(3):
        with pytest.raises(ValidationError, match="reference iteration time is zero"):
            model.slowdown(job, placement, cluster)
    assert model._slowdowns == {}


def test_request_shape_is_part_of_the_key():
    """Two jobs that differ only in ``gpus_per_node`` have different
    reference shapes, so they must not share a memo entry."""
    cluster = _cluster()
    nodes = sorted(cluster.nodes)
    placement = {nodes[0]: 8, nodes[1]: 8}
    model = ExecutionModel()
    for per_node in (8, 4):
        job = make_job(num_gpus=16, gpus_per_node=per_node, model_name="gpt2-xl")
        assert model.slowdown(job, placement, cluster) == ExecutionModel().slowdown(
            job, placement, cluster
        )
    assert len(model._slowdowns) == 2
