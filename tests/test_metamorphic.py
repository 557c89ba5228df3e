"""Metamorphic relations: a transformed input must give a predictable run.

Relabelling every job id through an order-preserving map changes nothing
the simulator may depend on: ids enter decisions only through tie-breaks,
which compare them as strings, so the summary must come out identical.
The episode is run as drawn and with submit times floored to the hour, where
many jobs tie and the id order decides between them.
"""

from __future__ import annotations

import pytest

from repro.cluster import heterogeneous_cluster
from repro.execlayer import ExecutionModel
from repro.sched import make_scheduler
from repro.sim import ClusterSimulator, FailureConfig, SimConfig
from repro.workload import Trace
from repro.workload.models import assign_models
from repro.workload.synth import TraceSynthesizer, tacc_campus, with_load


def _campus_summary(trace: Trace) -> dict[str, float]:
    """Run *trace* as the campus-congested episode: 1.2x load on a
    heterogeneous 32 x 8-GPU cluster, best-fit backfill-easy, node failures."""
    simulator = ClusterSimulator(
        heterogeneous_cluster(32, gpus_per_node=8),
        make_scheduler("backfill-easy", placement="best-fit"),
        trace,
        exec_model=ExecutionModel(),
        failure_config=FailureConfig(),
        config=SimConfig(sample_interval_s=1800.0),
    )
    return simulator.run().summary()


def _relabelled(trace: Trace, label) -> Trace:
    """A fresh copy of *trace* with every job id (and dependency) mapped by *label*."""
    rows = [
        {
            **row,
            "job_id": label(row["job_id"]),
            "depends_on": ";".join(label(d) for d in str(row["depends_on"]).split(";") if d),
        }
        for row in trace.frozen_rows()
    ]
    return Trace.from_rows(rows, name=trace.name)


@pytest.mark.parametrize("hourly", [False, True], ids=["as-drawn", "hourly-ties"])
def test_order_preserving_relabel_keeps_the_campus_summary(hourly):
    config = with_load(tacc_campus(days=2.0), 32 * 8, 1.2)
    trace = assign_models(TraceSynthesizer(config, seed=0).generate(), seed=0)
    if hourly:  # equal submit times, so job ids decide who goes first
        for job in trace:
            job.submit_time -= job.submit_time % 3600.0
    ids = sorted(job.job_id for job in trace)
    rank = {job_id: index for index, job_id in enumerate(ids)}
    original = _campus_summary(_relabelled(trace, str))
    assert original["completed"] > 0
    assert _campus_summary(_relabelled(trace, lambda j: f"relabelled-{rank[j]:09d}")) == original
    if hourly:  # the relation has teeth: an order-reversing relabel moves the run
        reversed_ = _relabelled(trace, lambda j: f"relabelled-{len(ids) - rank[j]:09d}")
        assert _campus_summary(reversed_) != original
