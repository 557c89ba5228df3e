"""Fleet-scale golden: a 32k-GPU run is bit-stable across perf refactors.

The other golden suites pin campus-sized runs; this one pins the fleet
regime the blocked-verdict cache, release ledger, and
array-mirror scans were built for — 4096 nodes (32768 GPUs) under a
vectorized fleet trace.  A short horizon keeps it tier-1 fast while still
exercising every fleet path: ``FleetTraceSynthesizer`` arrays, the
event heap with tens of thousands of pending events, incremental
backfill reservations, and the numpy candidate masks at a node count
where a Python scan would dominate.

As with ``test_golden_determinism``, every float must match *exactly*:
drift here means a scheduling decision changed, not just a performance
characteristic.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import uniform_cluster
from repro.experiments.common import run_policy
from repro.sched import make_scheduler
from repro.sim import SimConfig
from repro.workload.fleet import fleet_trace
from repro.workload.models import assign_models
from repro.workload.synth import tacc_campus

# summary() captured at seed 0 when the fleet hot path landed.
GOLDEN: dict[str, float] = {
    "completed": 10811.0,
    "avg_jct_h": 2.1809573018942987,
    "p50_jct_h": 0.31402765600905697,
    "p99_jct_h": 34.76663179950323,
    "avg_wait_h": 0.0,
    "p99_wait_h": 0.0,
    "utilization": 0.04352504060739075,
    "makespan_h": 258.91686696822507,
    "preemptions": 0.0,
    "events": 52322.0,
}


@pytest.fixture(scope="module")
def fleet_result():
    config = tacc_campus(days=1.0, jobs_per_day=15_000.0, name="tacc-fleet-golden")
    trace = fleet_trace(config, seed=0)
    assign_models(trace, seed=0)
    cluster = uniform_cluster(4096, gpus_per_node=8)
    return run_policy(
        make_scheduler("backfill-easy"),
        trace,
        cluster=cluster,
        sim_config=SimConfig(sample_interval_s=3600.0, record_transitions=False),
    )


def test_summary_matches_golden_exactly(fleet_result):
    summary = fleet_result.summary()
    assert set(summary) == set(GOLDEN)
    for key, want in GOLDEN.items():
        got = summary[key]
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got), f"{key}: expected NaN, got {got!r}"
        else:
            # Exact — not approx — equality: bitwise determinism is the contract.
            assert got == want, f"{key}: {got!r} != golden {want!r}"


def test_fleet_run_used_the_hot_path(fleet_result):
    """The golden run must actually exercise the fleet machinery."""
    perf = fleet_result.perf
    assert fleet_result.events_processed > 5_000
    assert perf.peak_pending_events > 1_000  # event heap under real load
    assert perf.events_dequeued == fleet_result.events_processed
    # record_transitions=False drops records but keeps aggregates exact.
    assert fleet_result.transitions == []
