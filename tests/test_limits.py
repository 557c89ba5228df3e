"""Tests for wall-time enforcement and preemption limits."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.execlayer import UnitExecutionModel
from repro.sched import GangScheduler, GreedyFifoScheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import FailureCategory, LifecycleState, Trace
from tests.conftest import make_job


def run_jobs(jobs, scheduler=None, **config_kwargs):
    cluster = uniform_cluster(1, gpus_per_node=8)
    config_kwargs.setdefault("sample_interval_s", 0.0)
    config_kwargs.setdefault("checkpoint_loss_s", 0.0)
    simulator = ClusterSimulator(
        cluster,
        scheduler or GreedyFifoScheduler(),
        Trace(list(jobs)),
        exec_model=UnitExecutionModel(),
        config=SimConfig(**config_kwargs),
    )
    return simulator.run()


class TestWalltimeEnforcement:
    def test_overrunning_job_killed_at_limit(self):
        job = make_job("a", duration=5000.0, walltime_estimate=1000.0)
        result = run_jobs([job], enforce_walltime=True)
        assert job.lifecycle is LifecycleState.KILLED
        assert job.end_time == pytest.approx(1000.0)
        assert result.metrics.walltime_kills == 1

    def test_job_within_limit_unaffected(self):
        job = make_job("a", duration=500.0, walltime_estimate=1000.0)
        result = run_jobs([job], enforce_walltime=True)
        assert job.lifecycle is LifecycleState.FINISHED
        assert result.metrics.walltime_kills == 0

    def test_limit_is_cumulative_across_attempts(self):
        # Gang slicing: two jobs share the node in 600 s quanta.  Job a's
        # limit is 1500 s of *running* time; after ~3 slices it dies even
        # though its queue time pushed wall-clock far beyond 1500 s.
        jobs = [
            make_job("a", num_gpus=8, duration=5000.0, walltime_estimate=1500.0,
                     preemptible=True, submit_time=0.0),
            make_job("b", num_gpus=8, duration=5000.0, walltime_estimate=1e9,
                     preemptible=True, submit_time=1.0),
        ]
        result = run_jobs(
            jobs, scheduler=GangScheduler(quantum_s=600.0), enforce_walltime=True
        )
        assert jobs[0].lifecycle is LifecycleState.KILLED
        run_wall = jobs[0].gpu_seconds_used / 8
        assert run_wall == pytest.approx(1500.0, abs=1.0)
        assert jobs[0].end_time > 1500.0  # wall clock includes queued slices

    def test_disabled_by_default(self):
        job = make_job("a", duration=5000.0, walltime_estimate=1000.0)
        run_jobs([job])
        assert job.lifecycle is LifecycleState.FINISHED


class TestPreemptionLimit:
    def test_job_fails_after_limit(self):
        jobs = [
            make_job("victim", num_gpus=8, duration=50_000.0, preemptible=True,
                     submit_time=0.0),
            make_job("other", num_gpus=8, duration=50_000.0, preemptible=True,
                     submit_time=1.0),
        ]
        result = run_jobs(
            jobs,
            scheduler=GangScheduler(quantum_s=600.0),
            max_job_preemptions=2,
        )
        failed = [j for j in jobs if j.lifecycle is LifecycleState.FAILED]
        assert failed
        assert all(j.failure_category is FailureCategory.PREEMPTION_LIMIT for j in failed)
        assert result.metrics.failure_taxonomy["preemption_limit"] == len(failed)

    def test_unlimited_by_default(self):
        jobs = [
            make_job("a", num_gpus=8, duration=20_000.0, preemptible=True, submit_time=0.0),
            make_job("b", num_gpus=8, duration=20_000.0, preemptible=True, submit_time=1.0),
        ]
        result = run_jobs(jobs, scheduler=GangScheduler(quantum_s=600.0))
        assert result.metrics.preemptions > 3
        assert all(j.lifecycle is LifecycleState.FINISHED for j in jobs)

    def test_fail_from_queued_state_allowed(self):
        job = make_job("a")
        job.fail(5.0, FailureCategory.PREEMPTION_LIMIT)
        assert job.lifecycle is LifecycleState.FAILED
        assert job.end_time == 5.0

    def test_fail_from_terminal_still_rejected(self):
        from repro.errors import JobStateError

        job = make_job("a")
        job.kill(1.0)
        with pytest.raises(JobStateError):
            job.fail(2.0, FailureCategory.OOM)
