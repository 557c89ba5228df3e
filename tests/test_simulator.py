"""Integration tests for the trace-driven cluster simulator."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.errors import SimulationError
from repro.execlayer import ExecutionModel, UnitExecutionModel
from repro.sched import FifoScheduler, GreedyFifoScheduler, make_scheduler
from repro.sim import ClusterSimulator, FailureConfig, SimConfig, simulate
from repro.workload import (
    FailureCategory,
    FailurePlan,
    LifecycleState,
    Trace,
    assign_models,
    synthesize,
)
from tests.conftest import make_job


def run_jobs(jobs, num_nodes=2, scheduler=None, **kwargs):
    cluster = uniform_cluster(num_nodes, gpus_per_node=8)
    trace = Trace(list(jobs), name="unit")
    scheduler = scheduler or GreedyFifoScheduler()
    kwargs.setdefault("config", SimConfig(audit=True, sample_interval_s=0.0))
    simulator = ClusterSimulator(cluster, scheduler, trace, **kwargs)
    return simulator.run(), cluster


class TestBasicExecution:
    def test_single_job_exact_times(self):
        job = make_job("a", duration=100.0, submit_time=10.0)
        result, cluster = run_jobs([job])
        assert job.lifecycle is LifecycleState.FINISHED
        assert job.first_start_time == 10.0
        assert job.end_time == 110.0
        assert result.metrics.jobs_completed == 1
        assert cluster.free_gpus == cluster.total_gpus

    def test_jobs_queue_when_full(self):
        jobs = [
            make_job("a", num_gpus=16, gpus_per_node=8, duration=100.0, submit_time=0.0),
            make_job("b", num_gpus=16, gpus_per_node=8, duration=50.0, submit_time=0.0),
        ]
        result, _cluster = run_jobs(jobs)
        assert jobs[0].first_start_time == 0.0
        assert jobs[1].first_start_time == 100.0
        assert jobs[1].jct == 150.0

    def test_gpu_seconds_conservation(self):
        trace = synthesize("tacc-campus", days=0.5, seed=3, jobs_per_day=60)
        cluster = uniform_cluster(4, gpus_per_node=8)
        result = simulate(
            cluster,
            GreedyFifoScheduler(),
            trace,
            config=SimConfig(audit=True, sample_interval_s=0.0),
        )
        completed = [j for j in result.jobs.values() if j.lifecycle is LifecycleState.FINISHED]
        expected = sum(j.duration * j.num_gpus for j in completed)
        served_to_completed = sum(j.gpu_seconds_used for j in completed)
        assert served_to_completed == pytest.approx(expected, rel=1e-6)
        # The utilization integral is exactly the GPU time every job held.
        assert result.metrics.served_gpu_hours * 3600.0 == pytest.approx(
            sum(j.gpu_seconds_used for j in result.jobs.values()), rel=1e-9
        )

    def test_gpu_seconds_conservation_with_failures(self):
        """The same identity with node failures, restarts and backfill:
        GPU time lost to evicted attempts is still GPU time a job held."""
        trace = synthesize("tacc-campus", days=2.0, seed=2, jobs_per_day=150)
        assign_models(trace, seed=2)
        result = simulate(
            uniform_cluster(4, gpus_per_node=8),
            make_scheduler("backfill-easy"),
            trace,
            exec_model=ExecutionModel(),
            failure_config=FailureConfig(),
            config=SimConfig(audit=True, sample_interval_s=0.0, seed=2),
        )
        assert result.metrics.job_restarts > 0
        assert result.metrics.served_gpu_hours * 3600.0 == pytest.approx(
            sum(j.gpu_seconds_used for j in result.jobs.values()), rel=1e-9
        )

    def test_deterministic_reruns(self):
        def one_run():
            trace = synthesize("tacc-campus", days=0.5, seed=7, jobs_per_day=80)
            assign_models(trace, seed=7)
            cluster = uniform_cluster(3, gpus_per_node=8)
            result = simulate(
                cluster,
                make_scheduler("backfill-easy"),
                trace,
                exec_model=ExecutionModel(),
                config=SimConfig(sample_interval_s=0.0),
            )
            return [
                (j.job_id, j.lifecycle.value, j.first_start_time, j.end_time)
                for j in result.jobs.values()
            ]

        assert one_run() == one_run()

    def test_result_summary_shape(self):
        job = make_job("a", duration=10.0)
        result, _cluster = run_jobs([job])
        summary = result.summary()
        assert summary["completed"] == 1.0
        assert "events" in summary


class TestSlowdownIntegration:
    def test_slower_gpu_stretches_runtime(self):
        # rtx2080ti relative speed < 1 → resnet50 job runs slower than spec.
        cluster = uniform_cluster(1, gpus_per_node=4, gpu_type="rtx2080ti", cpus=32, memory_gb=256)
        job = make_job("a", duration=1000.0, model_name="resnet50")
        trace = Trace([job])
        simulate(cluster, GreedyFifoScheduler(), trace, exec_model=ExecutionModel())
        assert job.end_time > 1000.0

    def test_unit_model_is_exact(self):
        cluster = uniform_cluster(1, gpus_per_node=4, gpu_type="rtx2080ti", cpus=32, memory_gb=256)
        job = make_job("a", duration=1000.0, model_name="resnet50")
        simulate(cluster, GreedyFifoScheduler(), Trace([job]), exec_model=UnitExecutionModel())
        assert job.end_time == pytest.approx(1000.0)


class TestScriptedFailures:
    def test_user_error_fails_early(self):
        job = make_job(
            "a",
            duration=1000.0,
            failure_plan=FailurePlan(FailureCategory.USER_ERROR, 0.1),
        )
        result, _cluster = run_jobs([job])
        assert job.lifecycle is LifecycleState.FAILED
        assert job.failure_category is FailureCategory.USER_ERROR
        assert job.end_time == pytest.approx(100.0)
        assert result.metrics.jobs_failed == 1

    def test_failure_frees_resources_for_queue(self):
        jobs = [
            make_job(
                "a",
                num_gpus=16,
                gpus_per_node=8,
                duration=1000.0,
                failure_plan=FailurePlan(FailureCategory.OOM, 0.5),
            ),
            make_job("b", num_gpus=16, gpus_per_node=8, duration=100.0),
        ]
        run_jobs(jobs)
        assert jobs[0].lifecycle is LifecycleState.FAILED
        assert jobs[1].first_start_time == pytest.approx(500.0)


class TestInfeasibleJobs:
    def test_oversized_job_rejected_at_arrival(self):
        job = make_job("a", num_gpus=9)  # single chunk > node size
        result, _cluster = run_jobs([job])
        assert job.lifecycle is LifecycleState.KILLED
        assert result.metrics.rejected_jobs == 1

    def test_wrong_gpu_type_rejected(self):
        job = make_job("a", gpu_type="a100-80")
        result, _cluster = run_jobs([job])  # cluster is V100-only
        assert result.metrics.rejected_jobs == 1

    def test_too_many_chunks_rejected(self):
        job = make_job("a", num_gpus=24, gpus_per_node=8)
        result, _cluster = run_jobs([job], num_nodes=2)
        assert result.metrics.rejected_jobs == 1

    def test_blocking_fifo_not_stalled_by_rejected_head(self):
        jobs = [
            make_job("a", num_gpus=9, submit_time=0.0),  # infeasible
            make_job("b", num_gpus=1, submit_time=1.0, duration=10.0),
        ]
        run_jobs(jobs, scheduler=FifoScheduler())
        assert jobs[1].lifecycle is LifecycleState.FINISHED


class TestNodeFailures:
    def test_node_failure_requeues_and_restarts_job(self):
        cluster = uniform_cluster(2, gpus_per_node=8)
        job = make_job("a", num_gpus=8, duration=5_000.0)
        trace = Trace([job])
        config = FailureConfig(mtbf_hours=2.0, repair_hours_median=0.5, max_job_restarts=50)
        simulator = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            trace,
            failure_config=config,
            config=SimConfig(audit=True, sample_interval_s=0.0, seed=3),
        )
        result = simulator.run()
        assert result.metrics.node_failures > 0
        assert job.lifecycle is LifecycleState.FINISHED
        assert job.attempts > 1
        cluster.verify_invariants()

    def test_restart_limit_fails_job_as_hardware(self):
        cluster = uniform_cluster(1, gpus_per_node=8)
        job = make_job("a", num_gpus=8, duration=10_000_000.0)
        config = FailureConfig(mtbf_hours=1.0, repair_hours_median=0.1, max_job_restarts=2)
        simulator = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace([job]),
            failure_config=config,
            config=SimConfig(sample_interval_s=0.0, seed=1, max_events=200_000),
        )
        simulator.run(until=400 * 3600.0)
        assert job.lifecycle is LifecycleState.FAILED
        assert job.failure_category is FailureCategory.HARDWARE


class TestProvisioning:
    def test_provisioning_delays_start_to_finish(self):
        cluster = uniform_cluster(1, gpus_per_node=8)
        job = make_job("a", duration=100.0, model_name="resnet50")
        simulator = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace([job]),
            exec_model=UnitExecutionModel(),
            config=SimConfig(provisioning=True, sample_interval_s=0.0, seed=0),
        )
        result = simulator.run()
        assert job.end_time > 100.0  # provisioning time added
        assert result.metrics.provision_seconds > 0


class TestDynamicSubmission:
    def build(self):
        cluster = uniform_cluster(1, gpus_per_node=8)
        return ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace([], name="live"),
            config=SimConfig(sample_interval_s=0.0),
        )

    def test_submit_and_run(self):
        simulator = self.build()
        job = make_job("a", duration=60.0)
        simulator.submit_job(job)
        simulator.engine.run()
        assert job.lifecycle is LifecycleState.FINISHED

    def test_duplicate_or_past_submission_rejected(self):
        simulator = self.build()
        job = make_job("a", duration=60.0)
        simulator.submit_job(job)
        with pytest.raises(SimulationError, match="already submitted"):
            simulator.submit_job(job)
        simulator.engine.run()
        with pytest.raises(SimulationError, match="in the past"):
            simulator.submit_job(make_job("b", submit_time=0.0))

    def test_kill_running_job_frees_resources(self):
        simulator = self.build()
        job = make_job("a", num_gpus=8, duration=10_000.0)
        simulator.submit_job(job)
        simulator.engine.run(until=100.0)
        assert job.lifecycle is LifecycleState.RUNNING
        simulator.kill_job("a")
        assert job.lifecycle is LifecycleState.KILLED
        assert simulator.cluster.free_gpus == 8
        simulator.cluster.verify_invariants()

    def test_kill_queued_job(self):
        simulator = self.build()
        blocker = make_job("a", num_gpus=8, duration=10_000.0)
        queued = make_job("b", num_gpus=8, duration=100.0)
        simulator.submit_job(blocker)
        simulator.submit_job(queued)
        simulator.engine.run(until=10.0)
        simulator.kill_job("b")
        assert queued.lifecycle is LifecycleState.KILLED
        assert simulator.scheduler.queue_depth == 0

    def test_kill_unknown_and_terminal(self):
        simulator = self.build()
        with pytest.raises(SimulationError, match="unknown job"):
            simulator.kill_job("ghost")
        job = make_job("a", duration=1.0)
        simulator.submit_job(job)
        simulator.engine.run()
        simulator.kill_job("a")  # terminal: no-op, no error
        assert job.lifecycle is LifecycleState.FINISHED
