"""Behavioural tests for the ordered-queue schedulers and DRF."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.errors import ConfigError, SchedulingError
from repro.sched import (
    DrfScheduler,
    FifoScheduler,
    GreedyFifoScheduler,
    LargestJobFirstScheduler,
    SjfOracleScheduler,
    SjfScheduler,
    make_scheduler,
)
from repro.sched.base import ScheduleContext
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import Trace
from tests.conftest import make_job


def run_trace(scheduler, jobs, num_nodes=1):
    cluster = uniform_cluster(num_nodes, gpus_per_node=8)
    simulator = ClusterSimulator(
        cluster,
        scheduler,
        Trace(list(jobs)),
        config=SimConfig(sample_interval_s=0.0, audit=True),
    )
    return simulator.run()


class TestRegistry:
    def test_all_default_schedulers_constructible(self):
        from repro.sched import SCHEDULERS

        for name in SCHEDULERS:
            assert make_scheduler(name).name == name

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigError, match="known"):
            make_scheduler("omniscient")

    def test_tiered_quota_requires_quota(self):
        with pytest.raises(ConfigError, match="quota"):
            make_scheduler("tiered-quota")

    def test_placement_by_name(self):
        scheduler = make_scheduler("fifo", placement="best-fit")
        assert scheduler.placement.name == "best-fit"


class TestQueueManagement:
    def test_enqueue_requires_queued_state(self):
        scheduler = FifoScheduler()
        job = make_job("a")
        job.kill(0.0)
        with pytest.raises(SchedulingError):
            scheduler.enqueue(job, 0.0)

    def test_double_enqueue_rejected(self):
        scheduler = FifoScheduler()
        job = make_job("a")
        scheduler.enqueue(job, 0.0)
        with pytest.raises(SchedulingError, match="already queued"):
            scheduler.enqueue(job, 0.0)

    def test_remove_returns_job_or_none(self):
        scheduler = FifoScheduler()
        job = make_job("a")
        scheduler.enqueue(job, 0.0)
        assert scheduler.remove("a") is job
        assert scheduler.remove("a") is None
        assert scheduler.queue_depth == 0


class TestFifoSemantics:
    def test_strict_fifo_blocks_behind_wide_head(self):
        # 8-GPU cluster: wide head job (8) blocks, narrow follower must wait
        # under strict FIFO even though it would fit... after the runner.
        jobs = [
            make_job("run", num_gpus=6, duration=1000.0, submit_time=0.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0),
            make_job("tail", num_gpus=1, duration=10.0, submit_time=2.0),
        ]
        run_trace(FifoScheduler(), jobs)
        # head can only start at t=1000; tail must not overtake it.
        assert jobs[1].first_start_time == pytest.approx(1000.0)
        assert jobs[2].first_start_time >= jobs[1].first_start_time

    def test_greedy_fifo_lets_tail_overtake(self):
        jobs = [
            make_job("run", num_gpus=6, duration=1000.0, submit_time=0.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0),
            make_job("tail", num_gpus=1, duration=10.0, submit_time=2.0),
        ]
        run_trace(GreedyFifoScheduler(), jobs)
        assert jobs[2].first_start_time == pytest.approx(2.0)

    def test_fifo_order_among_equals(self):
        jobs = [
            make_job("a", num_gpus=8, duration=10.0, submit_time=0.0),
            make_job("b", num_gpus=8, duration=10.0, submit_time=1.0),
            make_job("c", num_gpus=8, duration=10.0, submit_time=2.0),
        ]
        run_trace(FifoScheduler(), jobs)
        starts = [job.first_start_time for job in jobs]
        assert starts == sorted(starts)


class TestSjf:
    def test_sjf_orders_by_estimate_not_truth(self):
        jobs = [
            make_job("blocker", num_gpus=8, duration=100.0, submit_time=0.0),
            # Long true duration but SHORT estimate — SJF trusts the estimate.
            make_job("lying", num_gpus=8, duration=500.0, submit_time=1.0, walltime_estimate=10.0),
            make_job("honest", num_gpus=8, duration=50.0, submit_time=2.0, walltime_estimate=400.0),
        ]
        run_trace(SjfScheduler(), jobs)
        assert jobs[1].first_start_time < jobs[2].first_start_time

    def test_oracle_orders_by_truth(self):
        jobs = [
            make_job("blocker", num_gpus=8, duration=100.0, submit_time=0.0),
            make_job("lying", num_gpus=8, duration=500.0, submit_time=1.0, walltime_estimate=10.0),
            make_job("honest", num_gpus=8, duration=50.0, submit_time=2.0, walltime_estimate=400.0),
        ]
        run_trace(SjfOracleScheduler(), jobs)
        assert jobs[2].first_start_time < jobs[1].first_start_time

    def test_ljf_prefers_wide(self):
        jobs = [
            make_job("blocker", num_gpus=8, duration=100.0, submit_time=0.0),
            make_job("narrow", num_gpus=1, duration=10.0, submit_time=1.0),
            make_job("wide", num_gpus=8, duration=10.0, submit_time=2.0),
        ]
        run_trace(LargestJobFirstScheduler(), jobs)
        assert jobs[2].first_start_time <= jobs[1].first_start_time


class TestDrf:
    def test_poorest_user_served_first(self):
        # user-a already hogs 6 GPUs; DRF should start user-b's queued job
        # before user-a's next one when only 2 GPUs remain.
        jobs = [
            make_job("a1", num_gpus=6, duration=1000.0, submit_time=0.0, user="user-a"),
            make_job("a2", num_gpus=2, duration=10.0, submit_time=1.0, user="user-a"),
            make_job("b1", num_gpus=2, duration=10.0, submit_time=1.0, user="user-b"),
        ]
        run_trace(DrfScheduler(), jobs)
        assert jobs[2].first_start_time < jobs[1].first_start_time

    def test_drf_considers_cpu_dimension(self):
        # user-a's job is CPU-dominant: 1 GPU but 64 of 96 cpus.
        jobs = [
            make_job(
                "a1", num_gpus=1, cpus_per_gpu=64, duration=1000.0, submit_time=0.0, user="user-a"
            ),
            make_job("a2", num_gpus=1, duration=10.0, submit_time=1.0, user="user-a"),
            make_job("b1", num_gpus=1, duration=10.0, submit_time=1.0, user="user-b"),
        ]
        run_trace(DrfScheduler(), jobs)
        assert jobs[2].first_start_time <= jobs[1].first_start_time

    def test_drf_drains_queue_when_idle(self):
        jobs = [make_job(f"j{i}", num_gpus=2, duration=10.0, submit_time=0.0) for i in range(4)]
        result = run_trace(DrfScheduler(), jobs)
        assert result.metrics.jobs_completed == 4
        assert all(job.first_start_time == 0.0 for job in jobs)


class TestSchedulerPassBudget:
    def test_greedy_pass_starts_everything_fitting(self):
        jobs = [make_job(f"j{i}", num_gpus=1, duration=100.0, submit_time=0.0) for i in range(8)]
        run_trace(GreedyFifoScheduler(), jobs)
        assert all(job.first_start_time == 0.0 for job in jobs)

    def test_context_callbacks_used(self, small_cluster):
        """A scheduler pass must act only through context callbacks."""
        scheduler = GreedyFifoScheduler()
        job = make_job("a")
        scheduler.enqueue(job, 0.0)
        started = []
        ctx = ScheduleContext(
            now=0.0,
            cluster=small_cluster,
            running={},
            start_job=lambda job_, placement: started.append((job_.job_id, dict(placement))),
            preempt_job=lambda job_: pytest.fail("should not preempt"),
        )
        scheduler.schedule(ctx)
        assert started == [("a", {"v100-000": 1})]
        # The cluster itself must be untouched by the pass.
        assert small_cluster.free_gpus == small_cluster.total_gpus


class TestPassBudget:
    def test_scan_stops_after_consecutive_failures(self, small_cluster):
        """A deep queue of unplaceable jobs must not be scanned past the
        pass budget — the placeable job behind them waits for the next
        pass instead of an O(queue) scan finding it."""
        scheduler = GreedyFifoScheduler()
        scheduler.max_consecutive_failures = 5
        # Fill the cluster completely.
        for index, node in enumerate(sorted(small_cluster.nodes)):
            small_cluster.allocate(f"fill-{index}", {node: 8})
        blocked = [
            make_job(f"wide-{i}", num_gpus=8, submit_time=float(i)) for i in range(10)
        ]
        for job in blocked:
            scheduler.enqueue(job, 0.0)
        attempts = []
        original = scheduler.try_place

        def counting(ctx, job):
            attempts.append(job.job_id)
            return original(ctx, job)

        scheduler.try_place = counting
        ctx = ScheduleContext(
            now=10.0,
            cluster=small_cluster,
            running={},
            start_job=lambda *a: pytest.fail("nothing can start"),
            preempt_job=lambda *a: pytest.fail("no preemption"),
        )
        scheduler.schedule(ctx)
        assert len(attempts) == 5

    def test_budget_resets_on_success(self, small_cluster):
        scheduler = GreedyFifoScheduler()
        scheduler.max_consecutive_failures = 3
        jobs = [make_job(f"j{i}", num_gpus=1, submit_time=float(i)) for i in range(6)]
        for job in jobs:
            scheduler.enqueue(job, 0.0)
        started = []
        ctx = ScheduleContext(
            now=10.0,
            cluster=small_cluster,
            running={},
            start_job=lambda job, placement: started.append(job.job_id),
            preempt_job=lambda *a: None,
        )
        scheduler.schedule(ctx)
        assert len(started) == 6  # successes never consume the budget
