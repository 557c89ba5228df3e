"""Tests for EASY/conservative backfill and the reservation machinery."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.sched import ConservativeBackfillScheduler, EasyBackfillScheduler
from repro.sched.backfill import compute_reservation
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
    return simulator.run(), cluster


class TestReservation:
    def build_ctx(self, cluster, running):
        return ScheduleContext(
            now=0.0,
            cluster=cluster,
            running=running,
            start_job=lambda *a: None,
            preempt_job=lambda *a: None,
        )

    def test_immediate_when_capacity_free(self, small_cluster):
        ctx = self.build_ctx(small_cluster, {})
        head = make_job("head", num_gpus=8)
        reservation = compute_reservation(ctx, head)
        assert reservation.shadow_time == 0.0
        assert reservation.extra_gpus == 24

    def test_shadow_time_from_estimates(self, small_cluster):
        running = make_job("r", num_gpus=8, duration=500.0, walltime_estimate=1000.0)
        small_cluster.allocate("r", {"v100-000": 8})
        running.start(0.0, ("v100-000",))
        # Fill the rest so the head job must wait for `r`.
        for index, node in enumerate(sorted(small_cluster.nodes)[1:]):
            filler = make_job(f"f{index}", num_gpus=8, walltime_estimate=5000.0)
            small_cluster.allocate(f"f{index}", {node: 8})
            filler.start(0.0, (node,))
            running_map = None
        running_map = {"r": running}
        for index, node in enumerate(sorted(small_cluster.nodes)[1:]):
            job = make_job(f"f{index}", num_gpus=8, walltime_estimate=5000.0)
            job.start(0.0, (node,))
            running_map[f"f{index}"] = job
        ctx = self.build_ctx(small_cluster, running_map)
        head = make_job("head", num_gpus=8)
        reservation = compute_reservation(ctx, head)
        # The earliest 8 GPUs come from `r` at its ESTIMATED end (1000s),
        # not its true duration (500s).
        assert reservation.shadow_time == pytest.approx(1000.0)

    def test_unsatisfiable_reservation_infinite(self, small_cluster):
        ctx = self.build_ctx(small_cluster, {})
        head = make_job("head", num_gpus=64)
        assert compute_reservation(ctx, head).shadow_time == float("inf")


class TestEasyBackfill:
    def test_short_job_backfills_into_hole(self):
        jobs = [
            make_job("run", num_gpus=6, duration=1000.0, submit_time=0.0, walltime_estimate=1000.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0, walltime_estimate=100.0),
            # Fits in 2 free GPUs and finishes before the shadow time (1000).
            make_job("fill", num_gpus=2, duration=50.0, submit_time=2.0, walltime_estimate=50.0),
        ]
        run_trace(EasyBackfillScheduler(), jobs)
        assert jobs[2].first_start_time == pytest.approx(2.0)
        assert jobs[1].first_start_time == pytest.approx(1000.0)  # not delayed

    def test_long_narrow_job_must_not_delay_head(self):
        jobs = [
            make_job("run", num_gpus=6, duration=1000.0, submit_time=0.0, walltime_estimate=1000.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0, walltime_estimate=100.0),
            # Would still be running at shadow time and holds GPUs the head
            # needs (extra = 0 here) — must NOT backfill.
            make_job("greedy", num_gpus=2, duration=5000.0, submit_time=2.0, walltime_estimate=5000.0),
        ]
        run_trace(EasyBackfillScheduler(), jobs)
        assert jobs[1].first_start_time == pytest.approx(1000.0)
        assert jobs[2].first_start_time >= 1000.0

    def test_long_job_on_extra_gpus_allowed(self):
        # Two nodes. At the head's shadow time (1000, when run_a ends) 12
        # GPUs are available and the head needs 8, leaving 4 "extra" —
        # a long 4-GPU job may hold those past the shadow time.
        jobs = [
            make_job("run_a", num_gpus=8, duration=1000.0, submit_time=0.0, walltime_estimate=1000.0),
            make_job("run_b", num_gpus=4, duration=5000.0, submit_time=0.0, walltime_estimate=5000.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0, walltime_estimate=100.0),
            make_job("long", num_gpus=4, duration=9000.0, submit_time=2.0, walltime_estimate=9000.0),
        ]
        run_trace(EasyBackfillScheduler(), jobs, num_nodes=2)
        assert jobs[3].first_start_time == pytest.approx(2.0)
        assert jobs[2].first_start_time == pytest.approx(1000.0)

    def test_estimate_overrun_can_delay_head(self):
        # A backfilled job whose TRUE runtime exceeds its estimate delays the
        # head — the cost of trusting user estimates (EASY's known flaw).
        jobs = [
            make_job("run", num_gpus=6, duration=1000.0, submit_time=0.0, walltime_estimate=1000.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0, walltime_estimate=100.0),
            make_job("liar", num_gpus=2, duration=2000.0, submit_time=2.0, walltime_estimate=900.0),
        ]
        run_trace(EasyBackfillScheduler(), jobs)
        assert jobs[2].first_start_time == pytest.approx(2.0)
        assert jobs[1].first_start_time == pytest.approx(2002.0)


class TestConservativeBackfill:
    def test_respects_every_reservation(self):
        jobs = [
            make_job("run", num_gpus=6, duration=1000.0, submit_time=0.0, walltime_estimate=1000.0),
            make_job("head", num_gpus=8, duration=100.0, submit_time=1.0, walltime_estimate=100.0),
            # Finishes before shadow (1000): conservative allows it.
            make_job("ok", num_gpus=2, duration=50.0, submit_time=2.0, walltime_estimate=50.0),
            # Would finish after shadow: conservative refuses even though
            # EASY's extra-GPU rule might allow it.
            make_job("late", num_gpus=1, duration=5000.0, submit_time=3.0, walltime_estimate=5000.0),
        ]
        run_trace(ConservativeBackfillScheduler(), jobs)
        assert jobs[2].first_start_time == pytest.approx(2.0)
        assert jobs[3].first_start_time >= 1000.0

    def test_drains_idle_cluster(self):
        jobs = [make_job(f"j{i}", num_gpus=2, duration=10.0, submit_time=0.0) for i in range(4)]
        result, _ = run_trace(ConservativeBackfillScheduler(), jobs)
        assert result.metrics.jobs_completed == 4


class TestBackfillUtilizationOrdering:
    def test_easy_at_least_as_utilizing_as_fifo(self):
        """On a congested synthetic mix, EASY backfill must not lose to
        strict FIFO on average JCT."""
        from repro.sched import FifoScheduler
        from repro.workload import synthesize
        from repro.experiments import fresh_trace_copy

        trace = synthesize("tacc-campus", days=1.0, seed=13, jobs_per_day=250)
        fifo_result, _ = run_trace(FifoScheduler(), list(fresh_trace_copy(trace)), num_nodes=4)
        easy_result, _ = run_trace(
            EasyBackfillScheduler(), list(fresh_trace_copy(trace)), num_nodes=4
        )
        assert easy_result.metrics.jct_mean_s <= fifo_result.metrics.jct_mean_s * 1.01
