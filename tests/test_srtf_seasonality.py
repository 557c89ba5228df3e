"""Tests for the preemptive SRTF scheduler and workload seasonality."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import uniform_cluster
from repro.errors import ConfigError
from repro.execlayer import UnitExecutionModel
from repro.sched import SrtfScheduler, make_scheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import Trace, TraceSynthesizer, deadline_cycle, tacc_campus
from tests.conftest import make_job


def run_trace(scheduler, jobs, num_nodes=1, checkpoint_loss=0.0):
    cluster = uniform_cluster(num_nodes, gpus_per_node=8)
    simulator = ClusterSimulator(
        cluster,
        scheduler,
        Trace(list(jobs)),
        exec_model=UnitExecutionModel(),
        config=SimConfig(
            sample_interval_s=0.0, audit=True, checkpoint_loss_s=checkpoint_loss
        ),
    )
    return simulator.run()


class TestSrtf:
    def test_registered(self):
        assert make_scheduler("srtf").name == "srtf"

    def test_short_job_preempts_long(self):
        jobs = [
            make_job("long", num_gpus=8, duration=10_000.0, submit_time=0.0, preemptible=True),
            make_job("short", num_gpus=8, duration=100.0, submit_time=10.0),
        ]
        result = run_trace(SrtfScheduler(), jobs)
        assert jobs[1].first_start_time == pytest.approx(10.0)
        assert jobs[0].preemptions == 1
        assert jobs[0].end_time == pytest.approx(10_100.0)  # no work lost
        assert result.metrics.jobs_completed == 2

    def test_longer_job_does_not_preempt(self):
        jobs = [
            make_job("short", num_gpus=8, duration=100.0, submit_time=0.0, preemptible=True),
            make_job("long", num_gpus=8, duration=10_000.0, submit_time=10.0),
        ]
        run_trace(SrtfScheduler(), jobs)
        assert jobs[0].preemptions == 0
        assert jobs[1].first_start_time == pytest.approx(100.0)

    def test_live_progress_counts(self):
        # The running job has nearly finished: its true remaining work is
        # below the newcomer's, so no preemption despite a longer duration.
        jobs = [
            make_job("long", num_gpus=8, duration=1000.0, submit_time=0.0, preemptible=True),
            make_job("mid", num_gpus=8, duration=200.0, submit_time=900.0),
        ]
        run_trace(SrtfScheduler(), jobs)
        assert jobs[0].preemptions == 0
        assert jobs[1].first_start_time == pytest.approx(1000.0)

    def test_non_preemptible_shielded(self):
        jobs = [
            make_job("long", num_gpus=8, duration=10_000.0, submit_time=0.0, preemptible=False),
            make_job("short", num_gpus=8, duration=100.0, submit_time=10.0),
        ]
        run_trace(SrtfScheduler(), jobs)
        assert jobs[0].preemptions == 0

    def test_hopeless_eviction_avoided(self):
        # Evictable capacity (4) + free (0) < need (8): no churn.
        jobs = [
            make_job("a", num_gpus=4, duration=10_000.0, submit_time=0.0, preemptible=True),
            make_job("b", num_gpus=4, duration=10_000.0, submit_time=0.0, preemptible=False),
            make_job("short", num_gpus=8, duration=100.0, submit_time=10.0),
        ]
        result = run_trace(SrtfScheduler(), jobs)
        assert result.metrics.preemptions == 0

    def test_srtf_bounds_mean_jct_vs_fifo(self):
        from repro.experiments import fresh_trace_copy
        from repro.workload import synthesize

        trace = synthesize("tacc-campus", days=1.0, seed=17, jobs_per_day=260)
        for job in trace:
            job.preemptible = True
        fifo_jobs = list(fresh_trace_copy(trace))
        for job in fifo_jobs:
            job.preemptible = True
        fifo = run_trace(make_scheduler("fifo-greedy"), fifo_jobs, num_nodes=4)
        srtf_jobs = list(fresh_trace_copy(trace))
        for job in srtf_jobs:
            job.preemptible = True
        srtf = run_trace(SrtfScheduler(), srtf_jobs, num_nodes=4)
        assert srtf.metrics.jct_mean_s <= fifo.metrics.jct_mean_s * 1.01


class TestRemainingWorkAt:
    def test_queued_job_full_remaining(self):
        job = make_job("a", duration=100.0)
        assert job.remaining_work_at(50.0) == 100.0

    def test_running_extrapolates_with_slowdown(self):
        job = make_job("a", duration=100.0)
        job.start(0.0, ("n",), slowdown=2.0)
        assert job.remaining_work_at(100.0) == pytest.approx(50.0)
        assert job.remaining_work_at(1e9) == 0.0


class TestSeasonality:
    def test_deadline_cycle_mean_is_one(self):
        cycle = deadline_cycle(cycle_days=28, surge_days=5, surge_factor=2.2)
        assert len(cycle) == 28
        assert sum(cycle) / len(cycle) == pytest.approx(1.0)
        assert max(cycle) == pytest.approx(2.2)

    def test_deadline_cycle_validation(self):
        with pytest.raises(ConfigError):
            deadline_cycle(surge_days=0)
        with pytest.raises(ConfigError):
            deadline_cycle(surge_factor=1.0)
        with pytest.raises(ConfigError):
            deadline_cycle(cycle_days=6, surge_days=5, surge_factor=2.0)

    def test_surge_visible_in_trace(self):
        config = replace(
            tacc_campus(days=28.0, jobs_per_day=400),
            daily_seasonality=deadline_cycle(28, 5, 2.5),
            weekend_factor=1.0,  # isolate the seasonal signal
        )
        trace = TraceSynthesizer(config, seed=4).generate()
        per_day: dict[int, int] = {}
        for job in trace:
            day = int(job.submit_time // 86400)
            per_day[day] = per_day.get(day, 0) + 1
        surge = sum(per_day.get(day, 0) for day in range(23, 28)) / 5
        quiet = sum(per_day.get(day, 0) for day in range(0, 23)) / 23
        assert surge / quiet == pytest.approx(2.5 / ((28 - 5 * 2.5) / 23), rel=0.2)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ConfigError):
            replace(tacc_campus(), daily_seasonality=(1.0, -0.5))

    def test_flat_default_unchanged(self):
        base = TraceSynthesizer(tacc_campus(days=2.0, jobs_per_day=100), seed=9).generate()
        flat = TraceSynthesizer(
            replace(tacc_campus(days=2.0, jobs_per_day=100), daily_seasonality=(1.0,)),
            seed=9,
        ).generate()
        assert [j.submit_time for j in base] == [j.submit_time for j in flat]
