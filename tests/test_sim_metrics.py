"""Tests for metrics collection, aggregation, and failure sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.failures import FailureConfig, FailureInjector
from repro.controlplane import TransitionLog
from repro.sim.metrics import MetricsCollector, percentiles, summarize
from repro.workload import FailureCategory, JobTier
from tests.conftest import make_job


class TestPercentiles:
    def test_empty_gives_nan(self):
        result = percentiles([])
        assert all(np.isnan(v) for v in result.values())

    def test_named_points(self):
        result = percentiles(range(1, 101), points=(50, 99))
        assert set(result) == {"p50", "p99"}
        assert result["p50"] == pytest.approx(50.5)


class TestUtilizationIntegral:
    def test_exact_integration(self):
        collector = MetricsCollector(total_gpus=10)
        collector.on_used_changed(0.0, 10)  # 10 GPUs from t=0
        collector.on_used_changed(5.0, 0)  # free at t=5
        assert collector.served_gpu_seconds(10.0) == pytest.approx(50.0)
        assert collector.average_utilization(10.0) == pytest.approx(0.5)

    def test_live_level_extends_to_now(self):
        collector = MetricsCollector(total_gpus=4)
        collector.on_used_changed(0.0, 4)
        assert collector.served_gpu_seconds(3.0) == pytest.approx(12.0)

    def test_time_going_backwards_rejected(self):
        collector = MetricsCollector(total_gpus=4)
        collector.on_used_changed(5.0, 1)
        with pytest.raises(SimulationError):
            collector.on_used_changed(4.0, 0)

    def test_zero_time_utilization(self):
        collector = MetricsCollector(total_gpus=4)
        assert collector.average_utilization(0.0) == 0.0

    def test_samples_recorded(self):
        collector = MetricsCollector(total_gpus=8)
        collector.sample(10.0, used_gpus=4, queue_depth=2, running=1)
        sample = collector.samples[0]
        assert sample.utilization == pytest.approx(0.5)
        assert sample.queue_depth == 2


class TestSummarize:
    def build_population(self):
        done = make_job("a", duration=100.0, submit_time=0.0)
        done.start(50.0, ("n",))
        done.complete(150.0)
        failed = make_job("b", duration=100.0, submit_time=0.0, lab="lab-01")
        failed.start(0.0, ("n",))
        failed.fail(40.0, FailureCategory.OOM)
        waiting = make_job("c", duration=10.0, submit_time=5.0, tier=JobTier.OPPORTUNISTIC)
        return {"a": done, "b": failed, "c": waiting}

    def test_counts_and_stats(self):
        jobs = self.build_population()
        collector = MetricsCollector(total_gpus=8)
        collector.on_used_changed(0.0, 8)
        metrics = summarize(jobs, collector, 150.0, TransitionLog())
        assert metrics.jobs_total == 3
        assert metrics.jobs_completed == 1
        assert metrics.jobs_failed == 1
        assert metrics.jobs_unfinished == 1
        assert metrics.jct_mean_s == pytest.approx(150.0)
        assert metrics.wait_mean_s == pytest.approx(25.0)  # (50 + 0) / 2
        assert metrics.failure_taxonomy["oom"] == 1
        assert metrics.makespan_s == pytest.approx(150.0)
        assert metrics.avg_utilization == pytest.approx(1.0)

    def test_per_tier_and_per_lab_breakdowns(self):
        jobs = self.build_population()
        metrics = summarize(jobs, MetricsCollector(total_gpus=8), 150.0, TransitionLog())
        assert metrics.wait_mean_by_tier["guaranteed"] == pytest.approx(25.0)
        assert np.isnan(metrics.wait_mean_by_tier["opportunistic"])
        assert metrics.gpu_hours_by_lab["lab-00"] == pytest.approx(100.0 / 3600.0)
        assert metrics.gpu_hours_by_lab["lab-01"] == pytest.approx(40.0 / 3600.0)

    def test_as_row_shape(self):
        jobs = self.build_population()
        row = summarize(jobs, MetricsCollector(total_gpus=8), 150.0, TransitionLog()).as_row()
        assert {"completed", "avg_jct_h", "p99_jct_h", "utilization", "makespan_h"} <= set(row)


class TestFailureInjector:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FailureConfig(mtbf_hours=0)
        with pytest.raises(ConfigError):
            FailureConfig(consumer_mtbf_factor=0.5)
        with pytest.raises(ConfigError):
            FailureConfig(max_job_restarts=-1)

    def test_consumer_nodes_fail_more(self, rng, hetero_cluster):
        injector = FailureInjector(FailureConfig(consumer_mtbf_factor=4.0), rng)
        datacenter = hetero_cluster.nodes_of_type("a100-80")[0]
        consumer = hetero_cluster.nodes_of_type("rtx3090")[0]
        assert injector.node_mtbf_s(consumer) == pytest.approx(
            injector.node_mtbf_s(datacenter) / 4.0
        )

    def test_samples_reasonable(self, rng, small_cluster):
        config = FailureConfig(mtbf_hours=100.0, repair_hours_median=2.0, repair_sigma=0.5)
        injector = FailureInjector(config, rng)
        node = next(iter(small_cluster.nodes.values()))
        ttfs = [injector.time_to_failure_s(node) for _ in range(2000)]
        assert np.mean(ttfs) == pytest.approx(100 * 3600.0, rel=0.15)
        repairs = [injector.repair_time_s() for _ in range(2000)]
        assert np.median(repairs) == pytest.approx(2 * 3600.0, rel=0.15)

    def test_initial_failures_cover_all_nodes_sorted(self, rng, small_cluster):
        injector = FailureInjector(FailureConfig(), rng)
        events = injector.initial_failures(small_cluster)
        assert len(events) == len(small_cluster.nodes)
        times = [time for time, _node in events]
        assert times == sorted(times)
        assert {node for _t, node in events} == set(small_cluster.nodes)
