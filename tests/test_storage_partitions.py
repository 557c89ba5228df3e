"""Tests for the shared-filesystem staging model and partition routing."""

from __future__ import annotations

import pytest

from repro.cluster import build_tacc_cluster, uniform_cluster
from repro.errors import ConfigError
from repro.execlayer import SharedFilesystem, StorageConfig, UnitExecutionModel
from repro.sched import GreedyFifoScheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import LifecycleState, Trace
from tests.conftest import make_job


class TestStorageModel:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StorageConfig(node_stage_gbps=0)
        with pytest.raises(ConfigError):
            StorageConfig(node_cache_gb=-1)

    def test_cold_stage_time(self):
        fs = SharedFilesystem(StorageConfig(node_stage_gbps=10.0, aggregate_gbps=100.0))
        # 100 GB at 10 Gbit/s = 80 s.
        assert fs.stage_time_s("n1", "ds", 100.0) == pytest.approx(80.0)

    def test_warm_stage_free(self):
        fs = SharedFilesystem()
        fs.stage(("n1",), "ds", 50.0)
        assert fs.stage_time_s("n1", "ds", 50.0) == 0.0
        assert fs.stage(("n1",), "ds", 50.0) == 0.0
        assert fs.cache_hits == 1

    def test_cache_is_per_node(self):
        fs = SharedFilesystem()
        fs.stage(("n1",), "ds", 50.0)
        assert fs.stage_time_s("n2", "ds", 50.0) > 0.0

    def test_gang_waits_for_slowest_node(self):
        fs = SharedFilesystem()
        fs.stage(("n1",), "ds", 50.0)  # warm n1 only
        time = fs.stage(("n1", "n2"), "ds", 50.0)
        assert time > 0.0  # n2 is cold

    def test_contention_slows_stages(self):
        config = StorageConfig(node_stage_gbps=20.0, aggregate_gbps=40.0)
        fs = SharedFilesystem(config)
        solo = fs.stage_time_s("n1", "a", 100.0)
        fs.begin_stage()
        fs.begin_stage()
        fs.begin_stage()
        contended = fs.stage_time_s("n1", "a", 100.0)
        assert contended > solo
        fs.end_stage()
        fs.end_stage()
        fs.end_stage()

    def test_lru_eviction(self):
        fs = SharedFilesystem(StorageConfig(node_cache_gb=100.0))
        fs.stage(("n1",), "old", 60.0)
        fs.stage(("n1",), "new", 60.0)  # 120 GB > 100 GB: evict "old"
        assert not fs.is_cached("n1", "old")
        assert fs.is_cached("n1", "new")

    def test_lru_order_refreshed_on_hit(self):
        fs = SharedFilesystem(StorageConfig(node_cache_gb=100.0))
        fs.stage(("n1",), "a", 40.0)
        fs.stage(("n1",), "b", 40.0)
        fs.stage(("n1",), "a", 40.0)  # hit refreshes a
        fs.stage(("n1",), "c", 40.0)  # evicts b, not a
        assert fs.is_cached("n1", "a")
        assert not fs.is_cached("n1", "b")

    def test_hit_rate(self):
        fs = SharedFilesystem()
        assert fs.hit_rate == 1.0
        fs.stage(("n1",), "ds", 10.0)
        fs.stage(("n1",), "ds", 10.0)
        assert fs.hit_rate == 0.5


class TestStorageInSimulator:
    def run_with_storage(self, jobs, storage):
        cluster = uniform_cluster(2, gpus_per_node=8)
        simulator = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace(list(jobs)),
            exec_model=UnitExecutionModel(),
            storage=storage,
            config=SimConfig(sample_interval_s=0.0),
        )
        return simulator.run()

    def test_staging_delays_first_run_only(self):
        storage = SharedFilesystem(StorageConfig(node_stage_gbps=10.0))
        first = make_job("a", duration=100.0, dataset_gb=100.0, model_name="resnet50")
        rerun = make_job(
            "b", duration=100.0, dataset_gb=100.0, model_name="resnet50", submit_time=500.0
        )
        result = self.run_with_storage([first, rerun], storage)
        # First run pays 80 s of staging; the rerun (same user+model → same
        # dataset key, same node) hits the cache.
        assert first.end_time == pytest.approx(180.0)
        assert rerun.end_time == pytest.approx(600.0)
        assert result.metrics.stage_seconds == pytest.approx(80.0)
        assert storage.hit_rate > 0.0

    def test_no_dataset_no_delay(self):
        storage = SharedFilesystem()
        job = make_job("a", duration=100.0, dataset_gb=0.0)
        self.run_with_storage([job], storage)
        assert job.end_time == pytest.approx(100.0)

    def test_no_storage_configured_is_free(self):
        job = make_job("a", duration=100.0, dataset_gb=1000.0)
        cluster = uniform_cluster(1, gpus_per_node=8)
        ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace([job]),
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0),
        ).run()
        assert job.end_time == pytest.approx(100.0)


class TestPartitionRouting:
    def run_on_tacc(self, jobs):
        cluster = build_tacc_cluster()
        simulator = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace(list(jobs)),
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0),
        )
        return simulator.run(), cluster

    def test_partition_restricts_nodes(self):
        job = make_job("a", num_gpus=4, duration=100.0, partition="consumer")
        self.run_on_tacc([job])
        assert job.lifecycle is LifecycleState.FINISHED
        assert all(
            node.startswith(("rtx3090", "rtx2080ti")) for node in job.last_nodes
        )

    def test_partition_walltime_rejection(self):
        job = make_job(
            "a",
            num_gpus=4,
            duration=100.0,
            partition="consumer",
            walltime_estimate=100 * 3600.0,  # consumer caps at 48 h
        )
        result, _ = self.run_on_tacc([job])
        assert job.lifecycle is LifecycleState.KILLED
        assert result.metrics.rejected_jobs == 1

    def test_partition_width_rejection(self):
        job = make_job(
            "a", num_gpus=16, gpus_per_node=8, duration=100.0, partition="consumer"
        )
        result, _ = self.run_on_tacc([job])  # consumer caps at 8 GPUs/job
        assert result.metrics.rejected_jobs == 1

    def test_unknown_partition_rejected(self):
        job = make_job("a", partition="h100-island")
        result, _ = self.run_on_tacc([job])
        assert result.metrics.rejected_jobs == 1

    def test_no_partition_runs_anywhere(self):
        job = make_job("a", num_gpus=8, duration=100.0)
        self.run_on_tacc([job])
        assert job.lifecycle is LifecycleState.FINISHED

    def test_backfill_reservation_respects_partition(self):
        # Partition-constrained job behind a partition-filling blocker:
        # the reservation must be computed over the partition's nodes only.
        from repro.sched import EasyBackfillScheduler

        cluster = build_tacc_cluster()
        consumer_nodes = [
            n for n in cluster.nodes if n.startswith(("rtx3090", "rtx2080ti"))
        ]
        jobs = [
            make_job(
                f"fill-{i}",
                num_gpus=cluster.node(node).spec.num_gpus,
                duration=1000.0,
                walltime_estimate=1000.0,
                partition="consumer",
                submit_time=0.0,
            )
            for i, node in enumerate(consumer_nodes)
        ]
        jobs.append(
            make_job(
                "queued",
                num_gpus=8,
                duration=100.0,
                partition="consumer",
                submit_time=1.0,
            )
        )
        simulator = ClusterSimulator(
            cluster,
            EasyBackfillScheduler(),
            Trace(jobs),
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0),
        )
        simulator.run()
        assert jobs[-1].first_start_time == pytest.approx(1000.0)
        assert all(node.startswith("rtx3090") for node in jobs[-1].last_nodes)
