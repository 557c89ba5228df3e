"""Tests for elastic jobs and the Pollux-style adaptive scheduler."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.errors import JobStateError, ValidationError
from repro.execlayer import ExecutionModel, UnitExecutionModel
from repro.sched import ElasticScheduler, grant_candidates
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import LifecycleState, Trace
from tests.conftest import make_job


def elastic_job(job_id="e0", num_gpus=8, min_gpus=2, duration=3600.0, **kwargs):
    kwargs.setdefault("preemptible", True)
    return make_job(
        job_id,
        num_gpus=num_gpus,
        duration=duration,
        elastic_min_gpus=min_gpus,
        model_name="resnet50",
        **kwargs,
    )


def run_trace(scheduler, jobs, num_nodes=1, exec_model=None, until=None):
    cluster = uniform_cluster(num_nodes, gpus_per_node=8)
    simulator = ClusterSimulator(
        cluster,
        scheduler,
        Trace(list(jobs)),
        exec_model=exec_model or ExecutionModel(),
        config=SimConfig(sample_interval_s=0.0, audit=True, checkpoint_loss_s=0.0),
    )
    return simulator.run(until=until), cluster


class TestElasticJobModel:
    def test_validation(self):
        with pytest.raises(ValidationError, match="elastic_min_gpus"):
            make_job("a", num_gpus=4, elastic_min_gpus=5)
        with pytest.raises(ValidationError):
            make_job("a", num_gpus=4, elastic_min_gpus=0)

    def test_elastic_flag(self):
        assert elastic_job().elastic
        assert not make_job("r").elastic

    def test_start_grant_bounds(self):
        job = elastic_job(num_gpus=8, min_gpus=2)
        with pytest.raises(JobStateError, match="granted"):
            job.start(0.0, ("n",), granted_gpus=1)
        job.start(0.0, ("n",), granted_gpus=4)
        assert job.current_gpus == 4

    def test_rigid_start_requires_full_grant(self):
        job = make_job("r", num_gpus=8)
        with pytest.raises(JobStateError):
            job.start(0.0, ("n",), granted_gpus=4)

    def test_gpu_seconds_use_granted_width(self):
        job = elastic_job(num_gpus=8, min_gpus=2, duration=100.0)
        job.start(0.0, ("n",), slowdown=2.0, granted_gpus=4)
        job.preempt(100.0)
        assert job.gpu_seconds_used == pytest.approx(400.0)  # 4 GPUs × 100 s

    def test_csv_roundtrip_preserves_elasticity(self, tmp_path):
        trace = Trace([elastic_job(), make_job("rigid", dataset_gb=40.0)])
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        restored = Trace.from_csv(path)
        assert restored.jobs[0].elastic_min_gpus == 2
        assert restored.jobs[1].elastic_min_gpus is None
        assert restored.jobs[1].dataset_gb == 40.0


class TestGrantCandidates:
    def test_rigid_single_candidate(self):
        assert grant_candidates(make_job("r", num_gpus=8)) == [8]

    def test_halving_down_to_min(self):
        assert grant_candidates(elastic_job(num_gpus=8, min_gpus=2)) == [8, 4, 2]

    def test_min_always_included(self):
        assert grant_candidates(elastic_job(num_gpus=8, min_gpus=3)) == [8, 4, 3]

    def test_multi_node_chunk_alignment(self):
        job = elastic_job(num_gpus=16, min_gpus=4, gpus_per_node=8)
        assert grant_candidates(job) == [16, 8, 4]


class TestExecutionModelElastic:
    def test_narrow_grant_stretches_work(self):
        cluster = uniform_cluster(2, gpus_per_node=8)
        model = ExecutionModel()
        job = elastic_job(num_gpus=8, min_gpus=2)
        node = sorted(cluster.nodes)[0]
        full = model.slowdown(job, {node: 8}, cluster)
        half = model.slowdown(job, {node: 4}, cluster)
        assert half > full
        # At least the batch-rate stretch of 2x (comm gets cheaper, so the
        # net can be slightly under the naive ratio times two).
        assert half / full > 1.5

    def test_rigid_jobs_unchanged(self):
        cluster = uniform_cluster(2, gpus_per_node=8)
        model = ExecutionModel()
        job = make_job("r", num_gpus=8, model_name="resnet50")
        node = sorted(cluster.nodes)[0]
        assert model.slowdown(job, {node: 8}, cluster) == pytest.approx(1.0)


class TestElasticScheduler:
    def test_contention_runs_both_narrower(self):
        # One 8-GPU node, two elastic 8-GPU jobs: the second should be
        # admitted by shrinking rather than waiting the first one out.
        jobs = [
            elastic_job("e1", num_gpus=8, min_gpus=2, duration=7200.0, submit_time=0.0),
            elastic_job("e2", num_gpus=8, min_gpus=2, duration=7200.0, submit_time=60.0),
        ]
        scheduler = ElasticScheduler(tick_s=300.0, resize_cooldown_s=600.0)
        result, _ = run_trace(scheduler, jobs, exec_model=UnitExecutionModel())
        # e2 started long before e1's full runtime elapsed.
        assert jobs[1].first_start_time < 3600.0
        assert result.metrics.preemptions >= 1
        assert all(job.lifecycle is LifecycleState.FINISHED for job in jobs)

    def test_queued_job_takes_widest_fitting_grant(self):
        jobs = [
            make_job("rigid", num_gpus=4, duration=5000.0, submit_time=0.0),
            elastic_job("e1", num_gpus=8, min_gpus=2, duration=1000.0, submit_time=1.0),
        ]
        run_trace(ElasticScheduler(), jobs, exec_model=UnitExecutionModel(), until=2.0)
        assert jobs[1].lifecycle is LifecycleState.RUNNING
        assert jobs[1].current_gpus == 4  # widest grant that fit

    def test_grow_into_idleness(self):
        jobs = [
            elastic_job("e1", num_gpus=8, min_gpus=2, duration=40_000.0, submit_time=0.0),
            elastic_job("e2", num_gpus=8, min_gpus=2, duration=600.0, submit_time=10.0),
        ]
        scheduler = ElasticScheduler(tick_s=300.0, resize_cooldown_s=300.0)
        _result, _ = run_trace(scheduler, jobs, exec_model=UnitExecutionModel(), until=20_000.0)
        # e2 finished long ago; e1 should have been regrown to full width.
        assert jobs[1].lifecycle is LifecycleState.FINISHED
        assert jobs[0].lifecycle is LifecycleState.RUNNING
        assert jobs[0].current_gpus == 8

    def test_rigid_jobs_never_resized(self):
        jobs = [
            make_job("rigid", num_gpus=8, duration=5000.0, submit_time=0.0),
            elastic_job("e1", num_gpus=8, min_gpus=2, duration=1000.0, submit_time=10.0),
        ]
        run_trace(ElasticScheduler(tick_s=200.0, resize_cooldown_s=200.0), jobs)
        assert jobs[0].preemptions == 0

    def test_cooldown_limits_resizes(self):
        jobs = [
            elastic_job("e1", num_gpus=8, min_gpus=1, duration=20_000.0, submit_time=0.0),
            elastic_job("e2", num_gpus=8, min_gpus=1, duration=20_000.0, submit_time=1.0),
        ]
        scheduler = ElasticScheduler(tick_s=100.0, resize_cooldown_s=1e9)
        result, _ = run_trace(
            scheduler, jobs, exec_model=UnitExecutionModel(), until=10_000.0
        )
        # With an infinite cooldown each job can be resized at most once.
        assert result.metrics.preemptions <= 2

    def test_elastic_improves_jct_over_fifo_under_contention(self):
        def build_jobs():
            return [
                elastic_job(f"e{i}", num_gpus=8, min_gpus=2,
                            duration=3600.0, submit_time=float(i))
                for i in range(4)
            ]

        from repro.sched import GreedyFifoScheduler

        elastic_result, _ = run_trace(
            ElasticScheduler(tick_s=300.0, resize_cooldown_s=600.0),
            build_jobs(),
            exec_model=ExecutionModel(),
        )
        rigid_result, _ = run_trace(
            GreedyFifoScheduler(), build_jobs(), exec_model=ExecutionModel()
        )
        assert (
            elastic_result.metrics.wait_mean_s < rigid_result.metrics.wait_mean_s
        )
