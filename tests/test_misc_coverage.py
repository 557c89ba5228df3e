"""Cross-cutting tests for corners the subsystem suites don't reach:
frontend warning propagation, report downsampling, drain ordering,
experiment-result rendering, and feature interplay in the simulator."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.execlayer import SharedFilesystem, StorageConfig, UnitExecutionModel
from repro.experiments.common import ExperimentResult
from repro.sched import GreedyFifoScheduler
from repro.sched.base import drain_order
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import LifecycleState, Trace
from tests.conftest import make_job


class TestDrainOrder:
    def test_latest_smallest_first(self):
        jobs = [
            make_job("old-wide", num_gpus=8, submit_time=0.0),
            make_job("new-wide", num_gpus=8, submit_time=100.0),
            make_job("new-narrow", num_gpus=1, submit_time=100.0),
        ]
        ordered = [job.job_id for job in drain_order(jobs)]
        assert ordered == ["new-narrow", "new-wide", "old-wide"]

    def test_id_tiebreak(self):
        jobs = [make_job("b", submit_time=0.0), make_job("a", submit_time=0.0)]
        assert [j.job_id for j in drain_order(jobs)] == ["a", "b"]


class TestFrontendWarnings:
    def test_memory_warning_surfaced_not_blocking(self):
        from repro.schema import FileSpec, ResourceSpec, TaskSpec
        from repro.tcloud import TaccFrontend

        frontend = TaccFrontend()
        spec = TaskSpec(
            name="low-mem",
            entrypoint="python t.py",
            code_files=(FileSpec.of_bytes("t.py", b"pass"),),
            model="gpt2-xl",  # needs ~28 GB/GPU
            resources=ResourceSpec(num_gpus=1, memory_gb_per_gpu=8.0, walltime_hours=1.0),
        )
        job_id, _compile, warnings = frontend.submit(spec, duration_hint_s=60.0)
        assert warnings
        assert any("OOM" in str(w) for w in warnings)
        assert frontend.status(job_id).state in ("queued", "running")


class TestExperimentResultRendering:
    def test_rows_and_series_both_rendered(self):
        result = ExperimentResult(
            "X1",
            "Test experiment",
            rows=[{"a": 1}],
            series={"line": [(0.0, 1.0)]},
            notes="the note",
            x_label="t",
        )
        text = result.render()
        assert "X1: Test experiment" in text
        assert "X1 series" in text
        assert "the note" in text

    def test_csv_prefers_rows(self, tmp_path):
        result = ExperimentResult("X1", "t", rows=[{"a": 1}], series={"s": [(0.0, 1.0)]})
        path = tmp_path / "x.csv"
        result.export_csv(path)
        assert path.read_text().splitlines()[0] == "a"

    def test_csv_falls_back_to_series(self, tmp_path):
        result = ExperimentResult("X1", "t", series={"s": [(0.0, 1.0)]}, x_label="t")
        path = tmp_path / "x.csv"
        result.export_csv(path)
        assert path.read_text().splitlines()[0] == "t,s"


class TestRenderSeriesDownsampling:
    def test_long_series_capped(self):
        from repro.ops import render_series

        series = {"y": [(float(i), float(i)) for i in range(500)]}
        text = render_series(series, max_rows=20)
        data_lines = [l for l in text.splitlines() if l and not l.startswith(("x", "-"))]
        assert len(data_lines) <= 21


class TestFeatureInterplay:
    def test_provisioning_storage_walltime_together(self):
        """All three start-time cost sources compose and enforcement sees
        the combined wall time."""
        storage = SharedFilesystem(StorageConfig(node_stage_gbps=10.0))
        # 100 GB dataset → 80 s stage; provisioning adds more; the 200 s
        # limit leaves little room for the 10 000 s of work: killed.
        job = make_job(
            "a",
            duration=10_000.0,
            walltime_estimate=200.0,
            dataset_gb=100.0,
            model_name="resnet50",
        )
        cluster = uniform_cluster(1, gpus_per_node=8)
        result = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace([job]),
            exec_model=UnitExecutionModel(),
            storage=storage,
            config=SimConfig(
                sample_interval_s=0.0,
                provisioning=True,
                enforce_walltime=True,
                seed=0,
            ),
        ).run()
        assert job.lifecycle is LifecycleState.KILLED
        # Setup (provisioning + staging) alone exceeds the limit; the
        # enforcement point is the end of setup, so zero work ran and the
        # job died as soon as its allocation became interruptible.
        assert job.end_time == pytest.approx(
            result.metrics.provision_seconds + result.metrics.stage_seconds, abs=1.0
        )
        assert job.work_done == pytest.approx(0.0, abs=1e-6)
        assert result.metrics.walltime_kills == 1
        assert result.metrics.stage_seconds > 0
        assert result.metrics.provision_seconds > 0
        cluster.verify_invariants()

    def test_elastic_job_with_walltime_enforcement(self):
        # An elastic job granted half width runs 2x longer; enforcement is
        # on *wall* time, so the narrow grant is what hits the limit.
        from repro.execlayer import ExecutionModel
        from repro.sched import ElasticScheduler

        blocker = make_job("blocker", num_gpus=4, duration=50_000.0, submit_time=0.0)
        elastic = make_job(
            "elastic",
            num_gpus=8,
            duration=900.0,
            submit_time=1.0,
            elastic_min_gpus=4,
            preemptible=True,
            walltime_estimate=1000.0,
            model_name="resnet50",
        )
        cluster = uniform_cluster(1, gpus_per_node=8)
        ClusterSimulator(
            cluster,
            ElasticScheduler(tick_s=300.0, resize_cooldown_s=1e9),
            Trace([blocker, elastic]),
            exec_model=ExecutionModel(),
            config=SimConfig(sample_interval_s=0.0, enforce_walltime=True),
        ).run(until=5000.0)
        # Granted 4 of 8 GPUs → ~2x stretch → ~1800 s needed > 1000 s limit.
        assert elastic.current_gpus in (0, 4)
        assert elastic.lifecycle in (LifecycleState.KILLED, LifecycleState.RUNNING)
        if elastic.lifecycle is LifecycleState.KILLED:
            assert elastic.end_time - elastic.first_start_time == pytest.approx(
                1000.0, abs=1.0
            )

    def test_storage_plus_node_failure_requeue(self):
        """A job killed by a node failure re-stages on its new node but
        hits the warm cache when landing on the same one."""
        from repro.sim import FailureConfig

        storage = SharedFilesystem(StorageConfig(node_stage_gbps=10.0))
        job = make_job(
            "a", num_gpus=8, duration=4000.0, dataset_gb=10.0, model_name="resnet50"
        )
        cluster = uniform_cluster(1, gpus_per_node=8)
        result = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace([job]),
            exec_model=UnitExecutionModel(),
            storage=storage,
            failure_config=FailureConfig(mtbf_hours=0.5, repair_hours_median=0.05,
                                         max_job_restarts=50),
            config=SimConfig(sample_interval_s=0.0, seed=2),
        ).run()
        assert job.lifecycle is LifecycleState.FINISHED
        assert job.attempts > 1
        # Restarts on the same (only) node hit the cache: exactly one cold stage.
        assert storage.cache_hits == storage.stage_count - 1
