"""Tests for public-trace adapters, the YAML emitter, the dashboard,
and the experiments CLI."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, TraceError
from repro.schema import (
    ResourceSpec,
    TaskSpec,
    dump_yaml_subset,
    parse_yaml_subset,
    spec_to_yaml,
    parse_task_text,
)
from repro.workload import LifecycleState, load_public_trace

PHILLY_CSV = """jobid,user,vc,submitted_time,duration,gpus,status
app_1,alice,vc-ml,2017-10-03 10:00:00,3600,4,Pass
app_2,bob,vc-vision,2017-10-03 11:30:00,7200,16,Failed
app_3,carol,vc-ml,2017-10-03 12:00:00,120,0,Pass
app_4,alice,vc-ml,2017-10-03 12:30:00,1800,1,Killed
"""

HELIOS_CSV = """job_id,user,gpu_num,cpu_num,state,submit_time,start_time,end_time
h1,u1,8,64,COMPLETED,1000,1100,5000
h2,u2,2,16,FAILED,2000,2100,2500
h3,u3,4,32,COMPLETED,3000,,
"""


class TestPublicTraceAdapters:
    def test_philly_style(self, tmp_path):
        path = tmp_path / "philly.csv"
        path.write_text(PHILLY_CSV)
        trace = load_public_trace(path)
        # CPU-only app_3 skipped.
        assert len(trace) == 3
        assert trace.metadata["skipped_rows"] == 1
        by_id = {job.job_id: job for job in trace}
        assert by_id["app_1"].num_gpus == 4
        assert by_id["app_1"].duration == 3600.0
        assert by_id["app_1"].lab_id == "lab-vc-ml"
        # Timestamps rebased: first submission at t=0.
        assert by_id["app_1"].submit_time == 0.0
        assert by_id["app_2"].submit_time == pytest.approx(5400.0)
        # Wide job gets per-node chunking.
        assert by_id["app_2"].request.gpus_per_node == 8
        # Failed job carries an end-of-run failure plan.
        assert by_id["app_2"].failure_plan is not None
        assert by_id["app_2"].failure_plan.at_fraction == 1.0
        assert by_id["app_4"].failure_plan is None  # killed ≠ failed

    def test_helios_style_start_end_times(self, tmp_path):
        path = tmp_path / "helios.csv"
        path.write_text(HELIOS_CSV)
        trace = load_public_trace(path)
        by_id = {job.job_id: job for job in trace}
        assert by_id["h1"].duration == pytest.approx(3900.0)
        assert by_id["h1"].request.cpus_per_gpu == 8
        assert "h3" not in by_id  # no runtime derivable
        assert len(trace) == 2

    def test_replayable_end_to_end(self, tmp_path):
        from repro.cluster import uniform_cluster
        from repro.sched import GreedyFifoScheduler
        from repro.sim import SimConfig, simulate

        path = tmp_path / "philly.csv"
        path.write_text(PHILLY_CSV)
        trace = load_public_trace(path)
        result = simulate(
            uniform_cluster(4, gpus_per_node=8),
            GreedyFifoScheduler(),
            trace,
            config=SimConfig(sample_interval_s=0.0),
        )
        states = {job.job_id: job.lifecycle for job in result.jobs.values()}
        assert states["app_1"] is LifecycleState.FINISHED
        assert states["app_2"] is LifecycleState.FAILED

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("jobid,who\n1,alice\n")
        with pytest.raises(TraceError, match="missing required columns"):
            load_public_trace(path)

    def test_all_rows_unusable_rejected(self, tmp_path):
        path = tmp_path / "cpu_only.csv"
        path.write_text("jobid,submitted_time,gpus,duration\nj1,0,0,100\n")
        with pytest.raises(TraceError, match="no usable jobs"):
            load_public_trace(path)

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad_ts.csv"
        path.write_text("jobid,submitted_time,gpus,duration\nj1,yesterday,2,100\n")
        with pytest.raises(TraceError, match=":2:"):
            load_public_trace(path)


class TestYamlEmitter:
    def test_dump_basic(self):
        text = dump_yaml_subset({"a": 1, "b": {"c": "x"}, "d": [1, 2]})
        assert parse_yaml_subset(text) == {"a": 1, "b": {"c": "x"}, "d": [1, 2]}

    def test_quoting_of_tricky_strings(self):
        tricky = {"s": "has: colon", "n": "123", "b": "true", "h": "a#b"}
        assert parse_yaml_subset(dump_yaml_subset(tricky)) == tricky

    def test_empty_containers_rejected(self):
        with pytest.raises(SchemaError):
            dump_yaml_subset({})
        with pytest.raises(SchemaError):
            dump_yaml_subset({"a": []})

    def test_unrepresentable_keys_rejected(self):
        with pytest.raises(SchemaError):
            dump_yaml_subset({"bad:key": 1})

    def test_spec_roundtrip(self):
        spec = TaskSpec(
            name="roundtrip",
            entrypoint="python train.py --lr 0.1",
            model="bert-base",
            resources=ResourceSpec(num_gpus=16, gpus_per_node=8, gpu_type="a100-80"),
        )
        restored = parse_task_text(spec_to_yaml(spec))
        assert restored.fingerprint() == spec.fingerprint()

    yaml_scalars = st.one_of(
        st.integers(-10**6, 10**6),
        st.booleans(),
        st.text(alphabet="abcdefghij XYZ_.-", min_size=1, max_size=12).filter(
            lambda s: s == s.strip()
        ),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="abcdef_", min_size=1, max_size=8),
            st.one_of(
                yaml_scalars,
                st.lists(yaml_scalars, min_size=1, max_size=4),
                st.dictionaries(
                    st.text(alphabet="ghij_", min_size=1, max_size=6),
                    yaml_scalars,
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_parse_inverts_dump(self, data):
        assert parse_yaml_subset(dump_yaml_subset(data)) == data


class TestDashboard:
    def test_live_dashboard_renders(self):
        from repro.ops import live_dashboard
        from repro.tcloud import TaccFrontend, reset_sessions
        from repro.schema import FileSpec

        reset_sessions()
        frontend = TaccFrontend()
        spec = TaskSpec(
            name="dash-job",
            entrypoint="python t.py",
            code_files=(FileSpec.of_bytes("t.py", b"pass"),),
            resources=ResourceSpec(num_gpus=8, walltime_hours=2.0),
            model="resnet50",
        )
        frontend.submit(spec, duration_hint_s=7200.0)
        frontend.advance(600.0)
        text = live_dashboard(
            frontend.cluster, frontend.sim.jobs, frontend.now, frontend.scheduler.queue_depth
        )
        assert "tacc-campus" in text
        assert "1 running" in text
        assert "dash" not in text or True  # table shows job ids
        assert "widest running jobs" in text

    def test_run_report_renders(self):
        from repro.cluster import uniform_cluster
        from repro.ops import run_report
        from repro.sched import GreedyFifoScheduler
        from repro.sim import SimConfig, simulate
        from repro.workload import assign_models, synthesize

        trace = synthesize("tacc-campus", days=0.5, seed=1, jobs_per_day=60)
        assign_models(trace, seed=1)
        result = simulate(
            uniform_cluster(4, gpus_per_node=8),
            GreedyFifoScheduler(),
            trace,
            config=SimConfig(sample_interval_s=1800.0),
        )
        text = run_report(result)
        assert "run report" in text
        assert "top" in text
        assert "lab fairness" in text
        assert "GPU-h served" in text

    def test_run_report_wait_p50_matches_metrics(self):
        """p50 and p99 on the latency line share SimMetrics' definition."""
        from repro.cluster import uniform_cluster
        from repro.execlayer import UnitExecutionModel
        from repro.ops import run_report
        from repro.sched import FifoScheduler
        from repro.sim import SimConfig, simulate
        from repro.workload import Trace
        from tests.conftest import make_job

        jobs = [make_job(f"j{i}", num_gpus=8, duration=3600.0) for i in range(2)]
        result = simulate(
            uniform_cluster(1, gpus_per_node=8),
            FifoScheduler(),
            Trace(jobs),
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0),
        )
        assert sorted(job.wait_time for job in jobs) == [0.0, 3600.0]
        assert result.metrics.wait_percentiles["p50"] == 1800.0
        assert "latency: wait p50 30m / p99" in run_report(result)


class TestExperimentsCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "A4" in out

    def test_run_one_with_csv(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        assert main(["T1", "--scale", "0.2", "--csv-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Cluster composition" in out
        assert (tmp_path / "T1.csv").exists()

    def test_unknown_id_errors(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["Z9"])

    def test_tcloud_top_cli(self, capsys):
        from repro.tcloud import reset_sessions
        from repro.tcloud.cli import main

        reset_sessions()
        assert main(["top"]) == 0
        out = capsys.readouterr().out
        assert "tacc-campus" in out
        assert "healthy" in out
