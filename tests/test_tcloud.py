"""Tests for the tcloud stack: config, frontend, client, CLI."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SchemaError, SimulationError
from repro.schema import EnvironmentSpec, FileSpec, QosSpec, ResourceSpec, TaskSpec
from repro.tcloud import (
    ClusterProfile,
    TaccFrontend,
    TcloudClient,
    TcloudConfig,
    reset_sessions,
)
from repro.tcloud.cli import main as tcloud_main
from repro.tcloud.frontend import status_word
from repro.workload import LifecycleState


@pytest.fixture(autouse=True)
def isolated_sessions():
    reset_sessions()
    yield
    reset_sessions()


def demo_spec(name="demo-task", gpus=1, **kwargs):
    code = FileSpec.of_bytes("train.py", b"print('x')\n" * 50)
    defaults = dict(
        name=name,
        entrypoint="python train.py",
        code_files=(code,),
        resources=ResourceSpec(num_gpus=gpus, walltime_hours=2.0),
        model="resnet50",
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestTcloudConfig:
    def test_default_config(self):
        config = TcloudConfig.default()
        assert config.active == "campus"
        assert config.get().endpoint.startswith("sim://")

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            ClusterProfile(name="", endpoint="sim://x")
        with pytest.raises(ConfigError):
            ClusterProfile(name="p", endpoint="no-scheme")

    def test_add_switch_get(self):
        config = TcloudConfig()
        config.add(ClusterProfile(name="a"))
        config.add(ClusterProfile(name="b", endpoint="sim://other"))
        assert config.active == "a"
        config.switch("b")
        assert config.get().name == "b"
        with pytest.raises(ConfigError, match="unknown profile"):
            config.switch("c")

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        config = TcloudConfig()
        config.add(ClusterProfile(name="x", user="alice", lab="lab-07"), activate=True)
        config.save(path)
        loaded = TcloudConfig.load(path)
        assert loaded.active == "x"
        assert loaded.get().user == "alice"

    def test_load_missing_file_gives_default(self, tmp_path):
        config = TcloudConfig.load(tmp_path / "nope.json")
        assert config.active == "campus"

    def test_load_rejects_dangling_active(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"active": "ghost", "profiles": {}}')
        with pytest.raises(ConfigError, match="ghost"):
            TcloudConfig.load(path)


class TestFrontend:
    def test_submission_runs_to_completion(self):
        frontend = TaccFrontend()
        job_id, compile_result, warnings = frontend.submit(
            demo_spec(), duration_hint_s=600.0
        )
        assert compile_result.instruction.runtime == "bare"
        assert warnings == []
        status = frontend.advance_until_done(job_id)
        assert status.state == "completed"
        assert status.progress == pytest.approx(1.0)

    def test_progress_excludes_the_setup_head(self):
        frontend = TaccFrontend()
        job_id, _c, _w = frontend.submit(demo_spec(), duration_hint_s=50_000.0)
        job = frontend.sim.jobs[job_id]
        assert job.current_setup_s > 5.0
        frontend.advance(5.0)
        assert frontend.status(job_id).progress == 0.0
        frontend.advance(job.current_setup_s - 5.0 + 100.0)
        expected = 100.0 / job.current_slowdown / job.duration
        assert frontend.status(job_id).progress == pytest.approx(expected)

    def test_validation_errors_block_submission(self):
        frontend = TaccFrontend()
        bad = demo_spec(resources=ResourceSpec(num_gpus=64, gpus_per_node=8, gpu_type="a100-80"))
        with pytest.raises(SchemaError):
            frontend.submit(bad)

    def test_status_queue_position(self):
        frontend = TaccFrontend()
        # Fill the whole cluster, then submit one more.
        # 20 nodes can host an 8-GPU chunk (the 2080Ti nodes have only 4).
        blocker = demo_spec("blocker", gpus=8)
        ids = []
        for index in range(20):
            ids.append(frontend.submit(blocker, duration_hint_s=50_000.0)[0])
        queued_id, _c, _w = frontend.submit(demo_spec("queued", gpus=8), duration_hint_s=60.0)
        status = frontend.status(queued_id)
        assert status.state == "queued"
        assert status.queue_position == 1

    def test_logs_aggregate_across_nodes(self):
        frontend = TaccFrontend()
        spec = demo_spec("wide", gpus=16)
        spec = TaskSpec(
            name="wide",
            entrypoint="python train.py",
            code_files=spec.code_files,
            resources=ResourceSpec(num_gpus=16, gpus_per_node=8, walltime_hours=2.0),
            model="bert-base",
        )
        job_id, _c, _w = frontend.submit(spec, duration_hint_s=3600.0)
        frontend.advance(1800.0)
        streams = frontend.logs(job_id, tail=3)
        assert len(streams) == 2  # one stream per node
        assert all("rank" in lines[0] for lines in streams.values())

    def test_kill(self):
        frontend = TaccFrontend()
        job_id, _c, _w = frontend.submit(demo_spec(), duration_hint_s=50_000.0)
        frontend.advance(60.0)
        status = frontend.kill(job_id)
        assert status.state == "killed"
        with pytest.raises(SimulationError):
            frontend.kill("job-999999")

    def test_status_word_for_every_lifecycle_state(self):
        S = LifecycleState
        assert {state: status_word(state) for state in S} == {
            S.PENDING: "queued",
            S.PENDING_DEPS: "queued",
            S.ADMITTED: "queued",
            S.PREEMPTED: "queued",
            S.RESTARTING: "queued",
            S.RUNNING: "running",
            S.FINISHED: "completed",
            S.FAILED: "failed",
            S.KILLED: "killed",
        }

    def test_logs_terminal_marker(self):
        frontend = TaccFrontend()
        done, _c, _w = frontend.submit(demo_spec("done"), duration_hint_s=600.0)
        killed, _c, _w = frontend.submit(demo_spec("killed"), duration_hint_s=50_000.0)
        assert "frontend" not in frontend.logs(done)  # live jobs carry no marker
        frontend.advance_until_done(done)
        frontend.kill(killed)
        assert frontend.logs(done)["frontend"] == [f"[frontend] job {done} completed"]
        assert frontend.logs(killed)["frontend"] == [f"[frontend] job {killed} killed"]

    def test_cluster_info(self):
        frontend = TaccFrontend()
        info = frontend.cluster_info()
        assert info["total_gpus"] == 176
        assert info["scheduler"] == "backfill-easy"

    def test_compile_cache_shared_across_submissions(self):
        frontend = TaccFrontend()
        _id1, first, _w = frontend.submit(demo_spec("t1"), duration_hint_s=60.0)
        _id2, second, _w = frontend.submit(demo_spec("t2"), duration_hint_s=60.0)
        assert first.upload.uploaded_bytes > 0
        assert second.upload.uploaded_bytes == 0  # same code content


class TestClient:
    def test_submit_and_wait(self):
        client = TcloudClient()
        job_id = client.submit(demo_spec(), duration_hint_s=120.0)
        status = client.wait(job_id)
        assert status.state == "completed"

    def test_clients_share_session_per_endpoint(self):
        a = TcloudClient()
        b = TcloudClient()
        job_id = a.submit(demo_spec(), duration_hint_s=60.0)
        assert b.status(job_id).state in ("queued", "running")

    def test_submit_text(self):
        client = TcloudClient()
        job_id = client.submit_text(
            "name: from-yaml\nentrypoint: python x.py\nresources:\n  num_gpus: 1\n",
            duration_hint_s=60.0,
        )
        assert client.status(job_id).name == "from-yaml"

    def test_non_sim_endpoint_rejected(self):
        config = TcloudConfig()
        config.add(ClusterProfile(name="prod", endpoint="ssh://real-cluster"))
        with pytest.raises(ConfigError, match="sim://"):
            TcloudClient(config)

    def test_queue_listing(self):
        client = TcloudClient()
        client.submit(demo_spec("one"), duration_hint_s=60.0)
        client.submit(demo_spec("two"), duration_hint_s=60.0)
        assert len(client.queue()) == 2


class TestCli:
    def write_task(self, tmp_path):
        path = tmp_path / "task.yaml"
        path.write_text(
            "name: cli-task\nentrypoint: python run.py\n"
            "model: resnet50\nresources:\n  num_gpus: 2\n  walltime_hours: 1.0\n"
        )
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert tcloud_main(["validate", self.write_task(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_task(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: bad\nentrypoint: x\nresources:\n  num_gpus: 4096\n")
        assert tcloud_main(["validate", str(path)]) == 1

    def test_compile_prints_script(self, tmp_path, capsys):
        assert tcloud_main(["compile", self.write_task(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runtime:" in out
        assert "rank 0 script" in out

    def test_submit_watch(self, tmp_path, capsys):
        assert tcloud_main(["submit", self.write_task(tmp_path), "--watch"]) == 0
        out = capsys.readouterr().out
        assert "submitted job-" in out
        assert "finished:" in out

    def test_info(self, capsys):
        assert tcloud_main(["info"]) == 0
        assert "total_gpus" in capsys.readouterr().out

    def test_profiles(self, capsys):
        assert tcloud_main(["profiles"]) == 0
        assert "campus" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert tcloud_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "final states" in out
        assert "completed" in out

    def test_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "ghost.yaml")
        assert tcloud_main(["validate", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tcloud: error:")
        assert "ghost.yaml" in err
        assert "Traceback" not in err
