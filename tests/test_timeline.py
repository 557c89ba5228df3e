"""Tests for the transition-log timeline and Gantt reconstruction."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.controlplane import Actor, Cause, LifecycleState, Transition
from repro.errors import ValidationError
from repro.execlayer import UnitExecutionModel
from repro.ops import job_segments, render_gantt, run_report
from repro.sched import GangScheduler, GreedyFifoScheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import FailureCategory, FailurePlan, Trace
from tests.conftest import make_job

#: Timeline kind -> (source, target, cause) of a transition producing it.
_EDGES = {
    "submit": (LifecycleState.PENDING, LifecycleState.ADMITTED, Cause.ADMIT),
    "start": (LifecycleState.ADMITTED, LifecycleState.RUNNING, Cause.PLACE),
    "preempt": (LifecycleState.RUNNING, LifecycleState.PREEMPTED, Cause.PREEMPT),
    "complete": (LifecycleState.RUNNING, LifecycleState.FINISHED, Cause.COMPLETE),
}


def transition(time, kind, job_id):
    """A synthetic transition record whose ``timeline_kind`` is *kind*."""
    source, target, cause = _EDGES[kind]
    record = Transition(job_id, time, source, target, cause, Actor.SIMULATOR, 0)
    assert record.timeline_kind == kind
    return record


def events(result):
    return [(t.timeline_kind, t.time, t.job_id) for t in result.log]


def run_recorded(jobs, scheduler=None, **config_kwargs):
    cluster = uniform_cluster(1, gpus_per_node=8)
    config_kwargs.setdefault("sample_interval_s", 0.0)
    config_kwargs.setdefault("checkpoint_loss_s", 0.0)
    simulator = ClusterSimulator(
        cluster,
        scheduler or GreedyFifoScheduler(),
        Trace(list(jobs)),
        exec_model=UnitExecutionModel(),
        config=SimConfig(**config_kwargs),
    )
    return simulator.run()


class TestRecording:
    def test_happy_path_events(self):
        job = make_job("a", duration=100.0, submit_time=5.0)
        result = run_recorded([job])
        kinds = [(kind, time) for kind, time, _job in events(result)]
        assert kinds == [("submit", 5.0), ("start", 5.0), ("complete", 105.0)]

    def test_failure_and_rejection_events(self):
        jobs = [
            make_job("bad", duration=100.0, failure_plan=FailurePlan(FailureCategory.OOM, 0.5)),
            make_job("huge", num_gpus=9),  # infeasible on one 8-GPU node
        ]
        result = run_recorded(jobs)
        by_kind = {}
        for kind, _time, job_id in events(result):
            by_kind.setdefault(kind, []).append(job_id)
        assert by_kind["fail"] == ["bad"]
        assert by_kind["reject"] == ["huge"]

    def test_preemption_events(self):
        jobs = [
            make_job("a", num_gpus=8, duration=3000.0, submit_time=0.0, preemptible=True),
            make_job("b", num_gpus=8, duration=3000.0, submit_time=10.0, preemptible=True),
        ]
        result = run_recorded(jobs, scheduler=GangScheduler(quantum_s=600.0))
        kinds = {kind for kind, _time, _job in events(result)}
        assert "preempt" in kinds


class TestSegments:
    def test_queued_then_running(self):
        timeline = [
            transition(0.0, "submit", "a"),
            transition(10.0, "start", "a"),
            transition(50.0, "complete", "a"),
        ]
        segments = job_segments(timeline)["a"]
        assert [(s.state, s.start, s.end) for s in segments] == [
            ("queued", 0.0, 10.0),
            ("running", 10.0, 50.0),
        ]

    def test_instant_start_has_no_queued_segment(self):
        timeline = [
            transition(5.0, "submit", "a"),
            transition(5.0, "start", "a"),
            transition(9.0, "complete", "a"),
        ]
        segments = job_segments(timeline)["a"]
        assert [s.state for s in segments] == ["running"]

    def test_preemption_creates_alternation(self):
        timeline = [
            transition(0.0, "submit", "a"),
            transition(0.0, "start", "a"),
            transition(10.0, "preempt", "a"),
            transition(20.0, "start", "a"),
            transition(30.0, "complete", "a"),
        ]
        states = [s.state for s in job_segments(timeline)["a"]]
        assert states == ["running", "queued", "running"]

    def test_live_job_closed_at_horizon(self):
        timeline = [
            transition(0.0, "submit", "a"),
            transition(0.0, "start", "a"),
            transition(100.0, "submit", "b"),
        ]
        segments = job_segments(timeline)
        assert segments["a"][-1].end == 100.0
        assert segments["b"] == []  # zero-length queue at horizon

    def test_empty(self):
        assert job_segments([]) == {}


class TestGantt:
    def test_renders_every_job_with_outcome(self):
        jobs = [
            make_job("job-ok", duration=100.0, submit_time=0.0),
            make_job(
                "job-oom",
                duration=100.0,
                submit_time=1.0,
                failure_plan=FailurePlan(FailureCategory.OOM, 0.5),
            ),
        ]
        result = run_recorded(jobs)
        text = render_gantt(result.log, width=40)
        assert "job-ok" in text and "✓" in text
        assert "job-oom" in text and "✗" in text

    def test_max_jobs_truncation(self):
        jobs = [make_job(f"j{i}", duration=10.0, submit_time=float(i)) for i in range(6)]
        result = run_recorded(jobs)
        text = render_gantt(result.log, width=30, max_jobs=3)
        assert "3 more jobs not shown" in text

    def test_width_validation(self):
        with pytest.raises(ValidationError):
            render_gantt([transition(0.0, "submit", "a")], width=5)

    def test_empty_timeline(self):
        assert "(empty timeline)" in render_gantt([])

    def test_round_robin_visible(self):
        jobs = [
            make_job(f"j{i}", num_gpus=8, duration=2000.0, submit_time=i * 100.0,
                     preemptible=True)
            for i in range(3)
        ]
        result = run_recorded(jobs, scheduler=GangScheduler(quantum_s=500.0))
        text = render_gantt(result.log, width=60)
        # Every job alternates running/queued at least once.
        for line in text.splitlines()[1:4]:
            body = line.split("|")[1]
            assert "█" in body and "·" in body


class TestSingleSource:
    """The transition log is every run's timeline: no flag records it."""

    def test_default_run_renders_gantt_from_log(self):
        result = ClusterSimulator(
            uniform_cluster(1, gpus_per_node=8),
            GreedyFifoScheduler(),
            Trace([make_job("a", duration=600.0), make_job("b", duration=60.0)]),
            config=SimConfig(),
        ).run()
        text = render_gantt(result.log, width=20)
        assert text.startswith("gantt: 2 jobs")
        assert "✓" in text

    def test_countonly_run_still_reports_exact_counts(self):
        jobs = [
            make_job("a", duration=100.0),
            make_job("huge", num_gpus=9),  # rejected: infeasible on one node
        ]
        result = run_recorded(jobs, record_transitions=False)
        assert list(result.log) == []
        assert render_gantt(result.log) == "(empty timeline)\n"
        assert result.metrics.rejected_jobs == 1
        line = next(
            line for line in run_report(result).splitlines()
            if line.startswith("control plane:")
        )
        assert line == (
            "control plane: 4 lifecycle transitions"
            " (admit=1, complete=1, place=1, reject=1)"
        )
