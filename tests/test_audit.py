"""The simulator's audits: each one fires on a broken run, and none perturbs.

Every run ends with an audit (GPU-seconds conservation, nothing left
behind once the event queue drains, the workflow critical-path bound);
``SimConfig(audit=True)`` adds a per-checkpoint audit of the cluster
books, the placement policy's books and the scheduler queue.  Each test
below breaks a run from the outside (a monkeypatch or a corrupted
bookkeeping structure), never by editing the simulator.
"""

from __future__ import annotations

import pytest

from repro.cluster import heterogeneous_cluster, uniform_cluster
from repro.errors import PlacementError, SimulationError
from repro.execlayer import ExecutionModel, UnitExecutionModel
from repro.sched import make_scheduler
from repro.sched.placement.hived import BuddyCellPlacement
from repro.sim import ClusterSimulator, FailureConfig, SimConfig
from repro.sim.events import JobFinish
from repro.workload import Trace
from repro.workload.models import assign_models
from repro.workload.synth import TraceSynthesizer, tacc_campus, with_load
from tests.conftest import make_job


def _sim(jobs, *, audit=False, scheduler="fifo", exec_model=None, gpus_per_node=8):
    return ClusterSimulator(
        uniform_cluster(1, gpus_per_node=gpus_per_node),
        make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler,
        Trace(jobs),
        exec_model=exec_model or UnitExecutionModel(),
        config=SimConfig(sample_interval_s=0.0, audit=audit),
    )


class TestEndOfRunAudit:
    def test_clean_run_passes(self):
        sim = _sim([make_job("a", num_gpus=4), make_job("b", num_gpus=8, submit_time=5.0)])
        result = sim.run()
        assert sim.engine.pending == 0
        assert all(job.lifecycle.terminal for job in result.jobs.values())

    def test_conservation_fires_when_a_job_is_overcharged(self):
        a = make_job("a", num_gpus=4, duration=100.0)
        sim = _sim([a, make_job("b", num_gpus=2, duration=50.0)])
        a.gpu_seconds_used = 50.0  # charged for GPU time it never held
        with pytest.raises(SimulationError, match="not conserved"):
            sim.run()

    def test_conservation_counts_the_live_attempt_of_a_running_job(self):
        sim = _sim([make_job("a", num_gpus=4, duration=1000.0)])
        result = sim.run(until=400.0)
        job = result.jobs["a"]
        assert job.gpu_seconds_used == 0.0  # nothing charged until the attempt ends
        assert result.metrics.served_gpu_hours * 3600.0 == pytest.approx(400.0 * 4)

    def test_drain_fires_when_a_job_is_left_running(self, monkeypatch):
        sim = _sim([make_job("a", num_gpus=4), make_job("b", num_gpus=2)])
        schedule_in = sim.engine.schedule_in

        def drop_finish_of_a(delay, event):
            if isinstance(event, JobFinish) and event.job_id == "a":
                return
            schedule_in(delay, event)

        monkeypatch.setattr(sim.engine, "schedule_in", drop_finish_of_a)
        with pytest.raises(SimulationError, match="drained with job a still running"):
            sim.run()
        assert sim.engine.pending == 0
        assert sim.cluster.used_gpus == 4

    def test_drain_is_not_checked_while_events_remain(self):
        sim = _sim([make_job("a", duration=100.0), make_job("b", submit_time=500.0)])
        result = sim.run(until=50.0)
        assert sim.engine.pending > 0
        assert not result.jobs["a"].lifecycle.terminal

    def test_workflow_beating_its_critical_path_fires(self, monkeypatch):
        stages = [
            make_job("a", duration=100.0, workflow_id="wf"),
            make_job("b", duration=100.0, submit_time=1.0, workflow_id="wf", depends_on=("a",)),
        ]
        sim = _sim(stages)
        # Stages run twice as fast as their nominal duration: the makespan
        # (~100 s) beats the 200 s critical path.
        monkeypatch.setattr(sim.exec_model, "slowdown", lambda job, placement, cluster: 0.5)
        with pytest.raises(SimulationError, match="critical-path lower bound"):
            sim.run()

    def test_workflow_bound_is_skipped_off_the_unit_model(self, monkeypatch):
        stages = [
            make_job("a", duration=100.0, workflow_id="wf"),
            make_job("b", duration=100.0, submit_time=1.0, workflow_id="wf", depends_on=("a",)),
        ]
        model = ExecutionModel()
        monkeypatch.setattr(model, "slowdown", lambda job, placement, cluster: 0.5)
        result = _sim(stages, exec_model=model).run()
        assert result.metrics.workflow is not None
        assert result.metrics.workflow.min_slack_s < 0


class TestCheckpointAudit:
    def _held_stage_trace(self):
        return [
            make_job("up", num_gpus=8, duration=100.0),
            make_job("held", num_gpus=8, submit_time=1.0, depends_on=("up",)),
            make_job("other", num_gpus=8, submit_time=2.0),
        ]

    def test_held_job_in_scheduler_queue_fires(self, monkeypatch):
        sim = _sim(self._held_stage_trace(), audit=True)
        hold_for_deps = sim.controller.hold_for_deps

        def hold_and_leak(now, job, unmet):
            hold_for_deps(now, job, unmet)
            sim.scheduler.enqueue(job, now)

        monkeypatch.setattr(sim.controller, "hold_for_deps", hold_and_leak)
        with pytest.raises(SimulationError, match="held job held leaked"):
            sim.run()

    def test_held_stage_passes_the_audit(self):
        result = _sim(self._held_stage_trace(), audit=True).run()
        assert all(job.lifecycle.terminal for job in result.jobs.values())

    def test_corrupt_buddy_cell_books_fire_mid_run(self, monkeypatch):
        placement = BuddyCellPlacement()
        jobs = [make_job(f"j{i}", num_gpus=2, submit_time=10.0 * i) for i in range(4)]
        sim = _sim(jobs, audit=True, scheduler=make_scheduler("fifo", placement=placement))
        on_allocate = placement.on_allocate

        def allocate_and_corrupt(cluster, job_id, granted):
            on_allocate(cluster, job_id, granted)
            node_id, cell_size, offset = placement._job_cells[job_id][0]
            placement._job_cells[job_id].append((node_id, cell_size, offset))

        monkeypatch.setattr(placement, "on_allocate", allocate_and_corrupt)
        with pytest.raises(PlacementError, match="cells account for"):
            sim.run()
        assert sim.engine.now == 0.0  # the first pass's audit caught it

    def test_buddy_cell_run_passes_the_audit(self):
        placement = BuddyCellPlacement()
        jobs = [make_job(f"j{i}", num_gpus=1 + i % 3, submit_time=10.0 * i) for i in range(8)]
        result = _sim(jobs, audit=True, scheduler=make_scheduler("fifo", placement=placement)).run()
        assert all(job.lifecycle.terminal for job in result.jobs.values())


def _campus_congested(audit: bool) -> ClusterSimulator:
    """The campus-congested episode: 2 days of tacc_campus at 1.2x load on a
    heterogeneous 32 x 8-GPU cluster, best-fit backfill-easy, node failures."""
    nodes, gpus_per_node = 32, 8
    config = with_load(tacc_campus(days=2.0), nodes * gpus_per_node, 1.2)
    trace = TraceSynthesizer(config, seed=0).generate()
    assign_models(trace, seed=0)
    return ClusterSimulator(
        heterogeneous_cluster(nodes, gpus_per_node=gpus_per_node),
        make_scheduler("backfill-easy", placement="best-fit"),
        trace,
        exec_model=ExecutionModel(),
        failure_config=FailureConfig(),
        config=SimConfig(sample_interval_s=1800.0, audit=audit),
    )


def _work_counters(sim: ClusterSimulator) -> dict[str, int]:
    perf = sim.perf
    return {
        "events": sim.engine.events_processed,
        "scheduler_passes": perf.scheduler_passes,
        "placement_attempts": perf.placement_attempts,
        "nodes_examined": perf.nodes_examined,
        "blocked_hits": perf.blocked_cache_hits,
        "reservations": perf.reservations_incremental + perf.reservations_scanned,
        "transitions": len(sim.controller.log),
    }


def test_auditing_never_perturbs_a_campus_congested_episode():
    plain, audited = _campus_congested(audit=False), _campus_congested(audit=True)
    plain_result, audited_result = plain.run(), audited.run()
    assert audited_result.summary() == plain_result.summary()
    assert audited_result.log.by_cause() == plain_result.log.by_cause()
    assert _work_counters(audited) == _work_counters(plain)
    assert plain_result.metrics.node_failures > 0
