"""Snapshot/fork round-trips: a forked sim must reproduce the original run.

The acceptance bar for mid-run forking: fork a live simulation at an
arbitrary instant, run both the original and the fork to completion, and
every summary metric — floats included — must match exactly.  Anything
less means the fork shares mutable state or dropped RNG/event-queue
state, and what-if analysis built on it would silently lie.
"""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.controlplane import fork, snapshot
from repro.ops import what_if
from repro.sched import GreedyFifoScheduler, make_scheduler
from repro.sim import ClusterSimulator, FailureConfig, SimConfig
from repro.workload import Trace, synthesize


def build_sim(seed: int = 0, failure: bool = True) -> ClusterSimulator:
    trace = synthesize("tacc-campus", days=1.0, seed=seed, jobs_per_day=120)
    cluster = uniform_cluster(4, gpus_per_node=8)
    failure_config = FailureConfig(mtbf_hours=40.0, max_job_restarts=2) if failure else None
    return ClusterSimulator(
        cluster,
        make_scheduler("backfill-easy"),
        trace,
        failure_config=failure_config,
        config=SimConfig(sample_interval_s=1800.0, seed=seed, provisioning=True),
    )


MID_RUN_S = 6 * 3600.0


class TestForkRoundTrip:
    def test_fork_reproduces_original_exactly(self):
        original = build_sim()
        original.engine.run(until=MID_RUN_S)
        forked = fork(original)
        assert forked is not original
        assert forked.engine.now == original.engine.now
        original_summary = original.run().summary()
        forked_summary = forked.run().summary()
        assert forked_summary == original_summary

    def test_fork_plus_resume_equals_uninterrupted_run(self):
        """run(full) == run(half) + fork + run(rest), metric for metric."""
        uninterrupted = build_sim().run().summary()
        half = build_sim()
        half.engine.run(until=MID_RUN_S)
        resumed = fork(half).run().summary()
        assert resumed == uninterrupted

    def test_fork_isolation_both_directions(self):
        original = build_sim()
        original.engine.run(until=MID_RUN_S)
        before = (
            original.engine.now,
            original.engine.events_processed,
            original.cluster.free_gpus,
            sorted(original.running),
        )
        forked = fork(original)
        forked.run()  # drive the fork to quiescence
        # The original is untouched by the fork's entire future...
        assert (
            original.engine.now,
            original.engine.events_processed,
            original.cluster.free_gpus,
            sorted(original.running),
        ) == before
        # ...and shares no live mutable structures with it.
        assert forked.jobs is not original.jobs
        assert forked.cluster is not original.cluster
        assert forked.controller is not original.controller
        assert forked.rng is not original.rng

    def test_fork_preserves_internal_aliasing(self):
        forked = fork(build_sim())
        # The simulator's views must still alias the controller's state...
        assert forked.jobs is forked.controller.jobs
        assert forked.running is forked.controller.running
        # ...and the perf counters stay shared with the cluster index.
        assert forked.cluster.index.perf is forked.perf

    def test_forked_serving_fleet_reproduces(self):
        from repro.experiments.common import campus_trace, run_policy
        from repro.experiments.serving import serving_quota, serving_workload
        from repro.sched import TieredQuotaScheduler
        from repro.serving import AutoscalerConfig, ServingFleet

        def build():
            trace = campus_trace(0, 0.25, days=0.5)
            fleet = ServingFleet(
                serving_workload(1.0), days=0.5, autoscaler=AutoscalerConfig(enabled=True)
            )
            from repro.cluster import build_tacc_cluster

            return ClusterSimulator(
                build_tacc_cluster(),
                TieredQuotaScheduler(serving_quota(trace)),
                trace,
                serving=fleet,
                config=SimConfig(sample_interval_s=1800.0),
            )

        original = build()
        original.engine.run(until=4 * 3600.0)
        forked = fork(original)
        assert forked.serving is forked.controller.serving
        assert forked.serving is not original.serving
        assert forked.run().summary() == original.run().summary()


class TestSnapshotRestore:
    def test_restore_twice_identical(self):
        sim = build_sim()
        sim.engine.run(until=MID_RUN_S)
        snap = snapshot(sim, label="mid-run")
        assert snap.label == "mid-run"
        assert snap.time == sim.engine.now
        assert snap.events_processed == sim.engine.events_processed
        first = snap.restore().run().summary()
        second = snap.restore().run().summary()
        assert first == second

    def test_snapshot_frozen_against_original_progress(self):
        sim = build_sim()
        sim.engine.run(until=MID_RUN_S)
        snap = snapshot(sim)
        expected = fork(sim).run().summary()
        sim.run()  # drive the original far past the snapshot point
        assert snap.restore().run().summary() == expected

    def test_warm_start_skips_ramp_up(self):
        """Benchmark warm-start: restore resumes exactly where capture left off."""
        sim = build_sim()
        sim.engine.run(until=MID_RUN_S)
        snap = snapshot(sim)
        restored = snap.restore()
        assert restored.engine.now == MID_RUN_S
        assert restored.engine.events_processed == snap.events_processed
        assert sorted(restored.running) == sorted(sim.running)


class TestWhatIf:
    def test_what_if_baseline_matches_and_original_untouched(self):
        sim = build_sim(failure=False)
        sim.engine.run(until=MID_RUN_S)
        now, events = sim.engine.now, sim.engine.events_processed
        expected = fork(sim).run().summary()

        def kill_widest(s: ClusterSimulator) -> None:
            live = [j for j in s.jobs.values() if not j.lifecycle.terminal]
            assert live
            for job in sorted(live, key=lambda j: (-j.num_gpus, j.job_id))[:3]:
                s.kill_job(job.job_id)

        rows = what_if(sim, {"kill-widest": kill_widest})
        assert [row["option"] for row in rows] == ["as-is", "kill-widest"]
        baseline = rows[0]
        assert baseline["completed"] == expected["completed"]
        assert baseline["avg_wait_h"] == expected["avg_wait_h"]
        assert baseline["utilization"] == expected["utilization"]
        # The intervention changed the future; the original sim did not move.
        assert rows[1]["completed"] != rows[0]["completed"]
        assert (sim.engine.now, sim.engine.events_processed) == (now, events)

    def test_what_if_horizon_bounds_the_forks(self):
        sim = build_sim(failure=False)
        sim.engine.run(until=MID_RUN_S)
        rows = what_if(sim, {}, horizon_s=3600.0)
        assert len(rows) == 1  # just the as-is baseline
        assert sim.engine.now == MID_RUN_S


class TestForkedFrontend:
    def test_tcloud_frontend_sim_is_forkable(self):
        """A live tcloud session can be forked for offline what-if."""
        from repro.schema.taskspec import ResourceSpec, TaskSpec
        from repro.tcloud.frontend import TaccFrontend

        frontend = TaccFrontend()
        spec = TaskSpec(
            name="fk",
            entrypoint="python train.py",
            resources=ResourceSpec(num_gpus=2, walltime_hours=2.0),
        )
        job_id, _c, _w = frontend.submit(spec, duration_hint_s=1800.0)
        forked = fork(frontend.sim)
        forked.engine.run(until=forked.engine.now + 3 * 3600.0)
        assert forked.jobs[job_id].lifecycle.terminal
        assert not frontend.sim.jobs[job_id].lifecycle.terminal
