"""Incremental hot path: relax epochs, blocked-verdict cache, release ledger.

Pins the invariants the fleet-scale optimizations rest on:

1. ``ClusterIndex.relax_epoch`` ticks exactly on capacity-*increasing*
   events (free on a healthy node, repair) — never on allocations or
   failures, which only shrink the fit set.
2. ``Scheduler.try_place`` answers repeat failures from the blocked cache
   while the epoch is unchanged, without consulting the placement policy —
   the fix for a retry storm in which a 1024-GPU run made 6x more
   placement attempts than a 2048-GPU one.
3. The backfill release ledger reproduces the scalar
   ``_release_schedule`` scan.
4. The cluster index keeps a placement attempt's scan far below the
   cluster size on a realistic loaded run.
"""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.experiments.common import run_policy
from repro.sched import EasyBackfillScheduler, FifoScheduler, make_scheduler
from repro.sched.backfill import _release_schedule
from repro.sched.base import ScheduleContext
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import Trace
from repro.workload.fleet import fleet_trace
from repro.workload.models import assign_models
from repro.workload.synth import TraceSynthesizer, tacc_campus, with_load
from tests.conftest import make_job


class TestRelaxEpoch:
    def test_allocate_does_not_tick(self, small_cluster):
        index = small_cluster.index
        before = index.relax_epoch("v100"), index.relax_epoch(None)
        small_cluster.allocate("j1", {"v100-000": 4})
        assert (index.relax_epoch("v100"), index.relax_epoch(None)) == before

    def test_free_ticks_type_and_global(self, small_cluster):
        index = small_cluster.index
        small_cluster.allocate("j1", {"v100-000": 4})
        typed = index.relax_epoch("v100")
        untyped = index.relax_epoch(None)
        small_cluster.free("j1")
        assert index.relax_epoch("v100") == typed + 1
        assert index.relax_epoch(None) == untyped + 1

    def test_failure_does_not_tick_repair_does(self, small_cluster):
        index = small_cluster.index
        before = index.relax_epoch("v100")
        small_cluster.fail_node("v100-000")
        assert index.relax_epoch("v100") == before
        small_cluster.repair_node("v100-000")
        assert index.relax_epoch("v100") == before + 1

    def test_unknown_type_reads_zero(self, small_cluster):
        assert small_cluster.index.relax_epoch("no-such-gpu") == 0


class TestBlockedVerdictCache:
    """Regression for the 1024-GPU retry storm: on a congested cluster a
    second pass with no capacity change must not rescan any nodes."""

    def _congested_sim(self):
        cluster = uniform_cluster(4, gpus_per_node=8)
        # 4 jobs fill the cluster; 20 more are hopelessly queued behind them.
        jobs = [
            make_job(f"fill-{i}", num_gpus=8, duration=10_000.0, submit_time=0.0)
            for i in range(4)
        ] + [
            make_job(f"wait-{i:02d}", num_gpus=8, duration=100.0, submit_time=1.0 + i)
            for i in range(20)
        ]
        simulator = ClusterSimulator(
            cluster,
            FifoScheduler(),
            Trace(jobs),
            config=SimConfig(sample_interval_s=0.0),
        )
        return simulator

    def test_repeat_pass_hits_cache_without_scanning(self):
        simulator = self._congested_sim()
        # Run until every waiting job has arrived and been scanned once.
        simulator.run(until=100.0)
        perf = simulator.perf
        scans_before = perf.candidate_scans
        hits_before = perf.blocked_cache_hits

        # A pass with zero capacity change since the last one: every queued
        # job's failure verdict is still valid, so no placement scans run.
        ctx = ScheduleContext(
            now=simulator.engine.now,
            cluster=simulator.cluster,
            running=simulator.running,
            start_job=lambda job, placement: None,
            preempt_job=lambda job: None,
        )
        simulator.scheduler.schedule(ctx)
        assert perf.candidate_scans == scans_before
        assert perf.blocked_cache_hits > hits_before

    def test_cache_invalidated_by_free(self):
        simulator = self._congested_sim()
        simulator.run(until=100.0)
        queued_before = simulator.scheduler.queue_depth
        assert queued_before > 0
        # Finishing a running job frees capacity, ticks the relax epoch,
        # and the next pass must re-examine (and start) a queued job.
        simulator.run()
        result_queue = simulator.scheduler.queue_depth
        assert result_queue == 0
        assert all(job.lifecycle.terminal for job in simulator.jobs.values())

    def test_attempts_per_pass_stay_bounded(self):
        """The anomaly signature: attempts growing with passes on a stuck
        queue.  With the cache, a stuck pass costs one cache hit per
        queued job and zero node examinations."""
        simulator = self._congested_sim()
        simulator.run(until=100.0)
        perf = simulator.perf
        examined_before = perf.nodes_examined
        ctx = ScheduleContext(
            now=simulator.engine.now,
            cluster=simulator.cluster,
            running=simulator.running,
            start_job=lambda job, placement: None,
            preempt_job=lambda job: None,
        )
        for _ in range(10):
            simulator.scheduler.schedule(ctx)
        assert perf.nodes_examined == examined_before


class TestIndexBound:
    def test_nodes_per_attempt_stay_below_half_the_cluster(self):
        """A loaded 256-GPU backfill run: before the index, an attempt
        examined most of the nodes; with it, a small fraction."""
        cluster = uniform_cluster(32, gpus_per_node=8)
        config = with_load(tacc_campus(days=2.0), cluster.total_gpus, 0.9, seed=32)
        trace = TraceSynthesizer(config, seed=32).generate()
        assign_models(trace, seed=0)
        result = run_policy(make_scheduler("backfill-easy"), trace, cluster=cluster)
        assert result.perf.placement_attempts > 0
        assert result.perf.nodes_per_attempt < len(cluster.nodes) / 2


class _AuditingEasy(EasyBackfillScheduler):
    """EASY backfill that cross-checks the ledger against the scalar scan
    for every queued job on every pass."""

    audits = 0

    def schedule(self, ctx: ScheduleContext) -> None:
        self._sync_ledger(ctx)
        for job in self._fifo_queue():
            if job.request.allowed_nodes is not None:
                continue
            expected = _release_schedule(ctx, job)
            got = self._ledger.releases(job.request.gpu_type, ctx.now)
            assert len(got) == len(expected)
            for (got_end, got_gpus), (want_end, want_gpus) in zip(got, expected):
                assert got_gpus == want_gpus
                assert got_end == pytest.approx(want_end, abs=1e-6)
            type(self).audits += 1
        super().schedule(ctx)


class TestReleaseLedgerExactness:
    def test_ledger_matches_scalar_scan_through_a_full_run(self):
        _AuditingEasy.audits = 0
        cluster = uniform_cluster(6, gpus_per_node=8)
        trace = fleet_trace(tacc_campus(days=1.0, jobs_per_day=400.0), seed=11)
        simulator = ClusterSimulator(
            cluster,
            _AuditingEasy(),
            trace,
            config=SimConfig(sample_interval_s=0.0, audit=True),
        )
        result = simulator.run()
        assert _AuditingEasy.audits > 50  # the comparison actually ran
        assert result.metrics.jobs_completed > 0

    def test_ledger_survives_preemption_requeue(self, small_cluster):
        """A requeued job must leave the ledger (on_enqueue discard)."""
        scheduler = EasyBackfillScheduler()
        job = make_job("r", num_gpus=8, duration=500.0, walltime_estimate=1000.0)
        small_cluster.allocate("r", {"v100-000": 8})
        job.start(0.0, ("v100-000",))
        ctx = ScheduleContext(
            now=0.0,
            cluster=small_cluster,
            running={"r": job},
            start_job=lambda *a: None,
            preempt_job=lambda *a: None,
        )
        scheduler._sync_ledger(ctx)
        assert len(scheduler._ledger) == 1
        small_cluster.free("r")
        job.preempt(10.0)
        scheduler.enqueue(job, 10.0)
        assert len(scheduler._ledger) == 0

    def test_reservation_counters_split_by_path(self):
        cluster = uniform_cluster(2, gpus_per_node=8)
        jobs = [
            make_job("run", num_gpus=16, gpus_per_node=8, duration=1000.0,
                     submit_time=0.0, walltime_estimate=1000.0),
            make_job("head", num_gpus=16, gpus_per_node=8, duration=100.0,
                     submit_time=1.0, walltime_estimate=100.0),
        ]
        simulator = ClusterSimulator(
            cluster,
            EasyBackfillScheduler(),
            Trace(jobs),
            config=SimConfig(sample_interval_s=0.0),
        )
        simulator.run()
        perf = simulator.perf
        assert perf.reservations_incremental > 0
        assert perf.reservations_scanned == 0
