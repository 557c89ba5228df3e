"""Tests for the preemptive policies: gang time-slicing, Tiresias LAS,
and the tiered-quota scheduler."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.errors import QuotaError
from repro.sched import GangScheduler, QuotaConfig, TieredQuotaScheduler, TiresiasScheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import JobTier, LifecycleState, Trace
from tests.conftest import make_job


def run_trace(scheduler, jobs, num_nodes=1, until=None):
    cluster = uniform_cluster(num_nodes, gpus_per_node=8)
    simulator = ClusterSimulator(
        cluster,
        scheduler,
        Trace(list(jobs)),
        config=SimConfig(sample_interval_s=0.0, audit=True, checkpoint_loss_s=0.0),
    )
    return simulator.run(until=until), cluster


class TestGangScheduler:
    def test_time_slices_under_contention(self):
        jobs = [
            make_job("a", num_gpus=8, duration=3600.0, submit_time=0.0, preemptible=True),
            make_job("b", num_gpus=8, duration=3600.0, submit_time=10.0, preemptible=True),
        ]
        result, _ = run_trace(GangScheduler(quantum_s=600.0), jobs)
        # Both complete, and b got a slice long before a finished.
        assert all(job.lifecycle is LifecycleState.FINISHED for job in jobs)
        assert result.metrics.preemptions >= 2
        assert jobs[1].first_start_time < 3600.0

    def test_no_rotation_when_no_queue(self):
        jobs = [make_job("a", num_gpus=8, duration=3000.0, preemptible=True)]
        result, _ = run_trace(GangScheduler(quantum_s=600.0), jobs)
        assert result.metrics.preemptions == 0
        assert jobs[0].attempts == 1

    def test_non_preemptible_jobs_never_sliced(self):
        jobs = [
            make_job("a", num_gpus=8, duration=3600.0, submit_time=0.0, preemptible=False),
            make_job("b", num_gpus=8, duration=100.0, submit_time=10.0, preemptible=True),
        ]
        result, _ = run_trace(GangScheduler(quantum_s=600.0), jobs)
        assert jobs[0].preemptions == 0
        assert jobs[1].first_start_time == pytest.approx(3600.0)

    def test_round_robin_rotation_order(self):
        jobs = [
            make_job(name, num_gpus=8, duration=2000.0, submit_time=i * 1.0, preemptible=True)
            for i, name in enumerate(("a", "b", "c"))
        ]
        run_trace(GangScheduler(quantum_s=500.0), jobs)
        assert all(job.lifecycle is LifecycleState.FINISHED for job in jobs)
        # Everyone ran well before the 6000s a serial schedule would need
        # for the last job's first slice.
        assert max(job.first_start_time for job in jobs) <= 1500.0


class TestTiresias:
    def test_short_job_preempts_service_hog(self):
        scheduler = TiresiasScheduler(queue_threshold_gpu_s=3600.0, tick_s=300.0)
        jobs = [
            # Hog: demoted after 3600/8 = 450s of 8-GPU running.
            make_job("hog", num_gpus=8, duration=20_000.0, submit_time=0.0, preemptible=True),
            make_job("short", num_gpus=8, duration=600.0, submit_time=1000.0, preemptible=True),
        ]
        run_trace(scheduler, jobs)
        assert jobs[0].preemptions >= 1
        # The short job got in long before the hog finished.
        assert jobs[1].first_start_time < 2500.0
        assert all(job.lifecycle is LifecycleState.FINISHED for job in jobs)

    def test_high_queue_job_not_preempted_by_equal(self):
        scheduler = TiresiasScheduler(queue_threshold_gpu_s=1e9)
        jobs = [
            make_job("a", num_gpus=8, duration=1000.0, submit_time=0.0, preemptible=True),
            make_job("b", num_gpus=8, duration=1000.0, submit_time=10.0, preemptible=True),
        ]
        run_trace(scheduler, jobs)
        # Both stay in queue 0 (huge threshold): no preemption, plain FIFO.
        assert jobs[0].preemptions == 0
        assert jobs[1].first_start_time == pytest.approx(1000.0)

    def test_attained_service_accounting(self):
        scheduler = TiresiasScheduler(queue_threshold_gpu_s=100.0)
        job = make_job("a", num_gpus=2, duration=1000.0)
        assert scheduler.attained_service(job, now=0.0) == 0.0
        job.start(0.0, ("n",))
        assert scheduler.attained_service(job, now=30.0) == pytest.approx(60.0)
        assert scheduler.queue_index_running(job, now=30.0) == 0
        assert scheduler.queue_index_running(job, now=60.0) == 1

    def test_starvation_promotion(self):
        scheduler = TiresiasScheduler(
            queue_threshold_gpu_s=10.0, starvation_timeout_s=100.0
        )
        job = make_job("a", num_gpus=1, duration=1000.0)
        job.gpu_seconds_used = 50.0  # past threshold → queue 1
        scheduler.enqueue(job, now=0.0)
        assert scheduler.queue_index(job, now=50.0) == 1
        assert scheduler.queue_index(job, now=150.0) == 0  # promoted


class TestQuotaConfig:
    def test_equal_shares(self):
        config = QuotaConfig.equal_shares(["lab-a", "lab-b"], total_gpus=100, fraction=0.5)
        assert config.quotas == {"lab-a": 25, "lab-b": 25}

    def test_validation(self):
        with pytest.raises(QuotaError):
            QuotaConfig(quotas={"lab": -1})
        with pytest.raises(QuotaError):
            QuotaConfig.equal_shares([], 100)
        with pytest.raises(QuotaError):
            QuotaConfig.equal_shares(["a"], 100, fraction=0.0)


class TestTieredQuota:
    def quota(self, gpus=8):
        return QuotaConfig(quotas={"lab-paid": gpus})

    def test_entitled_job_preempts_opportunistic(self):
        scheduler = TieredQuotaScheduler(self.quota())
        jobs = [
            make_job(
                "free",
                num_gpus=8,
                duration=10_000.0,
                submit_time=0.0,
                lab="lab-free",
                tier=JobTier.OPPORTUNISTIC,
            ),
            make_job(
                "paid",
                num_gpus=8,
                duration=100.0,
                submit_time=500.0,
                lab="lab-paid",
                tier=JobTier.GUARANTEED,
            ),
        ]
        result, _ = run_trace(scheduler, jobs)
        assert jobs[1].first_start_time == pytest.approx(500.0)
        assert jobs[0].preemptions == 1
        assert all(job.lifecycle is LifecycleState.FINISHED for job in jobs)

    def test_guaranteed_never_preempted_within_quota(self):
        scheduler = TieredQuotaScheduler(self.quota())
        jobs = [
            make_job(
                "paid1",
                num_gpus=8,
                duration=5000.0,
                submit_time=0.0,
                lab="lab-paid",
                tier=JobTier.GUARANTEED,
            ),
            make_job(
                "paid2",
                num_gpus=8,
                duration=100.0,
                submit_time=10.0,
                lab="lab-paid",
                tier=JobTier.GUARANTEED,
            ),
        ]
        run_trace(scheduler, jobs)
        assert jobs[0].preemptions == 0
        # paid2 is over quota while paid1 runs; it borrows only if capacity
        # is idle — here there is none, so it waits.
        assert jobs[1].first_start_time == pytest.approx(5000.0)

    def test_over_quota_job_borrows_idle_capacity(self):
        scheduler = TieredQuotaScheduler(self.quota(gpus=8))
        jobs = [
            make_job(
                "paid1", num_gpus=8, duration=5000.0, submit_time=0.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
            make_job(
                "paid2", num_gpus=8, duration=100.0, submit_time=10.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
        ]
        run_trace(scheduler, jobs, num_nodes=2)  # second node idle
        assert jobs[1].first_start_time == pytest.approx(10.0)

    def test_borrower_evicted_when_owner_claims(self):
        config = QuotaConfig(quotas={"lab-paid": 8, "lab-owner": 8})
        scheduler = TieredQuotaScheduler(config)
        jobs = [
            make_job(
                "paid1", num_gpus=8, duration=50_000.0, submit_time=0.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
            # Borrower: lab-paid beyond quota, runs on lab-owner's idle node.
            make_job(
                "borrower", num_gpus=8, duration=50_000.0, submit_time=10.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
            make_job(
                "owner", num_gpus=8, duration=100.0, submit_time=500.0,
                lab="lab-owner", tier=JobTier.GUARANTEED,
            ),
        ]
        result, _ = run_trace(scheduler, jobs, num_nodes=2, until=2000.0)
        assert jobs[1].first_start_time == pytest.approx(10.0)
        assert jobs[2].first_start_time == pytest.approx(500.0)
        assert jobs[1].preemptions == 1  # borrower yielded to the owner

    def test_no_borrowing_when_disabled(self):
        config = QuotaConfig(quotas={"lab-paid": 8}, allow_borrowing=False)
        scheduler = TieredQuotaScheduler(config)
        jobs = [
            make_job(
                "paid1", num_gpus=8, duration=1000.0, submit_time=0.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
            make_job(
                "paid2", num_gpus=8, duration=100.0, submit_time=10.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
        ]
        run_trace(scheduler, jobs, num_nodes=2)
        assert jobs[1].first_start_time == pytest.approx(1000.0)

    def test_reclaim_does_not_churn_when_hopeless(self):
        # The entitled job needs 8 GPUs but only 4 are evictable (the other
        # 4 are held by an entitled job of lab-x): no preemption at all.
        config = QuotaConfig(quotas={"lab-paid": 8, "lab-x": 4})
        scheduler = TieredQuotaScheduler(config)
        jobs = [
            make_job(
                "free", num_gpus=4, duration=10_000.0, submit_time=0.0,
                lab="lab-free", tier=JobTier.OPPORTUNISTIC,
            ),
            make_job(
                "pinned", num_gpus=4, duration=10_000.0, submit_time=0.0,
                lab="lab-x", tier=JobTier.GUARANTEED, preemptible=False,
            ),
            make_job(
                "paid", num_gpus=8, duration=100.0, submit_time=10.0,
                lab="lab-paid", tier=JobTier.GUARANTEED,
            ),
        ]
        result, _ = run_trace(scheduler, jobs, until=5000.0)
        assert result.metrics.preemptions == 0
        assert jobs[2].first_start_time is None

    def test_opportunistic_fifo_among_free_tier(self):
        scheduler = TieredQuotaScheduler(self.quota())
        jobs = [
            make_job(
                f"free{i}", num_gpus=8, duration=100.0, submit_time=float(i),
                lab="lab-free", tier=JobTier.OPPORTUNISTIC,
            )
            for i in range(3)
        ]
        run_trace(scheduler, jobs)
        starts = [job.first_start_time for job in jobs]
        assert starts == sorted(starts)


class TestVictimEligibility:
    def test_tiresias_ignores_wrong_type_victims(self, hetero_cluster):
        """A q0 job pinned to A100s must not evict RTX runs it can't use."""
        from repro.sched.base import ScheduleContext

        scheduler = TiresiasScheduler(queue_threshold_gpu_s=1.0)
        victim = make_job(
            "rtx-hog", num_gpus=4, duration=10_000.0, preemptible=True, gpu_type="rtx3090"
        )
        victim.gpu_seconds_used = 1e6  # demoted to queue 1
        hetero_cluster.allocate("rtx-hog", {"rtx3090-000": 4})
        victim.start(0.0, ("rtx3090-000",))
        # Fill the A100 nodes with non-preemptible work.
        blocker_a = make_job("block-a", num_gpus=8, duration=10_000.0, gpu_type="a100-80")
        blocker_b = make_job("block-b", num_gpus=8, duration=10_000.0, gpu_type="a100-80")
        hetero_cluster.allocate("block-a", {"a100-80-000": 8})
        hetero_cluster.allocate("block-b", {"a100-80-001": 8})
        blocker_a.start(0.0, ("a100-80-000",))
        blocker_b.start(0.0, ("a100-80-001",))
        waiting = make_job("wants-a100", num_gpus=8, duration=100.0, gpu_type="a100-80")
        scheduler.enqueue(waiting, 0.0)
        preempted = []
        ctx = ScheduleContext(
            now=100.0,
            cluster=hetero_cluster,
            running={"rtx-hog": victim, "block-a": blocker_a, "block-b": blocker_b},
            start_job=lambda *a: pytest.fail("cannot start"),
            preempt_job=lambda job: preempted.append(job.job_id),
        )
        scheduler.schedule(ctx)
        assert preempted == []  # the RTX victim frees nothing usable

    @pytest.mark.parametrize("policy", ["tiered-quota", "srtf", "tiresias"])
    def test_partitioned_job_evicts_only_inside_its_partition(self, policy):
        """An entitled job pinned to partition ``pa`` frees ``pa`` capacity.

        Two free-tier runs fill the two nodes, one per partition; the later
        one (first in drain order) sits in ``pb``, whose node the waiting
        job cannot use.  Every preemptive policy must evict only the
        ``pa`` run: one preemption, not two.
        """
        from repro.cluster import PartitionSpec
        from repro.sched import SrtfScheduler

        cluster = uniform_cluster(2, gpus_per_node=8)
        cluster.partitions.add(PartitionSpec("pa", ("v100-000",)))
        cluster.partitions.add(PartitionSpec("pb", ("v100-001",)))
        scheduler = {
            "tiered-quota": lambda: TieredQuotaScheduler(QuotaConfig(quotas={"lab-00": 8})),
            "srtf": SrtfScheduler,
            "tiresias": lambda: TiresiasScheduler(queue_threshold_gpu_s=100.0, tick_s=60.0),
        }[policy]()
        jobs = [
            make_job(
                f"free-{part}",
                num_gpus=8,
                duration=5_000.0,
                submit_time=float(i),
                lab="lab-01",
                tier=JobTier.OPPORTUNISTIC,
                partition=part,
            )
            for i, part in enumerate(("pa", "pb"))
        ]
        jobs.append(
            make_job(
                "entitled",
                num_gpus=8,
                duration=100.0,
                submit_time=600.0,
                tier=JobTier.GUARANTEED,
                partition="pa",
            )
        )
        simulator = ClusterSimulator(
            cluster,
            scheduler,
            Trace(jobs),
            config=SimConfig(sample_interval_s=0.0, audit=True, checkpoint_loss_s=0.0),
        )
        result = simulator.run()
        assert result.metrics.preemptions == 1
        assert [job.preemptions for job in jobs] == [1, 0, 0]
        assert all(job.lifecycle is LifecycleState.FINISHED for job in jobs)
