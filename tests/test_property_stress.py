"""Property-based stress tests: whole-system invariants under random load.

Hypothesis generates small random workloads and drives them through every
scheduler; the assertions are the invariants no policy may break:

* the cluster's allocation books always balance (audited every event);
* every job ends in a terminal state once the event queue drains;
* no job starts before submission, finishes before it starts, or is
  granted GPUs outside its request;
* GPU-seconds served are conserved for completed rigid jobs;
* identical seeds replay identically for every policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.execlayer import UnitExecutionModel
from repro.sched import SCHEDULERS, QuotaConfig, TieredQuotaScheduler, make_scheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import JobTier, LifecycleState, Trace
from tests.conftest import make_job

job_strategy = st.builds(
    dict,
    num_gpus=st.sampled_from([1, 1, 2, 4, 8]),
    duration=st.floats(30.0, 20_000.0),
    submit_offset=st.floats(0.0, 40_000.0),
    tier=st.sampled_from(list(JobTier)),
    estimate_factor=st.floats(1.0, 5.0),
)


def build_trace(job_dicts):
    jobs = []
    for index, spec in enumerate(job_dicts):
        jobs.append(
            make_job(
                f"job-{index:04d}",
                num_gpus=spec["num_gpus"],
                duration=spec["duration"],
                submit_time=spec["submit_offset"],
                tier=spec["tier"],
                walltime_estimate=spec["duration"] * spec["estimate_factor"],
                user=f"user-{index % 5}",
                lab=f"lab-{index % 3}",
            )
        )
    return Trace(jobs)


POLICIES = sorted(SCHEDULERS) + ["tiered-quota"]


def build_scheduler(name):
    if name == "tiered-quota":
        return TieredQuotaScheduler(
            QuotaConfig(quotas={"lab-0": 8, "lab-1": 8, "lab-2": 8})
        )
    return make_scheduler(name)


@settings(max_examples=25, deadline=None)
@given(job_dicts=st.lists(job_strategy, min_size=1, max_size=12), policy=st.sampled_from(POLICIES))
def test_invariants_hold_for_any_workload_and_policy(job_dicts, policy):
    cluster = uniform_cluster(3, gpus_per_node=8)
    trace = build_trace(job_dicts)
    simulator = ClusterSimulator(
        cluster,
        build_scheduler(policy),
        trace,
        exec_model=UnitExecutionModel(),
        config=SimConfig(sample_interval_s=0.0, audit=True, max_events=500_000),
    )
    result = simulator.run(until=30 * 86400.0)
    cluster.verify_invariants()
    for job in result.jobs.values():
        # Terminal (the horizon is far beyond any job's needs) unless a
        # time-slicing policy is still rotating at the horizon.
        if job.lifecycle is LifecycleState.RUNNING:
            assert build_scheduler(policy).tick_interval() is not None or False
        if job.first_start_time is not None:
            assert job.first_start_time >= job.submit_time
        if job.end_time is not None and job.first_start_time is not None:
            assert job.end_time >= job.first_start_time
        if job.lifecycle is LifecycleState.FINISHED:
            assert job.remaining_work == pytest.approx(0.0, abs=1e-6)
            # Rigid jobs at unit slowdown: gpu-seconds = duration × width
            # plus any checkpoint-redone work.
            assert job.gpu_seconds_used >= job.duration * job.num_gpus - 1e-6


@settings(max_examples=10, deadline=None)
@given(job_dicts=st.lists(job_strategy, min_size=2, max_size=10))
def test_every_policy_completes_the_feasible_workload(job_dicts):
    for policy in ("fifo", "sjf", "backfill-easy", "fair-share"):
        cluster = uniform_cluster(3, gpus_per_node=8)
        trace = build_trace(job_dicts)
        result = ClusterSimulator(
            cluster,
            build_scheduler(policy),
            trace,
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0, max_events=500_000),
        ).run()
        assert result.metrics.jobs_unfinished == 0, policy
        assert result.metrics.jobs_completed == len(trace)


@settings(max_examples=8, deadline=None)
@given(
    job_dicts=st.lists(job_strategy, min_size=1, max_size=8),
    policy=st.sampled_from(["backfill-easy", "tiresias", "gang", "tiered-quota", "elastic"]),
)
def test_same_seed_replays_identically(job_dicts, policy):
    def run_once():
        cluster = uniform_cluster(2, gpus_per_node=8)
        trace = build_trace(job_dicts)
        result = ClusterSimulator(
            cluster,
            build_scheduler(policy),
            trace,
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0, seed=7, max_events=500_000),
        ).run(until=20 * 86400.0)
        return [
            (j.job_id, j.lifecycle.value, j.first_start_time, j.end_time, j.attempts)
            for j in result.jobs.values()
        ]

    assert run_once() == run_once()


@settings(max_examples=15, deadline=None)
@given(job_dicts=st.lists(job_strategy, min_size=1, max_size=10))
def test_quota_never_overcharged(job_dicts):
    """At every scheduling instant, charged guaranteed GPUs per lab stay
    within that lab's quota."""
    quota = QuotaConfig(quotas={"lab-0": 8, "lab-1": 8, "lab-2": 8})
    scheduler = TieredQuotaScheduler(quota)
    cluster = uniform_cluster(3, gpus_per_node=8)
    trace = build_trace(job_dicts)
    simulator = ClusterSimulator(
        cluster,
        scheduler,
        trace,
        exec_model=UnitExecutionModel(),
        config=SimConfig(sample_interval_s=0.0, max_events=500_000),
    )

    violations = []
    original_start = simulator._start_job

    def checked_start(now, job, placement):
        original_start(now, job, placement)
        charged: dict[str, int] = {}
        for job_id, lab in scheduler._charged.items():
            if job_id in simulator.running:
                charged[lab] = charged.get(lab, 0) + simulator.running[job_id].num_gpus
        for lab, used in charged.items():
            if used > quota.quotas.get(lab, 0):
                violations.append((now, lab, used))

    simulator._start_job = checked_start
    simulator.run()
    assert not violations


@settings(max_examples=10, deadline=None)
@given(job_dicts=st.lists(job_strategy, min_size=2, max_size=10))
def test_invariants_with_every_feature_enabled(job_dicts):
    """Storage staging + provisioning + walltime enforcement + preemption
    limits + failure injection + timeline recording, all at once."""
    from repro.execlayer import SharedFilesystem, StorageConfig
    from repro.sim import FailureConfig

    cluster = uniform_cluster(3, gpus_per_node=8)
    jobs = []
    for index, spec in enumerate(job_dicts):
        jobs.append(
            make_job(
                f"job-{index:04d}",
                num_gpus=spec["num_gpus"],
                duration=spec["duration"],
                submit_time=spec["submit_offset"],
                tier=spec["tier"],
                walltime_estimate=spec["duration"] * spec["estimate_factor"],
                dataset_gb=5.0,
                model_name="resnet50",
                user=f"user-{index % 4}",
                lab=f"lab-{index % 2}",
            )
        )
    simulator = ClusterSimulator(
        cluster,
        build_scheduler("tiered-quota"),
        Trace(jobs),
        exec_model=UnitExecutionModel(),
        storage=SharedFilesystem(StorageConfig()),
        failure_config=FailureConfig(mtbf_hours=48.0, repair_hours_median=0.2),
        config=SimConfig(
            sample_interval_s=0.0,
            audit=True,
            provisioning=True,
            enforce_walltime=True,
            max_job_preemptions=3,
            seed=11,
            max_events=500_000,
        ),
    )
    result = simulator.run(until=60 * 86400.0)
    cluster.verify_invariants()
    # Timeline is consistent with final states.
    from repro.ops import job_segments

    segments = job_segments(result.log)
    for job in result.jobs.values():
        if job.first_start_time is not None and job.lifecycle is not LifecycleState.RUNNING:
            assert any(s.state == "running" for s in segments.get(job.job_id, []))


def test_headline_ordering_robust_across_seeds():
    """The T2 claim (FIFO worst on mean wait) must not be a seed artifact."""
    from repro.cluster import build_tacc_cluster
    from repro.execlayer import ExecutionModel
    from repro.sim import simulate
    from repro.workload import TraceSynthesizer, assign_models, tacc_campus, with_load

    for seed in (101, 202):
        config = with_load(tacc_campus(days=1.5), 176, 1.0, seed=seed)
        waits = {}
        for policy in ("fifo", "sjf", "backfill-easy"):
            trace = TraceSynthesizer(config, seed=seed).generate()
            assign_models(trace, seed=seed)
            result = simulate(
                build_tacc_cluster(),
                build_scheduler(policy),
                trace,
                exec_model=ExecutionModel(),
                config=SimConfig(sample_interval_s=0.0),
            )
            waits[policy] = result.metrics.wait_mean_s
        assert waits["sjf"] <= waits["fifo"], seed
        assert waits["backfill-easy"] <= waits["fifo"], seed
