"""Tests for the job model and its lifecycle state machine."""

from __future__ import annotations

import pytest

from repro.errors import JobStateError, ValidationError
from repro.workload import (
    FailureCategory,
    FailurePlan,
    JobTier,
    LifecycleState,
    ResourceRequest,
)
from tests.conftest import make_job


class TestResourceRequest:
    def test_defaults(self):
        request = ResourceRequest(num_gpus=4)
        assert request.gpus_per_node is None
        assert request.num_nodes_min == 1

    def test_multi_node_shape(self):
        request = ResourceRequest(num_gpus=16, gpus_per_node=8)
        assert request.num_nodes_min == 2

    def test_non_multiple_rejected(self):
        with pytest.raises(ValidationError, match="multiple"):
            ResourceRequest(num_gpus=12, gpus_per_node=8)

    def test_small_job_with_larger_cap_allowed(self):
        request = ResourceRequest(num_gpus=4, gpus_per_node=8)
        assert request.num_nodes_min == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_positive_gpus(self, bad):
        with pytest.raises(ValidationError):
            ResourceRequest(num_gpus=bad)

    def test_negative_per_gpu_asks_rejected(self):
        with pytest.raises(ValidationError):
            ResourceRequest(num_gpus=1, cpus_per_gpu=-1)


class TestFailurePlan:
    def test_valid_fraction(self):
        FailurePlan(FailureCategory.OOM, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.1])
    def test_invalid_fraction(self, bad):
        with pytest.raises(ValidationError):
            FailurePlan(FailureCategory.OOM, bad)


class TestJobConstruction:
    def test_defaults_derived(self):
        job = make_job()
        assert job.lifecycle.queued
        assert job.walltime_estimate == job.duration
        assert job.preemptible is False  # guaranteed tier
        assert job.remaining_work == job.duration

    def test_opportunistic_preemptible_by_default(self):
        job = make_job(tier=JobTier.OPPORTUNISTIC)
        assert job.preemptible is True

    def test_explicit_preemptible_wins(self):
        job = make_job(tier=JobTier.GUARANTEED, preemptible=True)
        assert job.preemptible is True

    def test_invalid_duration(self):
        with pytest.raises(ValidationError):
            make_job(duration=0.0)

    def test_negative_submit_time(self):
        with pytest.raises(ValidationError):
            make_job(submit_time=-1.0)


class TestLifecycle:
    def test_happy_path_metrics(self):
        job = make_job(duration=100.0, submit_time=10.0)
        job.start(30.0, ("n1",), slowdown=1.0)
        job.complete(130.0)
        assert job.lifecycle is LifecycleState.FINISHED
        assert job.wait_time == 20.0
        assert job.jct == 120.0
        assert job.remaining_work == 0.0
        assert job.gpu_seconds_used == pytest.approx(100.0)

    def test_slowdown_stretches_wall_time(self):
        job = make_job(duration=100.0, num_gpus=2)
        job.start(0.0, ("n1",), slowdown=2.0)
        # After 100 wall seconds at 2x slowdown only half the work is done.
        job.preempt(100.0, checkpoint_loss=0.0)
        assert job.remaining_work == pytest.approx(50.0)
        assert job.gpu_seconds_used == pytest.approx(200.0)

    def test_preempt_checkpoint_loss(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        job.preempt(60.0, checkpoint_loss=10.0)
        assert job.remaining_work == pytest.approx(50.0)
        assert job.preemptions == 1
        assert job.lifecycle.queued

    def test_checkpoint_loss_never_exceeds_duration(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        job.preempt(1.0, checkpoint_loss=1e9)
        assert job.remaining_work == pytest.approx(100.0)

    def test_resume_after_preemption(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        job.preempt(40.0)
        job.start(50.0, ("n2",))
        job.complete(110.0)
        assert job.attempts == 2
        assert job.first_start_time == 0.0
        assert job.wait_time == 0.0  # measured to FIRST start

    def test_requeue_discards_attempt_work(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        job.requeue(30.0)
        assert job.remaining_work == pytest.approx(100.0)
        assert job.gpu_seconds_used == pytest.approx(30.0)  # wasted but spent
        assert job.preemptions == 0  # requeue is not a preemption

    def test_fail_records_category(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        job.fail(20.0, FailureCategory.OOM)
        assert job.lifecycle is LifecycleState.FAILED
        assert job.failure_category is FailureCategory.OOM
        assert job.end_time == 20.0

    def test_kill_from_queue(self):
        job = make_job()
        job.kill(5.0)
        assert job.lifecycle is LifecycleState.KILLED
        assert job.wait_time is None

    def test_kill_while_running(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        job.kill(10.0)
        assert job.lifecycle is LifecycleState.KILLED
        assert job.gpu_seconds_used == pytest.approx(10.0)

    def test_complete_requires_exhausted_work(self):
        job = make_job(duration=100.0)
        job.start(0.0, ("n1",))
        with pytest.raises(JobStateError, match="remaining"):
            job.complete(50.0)

    def test_illegal_transitions(self):
        job = make_job()
        with pytest.raises(JobStateError):
            job.complete(1.0)  # not running
        job.start(0.0, ("n1",))
        with pytest.raises(JobStateError):
            job.start(1.0, ("n1",))  # already running
        job.complete(job.duration)
        with pytest.raises(JobStateError):
            job.kill(1e9)  # terminal

    def test_start_before_submit_rejected(self):
        job = make_job(submit_time=100.0)
        with pytest.raises(JobStateError, match="before submission"):
            job.start(50.0, ("n1",))

    def test_nonpositive_slowdown_rejected(self):
        job = make_job()
        with pytest.raises(ValidationError):
            job.start(0.0, ("n1",), slowdown=0.0)

    def test_negative_setup_rejected_before_any_write(self):
        job = make_job()
        with pytest.raises(ValidationError, match="setup_s"):
            job.start(0.0, ("n1",), setup_s=-1.0)
        assert job.lifecycle is LifecycleState.PENDING
        assert job.attempts == 0
        assert job.first_start_time is None and job.last_start_time is None


class TestEstimates:
    def test_estimated_remaining_queued(self):
        job = make_job(duration=100.0, walltime_estimate=400.0)
        assert job.estimated_remaining(50.0) == 400.0

    def test_estimated_remaining_running_decreases(self):
        job = make_job(duration=100.0, walltime_estimate=400.0)
        job.start(0.0, ("n1",))
        assert job.estimated_remaining(150.0) == pytest.approx(250.0)
        assert job.estimated_remaining(500.0) == 0.0  # clamped

    def test_expected_runtime_scales_with_slowdown(self):
        job = make_job(duration=100.0)
        assert job.expected_runtime(1.5) == pytest.approx(150.0)
