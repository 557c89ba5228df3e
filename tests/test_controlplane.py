"""Control-plane tests: lifecycle state machine, controller, transition log."""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import uniform_cluster
from repro.controlplane import Actor, Cause, LifecycleState, Transition, TransitionLog
from repro.errors import IllegalTransitionError, JobStateError, SchedulingError
from repro.sched import GreedyFifoScheduler, QuotaConfig, TieredQuotaScheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.sim.metrics import summarize
from repro.workload import FailureCategory, FailurePlan, Trace
from tests.conftest import make_job

#: Minimal (cause, actor) choice per target state, for matrix probing.
_EDGE_LABEL = {
    LifecycleState.ADMITTED: (Cause.ADMIT, Actor.ADMISSION),
    LifecycleState.RUNNING: (Cause.PLACE, Actor.SCHEDULER),
    LifecycleState.PREEMPTED: (Cause.PREEMPT, Actor.SCHEDULER),
    LifecycleState.RESTARTING: (Cause.NODE_FAILURE, Actor.FAILURE_INJECTOR),
    LifecycleState.FINISHED: (Cause.COMPLETE, Actor.SIMULATOR),
    LifecycleState.KILLED: (Cause.USER_KILL, Actor.USER),
    LifecycleState.FAILED: (Cause.INTRINSIC_FAILURE, Actor.SIMULATOR),
    LifecycleState.PENDING: (Cause.ADMIT, Actor.ADMISSION),  # never legal
    LifecycleState.PENDING_DEPS: (Cause.DEPS_HOLD, Actor.ADMISSION),
}


def idle_controller(job):
    """The controller of an empty one-node sim, tracking *job*."""
    sim = ClusterSimulator(
        uniform_cluster(1, gpus_per_node=8),
        GreedyFifoScheduler(),
        Trace([], name="unit"),
        config=SimConfig(sample_interval_s=0.0),
    )
    sim.controller.track(job)
    return sim.controller


class TestLifecycleMatrix:
    """Exhaustive legal/illegal transition matrix over all 81 state pairs."""

    @pytest.mark.parametrize(
        "source,target",
        list(itertools.product(LifecycleState, LifecycleState)),
        ids=lambda s: s.value,
    )
    def test_every_pair(self, source, target):
        job = make_job("job-x")
        controller = idle_controller(job)
        # The move a Job transition method (or admission) has just made;
        # the controller's single transition path then judges the edge.
        job.lifecycle = target
        cause, actor = _EDGE_LABEL[target]
        if target in source.successors:
            transition = controller._apply(1.0, job, source, cause, actor)
            assert transition.source is source
            assert transition.target is target
            assert list(controller.log) == [transition]
        else:
            with pytest.raises(IllegalTransitionError):
                controller._apply(1.0, job, source, cause, actor)
            assert len(controller.log) == 0  # nothing recorded on rejection

    def test_matrix_shape(self):
        # Every failure is decided on a running attempt, or right after an
        # eviction at the preemption limit.
        failed_from = {
            source for source in LifecycleState if LifecycleState.FAILED in source.successors
        }
        assert failed_from == {LifecycleState.RUNNING, LifecycleState.PREEMPTED}

    def test_real_table_has_exactly_seventeen_edges(self):
        legal_count = sum(len(state.successors) for state in LifecycleState)
        assert legal_count == 17

    def test_illegal_transition_is_a_job_state_error(self):
        job = make_job("job-x")
        controller = idle_controller(job)
        job.lifecycle = LifecycleState.RUNNING
        with pytest.raises(JobStateError):
            controller._apply(
                0.0, job, LifecycleState.FINISHED, Cause.PLACE, Actor.SCHEDULER
            )

    def test_terminal_and_queued_sets(self):
        """Both flags derive from ``successors``: terminal states have none,
        and every other state but RUNNING waits for a start."""
        S = LifecycleState
        terminal = {state for state in S if state.terminal}
        queued = {state for state in S if state.queued}
        assert terminal == {S.FINISHED, S.KILLED, S.FAILED}
        assert queued == {S.PENDING, S.PENDING_DEPS, S.ADMITTED, S.PREEMPTED, S.RESTARTING}
        for state in S:
            assert state.terminal is (not state.successors)

    def test_job_stores_one_state(self):
        """``job.lifecycle`` is the job's only state attribute."""
        job = make_job("job-x")
        assert job.lifecycle is LifecycleState.PENDING
        assert job.lifecycle.queued
        job.start(0.0, ("node-0",))
        assert job.lifecycle is LifecycleState.RUNNING
        job.preempt(10.0)
        assert job.lifecycle is LifecycleState.PREEMPTED
        assert job.lifecycle.queued
        job.start(20.0, ("node-0",))
        job.requeue(30.0)
        assert job.lifecycle is LifecycleState.RESTARTING
        job.kill(40.0)
        assert job.lifecycle is LifecycleState.KILLED and job.finished
        assert not hasattr(job, "state")  # no second view to drift from it


class TestTransitionRecords:
    def transition(self, **kwargs) -> Transition:
        defaults = dict(
            job_id="job-1",
            time=7200.0,
            source=LifecycleState.ADMITTED,
            target=LifecycleState.RUNNING,
            cause=Cause.PLACE,
            actor=Actor.SCHEDULER,
            attempt=1,
            detail="gpus=4 nodes=1",
        )
        defaults.update(kwargs)
        return Transition(**defaults)

    def test_timeline_kind_mapping(self):
        assert self.transition().timeline_kind == "start"
        reject = self.transition(
            source=LifecycleState.PENDING,
            target=LifecycleState.KILLED,
            cause=Cause.REJECT,
            actor=Actor.ADMISSION,
        )
        assert reject.timeline_kind == "reject"
        kill = self.transition(
            source=LifecycleState.RUNNING,
            target=LifecycleState.KILLED,
            cause=Cause.USER_KILL,
            actor=Actor.USER,
        )
        assert kill.timeline_kind == "kill"

    def test_oneline_rendering(self):
        line = self.transition().oneline()
        assert "admitted" in line and "running" in line
        assert "cause=place" in line and "actor=scheduler" in line
        assert "[gpus=4 nodes=1]" in line

    def test_log_counts_and_queries(self):
        log = TransitionLog()
        log.append(self.transition())
        log.append(
            self.transition(
                job_id="job-2",
                source=LifecycleState.RUNNING,
                target=LifecycleState.FINISHED,
                cause=Cause.COMPLETE,
                actor=Actor.SIMULATOR,
            )
        )
        assert len(log) == 2
        assert log.count(target=LifecycleState.RUNNING) == 1
        assert log.count(cause=Cause.COMPLETE) == 1
        assert log.count(target=LifecycleState.FINISHED, cause=Cause.COMPLETE) == 1
        assert log.count() == 2
        assert [t.job_id for t in log.for_job("job-2")] == ["job-2"]
        assert log.by_cause() == {"place": 1, "complete": 1}
        # retain_records=False drops the records but no count, and the
        # cause marginal keeps first-seen order across targets.
        log = TransitionLog(retain_records=False)
        edges = [
            (LifecycleState.ADMITTED, Cause.ADMIT),
            (LifecycleState.KILLED, Cause.USER_KILL),
            (LifecycleState.RUNNING, Cause.PLACE),
            (LifecycleState.KILLED, Cause.REJECT),
            (LifecycleState.KILLED, Cause.USER_KILL),
            (LifecycleState.ADMITTED, Cause.ADMIT),
        ]
        for i, (target, cause) in enumerate(edges):
            log.append(self.transition(job_id=f"job-{i}", target=target, cause=cause))
        assert list(log) == [] and log.for_job("job-0") == []
        assert len(log) == log.count() == 6
        assert log.count(target=LifecycleState.KILLED) == 3
        assert log.count(target=LifecycleState.FINISHED) == 0
        assert log.count(cause=Cause.USER_KILL) == 2
        assert log.count(target=LifecycleState.KILLED, cause=Cause.REJECT) == 1
        assert list(log.by_cause().items()) == [
            ("admit", 2),
            ("user_kill", 2),
            ("place", 1),
            ("reject", 1),
        ]


class TestCountOnlyLog:
    """A log that keeps no records counts exactly what one that keeps them
    counts, in the same first-seen order."""

    @staticmethod
    def run_log(record_transitions):
        from repro.sim import FailureConfig

        bad_plan = FailurePlan(FailureCategory.USER_ERROR, at_fraction=0.5)
        jobs = [
            make_job(f"j{i}", num_gpus=4, duration=40_000.0, submit_time=i * 10.0)
            for i in range(8)
        ] + [
            make_job("up-ok", duration=100.0),
            make_job("down-ok", duration=100.0, depends_on=("up-ok",)),
            make_job("up-bad", duration=100.0, failure_plan=bad_plan),
            make_job("down-bad", duration=100.0, depends_on=("up-bad",)),
            make_job("huge", num_gpus=4096, duration=100.0),
        ]
        sim = ClusterSimulator(
            uniform_cluster(2, gpus_per_node=8),
            GreedyFifoScheduler(),
            Trace(jobs, name="unit"),
            failure_config=FailureConfig(mtbf_hours=4.0, max_job_restarts=100),
            config=SimConfig(
                sample_interval_s=0.0,
                seed=1,
                enforce_walltime=True,
                record_transitions=record_transitions,
            ),
        )
        sim.run()
        return sim.controller.log

    def test_counts_match_with_and_without_records(self):
        kept, counted = self.run_log(True), self.run_log(False)
        assert counted.records == [] and len(kept.records) == len(kept)
        assert len(kept) == len(counted)
        for target, cause in itertools.product(LifecycleState, Cause):
            assert kept.count(target, cause) == counted.count(target, cause)
        assert list(kept.by_cause().items()) == list(counted.by_cause().items())
        assert len(kept.by_cause()) >= 9  # the run covers most causes

    def test_merged_keeps_first_seen_order(self):
        first = TransitionLog(retain_records=False)
        first.tally(LifecycleState.KILLED, Cause.USER_KILL)
        first.tally(LifecycleState.ADMITTED, Cause.ADMIT)
        second = TransitionLog(retain_records=False)
        second.tally(LifecycleState.RUNNING, Cause.PLACE)
        second.tally(LifecycleState.ADMITTED, Cause.ADMIT)
        second.tally(LifecycleState.KILLED, Cause.REJECT)
        merged = TransitionLog.merged([first, second])
        assert merged.records == [] and len(merged) == 5
        assert list(merged.by_cause().items()) == [
            ("user_kill", 1),
            ("admit", 2),
            ("place", 1),
            ("reject", 1),
        ]
        assert merged.count(target=LifecycleState.KILLED) == 2
        run = self.run_log(False)
        doubled = TransitionLog.merged([run, self.run_log(True)])
        assert list(doubled.by_cause().items()) == [
            (cause, 2 * count) for cause, count in run.by_cause().items()
        ]


def quota_sim(jobs, **config_kwargs):
    """Two-lab quota sim where lab-b's job borrows lab-a's idle share."""
    cluster = uniform_cluster(2, gpus_per_node=8)
    quota = QuotaConfig.equal_shares(["lab-a", "lab-b"], cluster.total_gpus, fraction=0.5)
    scheduler = TieredQuotaScheduler(quota)
    config = SimConfig(sample_interval_s=0.0, audit=True, **config_kwargs)
    sim = ClusterSimulator(cluster, scheduler, Trace(list(jobs), name="unit"), config=config)
    return sim, scheduler, cluster


class TestControllerPaths:
    def test_full_lifecycle_in_transition_log(self):
        job = make_job("a", duration=100.0, submit_time=5.0, lab="lab-a")
        sim, _sched, _cluster = quota_sim([job])
        sim.run()
        states = [t.target for t in sim.controller.log.for_job("a")]
        assert states == [
            LifecycleState.ADMITTED,
            LifecycleState.RUNNING,
            LifecycleState.FINISHED,
        ]
        assert all(t.job_id == "a" for t in sim.controller.log)

    def test_kill_and_preempt_release_identically(self):
        """kill_job and preempt must leave cluster/index/quota state identical."""
        def borrower():
            # lab-b exceeds its 8-GPU share -> the surplus job is borrowed
            # capacity, evictable via the scheduler's is_preemptible policy.
            return [
                make_job("base", num_gpus=8, duration=9000.0, lab="lab-b"),
                make_job("victim", num_gpus=8, duration=9000.0, lab="lab-b"),
            ]

        observed = {}
        for mode in ("kill", "preempt"):
            sim, scheduler, cluster = quota_sim(borrower())
            sim.engine.run(until=10.0)
            victim = sim.jobs["victim"]
            assert victim.lifecycle is LifecycleState.RUNNING
            assert scheduler.is_preemptible(victim)  # borrowed => reclaimable
            assert not victim.preemptible  # ...without mutating the job itself
            if mode == "kill":
                sim.kill_job("victim")
            else:
                sim.controller.preempt(sim.engine.now, victim)
            cluster.verify_invariants()
            observed[mode] = {
                "free_gpus": cluster.free_gpus,
                "running": sorted(sim.running),
                "charged": dict(scheduler._charged),
                "borrowed": set(scheduler._borrowed),
                "victim_allocated": cluster.holds_job("victim"),
            }
        # Identical release effects; only the job's final state differs.
        assert observed["kill"] == observed["preempt"]
        assert observed["kill"]["victim_allocated"] is False
        assert observed["kill"]["free_gpus"] == 8
        # Both paths scrub the victim's quota state (the old asymmetry).
        assert "victim" not in observed["kill"]["charged"]
        assert "victim" not in observed["kill"]["borrowed"]

    def test_preemption_limit_records_fail_timeline_event(self):
        """Regression: the preemption-limit death used to leave no timeline
        record, so Gantt charts showed the job queued forever."""
        jobs = [
            make_job("victim", num_gpus=8, duration=9000.0, lab="lab-b", submit_time=0.0),
        ]
        sim, _sched, _cluster = quota_sim(jobs, max_job_preemptions=1)
        sim.engine.run(until=5.0)
        victim = sim.jobs["victim"]
        assert victim.lifecycle is LifecycleState.RUNNING
        now = sim.engine.now
        sim.controller.preempt(now, victim)  # 1st preemption: requeued
        assert victim.lifecycle.queued
        sim._run_scheduler_pass(now)  # restarts it as a borrower
        assert victim.lifecycle is LifecycleState.RUNNING
        sim.controller.preempt(now, victim)  # 2nd: over the limit
        assert victim.lifecycle is LifecycleState.FAILED
        records = sim.controller.log.for_job("victim")
        assert [t.timeline_kind for t in records[-2:]] == ["preempt", "fail"]
        last = records[-1]
        assert last.cause is Cause.PREEMPTION_LIMIT
        assert last.target is LifecycleState.FAILED

    def test_illegal_start_raises_scheduling_error(self):
        job = make_job("a", duration=100.0)
        sim, _sched, cluster = quota_sim([job])
        sim.run()
        assert job.lifecycle is LifecycleState.FINISHED
        # Through the start callback schedulers call, which validates once.
        with pytest.raises(SchedulingError):
            sim._start_job(sim.engine.now, job, {next(iter(cluster.nodes)): 1})

    def test_double_admit_raises_illegal_transition(self):
        job = make_job("a", duration=100.0, submit_time=0.0)
        sim, _sched, _cluster = quota_sim([job])
        sim.engine.run(until=1.0)
        with pytest.raises(IllegalTransitionError):
            sim.controller.admit(sim.engine.now, sim.jobs["a"])

    def test_kill_pending_job_then_arrival_is_noop(self):
        job = make_job("late", duration=100.0, submit_time=50.0)
        sim, _sched, _cluster = quota_sim([job])
        sim.kill_job("late")  # cancelled before its arrival event fires
        assert job.lifecycle is LifecycleState.KILLED
        result = sim.run()
        assert job.lifecycle is LifecycleState.KILLED
        assert result.metrics.rejected_jobs == 0
        transitions = sim.controller.log.for_job("late")
        assert [t.target for t in transitions] == [LifecycleState.KILLED]
        assert transitions[0].cause is Cause.USER_KILL

    def test_rejection_attributed_to_admission(self):
        job = make_job("huge", num_gpus=4096, duration=100.0)
        sim, _sched, _cluster = quota_sim([job])
        result = sim.run()
        assert result.metrics.rejected_jobs == 1
        transition = sim.controller.log.for_job("huge")[0]
        assert transition.source is LifecycleState.PENDING
        assert transition.target is LifecycleState.KILLED
        assert transition.cause is Cause.REJECT
        assert transition.actor is Actor.ADMISSION
        assert transition.timeline_kind == "reject"

    def test_node_failure_transitions_attributed_to_injector(self):
        from repro.sim import FailureConfig

        cluster = uniform_cluster(2, gpus_per_node=8)
        jobs = [make_job(f"j{i}", num_gpus=8, duration=200_000.0) for i in range(2)]
        sim = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace(jobs, name="unit"),
            failure_config=FailureConfig(mtbf_hours=2.0, max_job_restarts=100),
            config=SimConfig(sample_interval_s=0.0, seed=3),
        )
        sim.engine.run(until=100 * 3600.0)
        restarts = [
            t
            for t in sim.controller.log
            if t.target is LifecycleState.RESTARTING
        ]
        assert restarts, "no node failure hit a running job in 100h at 2h MTBF"
        assert all(t.actor is Actor.FAILURE_INJECTOR for t in restarts)
        assert all(t.cause is Cause.NODE_FAILURE for t in restarts)
        metrics = summarize(sim.jobs, sim.metrics, sim.engine.now, sim.controller.log)
        assert metrics.job_restarts == len(restarts)

    def test_counters_derive_from_transition_log(self):
        """Churn counters must equal what the transition log implies."""
        from repro.sim import FailureConfig

        cluster = uniform_cluster(2, gpus_per_node=8)
        jobs = [
            make_job(f"j{i}", num_gpus=4, duration=40_000.0, submit_time=i * 10.0)
            for i in range(8)
        ]
        sim = ClusterSimulator(
            cluster,
            GreedyFifoScheduler(),
            Trace(jobs, name="unit"),
            failure_config=FailureConfig(mtbf_hours=4.0, max_job_restarts=100),
            config=SimConfig(sample_interval_s=0.0, seed=1, enforce_walltime=True),
        )
        result = sim.run()
        log = sim.controller.log
        assert result.metrics.job_restarts == log.count(target=LifecycleState.RESTARTING)
        assert result.metrics.preemptions == log.count(target=LifecycleState.PREEMPTED)
        assert result.metrics.rejected_jobs == log.count(cause=Cause.REJECT)
        assert result.metrics.walltime_kills == log.count(cause=Cause.WALLTIME_LIMIT)
        # The counts agree with the retained records they summarise.
        assert result.metrics.walltime_kills == sum(
            t.cause is Cause.WALLTIME_LIMIT for t in log
        ) > 0
        assert result.metrics.job_restarts == sum(
            t.target is LifecycleState.RESTARTING for t in log
        ) > 0
        terminal = sum(log.count(target=s) for s in LifecycleState if s.terminal)
        assert terminal == len(jobs)
        assert sim.controller.live_jobs == 0


def _taken_edges(sim):
    return {(t.source, t.target) for t in sim.controller.log}


class TestEdgeCoverage:
    """The edges real runs take equal the ``successors`` relation exactly.

    An edge a code path takes but the table lacks raises
    ``IllegalTransitionError`` in the scenarios below; a table edge no
    scenario takes fails the final equality.  Either way the table and the
    code can only drift apart through a failing test.
    """

    def _workflow_run(self):
        """Admission, rejection, dependency holds and intrinsic failure."""
        bad_plan = FailurePlan(FailureCategory.USER_ERROR, at_fraction=0.5)
        jobs = [
            make_job("up-ok", duration=100.0),
            make_job("down-ok", duration=100.0, depends_on=("up-ok",)),
            make_job("up-bad", duration=100.0, failure_plan=bad_plan),
            make_job("down-bad", duration=100.0, depends_on=("up-bad",)),
            make_job("huge", num_gpus=4096, duration=100.0),
        ]
        sim = ClusterSimulator(
            uniform_cluster(2, gpus_per_node=8),
            GreedyFifoScheduler(),
            Trace(jobs, name="unit"),
            config=SimConfig(sample_interval_s=0.0, record_transitions=True),
        )
        sim.run()
        assert sim.jobs["down-ok"].lifecycle is LifecycleState.FINISHED
        assert sim.jobs["down-bad"].lifecycle is LifecycleState.KILLED
        return sim

    def _kill_and_node_failure_run(self):
        """User kills of admitted/running/restarting jobs; node failures."""
        jobs = [make_job(name, num_gpus=8, duration=90_000.0) for name in "abcd"]
        sim = ClusterSimulator(
            uniform_cluster(3, gpus_per_node=8),
            GreedyFifoScheduler(),
            Trace(jobs, name="unit"),
            config=SimConfig(sample_interval_s=0.0, record_transitions=True),
        )
        sim.engine.run(until=1.0)
        now = sim.engine.now
        a, b, c, d = (sim.jobs[name] for name in "abcd")
        assert d.lifecycle is LifecycleState.ADMITTED  # three nodes, four jobs
        sim.kill_job("d")
        sim.kill_job("c")  # frees a node for a's restart
        sim.controller.apply_node_failure(now, a.current_nodes[0], max_restarts=5)
        assert a.lifecycle is LifecycleState.RESTARTING
        sim._run_scheduler_pass(now)
        assert a.lifecycle is LifecycleState.RUNNING
        sim.controller.apply_node_failure(now, b.current_nodes[0], max_restarts=5)
        assert b.lifecycle is LifecycleState.RESTARTING
        sim.kill_job("b")  # no healthy free node: killed while restarting
        assert b.lifecycle is LifecycleState.KILLED
        assert sim.scheduler.queue_depth == 0
        sim.controller.apply_node_failure(now, a.current_nodes[0], max_restarts=0)
        assert a.lifecycle is LifecycleState.FAILED
        assert sim.controller.live_jobs == 0
        sim.cluster.verify_invariants()
        return sim

    def _preemption_run(self, *, limit):
        """Evict the victim; restart it, or kill it while preempted."""
        victim = make_job("victim", num_gpus=8, duration=9000.0, lab="lab-b")
        sim, _sched, _cluster = quota_sim(
            [victim], max_job_preemptions=limit, record_transitions=True
        )
        sim.engine.run(until=5.0)
        now = sim.engine.now
        sim.controller.preempt(now, victim)
        assert victim.lifecycle is LifecycleState.PREEMPTED
        if limit:
            sim._run_scheduler_pass(now)
            sim.controller.preempt(now, victim)  # over the limit: fails
            assert victim.lifecycle is LifecycleState.FAILED
        else:
            sim.kill_job("victim")  # queued again, so leaves the queue
            assert victim.lifecycle is LifecycleState.KILLED
            assert sim.scheduler.queue_depth == 0
        return sim

    def test_runs_take_exactly_the_table_edges(self):
        table = {
            (source, target) for source in LifecycleState for target in source.successors
        }
        taken = set().union(
            _taken_edges(self._workflow_run()),
            _taken_edges(self._kill_and_node_failure_run()),
            _taken_edges(self._preemption_run(limit=1)),
            _taken_edges(self._preemption_run(limit=0)),
        )
        assert taken == table, (
            f"untaken table edges: {sorted((s.value, t.value) for s, t in table - taken)}"
        )


class TestServingAttribution:
    def test_replica_retirement_attributed_to_autoscaler(self):
        from repro.experiments.common import campus_trace, run_policy
        from repro.experiments.serving import serving_quota, serving_workload
        from repro.serving import AutoscalerConfig, ServingFleet

        trace = campus_trace(0, 0.25, days=0.25)
        fleet = ServingFleet(
            serving_workload(1.0), days=0.25, autoscaler=AutoscalerConfig(enabled=True)
        )
        result = run_policy(
            TieredQuotaScheduler(serving_quota(trace)),
            trace,
            serving=fleet,
            sim_config=SimConfig(sample_interval_s=0.0),
        )
        retire = [t for t in result.log if t.cause is Cause.SERVICE_RETIRE]
        assert retire, "fleet never retired a replica"
        assert all(t.actor is Actor.AUTOSCALER for t in retire)
        assert all(t.detail in ("horizon", "scale_down") for t in retire)


class TestTcloudHistory:
    def test_history_shows_full_lifecycle(self):
        from repro.schema.taskspec import ResourceSpec, TaskSpec
        from repro.tcloud.frontend import TaccFrontend

        frontend = TaccFrontend()
        spec = TaskSpec(
            name="hist",
            entrypoint="python train.py",
            resources=ResourceSpec(num_gpus=1, walltime_hours=1.0),
        )
        job_id, _compile, _warnings = frontend.submit(spec, duration_hint_s=600.0)
        frontend.advance_until_done(job_id)
        targets = [t.target for t in frontend.history(job_id)]
        assert targets == [
            LifecycleState.ADMITTED,
            LifecycleState.RUNNING,
            LifecycleState.FINISHED,
        ]
        assert all(line for line in (t.oneline() for t in frontend.history(job_id)))

    def test_history_unknown_job_raises(self):
        from repro.errors import SimulationError
        from repro.tcloud.frontend import TaccFrontend

        with pytest.raises(SimulationError):
            TaccFrontend().history("job-nope")
