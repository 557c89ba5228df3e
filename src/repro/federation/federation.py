"""The federated event loop: N sites in deterministic lockstep.

:class:`FederationSimulator` owns a list of per-site
:class:`~repro.sim.simulator.ClusterSimulator` instances and one global
clock.  Each step advances to the earliest pending moment across the
fleet — the next trace arrival, the next event of any site's engine, or
the next federation tick — and advances every site's engine to exactly
that time, in declaration order.  Because each site is itself
deterministic and the federation's own decisions (routing, migration,
elastic growth) are pure functions of site state with declaration-order
tie-breaks, a federated run is bit-reproducible end to end.

Cross-cluster moves are checkpoint-and-migrate: the source incarnation
is killed with ``Cause.MIGRATE`` (a *shell* — excluded from the merged
job population, its retained progress re-credited at the fleet level),
and a :meth:`~repro.workload.job.Job.checkpoint_clone` is submitted to
the target with a WAN-transfer delay and a restore-work cost, both
modelled, both non-productive in the goodput decomposition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..controlplane.lifecycle import Actor, Cause, TransitionLog
from ..errors import ConfigError, SimulationError
from ..ids import JobId
from ..sim.metrics import GoodputMetrics, MetricsCollector, SimMetrics, summarize
from ..sim.simulator import ClusterSimulator, SimulationResult
from ..workload.job import Job
from ..workload.trace import Trace
from .routing import ROUTING_POLICIES, RoutingPolicy


@dataclass(frozen=True)
class MigrationEvent:
    """One checkpoint-and-migrate move between sites."""

    time: float
    job_id: JobId  # id of the killed source incarnation
    clone_id: JobId  # id of the incarnation submitted to the target
    source: str
    target: str
    transfer_s: float
    was_running: bool  # True for elastic-growth moves of running jobs


@dataclass(frozen=True)
class SiteResult:
    """One site's outcome within a federated run."""

    name: str
    result: SimulationResult
    routed_jobs: int

    @property
    def metrics(self) -> SimMetrics:
        return self.result.metrics


@dataclass
class FederationResult:
    """Everything a federated run produced.

    ``metrics`` is the fleet-level merge: exact GPU-second integrals
    summed across sites at the common horizon, job population merged with
    migration shells removed, and the goodput decomposition re-credited
    with the shells' retained progress — so fleet ``productive`` equals
    the sum of site ``productive`` plus ``migrated_shell_gpu_hours``
    exactly, and the availability × efficiency × productive-share
    identity holds at both levels.
    """

    sites: list[SiteResult]
    metrics: SimMetrics
    end_time: float
    #: Fleet job population: every trace job's *final* incarnation (plus
    #: serving replicas), migration shells excluded.
    jobs: dict[JobId, Job] = field(default_factory=dict)
    migrations: list[MigrationEvent] = field(default_factory=list)
    migrated_shell_gpu_hours: float = 0.0
    routed: dict[str, int] = field(default_factory=dict)

    @property
    def goodput(self) -> GoodputMetrics:
        assert self.metrics.goodput is not None  # always set by the merge
        return self.metrics.goodput

    def summary(self) -> dict[str, float]:
        row = self.metrics.as_row()
        row.update(self.goodput.as_row())
        row["migrations"] = float(len(self.migrations))
        row["events"] = float(
            sum(site.result.events_processed for site in self.sites)
        )
        return row


class FederationSite:
    """A named site: one :class:`ClusterSimulator` inside the federation."""

    __slots__ = ("name", "sim", "routed_jobs")

    def __init__(self, name: str, sim: ClusterSimulator) -> None:
        self.name = name
        self.sim = sim
        self.routed_jobs = 0


class FederationSimulator:
    """Replays one trace across several sites under a routing policy."""

    def __init__(
        self,
        trace: Trace,
        sites: list[tuple[str, ClusterSimulator]],
        *,
        policy: str = "least-queued",
        tick_s: float = 1800.0,
        migrate_after_wait_s: float = 7200.0,
        wan_gbps: float = 10.0,
        checkpoint_gb_per_gpu: float = 2.0,
        restore_s: float = 120.0,
        elastic_growth: bool = True,
        elastic_cooldown_s: float = 21600.0,
        max_migrations_per_job: int = 2,
    ) -> None:
        if not sites:
            raise ConfigError("a federation needs at least one site")
        names = [name for name, _sim in sites]
        if len(set(names)) != len(names):
            raise ConfigError(f"federation site names must be unique: {names}")
        sims = [sim for _name, sim in sites]
        if len(set(map(id, sims))) != len(sims):
            raise ConfigError("each federation site needs its own simulator")
        try:
            self._policy_fn: RoutingPolicy = ROUTING_POLICIES[policy]
        except KeyError:
            raise ConfigError(
                f"unknown routing policy {policy!r}; known: {sorted(ROUTING_POLICIES)}"
            ) from None
        self.trace = trace
        self.policy = policy
        self.sites = [FederationSite(name, sim) for name, sim in sites]
        self.tick_s = tick_s
        self.migrate_after_wait_s = migrate_after_wait_s
        self.wan_gbps = wan_gbps
        self.checkpoint_gb_per_gpu = checkpoint_gb_per_gpu
        self.restore_s = restore_s
        self.elastic_growth = elastic_growth
        self.elastic_cooldown_s = elastic_cooldown_s
        self.max_migrations_per_job = max_migrations_per_job
        self.migrations: list[MigrationEvent] = []
        #: Killed source incarnations whose checkpoints survived the move;
        #: their retained progress is re-credited at the fleet level.
        self._shells: list[Job] = []
        self._migration_count: dict[JobId, int] = {}
        self._last_move: dict[JobId, float] = {}
        self._ran = False

    # -- the lockstep loop ---------------------------------------------------------

    def run(self) -> FederationResult:
        """Drive every site to global quiescence and merge the results."""
        if self._ran:
            raise SimulationError("a FederationSimulator can only run once")
        self._ran = True
        arrivals = list(self.trace)
        index = 0
        next_tick = self.tick_s if self.tick_s > 0 else None
        while True:
            times: list[float] = []
            if index < len(arrivals):
                times.append(arrivals[index].submit_time)
            pending_events = False
            for site in self.sites:
                head = site.sim.engine.peek_time()
                if head is not None:
                    pending_events = True
                    times.append(head)
            if next_tick is not None and (pending_events or index < len(arrivals)):
                times.append(next_tick)
            if not times:
                break
            now = min(times)
            # Advance every site to exactly `now`, declaration order.
            for site in self.sites:
                site.sim.engine.run(until=now)
            while index < len(arrivals) and arrivals[index].submit_time <= now:
                self._route(arrivals[index])
                index += 1
            if next_tick is not None and now >= next_tick:
                self._migration_pass(now)
                if self.elastic_growth:
                    self._elastic_pass(now)
                next_tick = now + self.tick_s
            # Early quiescence: all arrivals routed and every job settled.
            # What remains pending is pre-sampled failure/repair chains on
            # an empty fleet — running them out would stretch the horizon
            # (and the goodput denominator) by idle hours that carry no
            # information about the workload.
            if index >= len(arrivals) and self._quiescent():
                break
        return self._finalize()

    def _quiescent(self) -> bool:
        """No site has live work: nothing running, queued, or in flight.

        The in-flight check (non-terminal jobs) catches migration clones
        whose WAN transfer has not landed yet — their ``JobArrival`` is
        pending but they are in no queue.  Cheap checks first: the job
        scan only runs when every queue is already empty.
        """
        for site in self.sites:
            if site.sim.running or site.sim.scheduler.queue_depth:
                return False
        for site in self.sites:
            for job in site.sim.jobs.values():
                if not job.lifecycle.terminal:
                    return False
        return True

    # -- routing -------------------------------------------------------------------

    def _route(self, job: Job) -> None:
        chosen = self._policy_fn(self.sites, job)
        if chosen is None:
            # Infeasible everywhere: submit to the first site so its
            # admission path rejects it with the ordinary bookkeeping.
            chosen = 0
        site = self.sites[chosen]
        site.routed_jobs += 1
        site.sim.submit_job(job)

    # -- migration -----------------------------------------------------------------

    @staticmethod
    def _base_id(job_id: JobId) -> JobId:
        """The trace-level id behind a (possibly renamed) incarnation."""
        return job_id.split("~m", 1)[0]

    def _transfer_s(self, job: Job) -> float:
        """WAN transfer time for the job's checkpoint plus its dataset."""
        gigabytes = self.checkpoint_gb_per_gpu * job.num_gpus + job.dataset_gb
        return gigabytes * 8.0 / self.wan_gbps

    def _may_move(self, job: Job, now: float) -> bool:
        if job.service_id is not None:
            return False  # serving replicas are autoscaler property
        base = self._base_id(job.job_id)
        if self._migration_count.get(base, 0) >= self.max_migrations_per_job:
            return False
        last = self._last_move.get(base)
        return last is None or now - last >= self.elastic_cooldown_s

    def _pick_target(self, source_index: int, job: Job) -> int | None:
        """Best other site that could run the job at full width *now*."""
        candidates = [
            index
            for index, site in enumerate(self.sites)
            if index != source_index
            and site.sim.statically_feasible(job)
            and site.sim.cluster.free_gpus >= job.num_gpus
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda index: (-self.sites[index].sim.cluster.free_gpus, index),
        )

    def _migrate(
        self, now: float, source_index: int, target_index: int, job: Job, *, was_running: bool
    ) -> None:
        source = self.sites[source_index]
        target = self.sites[target_index]
        base = self._base_id(job.job_id)
        transfer_s = self._transfer_s(job)
        # Kill first: for running jobs the kill checkpoints live progress,
        # so the clone resumes from the freshest remaining_work.
        source.sim.kill_job(
            job.job_id,
            cause=Cause.MIGRATE,
            actor=Actor.FEDERATION,
            detail=f"to={target.name}",
        )
        count = self._migration_count.get(base, 0) + 1
        clone = job.checkpoint_clone(
            submit_time=now + transfer_s,
            restore_s=self.restore_s,
            job_id=f"{base}~m{count}",
        )
        target.sim.submit_job(clone)
        self._shells.append(job)
        self._migration_count[base] = count
        self._last_move[base] = now
        self.migrations.append(
            MigrationEvent(
                time=now,
                job_id=job.job_id,
                clone_id=clone.job_id,
                source=source.name,
                target=target.name,
                transfer_s=transfer_s,
                was_running=was_running,
            )
        )

    def _migration_pass(self, now: float) -> None:
        """Move long-waiting queued jobs to a site that can run them now."""
        for source_index, site in enumerate(self.sites):
            sim = site.sim
            if sim.cluster.free_gpus > 0 and sim.scheduler.queue_depth == 0:
                continue
            # Snapshot: migrations mutate the queue mid-pass.
            queued = sorted(
                sim.scheduler.queue, key=lambda job: (job.submit_time, job.job_id)
            )
            for job in queued:
                if not self._may_move(job, now):
                    continue
                # Waiting time since the job last held resources here (or
                # since submission if it never ran).  A job's lifecycle
                # state carries no entry time, so this is a deliberate
                # conservative proxy.
                waited = now - (
                    job.last_start_time
                    if job.last_start_time is not None
                    else job.submit_time
                )
                if waited <= self.migrate_after_wait_s:
                    continue
                if sim.cluster.free_gpus >= job.num_gpus:
                    continue  # could start here imminently; don't churn
                target_index = self._pick_target(source_index, job)
                if target_index is not None:
                    self._migrate(now, source_index, target_index, job, was_running=False)

    def _elastic_pass(self, now: float) -> None:
        """Grow elastic jobs running narrow by moving them to a wider site."""
        for source_index, site in enumerate(self.sites):
            running = sorted(
                (
                    job
                    for job in site.sim.running.values()
                    if job.elastic and 0 < job.current_gpus < job.num_gpus
                ),
                key=lambda job: job.job_id,
            )
            for job in running:
                if not self._may_move(job, now):
                    continue
                transfer_s = self._transfer_s(job)
                # Not worth moving when the move costs a sizeable share of
                # what is left to compute.
                if job.remaining_work_at(now) <= 4.0 * (transfer_s + self.restore_s):
                    continue
                target_index = self._pick_target(source_index, job)
                if target_index is not None:
                    self._migrate(now, source_index, target_index, job, was_running=True)

    # -- merge ---------------------------------------------------------------------

    def _finalize(self) -> FederationResult:
        """Finalize every site at a common horizon and merge to fleet level."""
        end = max(site.sim.engine.now for site in self.sites)
        site_results = [
            SiteResult(site.name, site.sim.run(until=end), site.routed_jobs)
            for site in self.sites
        ]
        shell_ids = {shell.job_id for shell in self._shells}
        merged: dict[JobId, Job] = {}
        for site in self.sites:
            for job_id, job in site.sim.jobs.items():
                if job_id in shell_ids:
                    continue
                if job_id in merged:
                    raise SimulationError(
                        f"job id {job_id} appears at more than one site"
                    )
                merged[job_id] = job
        fleet_collector = MetricsCollector.merged(
            [site.sim.metrics for site in self.sites], end
        )
        fleet_log = TransitionLog.merged(site.sim.controller.log for site in self.sites)
        fleet = summarize(merged, fleet_collector, end, fleet_log)
        # Shells are KILLED incarnations, so summarize credits them zero —
        # but their checkpoints survived the move.  Re-credit their
        # retained progress at the fleet level.
        shell_credit_h = (
            sum(shell.productive_gpu_seconds for shell in self._shells) / 3600.0
        )
        assert fleet.goodput is not None
        adjusted = GoodputMetrics.from_gpu_hours(
            total=fleet.goodput.total_gpu_hours,
            healthy=fleet.goodput.healthy_gpu_hours,
            served=fleet.goodput.served_gpu_hours,
            productive=fleet.goodput.productive_gpu_hours + shell_credit_h,
        )
        fleet = dataclasses.replace(fleet, goodput=adjusted)
        return FederationResult(
            sites=site_results,
            metrics=fleet,
            end_time=end,
            jobs=merged,
            migrations=self.migrations,
            migrated_shell_gpu_hours=shell_credit_h,
            routed={site.name: site.routed_jobs for site in self.sites},
        )
