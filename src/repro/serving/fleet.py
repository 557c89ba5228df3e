"""The serving fleet: wires services, autoscaler, and the simulator.

:class:`ServingFleet` is the serving subsystem's one stateful coordinator.
Attached to a :class:`~repro.sim.simulator.ClusterSimulator`, it

* pre-schedules every service's :class:`~repro.sim.events.RequestRateChange`
  epochs from its synthesized rate curve (plus a closing zero-rate event at
  the horizon);
* on each rate change, closes the accounting epoch that just ended —
  integrating offered/served/SLO-attained requests through the M/M/c model
  under the capacity that was actually live — then asks the autoscaler for
  a target and emits ``ServiceScaleUp`` / ``ServiceScaleDown`` events;
* launches replicas as ordinary jobs through ``simulator.submit_job``:
  baseline replicas in the guaranteed tier, surge replicas opportunistic
  and preemptible, so the existing quota/reclaim machinery arbitrates
  between serving surge and training exactly as it does between tiers;
* recomputes each replica's achieved request rate from its *actual*
  placement when it starts (slow GPU generation or a spread placement
  serves fewer requests/s), and freezes accounting around every capacity
  change via the simulator's start/stop hooks.

Determinism: curve synthesis uses one seeded generator consumed in service
order at construction time; everything after that is driven by the event
queue, so a (fleet seed, trace seed) pair fully determines a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..controlplane.lifecycle import Actor, Cause
from ..errors import ConfigError, SimulationError
from ..ids import NodeId, ServiceId
from ..sim.events import RequestRateChange, ServiceScaleDown, ServiceScaleUp
from ..sim.metrics import ServingMetrics
from ..workload.job import Job, LifecycleState
from .autoscaler import AutoscalerConfig, SloAutoscaler
from .demand import RateCurve, ServiceLoadConfig, synthesize_rate_curve
from .latency import slo_attainment
from .service import ReplicaRole, ServiceJob, ServiceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.simulator import ClusterSimulator

#: A fleet workload: each service spec paired with its offered-load config.
ServingWorkload = Sequence[tuple[ServiceSpec, ServiceLoadConfig]]


class ServingFleet:
    """All inference services co-hosted on one simulated cluster."""

    def __init__(
        self,
        workload: ServingWorkload,
        days: float,
        autoscaler: AutoscalerConfig | None = None,
        seed: int = 0,
    ) -> None:
        if not workload:
            raise ConfigError("serving fleet needs at least one service")
        if days <= 0:
            raise ConfigError(f"days must be positive, got {days}")
        self.horizon_s = days * 86400.0
        self.autoscaler = SloAutoscaler(autoscaler)
        self.services: dict[ServiceId, ServiceJob] = {}
        self.curves: dict[ServiceId, RateCurve] = {}
        rng = np.random.default_rng(seed)
        for spec, load in workload:
            if spec.service_id in self.services:
                raise ConfigError(f"duplicate service id {spec.service_id}")
            self.services[spec.service_id] = ServiceJob(spec=spec)
            self.curves[spec.service_id] = synthesize_rate_curve(
                load, days, seed=rng, name=spec.service_id
            )
        self._sim: "ClusterSimulator | None" = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, simulator: "ClusterSimulator") -> None:
        """Register handlers and seed the event queue (simulator init)."""
        if self._sim is not None:
            raise SimulationError("serving fleet is already attached to a simulator")
        self._sim = simulator
        engine = simulator.engine
        engine.register(RequestRateChange, self._on_rate_change)
        engine.register(ServiceScaleDown, self._on_scale_down)
        engine.register(ServiceScaleUp, self._on_scale_up)
        for service_id, curve in self.curves.items():
            for time_s, rate in curve.points:
                engine.schedule_at(time_s, RequestRateChange(service_id, rate))
            # Closing epoch: rate drops to zero at the horizon, which also
            # makes the autoscaler release all surge capacity immediately.
            engine.schedule_at(curve.horizon_s, RequestRateChange(service_id, 0.0))

    def _require_sim(self) -> "ClusterSimulator":
        if self._sim is None:
            raise SimulationError("serving fleet is not attached to a simulator")
        return self._sim

    def _service_of(self, job: Job) -> ServiceJob:
        assert job.service_id is not None
        return self.services[job.service_id]

    # -- event handlers -----------------------------------------------------------

    def _on_rate_change(self, now: float, event: RequestRateChange) -> None:
        service = self.services[event.service_id]
        self._account(service, now)
        service.rate_rps = event.rate_rps
        if event.rate_rps <= 0 and now >= self.horizon_s - 1e-9:
            self._retire_all(service, now)
            return
        delta = self.autoscaler.decide(service, event.rate_rps)
        engine = self._require_sim().engine
        if delta > 0:
            engine.schedule_at(now, ServiceScaleUp(service.service_id, delta))
        elif delta < 0:
            engine.schedule_at(now, ServiceScaleDown(service.service_id, -delta))

    def _retire_all(self, service: ServiceJob, now: float) -> None:
        """Horizon close: kill every live replica, baseline included."""
        simulator = self._require_sim()
        live = service.live_replicas()
        for replica in live:
            self._retire(simulator, replica.job.job_id, detail="horizon")
        if live:
            service.scale_down_events += 1

    def _retire(self, simulator: "ClusterSimulator", job_id: str, detail: str) -> None:
        """Retire one replica through the control plane, attributed to us."""
        simulator.kill_job(
            job_id,
            cause=Cause.SERVICE_RETIRE,
            actor=Actor.AUTOSCALER,
            detail=detail,
        )

    def _on_scale_up(self, now: float, event: ServiceScaleUp) -> None:
        simulator = self._require_sim()
        service = self.services[event.service_id]
        spec = service.spec
        headroom = spec.max_replicas - len(service.live_replicas())
        to_launch = min(event.count, headroom)
        if to_launch <= 0:
            return
        if now >= self.horizon_s:
            return  # nothing left to serve; don't launch zombie replicas
        for _ in range(to_launch):
            baseline_live = len(service.live_replicas(ReplicaRole.BASELINE))
            role = (
                ReplicaRole.BASELINE
                if baseline_live < spec.base_replicas
                else ReplicaRole.SURGE
            )
            job = service.next_replica_job(role, now, self.horizon_s)
            simulator.submit_job(job)
        service.scale_up_events += 1

    def _on_scale_down(self, now: float, event: ServiceScaleDown) -> None:
        simulator = self._require_sim()
        service = self.services[event.service_id]
        surge = service.live_replicas(ReplicaRole.SURGE)
        # Retire queued surge first (they hold no GPUs), then the youngest
        # running ones; dict order is launch order, so reversed() = youngest.
        queued = [r for r in reversed(surge) if r.job.lifecycle.queued]
        running = [r for r in reversed(surge) if r.job.lifecycle is LifecycleState.RUNNING]
        retired = 0
        for replica in queued + running:
            if retired >= event.count:
                break
            self._retire(simulator, replica.job.job_id, detail="scale_down")
            retired += 1
        if retired:
            service.scale_down_events += 1

    # -- simulator capacity hooks ----------------------------------------------------

    def on_replica_start(self, now: float, job: Job, placement: dict[NodeId, int]) -> None:
        """A replica job was placed: freeze accounting, compute its rate.

        The achieved rate uses the same iteration-time model as training
        slowdowns — slowest GPU type in the placement, communication cost
        of the placement shape — so hardware generation and spread bite
        serving latency exactly as they bite training throughput.
        """
        simulator = self._require_sim()
        service = self._service_of(job)
        self._account(service, now)
        iteration_s = simulator.exec_model.placement_iteration_s(job, placement, simulator.cluster)
        if iteration_s <= 0:
            raise SimulationError(f"non-positive iteration time for replica {job.job_id}")
        replica = service.replicas[job.job_id]
        replica.rate_rps = service.spec.batch_requests / iteration_s

    def on_replica_stop(self, now: float, job: Job) -> None:
        """A replica is leaving its nodes (finish/preempt/kill/failure)."""
        service = self._service_of(job)
        self._account(service, now)
        service.replicas[job.job_id].rate_rps = None

    # -- accounting --------------------------------------------------------------

    def _account(self, service: ServiceJob, now: float) -> None:
        """Integrate the epoch [last_account_time, now) at current capacity."""
        dt = now - service.last_account_time
        if dt < -1e-9:
            raise SimulationError(
                f"serving accounting went backwards for {service.service_id}"
            )
        if dt <= 0:
            return
        service.last_account_time = now
        running = service.running_replicas()
        gpus = service.spec.gpus_per_replica
        for replica in running:
            if replica.role is ReplicaRole.BASELINE:
                service.baseline_gpu_seconds += gpus * dt
            else:
                service.harvested_gpu_seconds += gpus * dt
        rate = service.rate_rps
        if rate <= 0:
            return
        offered = rate * dt
        service.offered_requests += offered
        if not running:
            return  # every request in this epoch is dropped
        capacity = sum(r.rate_rps or 0.0 for r in running)
        mu_eff = capacity / len(running)
        service.served_requests += min(rate, capacity) * dt
        attained = slo_attainment(rate, mu_eff, len(running), service.spec.slo_p99_s)
        service.slo_attained_requests += offered * attained

    def finalize(self, now: float) -> ServingMetrics:
        """Close all accounting epochs and aggregate the fleet's metrics."""
        per_service: dict[str, dict[str, float]] = {}
        offered = served = attained = 0.0
        baseline_s = harvested_s = 0.0
        launches = preemptions = ups = downs = 0
        for service_id in sorted(self.services):
            service = self.services[service_id]
            self._account(service, now)
            service_preemptions = sum(
                replica.job.preemptions for replica in service.replicas.values()
            )
            offered += service.offered_requests
            served += service.served_requests
            attained += service.slo_attained_requests
            baseline_s += service.baseline_gpu_seconds
            harvested_s += service.harvested_gpu_seconds
            launches += service.launched
            preemptions += service_preemptions
            ups += service.scale_up_events
            downs += service.scale_down_events
            per_service[service_id] = {
                "offered_requests": service.offered_requests,
                "served_requests": service.served_requests,
                "slo_attained_requests": service.slo_attained_requests,
                "slo_attainment": (
                    service.slo_attained_requests / service.offered_requests
                    if service.offered_requests
                    else 1.0
                ),
                "peak_rps": self.curves[service_id].peak_rps(),
                "replica_launches": float(service.launched),
                "replica_preemptions": float(service_preemptions),
                "baseline_gpu_hours": service.baseline_gpu_seconds / 3600.0,
                "harvested_gpu_hours": service.harvested_gpu_seconds / 3600.0,
            }
        horizon = min(now, self.horizon_s) or 1.0
        return ServingMetrics(
            services=len(self.services),
            offered_requests=offered,
            served_requests=served,
            slo_attained_requests=attained,
            slo_attainment=attained / offered if offered else 1.0,
            goodput_rps=attained / horizon,
            baseline_gpu_hours=baseline_s / 3600.0,
            harvested_gpu_hours=harvested_s / 3600.0,
            replica_launches=launches,
            replica_preemptions=preemptions,
            scale_up_events=ups,
            scale_down_events=downs,
            per_service=per_service,
        )
