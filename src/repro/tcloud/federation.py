"""Multi-cluster federation: route submissions across cluster instances.

``tcloud`` can target different cluster instances of the platform by
changing one configuration line; this module automates the choice.  A
:class:`FederatedClient` holds one client per profile.  Clusters whose
validation fails (missing GPU type, oversized request) are excluded; a
policy from :data:`repro.federation.routing.ROUTING_POLICIES`, the
federated simulator's registry (``least-queued`` by default), ranks the
rest by their frontends' live simulators and the job
:func:`~repro.tcloud.frontend.build_job` makes from the spec.  Ties break
by profile order.  The router remembers where each job landed, so
``status``/``logs``/``wait`` proxy transparently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..controlplane.lifecycle import Transition
from ..errors import ConfigError, SchemaError, SimulationError
from ..federation.federation import FederationSite
from ..federation.routing import ROUTING_POLICIES
from ..ids import JobId
from ..schema.taskspec import TaskSpec
from ..schema.validate import validate_spec
from .client import TcloudClient
from .config import TcloudConfig
from .frontend import JobStatus, build_job


@dataclass(frozen=True)
class RoutingDecision:
    """Where a submission went, and why."""

    profile: str
    reason: str
    considered: tuple[str, ...]
    excluded: tuple[str, ...]


class FederatedClient:
    """Submits to the best of several cluster instances."""

    def __init__(
        self,
        config: TcloudConfig,
        profiles: list[str] | None = None,
        policy: str = "least-queued",
        frontends: dict[str, "object"] | None = None,
    ) -> None:
        """Build one client per profile.

        ``frontends`` optionally injects a pre-built frontend per profile
        (heterogeneous simulated sites); otherwise each profile's endpoint
        resolves through the ordinary shared-session mechanism — give the
        profiles distinct ``sim://`` endpoints or they will share one
        cluster.
        """
        if policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {policy!r}; known: {sorted(ROUTING_POLICIES)}"
            )
        names = sorted(config.profiles) if profiles is None else list(profiles)
        if not names:
            raise ConfigError("federation needs at least one profile")
        if len(set(names)) != len(names):
            raise ConfigError(f"federation lists a profile more than once: {names}")
        self.policy = policy
        frontends = frontends or {}
        self.clients: dict[str, TcloudClient] = {
            name: TcloudClient(config, profile=name, frontend=frontends.get(name))
            for name in names
        }
        self._home_of: dict[JobId, str] = {}

    # -- routing -----------------------------------------------------------------

    def route(self, spec: TaskSpec) -> RoutingDecision:
        """Pick the destination cluster for *spec* without submitting."""
        considered, excluded = [], []
        for name, client in self.clients.items():
            issues = validate_spec(spec, client.frontend.cluster)
            if any(issue.severity == "error" for issue in issues):
                excluded.append(name)
            else:
                considered.append(name)
        sites = [FederationSite(name, self.clients[name].frontend.sim) for name in considered]
        chosen = None
        if sites:
            # The chosen site mints the real job id on submit.
            job = build_job(spec, job_id="route-probe", submit_time=0.0)
            chosen = ROUTING_POLICIES[self.policy](sites, job)
        if chosen is None:
            raise SchemaError(
                f"task {spec.name!r} is infeasible on every federated cluster "
                f"({sorted(self.clients)})"
            )
        frontend = self.clients[considered[chosen]].frontend
        pressure = frontend.scheduler.queue_depth / max(1, frontend.cluster.total_gpus)
        return RoutingDecision(
            profile=considered[chosen],
            reason=(
                f"{self.policy}: {frontend.cluster.free_gpus} free GPUs, "
                f"queue pressure {pressure:.3f} jobs/GPU"
            ),
            considered=tuple(considered),
            excluded=tuple(excluded),
        )

    # -- verbs (proxying) ------------------------------------------------------------

    def submit(self, spec: TaskSpec, **kwargs) -> tuple[JobId, RoutingDecision]:
        decision = self.route(spec)
        job_id = self.clients[decision.profile].submit(spec, **kwargs)
        federated_id = f"{decision.profile}/{job_id}"
        self._home_of[federated_id] = decision.profile
        return federated_id, decision

    def _resolve(self, federated_id: JobId) -> tuple[TcloudClient, JobId]:
        home = self._home_of.get(federated_id)
        if home is None:
            raise SimulationError(f"unknown federated job {federated_id}")
        return self.clients[home], federated_id.split("/", 1)[1]

    def status(self, federated_id: JobId) -> JobStatus:
        client, job_id = self._resolve(federated_id)
        return client.status(job_id)

    def logs(self, federated_id: JobId, tail: int = 5) -> dict[str, list[str]]:
        client, job_id = self._resolve(federated_id)
        return client.logs(job_id, tail=tail)

    def history(self, federated_id: JobId) -> list[Transition]:
        client, job_id = self._resolve(federated_id)
        return client.history(job_id)

    def kill(self, federated_id: JobId) -> JobStatus:
        client, job_id = self._resolve(federated_id)
        return client.kill(job_id)

    def wait(self, federated_id: JobId, **kwargs) -> JobStatus:
        client, job_id = self._resolve(federated_id)
        return client.wait(job_id, **kwargs)

    def advance_all(self, seconds: float) -> None:
        """Advance simulated time on every federated cluster."""
        for client in self.clients.values():
            client.advance(seconds)

    def cluster_info(self) -> dict[str, dict[str, object]]:
        return {name: client.cluster_info() for name, client in self.clients.items()}
