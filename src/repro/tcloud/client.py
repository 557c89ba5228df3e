"""The tcloud client: the user-side half of the serverless experience.

:class:`TcloudClient` resolves a profile to a frontend session and exposes
the verbs users type: ``submit``, ``status``, ``logs``, ``kill``, ``wait``.
For ``sim://`` endpoints (everything in this repository) sessions are local
:class:`~repro.tcloud.frontend.TaccFrontend` instances, one per endpoint,
shared across clients in the process — so two clients pointed at the same
profile observe the same cluster, which is how the multi-user examples
work.
"""

from __future__ import annotations

from ..controlplane.lifecycle import Transition
from ..errors import ConfigError
from ..ids import JobId
from ..schema.parser import parse_task_text
from ..schema.taskspec import TaskSpec
from ..tcloud.config import ClusterProfile, TcloudConfig
from ..tcloud.frontend import JobStatus, TaccFrontend

#: Process-local registry of live simulated clusters, keyed by endpoint.
_SESSIONS: dict[str, TaccFrontend] = {}


def session_for(endpoint: str) -> TaccFrontend:
    """The shared frontend session for a ``sim://`` endpoint."""
    scheme = endpoint.split("://", 1)[0]
    if scheme != "sim":
        raise ConfigError(
            f"only sim:// endpoints are supported in this build, got {endpoint!r}"
        )
    if endpoint not in _SESSIONS:
        _SESSIONS[endpoint] = TaccFrontend()
    return _SESSIONS[endpoint]


def reset_sessions() -> None:
    """Drop all shared sessions (tests and example isolation)."""
    _SESSIONS.clear()


class TcloudClient:
    """User-facing client bound to one profile."""

    def __init__(
        self,
        config: TcloudConfig | None = None,
        profile: str | None = None,
        frontend: TaccFrontend | None = None,
    ) -> None:
        self.config = config or TcloudConfig.default()
        self.profile: ClusterProfile = self.config.get(profile)
        self.frontend = frontend or session_for(self.profile.endpoint)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: TaskSpec,
        workspace: dict[str, bytes] | None = None,
        duration_hint_s: float | None = None,
    ) -> JobId:
        """Submit a task spec under this profile's identity."""
        job_id, _compile, _warnings = self.frontend.submit(
            spec,
            workspace=workspace,
            user=self.profile.user,
            lab=self.profile.lab,
            duration_hint_s=duration_hint_s,
        )
        return job_id

    def submit_text(self, text: str, **kwargs) -> JobId:
        return self.submit(parse_task_text(text), **kwargs)

    # -- observation -----------------------------------------------------------------

    def status(self, job_id: JobId) -> JobStatus:
        return self.frontend.status(job_id)

    def logs(self, job_id: JobId, tail: int = 5) -> dict[str, list[str]]:
        return self.frontend.logs(job_id, tail=tail)

    def history(self, job_id: JobId) -> list[Transition]:
        """The job's typed lifecycle history (control-plane transition log)."""
        return self.frontend.history(job_id)

    def queue(self) -> list[JobStatus]:
        return self.frontend.list_jobs()

    def cluster_info(self) -> dict[str, object]:
        return self.frontend.cluster_info()

    # -- control ------------------------------------------------------------------------

    def kill(self, job_id: JobId) -> JobStatus:
        return self.frontend.kill(job_id)

    def advance(self, seconds: float) -> None:
        """Advance the simulated cluster's clock (sim:// only)."""
        self.frontend.advance(seconds)

    def wait(self, job_id: JobId, max_seconds: float = 30 * 86400.0) -> JobStatus:
        """Advance time until the job terminates; returns its final status."""
        return self.frontend.advance_until_done(job_id, max_seconds=max_seconds)
