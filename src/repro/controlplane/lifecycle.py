"""The job lifecycle's typed transition record and its log.

Every job in the simulated cluster moves through one explicit lifecycle::

                      ┌────────────────────────────┐
    PENDING ──admit──► ADMITTED ──place──► RUNNING ├──complete──► FINISHED
       │                 │                   │ │ │ └──fail──────► FAILED
       └──reject/kill──► KILLED ◄──kill──────┘ │ └─node_failure─► RESTARTING
                                               └────preempt────► PREEMPTED
    (PREEMPTED / RESTARTING ──place──► RUNNING again, or kill ──► KILLED;
    PREEMPTED ──preemption_limit──► FAILED)
    (workflow stages: PENDING ──deps_hold──► PENDING_DEPS, which exits via
    deps_release──► ADMITTED or upstream_failed/kill──► KILLED)

The state itself is stored once, on the job
(:attr:`~repro.workload.job.Job.lifecycle`, a :class:`LifecycleState`),
and each state lists its legal next states as its own ``successors``.
This module holds what the control plane records: the frozen
:class:`Transition` each move produces, carrying the cause, the actor
that requested it, and the simulated timestamp.  An edge a state's
``successors`` do not list raises
:class:`~repro.errors.IllegalTransitionError` in the controller's single
transition path instead of silently corrupting metrics — the state
machine is the contract, not a convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..workload.job import LifecycleState

__all__ = [
    "Actor",
    "Cause",
    "LifecycleState",
    "Transition",
    "TransitionLog",
]

class Cause(enum.Enum):
    """Why a transition happened (the edge label)."""

    #: Declaration position (set below the class), for the log's counter key.
    index: int

    ADMIT = "admit"
    REJECT = "reject"
    PLACE = "place"
    PREEMPT = "preempt"
    PREEMPTION_LIMIT = "preemption_limit"
    NODE_FAILURE = "node_failure"
    COMPLETE = "complete"
    INTRINSIC_FAILURE = "intrinsic_failure"  # the job's own scripted failure
    HARDWARE_FAILURE = "hardware_failure"  # restart budget exhausted
    WALLTIME_LIMIT = "walltime_limit"
    USER_KILL = "user_kill"
    SERVICE_RETIRE = "service_retire"  # serving autoscaler scale-down/horizon
    MIGRATE = "migrate"  # checkpoint-and-migrate to another cluster
    DEPS_HOLD = "deps_hold"  # workflow stage waiting on upstream stages
    DEPS_RELEASE = "deps_release"  # last upstream finished; stage admitted
    UPSTREAM_FAILED = "upstream_failed"  # an upstream stage failed/was killed


for _index, _cause in enumerate(Cause):
    _cause.index = _index
del _index, _cause
_CAUSES = tuple(Cause)
_N_CAUSES = len(_CAUSES)


class Actor(enum.Enum):
    """Who asked for the transition."""

    USER = "user"
    ADMISSION = "admission"
    SCHEDULER = "scheduler"
    SIMULATOR = "simulator"
    FAILURE_INJECTOR = "failure_injector"
    AUTOSCALER = "autoscaler"
    FEDERATION = "federation"  # the cross-cluster router/migrator


#: Timeline event kind emitted when a job *enters* each state (KILLED is
#: special-cased: entering it from PENDING is a "reject", otherwise "kill").
_TIMELINE_KIND: dict[LifecycleState, str] = {
    LifecycleState.PENDING_DEPS: "hold",
    LifecycleState.ADMITTED: "submit",
    LifecycleState.RUNNING: "start",
    LifecycleState.PREEMPTED: "preempt",
    LifecycleState.RESTARTING: "requeue",
    LifecycleState.FINISHED: "complete",
    LifecycleState.FAILED: "fail",
    LifecycleState.KILLED: "kill",
}


@dataclass(frozen=True)
class Transition:
    """One recorded edge of one job's lifecycle."""

    job_id: str
    time: float
    source: LifecycleState
    target: LifecycleState
    cause: Cause
    actor: Actor
    attempt: int  # the job's attempt counter when the edge was taken
    detail: str = ""

    @property
    def timeline_kind(self) -> str:
        if self.target is LifecycleState.KILLED and self.cause is Cause.REJECT:
            return "reject"
        return _TIMELINE_KIND[self.target]

    def oneline(self) -> str:
        """Human-oriented rendering for ``tcloud`` history output."""
        line = (
            f"t+{self.time / 3600.0:7.2f}h  "
            f"{self.source.value:>10s} -> {self.target.value:<10s} "
            f"cause={self.cause.value} actor={self.actor.value}"
        )
        if self.detail:
            line += f"  [{self.detail}]"
        return line


class TransitionLog:
    """Append-only record of every lifecycle transition in a run.

    The single authoritative history: the Gantt timeline, churn metrics,
    the ``tcloud history`` verb, and the ops report all derive from it.

    ``retain_records=False`` keeps every count exact but drops the record
    objects themselves: the controller builds none and calls :meth:`tally`.
    At fleet scale a month-long million-job run emits several million
    transitions — gigabytes of :class:`Transition` objects that nothing
    reads when the caller only wants aggregate metrics.
    """

    def __init__(self, retain_records: bool = True) -> None:
        self.retain_records = retain_records
        self.records: list[Transition] = []
        #: The one counter: ``target.index * len(Cause) + cause.index`` ->
        #: count, in first-seen order.  Every total is a sum over it.
        self._by_pair: dict[int, int] = {}

    @classmethod
    def merged(cls, logs: Iterable["TransitionLog"]) -> "TransitionLog":
        """A count-only log holding the summed counts of *logs* (fleet
        aggregation: every site's transitions counted once, no records)."""
        fleet = cls(retain_records=False)
        for log in logs:
            for pair, count in log._by_pair.items():
                fleet._by_pair[pair] = fleet._by_pair.get(pair, 0) + count
        return fleet

    def append(self, transition: Transition) -> None:
        if self.retain_records:
            self.records.append(transition)
        self.tally(transition.target, transition.cause)

    def tally(self, target: LifecycleState, cause: Cause) -> None:
        """Count one edge into *target* by *cause* without a record."""
        pair = target.index * _N_CAUSES + cause.index
        self._by_pair[pair] = self._by_pair.get(pair, 0) + 1

    def __len__(self) -> int:
        return sum(self._by_pair.values())

    def __iter__(self) -> Iterator[Transition]:
        return iter(self.records)

    def count(
        self, target: LifecycleState | None = None, cause: Cause | None = None
    ) -> int:
        """Count by target state and/or cause (exact even when record
        retention is off — counts are maintained independently).

        A marginal sums over the observed (target, cause) pairs, of which
        there are a few dozen at most.
        """
        return sum(
            n
            for pair, n in self._by_pair.items()
            if (target is None or pair // _N_CAUSES == target.index)
            and (cause is None or pair % _N_CAUSES == cause.index)
        )

    def for_job(self, job_id: str) -> list[Transition]:
        return [t for t in self.records if t.job_id == job_id]

    def by_cause(self) -> dict[str, int]:
        """Cause -> count, in first-seen order (reporting)."""
        counts: dict[str, int] = {}
        for pair, count in self._by_pair.items():
            cause = _CAUSES[pair % _N_CAUSES].value
            counts[cause] = counts.get(cause, 0) + count
        return counts
