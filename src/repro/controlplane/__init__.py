"""The cluster control plane: lifecycle transition table, controller, snapshots.

One typed path for every job-state mutation in the simulated cluster —
scheduler placements, quota preemptions, failure recovery, serving
autoscaling, and user kills all flow through :class:`ClusterController`.
Each job stores its one :class:`LifecycleState`; the controller checks
every move against :data:`LEGAL_TRANSITIONS` and appends it to the
authoritative :class:`TransitionLog`.
"""

from .controller import ClusterController, ReplicaHost
from .lifecycle import (
    LEGAL_TRANSITIONS,
    Actor,
    Cause,
    LifecycleState,
    Transition,
    TransitionLog,
)
from .snapshot import SimSnapshot, fork, snapshot

__all__ = [
    "Actor",
    "Cause",
    "ClusterController",
    "LEGAL_TRANSITIONS",
    "LifecycleState",
    "ReplicaHost",
    "SimSnapshot",
    "Transition",
    "TransitionLog",
    "fork",
    "snapshot",
]
