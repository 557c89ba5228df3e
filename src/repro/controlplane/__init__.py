"""The cluster control plane: transition records, controller, snapshots.

One typed path for every job-state mutation in the simulated cluster —
scheduler placements, quota preemptions, failure recovery, serving
autoscaling, and user kills all flow through :class:`ClusterController`.
Each job stores its one :class:`LifecycleState`; the controller checks
every move against the source state's ``successors`` and appends it to
the authoritative :class:`TransitionLog`.
"""

from .controller import ClusterController, ReplicaHost
from .lifecycle import Actor, Cause, LifecycleState, Transition, TransitionLog
from .snapshot import SimSnapshot, fork, snapshot

__all__ = [
    "Actor",
    "Cause",
    "ClusterController",
    "LifecycleState",
    "ReplicaHost",
    "SimSnapshot",
    "Transition",
    "TransitionLog",
    "fork",
    "snapshot",
]
