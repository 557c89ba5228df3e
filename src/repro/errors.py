"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses are organised by
subsystem (cluster, scheduling, schema, compiler, execution, simulation) and
carry enough context in their message to be actionable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class ValidationError(ReproError):
    """An input object failed validation (bad field value, missing field)."""


# --------------------------------------------------------------------------
# Cluster / resource errors
# --------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for cluster-state errors."""


class AllocationError(ClusterError):
    """An allocation request could not be satisfied or was inconsistent."""


class CapacityError(AllocationError):
    """The request exceeds the total capacity of the node or cluster."""


class UnknownNodeError(ClusterError):
    """A node id was referenced that does not exist in the cluster."""


class UnknownJobError(ClusterError):
    """A job id was referenced that holds no allocation / is not tracked."""


# --------------------------------------------------------------------------
# Scheduling errors
# --------------------------------------------------------------------------


class SchedulingError(ReproError):
    """Base class for scheduler-policy errors."""


class QuotaError(SchedulingError):
    """A quota configuration or accounting operation was invalid."""


class PlacementError(SchedulingError):
    """A placement decision was malformed (e.g. over-allocates a node)."""


# --------------------------------------------------------------------------
# Workflow-stack errors (schema / compiler / execution layers)
# --------------------------------------------------------------------------


class SchemaError(ValidationError):
    """A task description violates the task schema."""


class CompileError(ReproError):
    """The compiler layer could not produce a task instruction."""


class CacheError(CompileError):
    """The content-addressed instruction cache is inconsistent."""


class ExecutionError(ReproError):
    """The execution layer failed to provision or run a task."""


class RuntimeSwitchError(ExecutionError):
    """All candidate runtime systems failed; fail-safe switching exhausted."""


# --------------------------------------------------------------------------
# Workload / trace errors
# --------------------------------------------------------------------------


class TraceError(ReproError):
    """A trace file or trace object is malformed."""


class JobStateError(ReproError):
    """An illegal job lifecycle transition was attempted."""


class IllegalTransitionError(JobStateError):
    """The control plane rejected a lifecycle transition not in the legal set."""


# --------------------------------------------------------------------------
# Simulation errors
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SweepError(ReproError):
    """One or more cells of a sweep batch failed (raised after the batch
    completes, so succeeded cells are still cached)."""


class EventOrderError(SimulationError):
    """An event was scheduled in the past relative to the simulation clock."""
