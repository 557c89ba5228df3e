"""Energy and cost accounting for cluster operation.

A campus cluster's electricity bill is a first-order operational concern:
consumer cards bought for FLOPS/$ are also watts-hungry, and idle GPUs
still burn power.  This module estimates a run's energy from the
simulation's exact per-type busy/idle GPU-time split:

    energy = busy_gpu_hours × TDP × load_factor + idle_gpu_hours × idle_W

all scaled by the machine-room PUE.  The *useful* energy fraction
(energy spent on jobs that completed vs. failed/preempted-and-redone work)
is the paper-style headline: what share of the bill produced results.

Busy GPU-hours per type come from each job's node history; idle hours are
the complement of the per-type capacity over the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import Cluster
from ..cluster.gpu import get_gpu_spec
from ..config import require_positive
from ..errors import ValidationError
from ..sim.simulator import SimulationResult
from ..workload.job import LifecycleState


@dataclass(frozen=True)
class EnergyConfig:
    """Machine-room parameters.

    Attributes:
        pue: Power usage effectiveness (total facility power / IT power).
        load_factor: Average fraction of TDP a busy training GPU draws.
        price_per_kwh: Electricity price, for the cost column.
    """

    pue: float = 1.5
    load_factor: float = 0.85
    price_per_kwh: float = 0.12

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ValidationError(f"PUE must be >= 1, got {self.pue}")
        if not 0.0 < self.load_factor <= 1.0:
            raise ValidationError("load_factor must be in (0, 1]")
        require_positive("price_per_kwh", self.price_per_kwh)


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting of one simulation run."""

    horizon_hours: float
    busy_gpu_hours_by_type: dict[str, float]
    idle_gpu_hours_by_type: dict[str, float]
    busy_kwh: float
    idle_kwh: float
    total_kwh: float  # includes PUE overhead
    useful_fraction: float  # busy energy share spent on completed work
    cost: float

    def as_rows(self) -> list[dict[str, float]]:
        rows = []
        gpu_types = sorted(set(self.busy_gpu_hours_by_type) | set(self.idle_gpu_hours_by_type))
        for gpu_type in gpu_types:
            rows.append(
                {
                    "gpu_type": gpu_type,
                    "busy_gpu_h": self.busy_gpu_hours_by_type.get(gpu_type, 0.0),
                    "idle_gpu_h": self.idle_gpu_hours_by_type.get(gpu_type, 0.0),
                }
            )
        rows.append(
            {
                "gpu_type": "TOTAL",
                "busy_gpu_h": sum(self.busy_gpu_hours_by_type.values()),
                "idle_gpu_h": sum(self.idle_gpu_hours_by_type.values()),
                "total_kwh": self.total_kwh,
                "useful_fraction": self.useful_fraction,
                "cost": self.cost,
            }
        )
        return rows


def _busy_hours_by_type(result: SimulationResult, cluster: Cluster) -> dict[str, dict[str, float]]:
    """Per-type busy GPU-hours, split into useful vs. non-useful.

    A job's GPU-seconds are attributed to the GPU type it ran on (jobs
    never mix types).  "Useful" = GPU-seconds of jobs that completed;
    failed, killed and redone work is the waste column.
    """
    busy: dict[str, float] = {}
    useful: dict[str, float] = {}
    for job in result.jobs.values():
        if not job.last_nodes or job.gpu_seconds_used <= 0:
            continue
        gpu_type = cluster.node(job.last_nodes[0]).spec.gpu_type
        hours = job.gpu_seconds_used / 3600.0
        busy[gpu_type] = busy.get(gpu_type, 0.0) + hours
        if job.lifecycle is LifecycleState.FINISHED:
            # Productive part excludes redone work after preemptions.
            productive = job.duration * job.num_gpus / 3600.0
            useful[gpu_type] = useful.get(gpu_type, 0.0) + min(productive, hours)
    return {"busy": busy, "useful": useful}


def energy_report(
    result: SimulationResult,
    cluster: Cluster,
    config: EnergyConfig | None = None,
) -> EnergyReport:
    """Estimate the energy and cost of a finished run."""
    config = config or EnergyConfig()
    horizon_hours = max(result.end_time, 1e-9) / 3600.0
    split = _busy_hours_by_type(result, cluster)
    busy = split["busy"]
    useful = split["useful"]

    capacity_hours: dict[str, float] = {}
    for node in cluster.nodes.values():
        gpu_type = node.spec.gpu_type
        capacity_hours[gpu_type] = (
            capacity_hours.get(gpu_type, 0.0) + node.spec.num_gpus * horizon_hours
        )
    idle = {
        gpu_type: max(0.0, capacity_hours[gpu_type] - busy.get(gpu_type, 0.0))
        for gpu_type in capacity_hours
    }

    busy_kwh = 0.0
    useful_kwh = 0.0
    idle_kwh = 0.0
    for gpu_type, hours in capacity_hours.items():
        spec = get_gpu_spec(gpu_type)
        busy_hours = busy.get(gpu_type, 0.0)
        busy_power_kw = spec.tdp_watts * config.load_factor / 1000.0
        busy_kwh += busy_hours * busy_power_kw
        useful_kwh += useful.get(gpu_type, 0.0) * busy_power_kw
        idle_kwh += idle[gpu_type] * spec.idle_watts / 1000.0

    total_kwh = (busy_kwh + idle_kwh) * config.pue
    return EnergyReport(
        horizon_hours=horizon_hours,
        busy_gpu_hours_by_type=dict(sorted(busy.items())),
        idle_gpu_hours_by_type=dict(sorted(idle.items())),
        busy_kwh=busy_kwh,
        idle_kwh=idle_kwh,
        total_kwh=total_kwh,
        useful_fraction=useful_kwh / busy_kwh if busy_kwh else 0.0,
        cost=total_kwh * config.price_per_kwh,
    )
