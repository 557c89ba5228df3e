"""Capacity planning: what-if analysis for cluster growth.

The operational question every semester: *"queues are long — what should
we buy?"*.  The planner answers it the only honest way available to a
simulator: replay the same (load-scaled) workload against each candidate
expansion and compare waits, utilization and energy.

:func:`plan_capacity` takes the current cluster spec, a workload config,
and a list of named expansion options (extra node groups), and returns one
row per option — the table an operator takes to the budget meeting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..cluster.cluster import Cluster, ClusterSpec, NodeGroup, build_cluster
from ..controlplane.snapshot import fork
from ..errors import ConfigError
from ..execlayer.speedup import ExecutionModel
from ..sched import make_scheduler
from ..sim.simulator import ClusterSimulator, SimConfig
from ..workload.models import assign_models
from ..workload.synth import SyntheticTraceConfig, TraceSynthesizer
from ..workload.trace import Trace
from .energy import EnergyConfig, energy_report


@dataclass(frozen=True)
class ExpansionOption:
    """One candidate purchase: extra node groups appended to the cluster."""

    name: str
    groups: tuple[NodeGroup, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("expansion option needs a name")

    @property
    def added_gpus(self) -> int:
        return sum(group.count * group.spec.num_gpus for group in self.groups)


def _expanded_spec(base: ClusterSpec, option: ExpansionOption) -> ClusterSpec:
    renamed = tuple(
        replace(
            group,
            name_prefix=f"{option.name}-{group.name_prefix or group.spec.gpu_type}",
        )
        for group in option.groups
    )
    return replace(base, groups=base.groups + renamed, name=f"{base.name}+{option.name}")


def what_if(
    sim: ClusterSimulator,
    interventions: dict[str, Callable[[ClusterSimulator], None]],
    horizon_s: float | None = None,
) -> list[dict[str, float]]:
    """Fork a *live* simulation and compare interventions from this instant.

    Capacity planning's sharper sibling: instead of replaying a synthetic
    workload from scratch, fork the actual cluster state mid-run — queue,
    allocations, RNG streams, pending events and all — apply each named
    intervention to its own fork (kill a hog job, mark the queue
    preemptible, retune a quota…), run every fork forward by *horizon_s*
    (or to quiescence), and put the outcomes side by side.

    The original simulation is never touched; the first returned row,
    ``as-is``, is an unmodified fork — the counterfactual baseline every
    intervention is judged against.  Rows share the controller's metric
    definitions, so columns are directly comparable.
    """
    named: list[tuple[str, Callable[[ClusterSimulator], None] | None]] = [("as-is", None)]
    named.extend(interventions.items())
    until = None if horizon_s is None else sim.engine.now + horizon_s
    rows: list[dict[str, float]] = []
    for name, intervene in named:
        forked = fork(sim)
        if intervene is not None:
            intervene(forked)
        result = forked.run(until=until)
        metrics = result.metrics
        rows.append(
            {
                "option": name,
                "completed": metrics.jobs_completed,
                "avg_wait_h": metrics.wait_mean_s / 3600.0,
                "p99_wait_h": metrics.wait_percentiles["p99"] / 3600.0,
                "avg_jct_h": metrics.jct_mean_s / 3600.0,
                "utilization": metrics.avg_utilization,
                "preemptions": metrics.preemptions,
                "rejected": metrics.rejected_jobs,
            }
        )
    return rows


def plan_capacity(
    base_spec: ClusterSpec,
    workload: SyntheticTraceConfig,
    options: list[ExpansionOption],
    scheduler_name: str = "backfill-easy",
    seed: int = 0,
    energy_config: EnergyConfig | None = None,
) -> list[dict[str, float]]:
    """Evaluate each expansion (plus the status quo) on the same workload.

    The workload is *not* rescaled per option — the point is how the same
    demand behaves on more hardware — so rows are directly comparable,
    with one caveat the ``rejected`` column makes visible: an expansion can
    make previously *infeasible* requests schedulable (e.g. a 64-GPU A100
    job on a cluster that only had 32 A100s), and those newly admitted
    giants consume their pool for days.  A row with fewer rejections is
    serving strictly more demand, so compare its waits accordingly.
    Returns one dict row per option, status quo first.
    """
    candidates: list[tuple[str, ClusterSpec, int]] = [("status-quo", base_spec, 0)]
    for option in options:
        candidates.append((option.name, _expanded_spec(base_spec, option), option.added_gpus))

    trace_template = TraceSynthesizer(workload, seed=seed).generate()
    rows = []
    for name, spec, added in candidates:
        cluster: Cluster = build_cluster(spec)
        # Fresh jobs per candidate, rehydrated from the template's rows.
        trace = Trace.from_rows(trace_template.frozen_rows(), name=workload.name)
        assign_models(trace, seed=seed)
        result = ClusterSimulator(
            cluster,
            make_scheduler(scheduler_name),
            trace,
            exec_model=ExecutionModel(),
            config=SimConfig(sample_interval_s=0.0),
        ).run()
        metrics = result.metrics
        energy = energy_report(result, cluster, energy_config)
        rows.append(
            {
                "option": name,
                "gpus": cluster.total_gpus,
                "added_gpus": added,
                "avg_wait_h": metrics.wait_mean_s / 3600.0,
                "p99_wait_h": metrics.wait_percentiles["p99"] / 3600.0,
                "avg_jct_h": metrics.jct_mean_s / 3600.0,
                "rejected": metrics.rejected_jobs,
                "utilization": metrics.avg_utilization,
                "energy_mwh": energy.total_kwh / 1000.0,
                "kwh_per_useful_gpu_h": (
                    energy.total_kwh / max(1e-9, sum(energy.busy_gpu_hours_by_type.values()))
                ),
            }
        )
    return rows
