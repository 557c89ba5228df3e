"""Materialise a :class:`SimCell` into live objects and run it.

This is the worker-side half of the sweep engine: given a cell spec and
the serialised trace rows (shipped by the parent's trace memo), rebuild
the trace/scheduler/cluster/subsystems, run the simulation, and distil
the outcome into a :class:`~repro.sweep.result.CellResult`.

Everything here must be a pure function of ``(cell, trace rows)`` — the
one sanctioned impurity is the in-worker wall-clock measurement around
the run, which is observational (cached with the result, never fed back
into the simulation).
"""

from __future__ import annotations

import time
from typing import Any

from ..cluster.cluster import (
    Cluster,
    build_tacc_cluster,
    heterogeneous_cluster,
    uniform_cluster,
)
from ..errors import ConfigError
from ..execlayer.speedup import ExecutionModel, UnitExecutionModel
from ..execlayer.storage import SharedFilesystem, StorageConfig
from ..ops.fragmentation import FragmentationProbe
from ..sched import make_scheduler
from ..sched.base import Scheduler
from ..sched.placement import PlacementPolicy, make_placement
from ..sched.placement.hived import BuddyCellPlacement
from ..sched.quota import QuotaConfig
from ..sim.failures import FailureConfig
from ..sim.simulator import ClusterSimulator, SimConfig
from ..workload.models import assign_models
from ..workload.pipelines import PipelineSynthesizer, PipelineTraceConfig
from ..workload.synth import TraceSynthesizer, tacc_campus, with_load
from ..workload.trace import Trace
from .result import CellResult
from .spec import (
    ClusterSpec,
    SchedulerSpec,
    ServingSpec,
    SimCell,
    TraceSpec,
    WorkflowTraceSpec,
)

#: Probe names accepted in ``SimCell.probes``.
KNOWN_PROBES = ("fragmentation",)

TraceRows = tuple[dict[str, object], ...]


def build_trace(spec: TraceSpec) -> Trace:
    """Synthesize the trace a :class:`TraceSpec` describes (parent-side).

    Construction order: preset, load calibration, synthesis, model
    assignment.  ``experiments.common.campus_trace`` is this function on
    ``campus_trace_spec``, so direct and cell-based experiments share one
    trace path.
    """
    if spec.preset != "tacc-campus":
        raise ConfigError(f"unknown trace preset {spec.preset!r}")
    config = tacc_campus(days=spec.days, **spec.overrides)
    if spec.load is not None:
        config = with_load(
            config, spec.load_gpus, spec.load, seed=spec.synth_seed + spec.load_seed
        )
    trace = TraceSynthesizer(config, seed=spec.synth_seed).generate()
    if spec.model_seed is not None:
        assign_models(trace, seed=spec.model_seed)
    return trace


def merge_workflow_jobs(spec: WorkflowTraceSpec, base: Trace) -> Trace:
    """Append synthesized pipeline stages to a rehydrated base trace.

    Happens worker-side on the fresh per-cell copy, so the parent's trace
    memo (shared across cells) is never mutated.  Workflow job ids use the
    ``wf-`` prefix, disjoint from the synthesizers' ``job-`` namespace.
    """
    from dataclasses import replace as _replace

    config = _replace(
        PipelineTraceConfig(
            days=spec.days, workflows_per_day=spec.workflows_per_day
        ),
        **spec.overrides,  # type: ignore[arg-type]
    )
    workflow_trace = PipelineSynthesizer(config, seed=spec.synth_seed).generate()
    return Trace(
        list(base) + list(workflow_trace),
        name=base.name,
        metadata={**base.metadata, "workflows": len(workflow_trace)},
    )


def build_cluster(spec: ClusterSpec) -> Cluster:
    if spec.kind == "uniform":
        return uniform_cluster(spec.nodes, gpus_per_node=spec.gpus_per_node)
    if spec.kind == "het":
        return heterogeneous_cluster(spec.nodes, gpus_per_node=spec.gpus_per_node)
    return build_tacc_cluster()


def build_scheduler(spec: SchedulerSpec) -> tuple[Scheduler, PlacementPolicy | None]:
    """Instantiate the scheduler (and its placement object, for probing)."""
    placement = make_placement(spec.placement) if spec.placement else None
    kwargs: dict[str, Any] = dict(spec.params)
    if spec.name == "tiered-quota":
        if spec.quotas is None:
            raise ConfigError("tiered-quota cells need resolved quotas")
        kwargs["quota"] = QuotaConfig(quotas=dict(spec.quotas))
    scheduler = make_scheduler(spec.name, placement=placement, **kwargs)
    return scheduler, placement


def build_exec_model(kwargs: dict[str, Any]) -> ExecutionModel:
    """Instantiate a cell's execution model from plain-data kwargs.

    ``{"unit": True}`` selects :class:`UnitExecutionModel` (pure-queueing
    experiments: slowdown is exactly 1.0, making analytical bounds like
    the workflow critical path exact); anything else passes through to
    :class:`ExecutionModel`.
    """
    params = dict(kwargs)
    if params.pop("unit", False):
        if params:
            raise ConfigError(
                f"unit exec model takes no other parameters; got {sorted(params)}"
            )
        return UnitExecutionModel()
    return ExecutionModel(**params)


def _build_serving(spec: ServingSpec) -> Any:
    from ..serving import AutoscalerConfig, ServiceLoadConfig, ServiceSpec, ServingFleet

    workload = [
        (ServiceSpec(**service), ServiceLoadConfig(**load))
        for service, load in spec.services
    ]
    return ServingFleet(
        workload,
        days=spec.days,
        autoscaler=AutoscalerConfig(enabled=spec.autoscaled),
        seed=spec.seed,
    )


def _attach_fragmentation_probe(placement: PlacementPolicy) -> FragmentationProbe:
    """Wrap the placement's free hook to snapshot fragmentation (F8)."""
    probe = FragmentationProbe()
    original_on_free = placement.on_free

    def probed_on_free(
        cluster: Cluster, job_id: str, placement_map: Any, _orig: Any = original_on_free
    ) -> None:
        _orig(cluster, job_id, placement_map)
        probe.observe(cluster)

    placement.on_free = probed_on_free  # type: ignore[method-assign]
    return probe


def run_cell(
    cell: SimCell,
    trace_rows: TraceRows,
    trace_name: str = "trace",
    trace_metadata: dict[str, object] | None = None,
) -> CellResult:
    """Run one cell against pre-serialised trace rows.

    Called in workers (rows shipped over the pipe) and in-process for
    ``--jobs 1``; both paths are identical by construction.
    """
    for probe_name in cell.probes:
        if probe_name not in KNOWN_PROBES:
            raise ConfigError(f"unknown probe {probe_name!r}; known: {KNOWN_PROBES}")

    trace = Trace.from_rows(trace_rows, name=trace_name, metadata=trace_metadata or {})
    if cell.preemptible_override:
        for job in trace:
            # Workload synthesis consent flag on a pristine rehydrated copy,
            # set before the simulator exists (F11 gang time-slicing).
            job.preemptible = True  # simlint: disable=R3  (pre-sim trace setup)

    if cell.workflow is not None:
        if cell.federation is not None:
            raise ConfigError("workflow jobs are not supported in federated cells yet")
        trace = merge_workflow_jobs(cell.workflow, trace)

    if cell.federation is not None:
        return _run_federated_cell(cell, trace)

    scheduler, placement = build_scheduler(cell.scheduler)
    cluster = build_cluster(cell.cluster)
    exec_model = build_exec_model(cell.exec_model)
    sim_config = SimConfig(**cell.sim)

    sim_kwargs: dict[str, Any] = {}
    if cell.failures is not None:
        sim_kwargs["failure_config"] = FailureConfig(**cell.failures)
    storage: SharedFilesystem | None = None
    if cell.storage is not None:
        storage = SharedFilesystem(StorageConfig(**cell.storage))
        sim_kwargs["storage"] = storage
    if cell.serving is not None:
        sim_kwargs["serving"] = _build_serving(cell.serving)

    frag_probe: FragmentationProbe | None = None
    if "fragmentation" in cell.probes:
        if placement is None:
            raise ConfigError("fragmentation probe needs an explicit placement")
        frag_probe = _attach_fragmentation_probe(placement)

    simulator = ClusterSimulator(
        cluster,
        scheduler,
        trace,
        exec_model=exec_model,
        config=sim_config,
        **sim_kwargs,
    )
    # Observational wall-clock only: measured where the run happens,
    # shipped/cached with the result, never visible to the simulation.
    started = time.perf_counter()  # simlint: disable=R2  (perf measurement)
    result = simulator.run()
    wall_s = time.perf_counter() - started  # simlint: disable=R2  (perf measurement)

    extras: dict[str, Any] = {}
    if frag_probe is not None:
        extras["mean_frag"] = frag_probe.summary()["mean_frag"]
    if isinstance(placement, BuddyCellPlacement):
        extras["alignment_waste_gpus"] = placement.waste_gpus
    if storage is not None:
        extras["storage_hit_rate"] = storage.hit_rate
        extras["storage_bytes_staged_gb"] = storage.bytes_staged_gb
    predictor = getattr(scheduler, "predictor", None)
    if predictor is not None:
        extras["predictor_observations"] = predictor.observations

    return CellResult(
        jobs=dict(result.jobs),
        metrics=result.metrics,
        samples=list(result.samples),
        summary=result.summary(),
        end_time=result.end_time,
        events_processed=result.events_processed,
        perf=result.perf.as_dict(),
        trace_jobs=len(trace),
        wall_s=wall_s,
        extras=extras,
    )


def _run_federated_cell(cell: SimCell, trace: Trace) -> CellResult:
    """Run a federated cell: route the trace across the spec's sites.

    The federation layer is imported lazily so single-cluster sweeps never
    pay for (or cyclically import) the multi-site machinery.
    """
    from ..federation.build import build_federation

    assert cell.federation is not None
    if cell.probes:
        raise ConfigError("probes are not supported in federated cells yet")
    federation = build_federation(
        cell.federation, trace, default_scheduler=cell.scheduler, sim=cell.sim
    )
    started = time.perf_counter()  # simlint: disable=R2  (perf measurement)
    result = federation.run()
    wall_s = time.perf_counter() - started  # simlint: disable=R2  (perf measurement)

    site_rows: dict[str, dict[str, float]] = {}
    for site in result.sites:
        row = site.result.summary()
        goodput = site.metrics.goodput
        if goodput is not None:
            row.update(goodput.as_row())
        site_rows[site.name] = row

    # Fleet perf: per-site counters summed.  Counts add exactly; derived
    # ratios (hit rates, per-attempt averages) become crude fleet-level
    # sums — observational only, never fed back into the simulation.
    fleet_perf: dict[str, float] = {}
    for site in result.sites:
        for key, value in site.result.perf.as_dict().items():
            fleet_perf[key] = fleet_perf.get(key, 0.0) + value

    extras: dict[str, Any] = {
        "migrations": len(result.migrations),
        "migrated_shell_gpu_hours": result.migrated_shell_gpu_hours,
        "routed": dict(result.routed),
        "sites": site_rows,
    }
    return CellResult(
        jobs=dict(result.jobs),
        metrics=result.metrics,
        samples=[],
        summary=result.summary(),
        end_time=result.end_time,
        events_processed=sum(s.result.events_processed for s in result.sites),
        perf=fleet_perf,
        trace_jobs=len(trace),
        wall_s=wall_s,
        extras=extras,
    )
