"""Shared plumbing for the experiment suite.

Every experiment is a function ``(seed, scale) → ExperimentResult`` where
*scale* multiplies trace length — the tests run every experiment at
``scale=0.15`` for wall-clock sanity, the EXPERIMENTS.md numbers use
``scale=1.0``.  Results
carry printable rows (tables) and/or named series (figures) plus free-form
notes, and know how to render themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cluster.cluster import Cluster, build_tacc_cluster
from ..errors import ConfigError
from ..execlayer.speedup import ExecutionModel
from ..sched.base import Scheduler
from ..sim.simulator import ClusterSimulator, SimConfig, SimulationResult
from ..sweep.build import build_trace
from ..sweep.spec import TraceSpec
from ..workload.trace import Trace
from ..ops.reports import render_series, render_table, series_to_rows, write_csv

Series = dict[str, list[tuple[float, float]]]


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    series: Series = field(default_factory=dict)
    notes: str = ""
    x_label: str = "x"

    def render(self) -> str:
        parts = []
        if self.rows:
            parts.append(render_table(self.rows, title=f"{self.experiment_id}: {self.title}"))
        if self.series:
            parts.append(
                render_series(
                    self.series,
                    title=f"{self.experiment_id} series",
                    x_label=self.x_label,
                )
            )
        if self.notes:
            parts.append(self.notes.rstrip() + "\n")
        return "\n".join(parts)

    def export_csv(self, path) -> None:
        rows = self.rows or series_to_rows(self.series, x_label=self.x_label)
        write_csv(rows, path)


Runner = Callable[[int, float], ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry mapping a paper table/figure to its runner."""

    experiment_id: str
    title: str
    kind: str  # "table" | "figure"
    runner: Runner
    description: str

    def __post_init__(self) -> None:
        if self.kind not in ("table", "figure"):
            raise ConfigError(f"{self.experiment_id}: kind must be table|figure")

    def run(self, seed: int = 0, scale: float = 1.0) -> ExperimentResult:
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        return self.runner(seed, scale)


# --------------------------------------------------------------------------
# Workload/sim helpers
# --------------------------------------------------------------------------


def campus_trace_spec(
    seed: int,
    scale: float,
    days: float = 7.0,
    load: float | None = 0.9,
    cluster_gpus: int = 176,
    **overrides,
) -> TraceSpec:
    """The standard experiment workload as a declarative sweep spec.

    ``sweep.build_trace`` turns it into a trace: preset → load calibration
    → synthesis → model assignment.
    """
    return TraceSpec(
        days=max(1.0, days * scale),
        synth_seed=seed,
        load=load,
        load_gpus=cluster_gpus,
        model_seed=seed,
        overrides=dict(overrides),
    )


def campus_trace(
    seed: int,
    scale: float,
    days: float = 7.0,
    load: float | None = 0.9,
    cluster_gpus: int = 176,
    **overrides,
) -> Trace:
    """The standard experiment workload: campus preset, load-calibrated.

    ``scale`` shortens the horizon (days × scale, floor 1 day) so the same
    experiment runs quickly as a benchmark and fully for the writeup.
    """
    return build_trace(
        campus_trace_spec(seed, scale, days, load, cluster_gpus, **overrides)
    )


def run_policy(
    scheduler: Scheduler,
    trace: Trace,
    cluster: Cluster | None = None,
    exec_model: ExecutionModel | None = None,
    sim_config: SimConfig | None = None,
    **sim_kwargs,
) -> SimulationResult:
    """Run one (scheduler, trace) combination on a fresh campus cluster."""
    cluster = cluster or build_tacc_cluster()
    simulator = ClusterSimulator(
        cluster,
        scheduler,
        trace,
        exec_model=exec_model or ExecutionModel(),
        config=sim_config or SimConfig(sample_interval_s=1800.0),
        **sim_kwargs,
    )
    return simulator.run()


def fresh_trace_copy(trace: Trace) -> Trace:
    """Deep-ish copy of a trace with pristine runtime state.

    Jobs are stateful; running the same trace under a second scheduler
    requires fresh Job objects.  Rehydrating from the trace's memoised
    serialisation rows guarantees only static fields survive — and
    serialises each job once per trace instead of once per compared
    policy (the rows are the same form the sweep cache and worker
    shipping use).
    """
    return Trace.from_rows(
        trace.frozen_rows(), name=trace.name, metadata=dict(trace.metadata)
    )
