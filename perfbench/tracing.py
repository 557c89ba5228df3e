"""Exclusive-time span tracing, installed around the layers from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's public entry points (class methods and module functions) with
thin wrappers that push a span on a :class:`SpanStack`, and
:meth:`Installation.remove` puts the originals back.

A span's *self time* is its duration minus the time covered by its child
spans, so the self times of every span under one root sum exactly to the
root's duration; the root's own self time is the part no layer claimed
(reported as unattributed).  Spans are kept in memory as compact arrays and
written out once, when the benchmark ends (:meth:`SpanStack.arrays`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

#: Pseudo-layer of root spans; its self time is what no layer claimed.
ROOT = "unattributed"

#: Layers, named after the modules they cover.  ``simulator`` is the event
#: handler and scheduler-callback glue of ``repro.sim.simulator``; without
#: it that glue would be charged to whichever layer happened to call it.
LAYERS = (
    "workload",
    "engine",
    "simulator",
    "sched",
    "placement",
    "controlplane",
    "execlayer",
    "metrics",
    "sweep",
)


class SpanStack:
    """A stack of open spans with exclusive (self) time accounting.

    Every finished span is recorded: its layer, entry-point name, start,
    end and the index of the span that caused it (its parent, -1 for a
    root).  ``self_s[(phase, layer)]`` accumulates exclusive seconds per
    root phase, so set-up and the measured run can be accounted apart.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_of: array = array("b")
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        # Open frames: [span index, layer, child seconds].
        self._open: list[list[Any]] = []
        self._phase = ""
        self.self_s: Counter[tuple[str, str]] = Counter()
        self.calls: Counter[tuple[str, str]] = Counter()
        self.root_s: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, layer: str, name: str) -> None:
        index = len(self.start)
        self.layer_of.append(_LAYER_IDS[layer])
        self.name_of.append(self._name_id(name))
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.end.append(0.0)
        self._open.append([index, layer, 0.0])
        self.calls[(self._phase, layer)] += 1
        self.start.append(self.clock())

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        now = self.clock()
        index, layer, child_s = self._open.pop()
        self.end[index] = now
        duration = now - self.start[index]
        self.self_s[(self._phase, layer)] += duration - child_s
        if self._open:
            self._open[-1][2] += duration
        else:
            self.root_s[self._phase] += duration
        return duration

    @contextmanager
    def root(self, phase: str) -> Iterator[None]:
        """Open a root span; everything it covers is accounted to *phase*."""
        if self._open:
            raise RuntimeError("root span opened inside another span")
        self._phase = phase
        self.enter(ROOT, phase)
        try:
            yield
        finally:
            self.exit()
            self._phase = ""

    def layer_self(self, layer: str, phase: str | None = None) -> float:
        return sum(
            seconds
            for (span_phase, span_layer), seconds in self.self_s.items()
            if span_layer == layer and (phase is None or span_phase == phase)
        )


_LAYER_IDS = {name: ident for ident, name in enumerate((ROOT,) + LAYERS)}


def merge_spans(stacks: list[SpanStack]) -> dict[str, np.ndarray]:
    """Every span of every stack as columns, ready for ``np.savez``.

    ``op`` numbers the stacks; ``parent`` indexes rows of the same op
    (-1 for a root); ``layer`` and ``name`` index the ``layers`` and
    ``names`` tables.
    """
    names: dict[str, int] = {}
    columns: dict[str, list[np.ndarray]] = {
        key: [] for key in ("op", "layer", "name", "parent", "start_s", "end_s")
    }
    for op, stack in enumerate(stacks):
        remap = np.array(
            [names.setdefault(name, len(names)) for name in stack.names], dtype=np.int32
        )
        count = len(stack.start)
        columns["op"].append(np.full(count, op, dtype=np.int32))
        columns["layer"].append(np.frombuffer(stack.layer_of, dtype=np.int8))
        columns["name"].append(remap[np.frombuffer(stack.name_of, dtype=np.int32)])
        columns["parent"].append(np.frombuffer(stack.parent, dtype=np.int32))
        columns["start_s"].append(np.frombuffer(stack.start, dtype=np.float64))
        columns["end_s"].append(np.frombuffer(stack.end, dtype=np.float64))
    merged = {key: np.concatenate(parts) if parts else np.zeros(0) for key, parts in columns.items()}
    merged["names"] = np.array(list(names), dtype=str)
    merged["layers"] = np.array((ROOT,) + LAYERS, dtype=str)
    return merged


@dataclass
class Installation:
    """Wrappers currently installed, plus the counts they collect."""

    stack: SpanStack
    placed: int = 0
    slowdown_calls: int = 0
    slowdown_signatures: set[tuple[Any, ...]] = field(default_factory=set)
    summarize_s: float = 0.0
    run_cell_s: float = 0.0
    cache_read_s: float = 0.0
    cache_write_s: float = 0.0
    jobs_synthesized: int = 0
    simulators: list[Any] = field(default_factory=list)
    sweep_runners: list[Any] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _span_wrapper(
    stack: SpanStack,
    layer: str,
    name: str,
    function: Callable[..., Any],
    after: Callable[[tuple[Any, ...], Any, float], None] | None = None,
) -> Callable[..., Any]:
    enter, exit_ = stack.enter, stack.exit

    if after is None:

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(layer, name)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

    else:

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(layer, name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                after(args, result, exit_())

    return functools.wraps(function)(wrapper)


def _public_methods(cls: type) -> list[str]:
    return [
        attr
        for attr, value in cls.__dict__.items()
        if inspect.isfunction(value) and not attr.startswith("_")
    ]


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


_SIMULATOR_GLUE = (
    "_on_arrival",
    "_on_finish",
    "_on_tick",
    "_on_quantum",
    "_on_sample",
    "_on_node_failure",
    "_on_node_repair",
    "_on_stage_complete",
    "_on_dependency_release",
    "_run_scheduler_pass",
    "_start_job",
    "_preempt_job",
    "submit_job",
    "kill_job",
)


def _slowdown_signature(args: tuple[Any, ...]) -> tuple[Any, ...]:
    """(model, per-node GPU counts, GPU types, NIC) of one slowdown call."""
    _model, job, placement, cluster = args[:4]
    nodes = sorted(
        (count, cluster.node(node_id).spec.gpu_type, cluster.node(node_id).spec.nic_gbps)
        for node_id, count in placement.items()
    )
    return (job.model_name, job.num_gpus, tuple(nodes))


def install(stack: SpanStack) -> Installation:
    """Wrap every layer's entry points; returns the handle that removes them."""
    # The experiment registry imports every layer, so every policy subclass
    # and every module-level alias of a wrapped function exists by now.
    importlib.import_module("repro.experiments")
    from repro.cluster.index import ClusterIndex
    from repro.controlplane.controller import ClusterController
    from repro.execlayer.runtime import RuntimeRegistry
    from repro.execlayer.speedup import ExecutionModel
    from repro.execlayer import transfer
    from repro.sched.base import Scheduler
    from repro.sched.elastic import ElasticScheduler
    from repro.sched.placement.base import PlacementPolicy
    from repro.sim.engine import SimulationEngine
    from repro.sim import metrics as sim_metrics
    from repro.sim.metrics import MetricsCollector
    from repro.sim.simulator import ClusterSimulator
    from repro.sweep import build as sweep_build
    from repro.sweep.cache import SweepCache
    from repro.sweep.runner import SweepRunner
    from repro.workload import models
    from repro.workload.fleet import FleetTraceSynthesizer
    from repro.workload.synth import TraceSynthesizer

    inst = Installation(stack)

    def remember(cls: type, into: list[Any]) -> None:
        """Keep each new instance of *cls* (no span: construction only)."""
        original = cls.__dict__["__init__"]

        def init(self: Any, *args: Any, **kwargs: Any) -> None:
            original(self, *args, **kwargs)
            into.append(self)

        inst.patch(cls, "__init__", init)

    remember(ClusterSimulator, inst.simulators)
    remember(SweepRunner, inst.sweep_runners)

    def method(cls: type, attr: str, layer: str, after=None) -> None:
        inst.patch(
            cls,
            attr,
            _span_wrapper(stack, layer, f"{cls.__name__}.{attr}", cls.__dict__[attr], after),
        )

    def overrides(base: type, attr: str, layer: str, after=None) -> None:
        """Wrap *attr* wherever *base* or a subclass defines its own."""
        for cls in _subclasses(base):
            if inspect.isfunction(cls.__dict__.get(attr)):
                method(cls, attr, layer, after)

    def function(module: Any, attr: str, layer: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = _span_wrapper(stack, layer, attr, original, after)
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and loaded.__dict__.get(attr) is original:
                inst.patch(loaded, attr, wrapper)

    # workload
    def synthesized(_args, trace, _seconds):
        if trace is not None:
            inst.jobs_synthesized += len(trace)

    method(TraceSynthesizer, "generate", "workload", synthesized)
    method(FleetTraceSynthesizer, "generate", "workload", synthesized)
    function(models, "assign_models", "workload")

    # engine + simulator glue
    for attr in ("run", "schedule_at", "schedule_in"):
        method(SimulationEngine, attr, "engine")
    for attr in _SIMULATOR_GLUE:
        method(ClusterSimulator, attr, "simulator")

    # sched: each policy's pass plus the queue entry points the control
    # plane calls; placement: try_place down to the policies and the index.
    overrides(Scheduler, "schedule", "sched")
    for attr in ("enqueue", "remove", "notify_start", "notify_finish"):
        method(Scheduler, attr, "sched")

    def placed(_args, placement, _seconds):
        if placement is not None:
            inst.placed += 1

    method(Scheduler, "try_place", "placement", placed)
    method(ElasticScheduler, "try_place_elastic", "placement", placed)
    overrides(PlacementPolicy, "place", "placement")
    overrides(PlacementPolicy, "place_job", "placement")
    for attr in _public_methods(ClusterIndex):
        method(ClusterIndex, attr, "placement")

    # control plane
    for attr in _public_methods(ClusterController):
        method(ClusterController, attr, "controlplane")

    # execution model
    def slowdown(args, _result, _seconds):
        inst.slowdown_calls += 1
        inst.slowdown_signatures.add(_slowdown_signature(args))

    overrides(ExecutionModel, "slowdown", "execlayer", slowdown)
    method(RuntimeRegistry, "provision", "execlayer")
    function(transfer, "artifact_fetch_seconds", "execlayer")

    # metrics
    for attr in ("on_used_changed", "on_healthy_changed", "sample"):
        method(MetricsCollector, attr, "metrics")

    def summarized(_args, _result, seconds):
        inst.summarize_s += seconds

    function(sim_metrics, "summarize", "metrics", summarized)

    # sweep runner and cache
    def cache_read(_args, _result, seconds):
        inst.cache_read_s += seconds

    def cache_write(_args, _result, seconds):
        inst.cache_write_s += seconds

    def cell_ran(_args, _result, seconds):
        inst.run_cell_s += seconds

    for attr in ("get", "get_meta", "get_trace"):
        method(SweepCache, attr, "sweep", cache_read)
    method(SweepCache, "put", "sweep", cache_write)
    method(SweepRunner, "trace_for", "sweep")
    function(sweep_build, "run_cell", "sweep", cell_ran)
    return inst


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(inst: Installation) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Self times are those of the ``run`` root; the workload layer also
    counts set-up, where the simulation workloads synthesize their traces.
    Work counters come from the simulators and sweep runners the operation
    created.
    """
    stack = inst.stack
    sims = inst.simulators
    perfs = [sim.perf for sim in sims]
    events = sum(sim.engine.events_processed for sim in sims)
    passes = sum(perf.scheduler_passes for perf in perfs)
    attempts = sum(perf.placement_attempts for perf in perfs)
    blocked = sum(perf.blocked_cache_hits for perf in perfs)
    nodes = sum(perf.nodes_examined for perf in perfs)
    transitions = sum(len(sim.controller.log) for sim in sims)
    from repro.controlplane.lifecycle import LifecycleState

    preemptions = sum(
        sim.controller.log.count(target=LifecycleState.PREEMPTED) for sim in sims
    )
    sweep = {"cells": 0, "cache_hits": 0, "cache_misses": 0, "traces_synthesized": 0, "trace_memo_hits": 0}
    for runner in inst.sweep_runners:
        for key, value in runner.stats.snapshot().items():
            sweep[key] += value
    run = {layer: stack.layer_self(layer, "run") for layer in LAYERS}
    run_s = stack.root_s["run"]
    unattributed = stack.layer_self(ROOT, "run")
    metrics = {
        "workload.synth_s": stack.layer_self("workload"),
        "workload.jobs": inst.jobs_synthesized,
        "engine.events": events,
        "engine.peak_pending": max((sim.engine.peak_pending for sim in sims), default=0),
        "engine.self_s": run["engine"],
        "engine.self_us_per_event": _ratio(run["engine"], events, 1e6),
        "simulator.self_s": run["simulator"],
        "sched.passes": passes,
        "sched.self_s": run["sched"],
        "sched.self_us_per_pass": _ratio(run["sched"], passes, 1e6),
        "placement.attempts": attempts,
        "placement.placed": inst.placed,
        "placement.success_rate": _ratio(inst.placed, attempts),
        "placement.blocked_hits": blocked,
        "placement.blocked_hit_rate": _ratio(blocked, attempts),
        "placement.nodes_examined": nodes,
        "placement.nodes_per_attempt": _ratio(nodes, attempts),
        "placement.reservations": sum(
            perf.reservations_incremental + perf.reservations_scanned for perf in perfs
        ),
        "placement.self_s": run["placement"],
        "controlplane.calls": stack.calls[("run", "controlplane")],
        "controlplane.transitions": transitions,
        "controlplane.preemptions": preemptions,
        "controlplane.self_s": run["controlplane"],
        "controlplane.self_us_per_transition": _ratio(run["controlplane"], transitions, 1e6),
        "execlayer.slowdown_calls": inst.slowdown_calls,
        "execlayer.slowdown_repeat_rate": 1.0
        - _ratio(len(inst.slowdown_signatures), inst.slowdown_calls)
        if inst.slowdown_calls
        else 0.0,
        "execlayer.self_s": run["execlayer"],
        "metrics.calls": stack.calls[("run", "metrics")],
        "metrics.self_s": run["metrics"],
        "metrics.summarize_s": inst.summarize_s,
        "sweep.cells": sweep["cells"],
        "sweep.cache_hits": sweep["cache_hits"],
        "sweep.cache_misses": sweep["cache_misses"],
        "sweep.traces_synthesized": sweep["traces_synthesized"],
        "sweep.trace_memo_hits": sweep["trace_memo_hits"],
        "sweep.cache_read_s": inst.cache_read_s,
        "sweep.cache_write_s": inst.cache_write_s,
        "sweep.run_cell_s": inst.run_cell_s,
        "sweep.self_s": run["sweep"],
        "trace.run_s": run_s,
        "trace.unattributed_s": unattributed,
        "trace.spans": len(stack.start),
    }
    return {name: float(value) for name, value in metrics.items()}
