"""Equal-timestamp event ordering is total, explicit, and deterministic.

The PRIORITY table is the simulator's tie-break law: every concrete event
class must appear in it with a unique rank, so that any set of events
sharing a timestamp dispatches in one well-defined order (with insertion
sequence as the final tie-break within a class).  A new event class that
forgets to register here would silently sort last — these tests make that
a loud failure instead, wherever in the package the class is defined.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.events import (
    PRIORITY,
    DependencyRelease,
    Event,
    JobArrival,
    JobFinish,
    MetricsSample,
    NodeFailure,
    NodeRepair,
    QuantumExpiry,
    RequestRateChange,
    SchedulerTick,
    ServiceScaleDown,
    ServiceScaleUp,
    StageComplete,
    priority_of,
)


def _subclasses(cls: type) -> list[type]:
    direct = cls.__subclasses__()
    return direct + [sub for child in direct for sub in _subclasses(child)]


def all_event_classes() -> list[type]:
    """Every Event subclass the package defines, at any depth.

    Other test modules subclass Event for probes; only the package's own
    event vocabulary is bound by the PRIORITY contract.
    """
    return [cls for cls in _subclasses(Event) if cls.__module__.startswith("repro.")]


class TestPriorityTable:
    def test_every_event_class_has_a_priority(self, repro_modules):
        classes = all_event_classes()
        missing = [cls.__name__ for cls in classes if cls not in PRIORITY]
        assert not missing, f"event classes missing from PRIORITY: {missing}"
        assert set(PRIORITY) <= set(classes), "discovery missed a ranked class"

    def test_priorities_are_integers(self):
        assert all(type(rank) is int for rank in PRIORITY.values()), PRIORITY

    def test_priorities_are_unique(self):
        ranks = list(PRIORITY.values())
        assert len(ranks) == len(set(ranks)), "duplicate priorities break total order"

    def test_priority_of_matches_table(self):
        samples = {
            JobFinish: JobFinish("j1", 1),
            DependencyRelease: DependencyRelease("j1"),
            StageComplete: StageComplete("j1"),
            NodeRepair: NodeRepair("n1"),
            NodeFailure: NodeFailure("n1"),
            JobArrival: JobArrival("j1"),
            RequestRateChange: RequestRateChange("svc", 10.0),
            ServiceScaleDown: ServiceScaleDown("svc", 1),
            ServiceScaleUp: ServiceScaleUp("svc", 1),
            QuantumExpiry: QuantumExpiry(),
            SchedulerTick: SchedulerTick(),
            MetricsSample: MetricsSample(),
        }
        assert set(samples) == set(PRIORITY), "sample set drifted from PRIORITY"
        for cls, event in samples.items():
            assert priority_of(event) == PRIORITY[cls]

    def test_unknown_event_sorts_after_known(self):
        @dataclasses.dataclass(frozen=True)
        class Exotic(Event):
            pass

        assert priority_of(Exotic()) > max(PRIORITY.values())

    def test_semantic_ordering(self):
        """Releases before arrivals, serving between arrivals and the pass."""
        order = [
            JobFinish,
            DependencyRelease,
            JobArrival,
            RequestRateChange,
            ServiceScaleDown,
            ServiceScaleUp,
            SchedulerTick,
            MetricsSample,
        ]
        ranks = [PRIORITY[cls] for cls in order]
        assert ranks == sorted(ranks)


class TestEngineTieBreak:
    @pytest.mark.parametrize("salt", [0, 1, 2])
    def test_equal_timestamp_dispatch_follows_priority(self, salt):
        """Events at one timestamp pop in PRIORITY order however inserted."""
        events = [
            MetricsSample(),
            ServiceScaleUp("svc", 1),
            JobArrival("j1"),
            SchedulerTick(),
            RequestRateChange("svc", 5.0),
            JobFinish("j1", 1),
            ServiceScaleDown("svc", 1),
        ]
        # Rotate insertion order; dispatch order must not change.
        rotated = events[salt:] + events[:salt]
        engine = SimulationEngine()
        dispatched: list[Event] = []
        for cls in {type(e) for e in events}:
            engine.register(cls, lambda now, event: dispatched.append(event))
        for event in rotated:
            engine.schedule_at(10.0, event)
        while engine.pending:
            engine.step()
        assert [priority_of(e) for e in dispatched] == sorted(
            priority_of(e) for e in events
        )

    def test_same_class_ties_break_by_insertion_sequence(self):
        engine = SimulationEngine()
        dispatched: list[Event] = []
        engine.register(JobArrival, lambda now, event: dispatched.append(event))
        first = JobArrival("j-first")
        second = JobArrival("j-second")
        engine.schedule_at(5.0, first)
        engine.schedule_at(5.0, second)
        while engine.pending:
            engine.step()
        assert dispatched == [first, second]
