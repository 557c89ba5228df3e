"""Tests for the discrete-event engine and event ordering."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EventOrderError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import (
    Event,
    JobArrival,
    JobFinish,
    MetricsSample,
    NodeFailure,
    NodeRepair,
    QuantumExpiry,
    SchedulerTick,
    priority_of,
)


@dataclass(frozen=True)
class _Probe(Event):
    tag: str


def recording_engine():
    engine = SimulationEngine()
    log: list[tuple[float, str]] = []
    engine.register(_Probe, lambda now, event: log.append((now, event.tag)))
    return engine, log


class TestEventPriorities:
    def test_release_before_arrival_before_tick(self):
        assert (
            priority_of(JobFinish("j", 1))
            < priority_of(JobArrival("j"))
            < priority_of(SchedulerTick())
            < priority_of(MetricsSample())
        )

    def test_repair_before_failure(self):
        assert priority_of(NodeRepair("n")) < priority_of(NodeFailure("n"))

    def test_unknown_event_runs_last(self):
        assert priority_of(_Probe("x")) > priority_of(MetricsSample())

    def test_quantum_between_arrival_and_tick(self):
        assert priority_of(JobArrival("j")) < priority_of(QuantumExpiry()) < priority_of(
            SchedulerTick()
        )


class TestEngineBasics:
    def test_events_run_in_time_order(self):
        engine, log = recording_engine()
        engine.schedule_at(5.0, _Probe("b"))
        engine.schedule_at(1.0, _Probe("a"))
        engine.schedule_at(9.0, _Probe("c"))
        engine.run()
        assert log == [(1.0, "a"), (5.0, "b"), (9.0, "c")]
        assert engine.now == 9.0
        assert engine.events_processed == 3

    def test_same_time_insertion_order_tiebreak(self):
        engine, log = recording_engine()
        for tag in "abc":
            engine.schedule_at(1.0, _Probe(tag))
        engine.run()
        assert [tag for _t, tag in log] == ["a", "b", "c"]

    def test_schedule_in_relative(self):
        engine, log = recording_engine()
        engine.schedule_in(2.0, _Probe("x"))
        engine.run()
        assert log == [(2.0, "x")]

    def test_past_scheduling_rejected(self):
        engine, _log = recording_engine()
        engine.schedule_at(5.0, _Probe("x"))
        engine.run()
        with pytest.raises(EventOrderError):
            engine.schedule_at(1.0, _Probe("y"))
        with pytest.raises(EventOrderError):
            engine.schedule_in(-1.0, _Probe("y"))

    def test_handler_can_schedule_followups(self):
        engine, log = recording_engine()

        @dataclass(frozen=True)
        class Chain(Event):
            n: int

        def on_chain(now, event):
            log.append((now, f"chain{event.n}"))
            if event.n < 3:
                engine.schedule_in(1.0, Chain(event.n + 1))

        engine.register(Chain, on_chain)
        engine.schedule_at(0.0, Chain(1))
        engine.run()
        assert [tag for _t, tag in log] == ["chain1", "chain2", "chain3"]

    def test_unregistered_event_raises(self):
        engine = SimulationEngine()
        engine.schedule_at(0.0, _Probe("x"))
        with pytest.raises(SimulationError, match="no handler"):
            engine.run()

    def test_double_registration_rejected(self):
        engine, _log = recording_engine()
        with pytest.raises(SimulationError, match="already registered"):
            engine.register(_Probe, lambda now, event: None)


class TestRunControls:
    def test_until_stops_and_advances_clock(self):
        engine, log = recording_engine()
        engine.schedule_at(1.0, _Probe("a"))
        engine.schedule_at(10.0, _Probe("b"))
        processed = engine.run(until=5.0)
        assert processed == 1
        assert engine.now == 5.0
        assert engine.pending == 1
        engine.run()
        assert [tag for _t, tag in log] == ["a", "b"]

    def test_until_with_empty_queue_advances_clock(self):
        engine, _log = recording_engine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_max_events_guard(self):
        engine, _log = recording_engine()

        @dataclass(frozen=True)
        class Loop(Event):
            pass

        engine.register(Loop, lambda now, event: engine.schedule_in(0.0, Loop()))
        engine.schedule_at(0.0, Loop())
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=100)

    def test_stop_requested_from_handler(self):
        engine, log = recording_engine()

        @dataclass(frozen=True)
        class Stopper(Event):
            pass

        engine.register(Stopper, lambda now, event: engine.stop())
        engine.schedule_at(1.0, Stopper())
        engine.schedule_at(2.0, _Probe("after"))
        engine.run()
        assert log == []
        assert engine.pending == 1

    def test_step_and_peek(self):
        engine, log = recording_engine()
        assert engine.step() is None
        engine.schedule_at(3.0, _Probe("x"))
        assert engine.peek_time() == 3.0
        event = engine.step()
        assert isinstance(event, _Probe)
        assert engine.peek_time() is None

    def test_has_pending(self):
        engine, _log = recording_engine()
        assert not engine.has_pending(_Probe)
        engine.schedule_at(1.0, _Probe("x"))
        assert engine.has_pending(_Probe)
        assert not engine.has_pending(SchedulerTick)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_dispatch_order_is_sorted_for_any_schedule(times):
    engine = SimulationEngine()
    seen: list[float] = []
    engine.register(_Probe, lambda now, event: seen.append(now))
    for index, time in enumerate(times):
        engine.schedule_at(time, _Probe(str(index)))
    engine.run()
    assert seen == sorted(times)
    assert len(seen) == len(times)


def test_engine_queue_telemetry():
    engine = SimulationEngine()
    engine.register(JobArrival, lambda now, event: None)
    engine.register(SchedulerTick, lambda now, event: None)
    for index in range(10):
        engine.schedule_at(float(index), JobArrival(f"job-{index:06d}"))
    assert engine.peak_pending == 10
    engine.run(until=4.0)
    engine.schedule_at(5.0, SchedulerTick())
    engine.run()
    assert engine.events_enqueued == 11
    assert engine.events_processed == 11
    assert engine.peak_pending == 10
    assert not engine.has_pending(MetricsSample)
