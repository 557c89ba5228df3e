"""Discrete-event engine: a clock plus a deterministically ordered queue.

The engine is deliberately minimal and generic — it knows nothing about
clusters or jobs.  Handlers are registered per event *type*; the engine pops
events in ``(time, priority, sequence)`` order and dispatches.  Determinism
is a hard requirement (the test suite asserts byte-identical reruns), hence
the explicit sequence-number tiebreak instead of relying on queue stability.

The queue is a plain ``heapq`` list of ``(time, priority, sequence, event)``
entries: sequence numbers are unique, so the heap order is total and the
event payload is never compared.
"""

from __future__ import annotations

import heapq
from typing import Callable, TypeVar, cast

from ..errors import EventOrderError, SimulationError
from .events import Event, priority_of

__all__ = ["SimulationEngine"]

Handler = Callable[[float, Event], None]

E = TypeVar("E", bound=Event)


class SimulationEngine:
    """Event queue + clock + handler dispatch.

    Usage::

        engine = SimulationEngine()
        engine.register(JobArrival, on_arrival)
        engine.schedule_at(0.0, JobArrival("job-000000"))
        engine.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._handlers: dict[type[Event], Handler] = {}
        self._stopped = False
        # Pending events by concrete type, so has_pending() is O(#types)
        # instead of scanning the queue.
        self._pending_counts: dict[type[Event], int] = {}
        # -- queue telemetry (observational only, surfaced via PerfCounters) --
        self.events_enqueued: int = 0
        self.peak_pending: int = 0

    # -- configuration ---------------------------------------------------------

    def register(self, event_type: type[E], handler: Callable[[float, E], None]) -> None:
        """Register the handler for an event type (one handler per type)."""
        if event_type in self._handlers:
            raise SimulationError(f"handler for {event_type.__name__} already registered")
        # The dict erases E; dispatch only ever calls a handler with an
        # instance of the exact type it was registered under.
        self._handlers[event_type] = cast(Handler, handler)

    # -- scheduling -------------------------------------------------------------

    def schedule_at(self, time: float, event: Event) -> None:
        """Enqueue *event* at absolute *time* (must not precede the clock)."""
        if time < self.now - 1e-9:
            raise EventOrderError(
                f"cannot schedule {type(event).__name__} at {time}; clock is at {self.now}"
            )
        heapq.heappush(
            self._queue, (max(time, self.now), priority_of(event), self._sequence, event)
        )
        self._sequence += 1
        self.events_enqueued += 1
        pending = len(self._queue)
        if pending > self.peak_pending:
            self.peak_pending = pending
        event_type = type(event)
        self._pending_counts[event_type] = self._pending_counts.get(event_type, 0) + 1

    def schedule_in(self, delay: float, event: Event) -> None:
        """Enqueue *event* after *delay* seconds."""
        if delay < 0:
            raise EventOrderError(f"negative delay {delay} for {type(event).__name__}")
        self.schedule_at(self.now + delay, event)

    # -- inspection --------------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._queue)

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or ``None`` when the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def has_pending(self, event_type: type[Event]) -> bool:
        """True when any queued event is an instance of *event_type*."""
        return any(
            count > 0 and issubclass(queued_type, event_type)
            for queued_type, count in self._pending_counts.items()
        )

    # -- execution -----------------------------------------------------------------

    def stop(self) -> None:
        """Request a stop; :meth:`run` returns before the next dispatch."""
        self._stopped = True

    def step(self) -> Event | None:
        """Dispatch one event; returns it, or ``None`` when the queue is empty."""
        if not self._queue:
            return None
        time, _priority, _sequence, event = heapq.heappop(self._queue)
        self._pending_counts[type(event)] -= 1
        if time < self.now - 1e-9:
            raise EventOrderError(
                f"event {type(event).__name__} at {time} is in the past (now={self.now})"
            )
        self.now = max(self.now, time)
        handler = self._handlers.get(type(event))
        if handler is None:
            raise SimulationError(f"no handler registered for {type(event).__name__}")
        handler(self.now, event)
        self.events_processed += 1
        return event

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        Args:
            until: Stop once the next event would be strictly after this
                time (the clock is then advanced to ``until``).
            max_events: Safety valve for runaway simulations.
        """
        processed = 0
        self._stopped = False
        while self._queue and not self._stopped:
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded max_events={max_events}; "
                    "likely a scheduling livelock"
                )
            next_time = self.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self.now = max(self.now, until)
                break
            self.step()
            processed += 1
        if until is not None and not self._queue:
            self.now = max(self.now, until)
        return processed
