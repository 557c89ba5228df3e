"""Timeline analysis and ASCII Gantt rendering.

Every run's transition log (``SimulationResult.log``) is its timeline:
each :class:`~repro.controlplane.lifecycle.Transition` names a job and,
through its ``timeline_kind``, the event it was (submit, start, preempt,
complete, ...).  :func:`job_segments` reconstructs every job's life from
those records as segments — queued, running, terminal — which
:func:`render_gantt` draws as an ASCII chart.  Invaluable for eyeballing
*why* a schedule looks the way it does (who blocked whom, where
preemptions landed) and for teaching examples; not meant for
thousand-job runs.  A run with ``record_transitions=False`` keeps counts
only, so its chart is empty.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable

from ..controlplane.lifecycle import Transition
from ..errors import ValidationError

#: Glyphs per segment state.
_GLYPHS = {"queued": "·", "running": "█", "setup": "░"}
_TERMINAL_MARKS = {"complete": "✓", "fail": "✗", "kill": "†", "reject": "R"}


@dataclass(frozen=True)
class JobSegment:
    """One contiguous phase of a job's life."""

    job_id: str
    state: str  # "queued" | "running"
    start: float
    end: float


#: The event kinds that shape a segment (a workflow stage's ``hold`` does
#: not), in same-timestamp order: a job submits before it starts, is
#: evicted before it re-starts, and terminates last.
_KIND_ORDER = {
    "submit": 0,
    "reject": 0,
    "preempt": 1,
    "requeue": 1,
    "start": 2,
    "complete": 3,
    "fail": 3,
    "kill": 3,
}


def job_segments(log: Iterable[Transition]) -> dict[str, list[JobSegment]]:
    """Reconstruct per-job queued/running segments from transition records.

    Jobs still live at the end of the recording get an open segment
    closed at the last event's time.
    """
    events = sorted(
        (t for t in log if t.timeline_kind in _KIND_ORDER),
        key=lambda t: (t.time, _KIND_ORDER[t.timeline_kind]),
    )
    if not events:
        return {}
    horizon = max(t.time for t in events)
    open_state: dict[str, tuple[str, float]] = {}
    segments: dict[str, list[JobSegment]] = {}

    def close(job_id: str, until: float) -> None:
        state = open_state.pop(job_id, None)
        if state is not None and until > state[1]:
            segments.setdefault(job_id, []).append(
                JobSegment(job_id, state[0], state[1], until)
            )
        else:
            segments.setdefault(job_id, [])

    for event in events:
        kind, job_id = event.timeline_kind, event.job_id
        if kind == "submit":
            open_state[job_id] = ("queued", event.time)
            segments.setdefault(job_id, [])
        elif kind == "reject":
            segments.setdefault(job_id, [])
        elif kind == "start":
            close(job_id, event.time)
            open_state[job_id] = ("running", event.time)
        elif kind in ("preempt", "requeue"):
            close(job_id, event.time)
            open_state[job_id] = ("queued", event.time)
        elif kind in ("complete", "fail", "kill"):
            close(job_id, event.time)
    for job_id in list(open_state):
        close(job_id, horizon)
    return segments


def render_gantt(
    log: Iterable[Transition],
    width: int = 72,
    max_jobs: int = 24,
    label_width: int = 12,
) -> str:
    """Render a run's transition records as an ASCII Gantt chart.

    One row per job (submission order), ``·`` while queued, ``█`` while
    running, with the terminal outcome appended (✓ completed, ✗ failed,
    † killed, R rejected at submission).
    """
    if width < 10:
        raise ValidationError("gantt width must be at least 10")
    records = list(log)
    segments = job_segments(records)
    if not segments:
        return "(empty timeline)\n"
    terminal: dict[str, str] = {}
    submit_order: list[str] = []
    for event in sorted(records, key=lambda t: t.time):
        kind, job_id = event.timeline_kind, event.job_id
        if kind in ("submit", "reject") and job_id not in submit_order:
            submit_order.append(job_id)
        if kind in _TERMINAL_MARKS:
            terminal[job_id] = _TERMINAL_MARKS[kind]

    start = min(t.time for t in records)
    end = max(t.time for t in records)
    span = max(end - start, 1e-9)

    def column(time: float) -> int:
        return min(width - 1, int((time - start) / span * width))

    out = io.StringIO()
    hours = span / 3600.0
    out.write(
        f"gantt: {len(submit_order)} jobs over {hours:.1f}h "
        f"(each column ≈ {span / width / 60.0:.0f} min)\n"
    )
    shown = submit_order[:max_jobs]
    for job_id in shown:
        row = [" "] * width
        for segment in segments.get(job_id, []):
            glyph = _GLYPHS.get(segment.state, "?")
            lo, hi = column(segment.start), column(segment.end)
            for index in range(lo, max(hi, lo + 1)):
                row[index] = glyph
        mark = terminal.get(job_id, "…")
        label = job_id[-label_width:].rjust(label_width)
        out.write(f"{label} |{''.join(row)}| {mark}\n")
    if len(submit_order) > max_jobs:
        out.write(f"… and {len(submit_order) - max_jobs} more jobs not shown\n")
    return out.getvalue()
