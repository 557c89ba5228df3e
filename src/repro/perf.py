"""Hot-path performance counters.

:class:`PerfCounters` is a plain mutable struct threaded through the layers
that do per-event work — the cluster index counts nodes examined per
candidate scan, the scheduler framework counts placement attempts, and the
simulator accumulates scheduler-pass wall time.  The counters are
*observational only*: nothing in the simulation reads them back, so they
cannot perturb determinism (wall-clock time in particular never feeds a
scheduling decision).

``benchmarks/bench_perf_hotpath.py`` snapshots these counters per run to
track the per-event cost of the scheduler loop as the cluster grows — the
F10 scalability story — and writes the trajectory to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfCounters:
    """Counters for one simulation run's scheduling hot path.

    Attributes:
        scheduler_passes: Number of scheduling passes executed.
        sched_pass_wall_s: Total wall-clock seconds spent inside passes
            (measurement only — never fed back into the simulation).
        placement_attempts: Placement attempts made by schedulers
            (``Scheduler.try_place`` calls, whether answered by the
            placement policy or short-circuited by the blocked cache).
        candidate_scans: Candidate-node scans performed by placement.
        nodes_examined: Nodes inspected across all candidate scans; divide
            by ``placement_attempts`` for the per-attempt cost the index
            layer is meant to keep flat as the cluster grows.
        blocked_cache_hits: Placement attempts answered from the
            blocked-verdict cache (the request failed earlier and no
            capacity-increasing event has occurred since — see
            ``ClusterIndex.relax_epoch``) without invoking the placement
            policy.  ``blocked_cache_hit_rate`` is the dirty-set hit rate
            of incremental backfill.
        reservations_incremental: Backfill reservations computed from the
            incremental release ledger (O(log running)) instead of a full
            scan over running jobs and nodes.
        reservations_scanned: Backfill reservations that fell back to the
            full scan (restricted ``allowed_nodes`` requests).
        events_enqueued: Events pushed onto the simulation event queue.
        events_dequeued: Events popped and dispatched.
        peak_pending_events: High-water mark of the pending event count —
            for an up-front trace load this is roughly the trace size.
    """

    scheduler_passes: int = 0
    sched_pass_wall_s: float = 0.0
    placement_attempts: int = 0
    candidate_scans: int = 0
    nodes_examined: int = 0
    blocked_cache_hits: int = 0
    reservations_incremental: int = 0
    reservations_scanned: int = 0
    events_enqueued: int = 0
    events_dequeued: int = 0
    peak_pending_events: int = 0

    @property
    def nodes_per_attempt(self) -> float:
        """Mean nodes examined per placement attempt (0 when none ran)."""
        if self.placement_attempts == 0:
            return 0.0
        return self.nodes_examined / self.placement_attempts

    @property
    def blocked_cache_hit_rate(self) -> float:
        """Fraction of placement attempts served by the blocked cache."""
        if self.placement_attempts == 0:
            return 0.0
        return self.blocked_cache_hits / self.placement_attempts

    def as_dict(self) -> dict[str, float]:
        """Flat snapshot for JSON export."""
        return {
            "scheduler_passes": float(self.scheduler_passes),
            "sched_pass_wall_s": self.sched_pass_wall_s,
            "placement_attempts": float(self.placement_attempts),
            "candidate_scans": float(self.candidate_scans),
            "nodes_examined": float(self.nodes_examined),
            "nodes_per_attempt": self.nodes_per_attempt,
            "blocked_cache_hits": float(self.blocked_cache_hits),
            "blocked_cache_hit_rate": self.blocked_cache_hit_rate,
            "reservations_incremental": float(self.reservations_incremental),
            "reservations_scanned": float(self.reservations_scanned),
            "events_enqueued": float(self.events_enqueued),
            "events_dequeued": float(self.events_dequeued),
            "peak_pending_events": float(self.peak_pending_events),
        }
