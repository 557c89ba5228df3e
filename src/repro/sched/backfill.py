"""EASY and conservative backfill scheduling.

Backfill fixes strict FIFO's head-of-line blocking: when the head job must
wait for GPUs to free up, the scheduler computes its *reservation* (the
shadow time at which enough capacity will exist, from running jobs'
user-estimated remaining times) and lets smaller jobs run meanwhile —
provided they cannot delay the reservation.

* **EASY** (Argonne's Extensible Argonne Scheduling sYstem) reserves only
  for the *first* blocked job.  A candidate backfills if it will finish
  before the shadow time, or if it fits in the "extra" GPUs that remain
  even after the head job starts.
* **Conservative** gives *every* blocked job a reservation; a candidate
  must finish before the earliest standing reservation.  Fewer delays to
  waiting jobs, less backfill, lower utilization — the F6 experiment
  quantifies the trade.

Reservations are computed on GPU *counts* within the job's eligible node
set (capacity-accurate, placement-approximate), as real Slurm does.

Fleet-scale note: reservations used to cost a full scan over running jobs
and their nodes on every blocked pass.  :class:`_ReleaseLedger` maintains
the same release schedule *incrementally* — sorted ``(end, gpus, seq)``
lists per GPU type, updated on job start/stop — so a reservation costs
O(log running) plus the prefix actually walked.  The scalar scan helpers
are kept both as the fallback for ``allowed_nodes``-restricted requests
and as the reference the ledger is pinned against in tests; the ledger's
ordering reproduces the scan's sort exactly (see :meth:`releases`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort_right
from math import inf

from ..cluster.cluster import Cluster
from ..ids import JobId
from ..workload.job import Job
from .base import ScheduleContext, Scheduler
from .placement.base import PlacementPolicy, node_eligible

#: One ledger record: (estimated absolute end, GPUs released, start sequence).
_LedgerEntry = tuple[float, int, int]


class _Reservation:
    """Head-job reservation: when capacity suffices, and what's left over."""

    __slots__ = ("shadow_time", "extra_gpus")

    def __init__(self, shadow_time: float, extra_gpus: int) -> None:
        self.shadow_time = shadow_time
        self.extra_gpus = extra_gpus


def _eligible_gpus_free(ctx: ScheduleContext, job: Job) -> int:
    """Free GPUs on healthy nodes this job could use (full scan)."""
    return sum(
        node.free_gpus
        for node in ctx.cluster.nodes.values()
        if node.healthy and node_eligible(node, job.request)
    )


def _release_schedule(ctx: ScheduleContext, job: Job) -> list[tuple[float, int]]:
    """(estimated_end, gpus_released) for running jobs on eligible nodes.

    Full scan over running jobs and their nodes — the reference the
    incremental ledger reproduces, retained for restricted requests.
    """
    releases: list[tuple[float, int]] = []
    for running in ctx.running.values():
        gpus = 0
        for node_id in running.current_nodes:
            node = ctx.cluster.node(node_id)
            if node_eligible(node, job.request):
                gpus += node.allocation_for(running.job_id).num_gpus
        if gpus:
            releases.append((ctx.now + running.estimated_remaining(ctx.now), gpus))
    releases.sort()
    return releases


class _ReleaseLedger:
    """Incremental mirror of :func:`_release_schedule` for unrestricted jobs.

    One entry per (running job, GPU type it holds): ``(end, gpus, seq)``
    where ``end = last_start_time + walltime_estimate`` is constant for the
    lifetime of the run segment and ``seq`` is a monotone start counter.
    Entries live in per-type sorted lists plus a global one (for untyped
    requests); a job entering/leaving the running set costs O(log n) to
    locate plus a list splice.

    Exactness of :meth:`releases`: the scalar scan emits
    ``(max(now, end), gpus)`` tuples in running-dict order — which *is*
    start order — then stable-sorts them.  So the overdue group
    (``end <= now``, clamped to ``now``) sorts by ``(gpus, seq)`` and
    precedes everything else, and the future entries sort by
    ``(end, gpus, seq)`` — exactly the ledger's stored order.
    """

    __slots__ = ("_seq", "_by_type", "_global", "_entries")

    def __init__(self) -> None:
        self._seq = 0
        self._by_type: dict[str, list[_LedgerEntry]] = {}
        self._global: list[_LedgerEntry] = []
        self._entries: dict[JobId, tuple[tuple[tuple[str, _LedgerEntry], ...], _LedgerEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, job: Job, cluster: Cluster, now: float) -> None:
        """Record *job*'s future release; call when it enters RUNNING."""
        if job.job_id in self._entries:  # restart without an observed stop
            self.discard(job.job_id)
        gpus_by_type: dict[str, int] = {}
        for node_id in job.current_nodes:
            node = cluster.node(node_id)
            allocated = node.allocation_for(job.job_id).num_gpus
            gpus_by_type[node.spec.gpu_type] = (
                gpus_by_type.get(node.spec.gpu_type, 0) + allocated
            )
        total = sum(gpus_by_type.values())
        if not total:
            return
        end = now + job.estimated_remaining(now)
        seq = self._seq
        self._seq += 1
        typed: list[tuple[str, _LedgerEntry]] = []
        for gpu_type, gpus in gpus_by_type.items():
            entry: _LedgerEntry = (end, gpus, seq)
            insort_right(self._by_type.setdefault(gpu_type, []), entry)
            typed.append((gpu_type, entry))
        global_entry: _LedgerEntry = (end, total, seq)
        insort_right(self._global, global_entry)
        self._entries[job.job_id] = (tuple(typed), global_entry)

    def discard(self, job_id: JobId) -> None:
        """Drop *job_id*'s entries; no-op when absent."""
        item = self._entries.pop(job_id, None)
        if item is None:
            return
        typed, global_entry = item
        for gpu_type, entry in typed:
            rows = self._by_type[gpu_type]
            del rows[bisect_left(rows, entry)]
        del self._global[bisect_left(self._global, global_entry)]

    def releases(self, gpu_type: str | None, now: float) -> list[tuple[float, int]]:
        """The exact :func:`_release_schedule` output for an unrestricted job."""
        entries = self._global if gpu_type is None else self._by_type.get(gpu_type, [])
        split = bisect_right(entries, (now, inf))
        overdue = sorted((gpus, seq) for _end, gpus, seq in entries[:split])
        schedule = [(now, gpus) for gpus, _seq in overdue]
        schedule.extend((end, gpus) for end, gpus, _seq in entries[split:])
        return schedule

    def rebuild(self, running: dict[JobId, Job], cluster: Cluster, now: float) -> None:
        """Re-derive the ledger from the live running set (fork/new cluster)."""
        self._seq = 0
        self._by_type = {}
        self._global = []
        self._entries = {}
        for job in running.values():
            self.add(job, cluster, now)


def compute_reservation(
    ctx: ScheduleContext, job: Job, ledger: _ReleaseLedger | None = None
) -> _Reservation:
    """EASY reservation for a blocked *job* from user estimates.

    Walks the release schedule until cumulative free capacity covers the
    job; ``extra_gpus`` is what remains free at that instant beyond the
    job's need — the budget backfill jobs may hold past the shadow time.
    Unrestricted requests read free capacity from the O(1) index aggregates
    and the incremental ledger; ``allowed_nodes``-restricted ones fall back
    to the full scan (the two paths agree exactly — pinned by tests).
    """
    request = job.request
    perf = ctx.cluster.index.perf
    if ledger is not None and request.allowed_nodes is None:
        perf.reservations_incremental += 1
        index = ctx.cluster.index
        if request.gpu_type is None:
            available = index.free_healthy_gpus
        else:
            available = index.free_gpus_of_type(request.gpu_type)
        schedule = ledger.releases(request.gpu_type, ctx.now)
    else:
        perf.reservations_scanned += 1
        available = _eligible_gpus_free(ctx, job)
        schedule = _release_schedule(ctx, job)
    needed = job.num_gpus
    if available >= needed:
        return _Reservation(ctx.now, available - needed)
    for end_time, gpus in schedule:
        available += gpus
        if available >= needed:
            return _Reservation(end_time, available - needed)
    return _Reservation(float("inf"), 0)


class _BackfillScheduler(Scheduler):
    """Shared skeleton: FIFO queue plus an incrementally-maintained ledger."""

    def __init__(self, placement: PlacementPolicy | None = None) -> None:
        super().__init__(placement)
        self._ledger = _ReleaseLedger()
        self._cluster: Cluster | None = None

    def _sync_ledger(self, ctx: ScheduleContext) -> None:
        if self._cluster is not ctx.cluster:
            # First pass, or a different cluster behind the same scheduler
            # object (snapshot/fork): rebuild from the live running set.
            self._cluster = ctx.cluster
            self._ledger.rebuild(dict(ctx.running), ctx.cluster, ctx.now)

    # -- lifecycle hooks keeping the ledger exact --------------------------------

    def on_start(self, job: Job, now: float) -> None:
        if self._cluster is not None:
            self._ledger.add(job, self._cluster, now)

    def on_finish(self, job: Job, now: float) -> None:
        self._ledger.discard(job.job_id)

    def on_enqueue(self, job: Job, now: float) -> None:
        # Covers requeues after preemption/node failure: the job left the
        # running set without a finish notification.
        self._ledger.discard(job.job_id)

    def _fifo_queue(self) -> list[Job]:
        return sorted(self.queue, key=lambda job: (job.submit_time, job.job_id))


class EasyBackfillScheduler(_BackfillScheduler):
    """FIFO order with EASY (aggressive) backfill."""

    name = "backfill-easy"

    def schedule(self, ctx: ScheduleContext) -> None:
        self._sync_ledger(ctx)
        queue = self._fifo_queue()
        reservation: _Reservation | None = None
        for job in queue:
            placement = self.try_place(ctx, job)
            if reservation is None:
                if placement is not None:
                    ctx.start_job(job, placement)
                    continue
                # First blocked job: it gets the reservation.
                reservation = compute_reservation(ctx, job, self._ledger)
                continue
            # Backfill region: must not delay the reservation.
            if placement is None:
                continue
            finish_estimate = ctx.now + (job.walltime_estimate or 0.0)
            if finish_estimate <= reservation.shadow_time:
                ctx.start_job(job, placement)
            elif job.num_gpus <= reservation.extra_gpus:
                ctx.start_job(job, placement)
                reservation.extra_gpus -= job.num_gpus


class ConservativeBackfillScheduler(_BackfillScheduler):
    """FIFO order where every blocked job holds a reservation."""

    name = "backfill-conservative"

    def schedule(self, ctx: ScheduleContext) -> None:
        self._sync_ledger(ctx)
        queue = self._fifo_queue()
        earliest_reservation = float("inf")
        for job in queue:
            placement = self.try_place(ctx, job)
            if placement is not None and earliest_reservation == float("inf"):
                ctx.start_job(job, placement)
                continue
            if placement is None:
                reservation = compute_reservation(ctx, job, self._ledger)
                earliest_reservation = min(earliest_reservation, reservation.shadow_time)
                continue
            finish_estimate = ctx.now + (job.walltime_estimate or 0.0)
            if finish_estimate <= earliest_reservation:
                ctx.start_job(job, placement)
