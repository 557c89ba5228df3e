"""The operator dashboard: one rendered view of cluster health.

Composes the ops analytics into the text report a cluster operator reads
each morning — utilization trend, queue pressure, tier latency, top
consumers, fragmentation, and incident counts.  Two entry points:

* :func:`live_dashboard` renders the *current* state of a live (simulated)
  cluster — used by ``tcloud top``;
* :func:`run_report` renders the retrospective of a finished
  :class:`~repro.sim.simulator.SimulationResult` — used by the operations
  example and notebooks.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING

from ..cluster.cluster import Cluster
from ..sim.simulator import SimulationResult
from ..workload.job import Job, LifecycleState
from .analytics import utilization_series
from .fairness import fairness_summary, gpu_hours_by_entity
from .fragmentation import snapshot
from .reports import render_table, sparkline

if TYPE_CHECKING:
    from ..federation.federation import FederationResult


def _format_hours(seconds: float) -> str:
    if seconds != seconds:  # NaN
        return "-"
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def live_dashboard(cluster: Cluster, jobs: dict[str, Job], now: float, queue_depth: int) -> str:
    """Render the instantaneous view of a live cluster."""
    out = io.StringIO()
    frag = snapshot(cluster)
    running = [job for job in jobs.values() if job.lifecycle is LifecycleState.RUNNING]
    out.write(f"=== {cluster.name} @ t+{now / 3600.0:.1f}h ===\n")
    out.write(
        f"gpus: {cluster.used_gpus}/{cluster.healthy_gpus} busy"
        f" ({cluster.utilization():.0%}), {frag.free_gpus} free"
        f" (largest block {frag.largest_block}, frag {frag.external_fragmentation:.0%})\n"
    )
    unhealthy = [n for n, node in cluster.nodes.items() if not node.healthy]
    out.write(
        f"nodes: {len(cluster.nodes) - len(unhealthy)}/{len(cluster.nodes)} healthy"
        + (f"  DOWN: {', '.join(sorted(unhealthy))}" if unhealthy else "")
        + "\n"
    )
    out.write(f"jobs: {len(running)} running, {queue_depth} queued\n")
    if running:
        rows = [
            {
                "job": job.job_id,
                "user": job.user_id,
                "gpus": job.current_gpus or job.num_gpus,
                "elapsed": _format_hours(now - (job.last_start_time or now)),
                "progress": f"{job.work_done / job.duration:.0%}",
                "nodes": ",".join(job.current_nodes[:3])
                + ("…" if len(job.current_nodes) > 3 else ""),
            }
            for job in sorted(running, key=lambda j: -(j.current_gpus or j.num_gpus))[:10]
        ]
        out.write(render_table(rows, title="widest running jobs"))
    return out.getvalue()


def run_report(result: SimulationResult, top_n: int = 5) -> str:
    """Render the retrospective report of a finished simulation run."""
    out = io.StringIO()
    metrics = result.metrics
    out.write(
        f"=== run report: {result.trace_name} under {result.scheduler}"
        f"/{result.placement} ===\n"
    )
    out.write(
        f"jobs: {metrics.jobs_total} total — {metrics.jobs_completed} completed, "
        f"{metrics.jobs_failed} failed, {metrics.jobs_killed} killed, "
        f"{metrics.rejected_jobs} rejected at submit\n"
    )
    out.write(
        f"latency: wait p50 {_format_hours(metrics.wait_percentiles['p50'])}"
        f" / p99 {_format_hours(metrics.wait_percentiles['p99'])},"
        f" JCT mean {_format_hours(metrics.jct_mean_s)}\n"
    )
    by_tier = " | ".join(
        f"{tier}: {_format_hours(value)}" for tier, value in metrics.wait_mean_by_tier.items()
    )
    out.write(f"mean wait by tier: {by_tier}\n")
    out.write(
        f"capacity: {metrics.served_gpu_hours:,.0f} GPU-h served, "
        f"avg utilization {metrics.avg_utilization:.0%} over "
        f"{result.end_time / 86400.0:.1f} simulated days\n"
    )
    goodput = metrics.goodput
    if goodput is not None:
        out.write(
            f"goodput: {goodput.goodput:.1%} = availability {goodput.availability:.1%}"
            f" × efficiency {goodput.efficiency:.1%}"
            f" × productive {goodput.productive_share:.1%}"
            f" ({goodput.productive_gpu_hours:,.0f} productive GPU-h)\n"
        )
    series = utilization_series(result.samples, bin_s=6 * 3600.0)
    if series:
        out.write(f"utilization (6h bins): {sparkline([y for _x, y in series])}\n")
    out.write(
        f"churn: {metrics.preemptions} preemptions, {metrics.node_failures} node "
        f"failures, {metrics.job_restarts} restarts\n"
    )
    perf = result.perf
    if perf.events_dequeued or perf.placement_attempts:
        out.write(
            f"hot path: {perf.events_dequeued:,} events"
            f" (peak {perf.peak_pending_events:,} pending),"
            f" {perf.scheduler_passes:,} passes,"
            f" {perf.placement_attempts:,} placement attempts"
            f" ({perf.nodes_per_attempt:.1f} nodes/attempt,"
            f" blocked-cache hit rate {perf.blocked_cache_hit_rate:.0%})\n"
        )
    log = result.log
    if len(log):
        rendered = ", ".join(
            f"{cause}={count}" for cause, count in sorted(log.by_cause().items())
        )
        out.write(f"control plane: {len(log)} lifecycle transitions ({rendered})\n")
    failures = {k: v for k, v in metrics.failure_taxonomy.items() if v}
    if failures:
        out.write(f"failure taxonomy: {failures}\n")

    workflow = metrics.workflow
    if workflow is not None:
        out.write(
            f"workflows: {workflow.completed_workflows}/{workflow.workflows} "
            f"completed ({workflow.stages} stages), makespan mean "
            f"{_format_hours(workflow.makespan_mean_s)} vs critical path "
            f"{_format_hours(workflow.critical_path_mean_s)}\n"
        )
        out.write(
            f"workflow waits: dependency hold {_format_hours(workflow.dep_hold_wait_mean_s)}"
            f" + post-release queueing {_format_hours(workflow.post_release_wait_mean_s)}"
            f" per stage; {workflow.transfer_seconds:,.0f}s moving artifacts\n"
        )

    serving = metrics.serving
    if serving is not None:
        out.write(
            f"serving: {serving.services} services, "
            f"{serving.offered_requests / 1e6:.1f}M requests offered, "
            f"SLO attainment {serving.slo_attainment:.1%}, "
            f"goodput {serving.goodput_rps:,.0f} req/s\n"
        )
        out.write(
            f"serving capacity: {serving.baseline_gpu_hours:,.0f} baseline GPU-h + "
            f"{serving.harvested_gpu_hours:,.0f} harvested GPU-h "
            f"({serving.replica_launches} replica launches, "
            f"{serving.replica_preemptions} preempted, "
            f"{serving.scale_up_events}↑/{serving.scale_down_events}↓ scalings)\n"
        )

    hours = gpu_hours_by_entity(result.jobs, "user_id")
    top = sorted(hours.items(), key=lambda item: -item[1])[:top_n]
    if top:
        rows = [
            {"user": user, "gpu_hours": round(value, 1),
             "share": f"{value / max(1e-9, sum(hours.values())):.0%}"}
            for user, value in top
        ]
        out.write(render_table(rows, title=f"top {len(top)} users by GPU-hours"))
    fairness = fairness_summary(result.jobs, key="lab_id")
    out.write(f"lab fairness: Jain {fairness['jain']:.3f} across {fairness['entities']:.0f} labs\n")
    return out.getvalue()


def federation_report(result: "FederationResult") -> str:
    """Render the retrospective of a federated run: fleet + per-site view.

    The per-site table carries each site's own goodput decomposition; the
    fleet line above it is the exact merge (shared horizon, shell progress
    re-credited), so the productive GPU-hours column sums to the fleet
    figure plus the migrated-checkpoint credit.
    """
    out = io.StringIO()
    fleet = result.metrics
    out.write(
        f"=== federation report: {len(result.sites)} sites, "
        f"{result.end_time / 86400.0:.1f} simulated days ===\n"
    )
    out.write(
        f"fleet jobs: {fleet.jobs_total} total — {fleet.jobs_completed} completed, "
        f"{fleet.jobs_failed} failed, {fleet.jobs_killed} killed, "
        f"{fleet.rejected_jobs} rejected at submit\n"
    )
    goodput = result.goodput
    out.write(
        f"fleet goodput: {goodput.goodput:.1%} = availability {goodput.availability:.1%}"
        f" × efficiency {goodput.efficiency:.1%}"
        f" × productive {goodput.productive_share:.1%}"
        f" ({goodput.productive_gpu_hours:,.0f} productive GPU-h of"
        f" {goodput.total_gpu_hours:,.0f} total)\n"
    )
    moved = sum(1 for event in result.migrations if not event.was_running)
    grown = len(result.migrations) - moved
    out.write(
        f"migrations: {len(result.migrations)} ({moved} queue rescues, "
        f"{grown} elastic growths), "
        f"{result.migrated_shell_gpu_hours:,.1f} GPU-h carried in checkpoints\n"
    )
    rows = []
    for site in result.sites:
        metrics = site.metrics
        site_goodput = metrics.goodput
        rows.append(
            {
                "site": site.name,
                "routed": site.routed_jobs,
                "completed": metrics.jobs_completed,
                "goodput": f"{site_goodput.goodput:.1%}" if site_goodput else "-",
                "avail": f"{site_goodput.availability:.1%}" if site_goodput else "-",
                "eff": f"{site_goodput.efficiency:.1%}" if site_goodput else "-",
                "productive_gpu_h": (
                    round(site_goodput.productive_gpu_hours, 1) if site_goodput else "-"
                ),
                "preempt": metrics.preemptions,
                "failures": metrics.node_failures,
            }
        )
    out.write(render_table(rows, title="per-site decomposition"))
    return out.getvalue()
