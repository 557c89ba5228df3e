"""Quota, placement and fairness experiments: F7, F8, T5.

F7 measures the two-tier quota design's core promise (guaranteed-tier
latency) and cost (opportunistic-tier preemption churn).  F8 ablates the
placement policy under a multi-GPU-heavy workload, measuring fragmentation
and wide-job waits.  T5 reports cross-lab fairness under different
schedulers.  All runs are declared as sweep cells; F8's fragmentation
probe is requested declaratively and captured worker-side.
"""

from __future__ import annotations

import numpy as np

from .. import sweep
from ..ops.fairness import fairness_summary, jain_index, quota_adherence
from ..sched import QuotaConfig
from ..sweep import SchedulerSpec, SimCell
from ..workload.job import JobTier, LifecycleState
from .common import ExperimentResult, campus_trace_spec


def run_f7_quota_tiers(seed: int, scale: float) -> ExperimentResult:
    """F7: guaranteed vs opportunistic wait and preemption under quota."""
    tspec = campus_trace_spec(seed, scale, days=7.0, load=1.15, guaranteed_fraction=0.5)
    quota = QuotaConfig.equal_shares(sweep.trace_meta(tspec).labs, 176, fraction=0.6)
    result = sweep.run_one(
        SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="tiered-quota", quotas=dict(quota.quotas)),
        )
    )
    jobs = list(result.jobs.values())
    rows = []
    for tier in JobTier:
        tier_jobs = [j for j in jobs if j.tier is tier]
        waits = [j.wait_time for j in tier_jobs if j.wait_time is not None]
        rows.append(
            {
                "tier": tier.value,
                "jobs": len(tier_jobs),
                "wait_p50_h": float(np.median(waits)) / 3600.0 if waits else float("nan"),
                "wait_p95_h": float(np.percentile(waits, 95)) / 3600.0 if waits else float("nan"),
                "preemptions": sum(j.preemptions for j in tier_jobs),
                "completed": sum(
                    1 for j in tier_jobs if j.lifecycle is LifecycleState.FINISHED
                ),
            }
        )
    entitled = rows[0]
    free_tier = rows[1]
    return ExperimentResult(
        "F7",
        "Two-tier quota: wait and preemption by tier",
        rows=rows,
        notes=(
            f"Guaranteed jobs wait a median {entitled['wait_p50_h']:.2f} h while "
            f"opportunistic jobs wait {free_tier['wait_p50_h']:.2f} h and absorb "
            f"all {free_tier['preemptions']} preemptions — idle capacity is "
            "monetised as a free tier without hurting paying labs."
        ),
    )


def run_f8_placement(seed: int, scale: float) -> ExperimentResult:
    """F8: placement-policy ablation under a multi-GPU-heavy workload."""
    tspec = campus_trace_spec(
        seed,
        scale,
        days=5.0,
        load=0.95,
        gpu_demand_pmf={1: 0.35, 2: 0.20, 4: 0.20, 8: 0.15, 16: 0.07, 32: 0.03},
    )
    cells = {
        placement_name: SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="backfill-easy", placement=placement_name),
            probes=("fragmentation",),
        )
        for placement_name in (
            "first-fit",
            "best-fit",
            "worst-fit",
            "topology-aware",
            "buddy-cell",
        )
    }
    rows = []
    for placement_name, result in sweep.run_cells(cells).items():
        jobs = list(result.jobs.values())
        wide_waits = [j.wait_time for j in jobs if j.num_gpus >= 8 and j.wait_time is not None]
        row = {
            "placement": placement_name,
            "wide_wait_p50_h": float(np.median(wide_waits)) / 3600.0
            if wide_waits
            else float("nan"),
            "wide_wait_p99_h": float(np.percentile(wide_waits, 99)) / 3600.0
            if wide_waits
            else float("nan"),
            "mean_frag": result.extras["mean_frag"],
            "utilization": result.metrics.avg_utilization,
            "avg_jct_h": result.metrics.jct_mean_s / 3600.0,
        }
        if "alignment_waste_gpus" in result.extras:
            row["alignment_waste_gpus"] = result.extras["alignment_waste_gpus"]
        rows.append(row)
    return ExperimentResult(
        "F8",
        "Placement ablation: fragmentation and wide-job wait",
        rows=rows,
        notes=(
            "Fragmentation-aware packing (best-fit, topology-aware, buddy "
            "cells) keeps wide-job waits and fragmentation below first-fit; "
            "worst-fit shreds nodes and is the anti-baseline. Buddy cells pay "
            "a small alignment waste for affinity guarantees."
        ),
    )


def run_t5_fairness(seed: int, scale: float) -> ExperimentResult:
    """T5: cross-lab fairness (Jain) and quota adherence."""
    tspec = campus_trace_spec(seed, scale, days=7.0, load=1.05)
    quota = QuotaConfig.equal_shares(sweep.trace_meta(tspec).labs, 176, fraction=0.6)
    cells = {
        "fifo": SimCell(trace=tspec, scheduler=SchedulerSpec(name="fifo")),
        "fair-share": SimCell(trace=tspec, scheduler=SchedulerSpec(name="fair-share")),
        "tiered-quota": SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="tiered-quota", quotas=dict(quota.quotas)),
        ),
    }
    rows = []
    adherence_rows = []
    for name, result in sweep.run_cells(cells).items():
        lab_summary = fairness_summary(result.jobs, key="lab_id")
        user_summary = fairness_summary(result.jobs, key="user_id")
        rows.append(
            {
                "scheduler": name,
                "jain_labs": lab_summary["jain"],
                "jain_users": user_summary["jain"],
                "max_lab_share": lab_summary["max_share"],
                "avg_wait_h": result.metrics.wait_mean_s / 3600.0,
            }
        )
        if name == "tiered-quota":
            horizon = max(1.0, result.end_time)
            for report in quota_adherence(result.jobs, quota, horizon):
                adherence_rows.append(
                    {
                        "lab": report.lab,
                        "quota_gpus": report.quota_gpus,
                        "guaranteed_gpu_h": report.guaranteed_gpu_hours,
                        "free_tier_gpu_h": report.opportunistic_gpu_hours,
                        "adherence": report.adherence,
                    }
                )
    lab_hours = [row["guaranteed_gpu_h"] for row in adherence_rows]
    notes = (
        "Fair-share and tiered-quota raise Jain's index over FIFO (whose lab "
        "shares just mirror demand skew)."
    )
    if lab_hours:
        notes += (
            f" Under tiered-quota, guaranteed-tier GPU-hours across labs have "
            f"Jain {jain_index(lab_hours):.3f}."
        )
    result_rows = rows + adherence_rows
    return ExperimentResult("T5", "Fairness across labs", rows=result_rows, notes=notes)
