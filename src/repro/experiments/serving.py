"""Inference-serving experiments: S1, S2.

S1 stresses the serving story itself: as offered load grows past what the
baseline (quota-backed) replicas can serve, does autoscaled harvesting of
idle GPUs hold the p99 SLO where a fixed fleet visibly cannot?  S2 turns
the question around and asks what serving costs training: co-locating an
autoscaled fleet on the campus cluster must leave the guaranteed tier's F7
promise (near-zero wait) intact, pushing all displacement into the
opportunistic tier.

The fleets are declared as :class:`~repro.sweep.ServingSpec` data so each
(arm, multiplier) run is an independent sweep cell.
"""

from __future__ import annotations

import numpy as np

from .. import sweep
from ..sched import QuotaConfig
from ..sweep import SchedulerSpec, ServingSpec, SimCell, TraceSpec
from ..workload.job import JobTier, LifecycleState
from ..workload.trace import Trace
from .common import ExperimentResult, campus_trace_spec

#: Lab owning the co-located inference services.
SERVING_LAB = "lab-serve"

#: Horizon of the serving experiments (scaled like every other experiment).
SERVING_DAYS = 3.0


def serving_services(load_multiplier: float = 1.0) -> tuple[tuple[dict, dict], ...]:
    """The standard two-service fleet of the S-experiments, as spec data.

    A chat-style service (gpt2-medium, ~26 req/s per V100 replica) and an
    embedding service (bert-base, ~43 req/s per replica).  At multiplier
    1.0 the baseline replicas cover the diurnal peak with margin; past
    ~1.5× the chat baseline saturates and only surge capacity can hold
    the SLO.
    """
    return (
        (
            {
                "service_id": "svc-chat",
                "user_id": "u-serve-1",
                "lab_id": SERVING_LAB,
                "model_name": "gpt2-medium",
                "slo_p99_s": 2.0,
                "base_replicas": 2,
                "max_replicas": 12,
            },
            {"peak_rps": 40.0 * load_multiplier},
        ),
        (
            {
                "service_id": "svc-embed",
                "user_id": "u-serve-2",
                "lab_id": SERVING_LAB,
                "model_name": "bert-base",
                "slo_p99_s": 0.5,
                "base_replicas": 1,
                "max_replicas": 8,
            },
            {"peak_rps": 25.0 * load_multiplier, "start_weekday": 2},
        ),
    )


def serving_workload(load_multiplier: float = 1.0):
    """The standard fleet as live (ServiceSpec, ServiceLoadConfig) pairs.

    Kept for callers that build a :class:`~repro.serving.ServingFleet`
    directly (lifecycle tests, golden captures); the experiments
    themselves ship :func:`serving_services` spec data inside cells.
    """
    from ..serving import ServiceLoadConfig, ServiceSpec

    return [
        (ServiceSpec(**service), ServiceLoadConfig(**load))
        for service, load in serving_services(load_multiplier)
    ]


def _quota_with_serving_slice(labs: tuple[str, ...]) -> QuotaConfig:
    base = QuotaConfig.equal_shares(labs, 176, fraction=0.6)
    quotas = dict(base.quotas)
    quotas[SERVING_LAB] = 3
    return QuotaConfig(quotas=quotas)


def serving_quota(trace: Trace) -> QuotaConfig:
    """Campus quota plus a small guaranteed slice for the serving lab.

    The serving lab's quota covers exactly its baseline replicas (3 GPUs):
    baselines are entitled, everything the autoscaler adds on top must be
    harvested opportunistically.
    """
    return _quota_with_serving_slice(trace.labs())


def _colocated_cell(
    tspec: TraceSpec,
    quota: QuotaConfig,
    seed: int,
    scale: float,
    load_multiplier: float,
    autoscaled: bool,
) -> SimCell:
    """One (trace copy, serving fleet) co-located run under tiered quota."""
    return SimCell(
        trace=tspec,
        scheduler=SchedulerSpec(name="tiered-quota", quotas=dict(quota.quotas)),
        serving=ServingSpec(
            services=serving_services(load_multiplier),
            days=max(1.0, SERVING_DAYS * scale),
            autoscaled=autoscaled,
            seed=seed + 13,
        ),
    )


def run_s1_serving_slo(seed: int, scale: float) -> ExperimentResult:
    """S1: SLO attainment vs offered load, harvesting vs fixed replicas."""
    tspec = campus_trace_spec(seed, scale, days=SERVING_DAYS, load=0.9)
    quota = _quota_with_serving_slice(sweep.trace_meta(tspec).labs)
    cells = {}
    for multiplier in (0.5, 1.0, 2.0, 3.0, 5.0):
        for arm, autoscaled in (("autoscaled", True), ("fixed", False)):
            cells[f"{multiplier}:{arm}"] = _colocated_cell(
                tspec, quota, seed, scale, multiplier, autoscaled
            )
    results = sweep.run_cells(cells)
    rows = []
    attainment: dict[str, list[tuple[float, float]]] = {
        "autoscaled": [],
        "fixed": [],
    }
    for multiplier in (0.5, 1.0, 2.0, 3.0, 5.0):
        for arm in ("autoscaled", "fixed"):
            result = results[f"{multiplier}:{arm}"]
            serving = result.metrics.serving
            assert serving is not None
            rows.append(
                {
                    "load_x": multiplier,
                    "arm": arm,
                    "offered_mreq": serving.offered_requests / 1e6,
                    "slo_attainment": serving.slo_attainment,
                    "goodput_rps": serving.goodput_rps,
                    "harvested_gpu_h": serving.harvested_gpu_hours,
                    "serving_preempt": serving.replica_preemptions,
                    "guar_wait_h": result.metrics.wait_mean_by_tier["guaranteed"]
                    / 3600.0,
                }
            )
            attainment[arm].append((multiplier, serving.slo_attainment))
    top = max(row["load_x"] for row in rows)
    by_arm = {(row["load_x"], row["arm"]): row for row in rows}
    peak_auto = by_arm[(top, "autoscaled")]
    peak_fixed = by_arm[(top, "fixed")]
    return ExperimentResult(
        "S1",
        "Serving SLO attainment vs offered load",
        rows=rows,
        series=attainment,
        x_label="load_x",
        notes=(
            f"At {top:g}x load the fixed baseline fleet attains the p99 SLO for only "
            f"{peak_fixed['slo_attainment']:.0%} of requests while autoscaled "
            f"harvesting holds {peak_auto['slo_attainment']:.0%} using "
            f"{peak_auto['harvested_gpu_h']:.0f} harvested GPU-hours of surge "
            f"capacity — and guaranteed-tier training wait stays at "
            f"{peak_auto['guar_wait_h']:.2f} h (fixed arm: "
            f"{peak_fixed['guar_wait_h']:.2f} h), because surge replicas run "
            "opportunistically and absorb the reclaim preemptions themselves."
        ),
    )


def run_s2_serving_colocation(seed: int, scale: float) -> ExperimentResult:
    """S2: does co-located serving disturb training's tier guarantees?"""
    tspec = campus_trace_spec(
        seed, scale, days=SERVING_DAYS, load=1.1, guaranteed_fraction=0.5
    )
    quota = _quota_with_serving_slice(sweep.trace_meta(tspec).labs)
    cells = {
        "co-located": _colocated_cell(
            tspec, quota, seed, scale, load_multiplier=1.5, autoscaled=True
        ),
        "training-only": SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="tiered-quota", quotas=dict(quota.quotas)),
        ),
    }
    results = sweep.run_cells(cells)
    colocated = results["co-located"]
    training_only = results["training-only"]
    assert colocated.metrics.serving is not None
    rows = []
    for arm, result in (("training-only", training_only), ("co-located", colocated)):
        training_jobs = [j for j in result.jobs.values() if j.service_id is None]
        for tier in JobTier:
            tier_jobs = [j for j in training_jobs if j.tier is tier]
            waits = [j.wait_time for j in tier_jobs if j.wait_time is not None]
            rows.append(
                {
                    "arm": arm,
                    "tier": tier.value,
                    "jobs": len(tier_jobs),
                    "wait_p50_h": float(np.median(waits)) / 3600.0
                    if waits
                    else float("nan"),
                    "wait_p95_h": float(np.percentile(waits, 95)) / 3600.0
                    if waits
                    else float("nan"),
                    "preemptions": sum(j.preemptions for j in tier_jobs),
                    "completed": sum(
                        1 for j in tier_jobs if j.lifecycle is LifecycleState.FINISHED
                    ),
                }
            )
    serving = colocated.metrics.serving
    guar = {row["arm"]: row for row in rows if row["tier"] == "guaranteed"}
    oppo = {row["arm"]: row for row in rows if row["tier"] == "opportunistic"}
    return ExperimentResult(
        "S2",
        "Training-tier impact of co-located serving",
        rows=rows,
        notes=(
            f"Adding a serving fleet ({serving.offered_requests / 1e6:.1f}M "
            f"requests at {serving.slo_attainment:.0%} SLO attainment, "
            f"{serving.harvested_gpu_hours:.0f} harvested GPU-hours) moves "
            f"guaranteed-tier median training wait from "
            f"{guar['training-only']['wait_p50_h']:.2f} h to "
            f"{guar['co-located']['wait_p50_h']:.2f} h — the F7 promise holds "
            f"— while the opportunistic tier absorbs the squeeze "
            f"(p95 wait {oppo['training-only']['wait_p95_h']:.1f} h → "
            f"{oppo['co-located']['wait_p95_h']:.1f} h); harvested serving "
            "competes with free-tier training for idle GPUs, not with paid "
            "quota."
        ),
    )
