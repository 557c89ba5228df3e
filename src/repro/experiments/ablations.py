"""Ablation experiments: the design-choice sensitivity studies (A1–A4).

DESIGN.md calls out four design choices whose sensitivity the study
discusses; each gets an ablation:

* **A1 — estimate quality**: scheduling on user wall-time estimates vs
  progressively worse overestimates vs an oracle.
* **A2 — elasticity**: the Pollux-style elastic scheduler vs rigid
  backfill on the same saturated workload.
* **A3 — checkpoint cost**: how preemption overhead erodes the tiered-
  quota design's free tier.
* **A4 — dataset staging cache**: shared-filesystem staging with and
  without node-local caches, across cache sizes.

Every arm is a sweep cell; per-run instruments (storage hit rate, the
learned predictor's observation count) come back in ``result.extras``.
"""

from __future__ import annotations

import numpy as np

from .. import sweep
from ..sched import QuotaConfig
from ..sweep import SchedulerSpec, SimCell
from ..workload.job import LifecycleState
from .common import ExperimentResult, campus_trace_spec


def run_a1_estimate_quality(seed: int, scale: float) -> ExperimentResult:
    """A1: how much does wall-time estimate *noise* cost SJF and backfill?

    Uniform inflation is order-preserving (scale cancels out of both SJF's
    ranking and backfill's shadow-time test), so what this ablation sweeps
    is the log-normal noise width — the degree to which estimates scramble
    the true duration ranking.
    """
    sweeps = [("oracle", None), ("rank-perfect", 0.01), ("typical", 0.6), ("noisy", 1.5), ("chaotic", 2.5)]
    cells = {}
    for label, sigma in sweeps:
        overrides = {}
        if sigma is not None:
            overrides = {"walltime_overestimate_sigma": sigma}
        tspec = campus_trace_spec(seed, scale, days=5.0, load=1.3, **overrides)
        scheduler_name = "sjf-oracle" if sigma is None else "sjf"
        for policy in (scheduler_name, "backfill-easy"):
            cells[f"{label}:{policy}"] = SimCell(
                trace=tspec, scheduler=SchedulerSpec(name=policy)
            )
    results = sweep.run_cells(cells)
    rows = []
    for label, sigma in sweeps:
        scheduler_name = "sjf-oracle" if sigma is None else "sjf"
        for policy in (scheduler_name, "backfill-easy"):
            result = results[f"{label}:{policy}"]
            rows.append(
                {
                    "estimates": label,
                    "scheduler": policy,
                    "avg_wait_h": result.metrics.wait_mean_s / 3600.0,
                    "avg_jct_h": result.metrics.jct_mean_s / 3600.0,
                    "p99_wait_h": result.metrics.wait_percentiles["p99"] / 3600.0,
                }
            )
    return ExperimentResult(
        "A1",
        "Wall-time estimate quality ablation",
        rows=rows,
        notes=(
            "SJF's advantage erodes as estimate noise scrambles its ranking; "
            "backfill is more robust (the shadow-time test is scale-invariant "
            "and only mildly rank-sensitive). The oracle rows bound what "
            "perfect duration knowledge could buy. At campus scale the "
            "penalty is modest — queue contention moments, where ordering "
            "actually decides who gets a freed slot, are a minority of "
            "scheduling decisions."
        ),
    )


def run_a2_elasticity(seed: int, scale: float) -> ExperimentResult:
    """A2: elastic (Pollux-style) vs rigid scheduling under saturation."""
    tspec = campus_trace_spec(seed, scale, days=5.0, load=1.2, elastic_fraction=0.7)
    cells = {
        "rigid-backfill": SimCell(
            trace=tspec, scheduler=SchedulerSpec(name="backfill-easy")
        ),
        "elastic": SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(
                name="elastic", params={"tick_s": 900.0, "resize_cooldown_s": 3600.0}
            ),
        ),
    }
    rows = []
    for name, result in sweep.run_cells(cells).items():
        jobs = list(result.jobs.values())
        elastic_jobs = [j for j in jobs if j.elastic]
        waits = [j.wait_time for j in elastic_jobs if j.wait_time is not None]
        rows.append(
            {
                "policy": name,
                "avg_wait_h": result.metrics.wait_mean_s / 3600.0,
                "elastic_wait_p50_h": float(np.median(waits)) / 3600.0 if waits else float("nan"),
                "avg_jct_h": result.metrics.jct_mean_s / 3600.0,
                "utilization": result.metrics.avg_utilization,
                "resizes": result.metrics.preemptions,
            }
        )
    return ExperimentResult(
        "A2",
        "Elastic vs rigid scheduling",
        rows=rows,
        notes=(
            "Under a 1.2x offered load, resizing elastic jobs downward admits "
            "queued work immediately: waits drop versus rigid backfill at the "
            "cost of resize churn; served JCT of elastic jobs stretches only "
            "while the cluster is actually contended."
        ),
    )


def run_a3_checkpoint_cost(seed: int, scale: float) -> ExperimentResult:
    """A3: preemption checkpoint cost vs free-tier usefulness."""
    tspec = campus_trace_spec(seed, scale, days=5.0, load=1.5, guaranteed_fraction=0.6)
    quota = QuotaConfig.equal_shares(sweep.trace_meta(tspec).labs, 176, fraction=0.85)
    cells = {
        str(loss_s): SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="tiered-quota", quotas=dict(quota.quotas)),
            sim={"sample_interval_s": 0.0, "checkpoint_loss_s": loss_s},
        )
        for loss_s in (0.0, 60.0, 900.0, 3600.0)
    }
    results = sweep.run_cells(cells)
    rows = []
    for loss_s in (0.0, 60.0, 900.0, 3600.0):
        result = results[str(loss_s)]
        metrics = result.metrics
        opportunistic_jct = [
            j.jct
            for j in result.jobs.values()
            if j.tier.value == "opportunistic" and j.jct is not None
        ]
        useful_gpu_h = sum(
            j.duration * j.num_gpus / 3600.0
            for j in result.jobs.values()
            if j.lifecycle is LifecycleState.FINISHED
        )
        rows.append(
            {
                "checkpoint_loss_s": loss_s,
                "preemptions": metrics.preemptions,
                "opp_jct_p50_h": float(np.median(opportunistic_jct)) / 3600.0
                if opportunistic_jct
                else float("nan"),
                "guaranteed_wait_h": metrics.wait_mean_by_tier["guaranteed"] / 3600.0,
                "wasted_gpu_h": metrics.served_gpu_hours - useful_gpu_h,
            }
        )
    return ExperimentResult(
        "A3",
        "Checkpoint-cost sensitivity of the two-tier design",
        rows=rows,
        notes=(
            "Guaranteed-tier latency is insensitive to checkpoint cost (it "
            "never pays it); opportunistic JCT and total served work degrade "
            "as each eviction burns more redone work — cheap checkpoints are "
            "what make the free tier nearly free."
        ),
    )


def run_a5_learned_predictions(seed: int, scale: float) -> ExperimentResult:
    """A5: learned runtime predictions vs user estimates vs oracle SJF."""
    tspec = campus_trace_spec(seed, scale, days=7.0, load=1.3)
    cells = {
        "sjf-user-estimates": SimCell(trace=tspec, scheduler=SchedulerSpec(name="sjf")),
        "sjf-predicted": SimCell(
            trace=tspec, scheduler=SchedulerSpec(name="sjf-predicted")
        ),
        "sjf-oracle": SimCell(trace=tspec, scheduler=SchedulerSpec(name="sjf-oracle")),
    }
    rows = []
    observations: int | None = None
    for name, result in sweep.run_cells(cells).items():
        row = {
            "policy": name,
            "avg_wait_h": result.metrics.wait_mean_s / 3600.0,
            "avg_jct_h": result.metrics.jct_mean_s / 3600.0,
            "p99_wait_h": result.metrics.wait_percentiles["p99"] / 3600.0,
        }
        if "predictor_observations" in result.extras:
            observations = int(result.extras["predictor_observations"])
            row["observations"] = observations
        rows.append(row)
    notes = (
        "A per-(user, width-class) quantile of observed runtimes replaces "
        "the 2.5x-inflated user estimates; prediction-driven SJF closes the "
        "estimate-to-oracle gap once history accrues — and can even edge "
        "out the oracle, because the oracle ranks by reference work while "
        "the predictor learns *wall* runtimes including hardware/placement "
        "slowdowns, which is what the queue actually experiences"
    )
    if observations is not None:
        notes += f" ({observations} runtimes observed online)."
    return ExperimentResult("A5", "Learned runtime predictions", rows=rows, notes=notes)


def run_a4_storage_cache(seed: int, scale: float) -> ExperimentResult:
    """A4: dataset-staging cache ablation."""
    tspec = campus_trace_spec(seed, scale, days=3.0, load=0.7)
    storage_configs = {
        "no-cache": {"node_cache_gb": 1e-6},
        "small-cache-200gb": {"node_cache_gb": 200.0},
        "standard-2tb": {"node_cache_gb": 2000.0},
    }
    cells = {
        label: SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="backfill-easy"),
            sim={"sample_interval_s": 0.0},
            storage=dict(storage_kwargs),
        )
        for label, storage_kwargs in storage_configs.items()
    }
    rows = []
    for label, result in sweep.run_cells(cells).items():
        rows.append(
            {
                "cache": label,
                "stage_hours_total": result.metrics.stage_seconds / 3600.0,
                "cache_hit_rate": result.extras["storage_hit_rate"],
                "staged_tb": result.extras["storage_bytes_staged_gb"] / 1000.0,
                "avg_jct_h": result.metrics.jct_mean_s / 3600.0,
            }
        )
    return ExperimentResult(
        "A4",
        "Dataset staging cache ablation",
        rows=rows,
        notes=(
            "Node-local caches turn repeat experiments on the same data "
            "from cold stages into instant starts: hit rate rises with cache "
            "size and total staging time falls accordingly."
        ),
    )
