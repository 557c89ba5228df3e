"""The experiment registry: every paper table/figure mapped to a runner.

``EXPERIMENTS`` is the single source of truth the CLI
(``python -m repro.experiments``), the tests and the EXPERIMENTS.md
generator all consult.  IDs follow DESIGN.md's reconstructed index
(T = table, F = figure).
"""

from __future__ import annotations

from ..errors import ConfigError
from .ablations import (
    run_a1_estimate_quality,
    run_a2_elasticity,
    run_a3_checkpoint_cost,
    run_a4_storage_cache,
    run_a5_learned_predictions,
)
from .characterization import (
    run_f1_arrivals,
    run_f2_gpu_demand,
    run_f3_durations,
    run_t1_cluster_composition,
)
from .common import ExperimentResult, ExperimentSpec
from .federation import run_f_fed
from .quota_placement import run_f7_quota_tiers, run_f8_placement, run_t5_fairness
from .serving import run_s1_serving_slo, run_s2_serving_colocation
from .scheduling import (
    run_f4_utilization,
    run_f5_queueing,
    run_f6_backfill,
    run_f11_gang,
    run_t2_sched_comparison,
)
from .systems import (
    run_f9_locality,
    run_f10_scalability,
    run_t3_failures,
    run_t4_compiler_cache,
)
from .workflows import run_w_dag

EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "T1", "Cluster composition", "table", run_t1_cluster_composition,
            "Hardware inventory of the campus cluster: node groups, GPU types, fabric.",
        ),
        ExperimentSpec(
            "F1", "Diurnal submission pattern", "figure", run_f1_arrivals,
            "Jobs/hour by hour-of-day, weekday vs weekend, from the synthesized trace.",
        ),
        ExperimentSpec(
            "F2", "GPU demand distribution", "figure", run_f2_gpu_demand,
            "Job-count share vs GPU-hour share per GPU demand (1-GPU dominance).",
        ),
        ExperimentSpec(
            "F3", "Duration CDFs by demand class", "figure", run_f3_durations,
            "Heavy-tailed log-normal durations, wider jobs running longer.",
        ),
        ExperimentSpec(
            "F4", "Utilization over time", "figure", run_f4_utilization,
            "Two-week replay under EASY backfill: utilization + queue depth series.",
        ),
        ExperimentSpec(
            "F5", "Queueing delay by scheduler", "figure", run_f5_queueing,
            "Wait-time CDFs of six policies on the same load-calibrated trace.",
        ),
        ExperimentSpec(
            "T2", "Scheduler comparison", "table", run_t2_sched_comparison,
            "JCT/wait/utilization/makespan table across the policy zoo.",
        ),
        ExperimentSpec(
            "F6", "Backfill ablation", "figure", run_f6_backfill,
            "None vs conservative vs EASY backfill, split by job width.",
        ),
        ExperimentSpec(
            "F7", "Two-tier quota behaviour", "figure", run_f7_quota_tiers,
            "Guaranteed vs opportunistic wait and preemption churn under quota reclaim.",
        ),
        ExperimentSpec(
            "F8", "Placement ablation", "figure", run_f8_placement,
            "first/best/worst-fit vs topology-aware vs HiveD buddy cells: fragmentation and wide-job wait.",
        ),
        ExperimentSpec(
            "F9", "Locality vs throughput", "figure", run_f9_locality,
            "Ring/tree/PS/in-network sync across placement spreads (analytic).",
        ),
        ExperimentSpec(
            "T3", "Failure taxonomy", "table", run_t3_failures,
            "Job failure categories and node-failure impact under injection.",
        ),
        ExperimentSpec(
            "T4", "Compiler cache savings", "table", run_t4_compiler_cache,
            "Delta-upload bytes across realistic resubmission patterns.",
        ),
        ExperimentSpec(
            "F10", "Simulator scalability", "figure", run_f10_scalability,
            "Wall-clock throughput of the DES as the cluster grows.",
        ),
        ExperimentSpec(
            "F11", "Gang time-slicing", "figure", run_f11_gang,
            "Interactive wait under overload with and without time slicing.",
        ),
        ExperimentSpec(
            "T5", "Fairness across labs", "table", run_t5_fairness,
            "Jain index per scheduler plus per-lab quota adherence.",
        ),
        ExperimentSpec(
            "S1", "Serving SLO vs offered load", "table", run_s1_serving_slo,
            "SLO attainment and goodput as request load grows: autoscaled harvesting vs a fixed baseline fleet.",
        ),
        ExperimentSpec(
            "S2", "Serving co-location impact", "table", run_s2_serving_colocation,
            "Training-tier waits and preemptions with and without a co-located autoscaled serving fleet.",
        ),
        ExperimentSpec(
            "A1", "Estimate-quality ablation", "table", run_a1_estimate_quality,
            "SJF/backfill sensitivity to wall-time estimate inflation (oracle bound).",
        ),
        ExperimentSpec(
            "A2", "Elasticity ablation", "table", run_a2_elasticity,
            "Pollux-style elastic resizing vs rigid backfill under saturation.",
        ),
        ExperimentSpec(
            "A3", "Checkpoint-cost ablation", "table", run_a3_checkpoint_cost,
            "Preemption checkpoint cost vs free-tier JCT under the quota design.",
        ),
        ExperimentSpec(
            "A4", "Storage-cache ablation", "table", run_a4_storage_cache,
            "Dataset staging time vs node-local cache capacity.",
        ),
        ExperimentSpec(
            "A5", "Learned runtime predictions", "table", run_a5_learned_predictions,
            "Online per-user runtime prediction vs user estimates vs oracle SJF.",
        ),
        ExperimentSpec(
            "F-FED", "Federated multi-site goodput", "table", run_f_fed,
            "Cross-cluster routing/migration policies vs a single overloaded home site, with the fleet goodput decomposition.",
        ),
        ExperimentSpec(
            "W-DAG", "Workflow-DAG placement", "table", run_w_dag,
            "Transfer-aware vs oblivious placement for pipeline DAGs: makespan, critical-path bound, and artifact fetch time.",
        ),
    ]
}


def run_experiment(experiment_id: str, seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by ID."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return spec.run(seed=seed, scale=scale)

