"""Systems experiments: F9 (locality/communication), T3 (failures),
T4 (compiler cache), F10 (simulator/scheduler scalability).

F9 and T4 are analytic/deterministic (no DES); T3 runs failure injection;
F10 measures this repository's own wall-clock scaling, the honesty check
that the simulator can carry trace-scale studies.
"""

from __future__ import annotations

import numpy as np

from .. import sweep
from ..cluster.topology import Locality
from ..compiler.cache import ChunkStore
from ..execlayer.comm import CommMethod, PlacementShape, sync_time_s
from ..sweep import ClusterSpec, SchedulerSpec, SimCell, TraceSpec
from ..workload.models import MODEL_CATALOG
from .common import ExperimentResult, campus_trace_spec

#: Placement shapes swept in F9: 16 GPUs arranged ever more spread out.
_F9_SHAPES: list[tuple[str, tuple[int, ...], Locality]] = [
    ("2n-same-rack", (8, 8), Locality.SAME_RACK),
    ("2n-cross-rack", (8, 8), Locality.CROSS_RACK),
    ("4n-same-rack", (4, 4, 4, 4), Locality.SAME_RACK),
    ("4n-cross-rack", (4, 4, 4, 4), Locality.CROSS_RACK),
    ("16n-cross-rack", (1,) * 16, Locality.CROSS_RACK),
]


def run_f9_locality(seed: int, scale: float) -> ExperimentResult:
    """F9: training throughput vs placement spread per comm substrate."""
    model = MODEL_CATALOG["bert-large"]
    intra_gbps, nic_gbps, oversub = 300.0, 100.0, 2.0
    ideal = PlacementShape((16,), Locality.SAME_NODE, intra_gbps, nic_gbps, oversub)
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for method in CommMethod:
        points = []
        for index, (label, gpus_per_node, locality) in enumerate(_F9_SHAPES):
            shape = PlacementShape(gpus_per_node, locality, intra_gbps, nic_gbps, oversub)
            iter_actual = model.compute_ms / 1000.0 + sync_time_s(
                model.gradient_mb, shape, method
            )
            iter_ideal = model.compute_ms / 1000.0 + sync_time_s(
                model.gradient_mb, ideal, CommMethod.RING
            )
            throughput = iter_ideal / iter_actual
            points.append((float(index), throughput))
            rows.append(
                {
                    "method": method.value,
                    "shape": label,
                    "iter_ms": iter_actual * 1000.0,
                    "rel_throughput": throughput,
                }
            )
        series[method.value] = points
    shape_legend = ", ".join(f"{i}={label}" for i, (label, *_rest) in enumerate(_F9_SHAPES))
    return ExperimentResult(
        "F9",
        "Locality vs training throughput (bert-large, 16 GPUs)",
        rows=rows,
        series=series,
        x_label="shape_index",
        notes=(
            f"Shape index: {shape_legend}. Ring all-reduce degrades with "
            "spread (cross-rack pays the oversubscribed spine); the parameter "
            "server bottlenecks hardest; in-network aggregation flattens the "
            "cross-rack penalty, recovering most of the locality loss."
        ),
    )


def run_t3_failures(seed: int, scale: float) -> ExperimentResult:
    """T3: failure taxonomy and job outcomes under injected node faults."""
    tspec = campus_trace_spec(seed, scale, days=14.0, load=0.8)
    result = sweep.run_one(
        SimCell(
            trace=tspec,
            scheduler=SchedulerSpec(name="backfill-easy"),
            sim={"sample_interval_s": 3600.0, "seed": seed},
            failures={
                "mtbf_hours": 24.0 * 20.0,
                "consumer_mtbf_factor": 4.0,
                "repair_hours_median": 2.0,
            },
        )
    )
    metrics = result.metrics
    total_failed = max(1, metrics.jobs_failed)
    rows = [
        {
            "category": category,
            "failed_jobs": count,
            "share_of_failures": count / total_failed,
        }
        for category, count in sorted(metrics.failure_taxonomy.items())
    ]
    rows.append(
        {
            "category": "(all failures)",
            "failed_jobs": metrics.jobs_failed,
            "share_of_failures": metrics.jobs_failed / max(1, metrics.jobs_total),
        }
    )
    return ExperimentResult(
        "T3",
        "Failure taxonomy",
        rows=rows,
        notes=(
            f"{metrics.node_failures} node failures over the run killed and "
            f"restarted running jobs ({result.jobs and sum(j.attempts > 1 for j in result.jobs.values())} "
            "jobs needed restarts); user errors dominate job failures, as in "
            "the operational study — most failures are not the cluster's "
            "fault."
        ),
    )


def run_t4_compiler_cache(seed: int, scale: float) -> ExperimentResult:
    """T4: delta-upload savings across realistic resubmission patterns."""
    rng = np.random.default_rng(seed)
    store = ChunkStore(chunk_size=1 << 16)  # 64 KiB chunks at this scale

    def random_bytes(size: int) -> bytes:
        return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    code = {f"src/module_{i}.py": random_bytes(20_000) for i in range(10)}
    dataset = {"data/train.bin": random_bytes(8_000_000)}
    environment = {"wheels/torch.whl": random_bytes(4_000_000)}

    rows = []

    def submit(label: str, workspace: dict[str, bytes]) -> None:
        _manifest, report = store.upload(workspace)
        rows.append(
            {
                "submission": label,
                "total_mb": report.total_bytes / 1e6,
                "uploaded_mb": report.uploaded_bytes / 1e6,
                "chunk_hit_rate": report.hit_rate,
                "dedup_factor": min(report.dedup_factor, 9999.0),
            }
        )

    submit("initial", {**code, **dataset, **environment})
    edited = dict(code)
    edited["src/module_0.py"] = code["src/module_0.py"][:-100] + random_bytes(100)
    submit("edit-one-file", {**edited, **dataset, **environment})
    added = dict(edited)
    added["src/module_new.py"] = random_bytes(15_000)
    submit("add-one-file", {**added, **dataset, **environment})
    submit("identical-resubmit", {**added, **dataset, **environment})
    grown = dict(added)
    grown["data/train_extra.bin"] = random_bytes(2_000_000)
    submit("grow-dataset", {**grown, **dataset, **environment})

    first, second = rows[0], rows[1]
    return ExperimentResult(
        "T4",
        "Compiler-layer content cache: delta uploads",
        rows=rows,
        notes=(
            f"The first submission uploads everything ({first['total_mb']:.1f} MB); "
            f"a one-line edit re-uploads {second['uploaded_mb']:.3f} MB — a "
            f"{second['dedup_factor']:.0f}× reduction — and identical "
            "resubmission uploads nothing."
        ),
    )


def run_f10_scalability(seed: int, scale: float) -> ExperimentResult:
    """F10: simulator throughput vs cluster size (fixed load)."""
    rows = []
    series = {"events_per_s": [], "sim_wall_s": []}
    node_counts = [4, 8, 16, 32, 64, 128, 256] if scale >= 1.0 else [4, 8, 16, 32]
    cells = {
        str(nodes): SimCell(
            trace=TraceSpec(
                days=2.0,
                synth_seed=seed + nodes,
                load=0.9,
                load_gpus=nodes * 8,
                load_seed=0,
                model_seed=seed,
            ),
            scheduler=SchedulerSpec(name="backfill-easy"),
            cluster=ClusterSpec(kind="uniform", nodes=nodes, gpus_per_node=8),
        )
        for nodes in node_counts
    }
    results = sweep.run_cells(cells)
    for nodes in node_counts:
        result = results[str(nodes)]
        # Wall time is measured in-worker around the simulation proper and
        # travels with the (possibly cached) result — see CellResult.wall_s.
        elapsed = result.wall_s
        events_per_s = result.events_processed / max(elapsed, 1e-9)
        gpus = float(nodes * 8)
        rows.append(
            {
                "gpus": int(gpus),
                "jobs": result.trace_jobs,
                "events": result.events_processed,
                "sim_wall_s": elapsed,
                "events_per_s": events_per_s,
                "sim_days_per_wall_s": (result.end_time / 86400.0) / max(elapsed, 1e-9),
                "placement_attempts": int(result.perf["placement_attempts"]),
                "nodes_per_attempt": round(result.perf["nodes_per_attempt"], 3),
            }
        )
        series["events_per_s"].append((gpus, events_per_s))
        series["sim_wall_s"].append((gpus, elapsed))
    return ExperimentResult(
        "F10",
        "Simulator scalability vs cluster size",
        rows=rows,
        series=series,
        x_label="gpus",
        notes=(
            "The incremental cluster index keeps nodes-examined-per-attempt "
            "roughly flat as the cluster grows (candidate scans are pre-"
            "bucketed by GPU type and doomed attempts are rejected in O(1) "
            "from the availability histogram), so wall time scales with the "
            "event count rather than cluster-size x queue-depth, and multi-"
            "month campus traces simulate in seconds-to-minutes."
        ),
    )
