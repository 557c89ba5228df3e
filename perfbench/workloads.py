"""The benchmark's workloads: inputs, one operation each, and output digests.

Every workload draws its *instances* from a fixed pool.  An instance is a
small integer that seeds everything random about one operation (trace
synthesis, model assignment, failure sampling, or the experiment suite's
``--seed``).  The benchmark seed only chooses which pool instances a run
visits and in what order, so every operation's output can be checked
against the digest recorded for its instance in ``references/``.  A
separate held-out slice of each pool is visited only under
:data:`HELD_OUT_SEED`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

#: Seed whose runs visit only the held-out slice of every pool.  A claimed
#: gain must also hold on it.
HELD_OUT_SEED = 7919

# Workload parameters, recorded with every result.  Entries given as text
# ("mix", "failures", "experiments") name library defaults the set-up uses.
FLEET = {
    "nodes": 4096,
    "gpus_per_node": 8,
    "gpu_type": "v100",
    "days": 1.0,
    "load": 0.95,
    "duration_scale": 0.65,
    "scheduler": "backfill-easy",
    "placement": "first-fit",
    "sample_interval_s": 3600.0,
    "record_transitions": False,
}

CAMPUS = {
    "nodes": 32,
    "gpus_per_node": 8,
    "mix": "a100-80 0.2 / v100 0.5 / rtx3090 0.3",
    "days": 2.0,
    "load": 1.2,
    "scheduler": "backfill-easy",
    "placement": "best-fit",
    "failures": "FailureConfig() defaults",
    "sample_interval_s": 1800.0,
}

SUITE = {"experiments": "--all", "scale": 0.1, "jobs": 1}

#: workload -> (ordinary pool size, held-out pool size); instances
#: ``[0, ordinary)`` serve every seed but the held-out one, which visits
#: ``[ordinary, ordinary + held_out)``.
POOLS = {
    "fleet-window": (48, 8),
    "campus-congested": (2048, 256),
    "suite": (40, 8),
}

PARAMETERS = {
    "fleet-window": FLEET,
    "campus-congested": CAMPUS,
    "suite": SUITE,
    "suite-warm": SUITE,
}

#: The suite's two workloads share one pool and one reference file.
REFERENCE_OF = {
    "fleet-window": "fleet-window",
    "campus-congested": "campus-congested",
    "suite": "suite",
    "suite-warm": "suite",
}


#: Cost strata per workload.  Each run visits the strata round-robin, so
#: every run sees cheap and expensive instances in the same proportion and
#: the spread between seeds measures the program, not the luck of the draw.
STRATA = {"fleet-window": 3, "campus-congested": 8, "suite": 3}


def cost(work: dict[str, int]) -> int:
    """Machine-independent size of one instance's work (for stratifying)."""
    return work["events"] + work["placement_attempts"] + work["nodes_examined"]


def instances(workload: str, seed: int, costs: dict[int, int]) -> list[int]:
    """The pool instances a run visits, in visiting order.

    The pool (or its held-out slice) is ranked by recorded cost and split
    into :data:`STRATA` equal strata; the seed permutes each stratum and the
    stratum order within every round.  ``suite-warm`` replays the cache of
    one instance, so its time follows that instance's size: it draws only
    from the middle stratum.
    """
    name = REFERENCE_OF[workload]
    ordinary, held_out = POOLS[name]
    if seed == HELD_OUT_SEED:
        pool = range(ordinary, ordinary + held_out)
    else:
        pool = range(ordinary)
    ranked = sorted(pool, key=lambda instance: (costs[instance], instance))
    rng = np.random.default_rng(seed)
    strata = [list(rng.permutation(chunk)) for chunk in np.array_split(ranked, STRATA[name])]
    if workload == "suite-warm":
        return [int(instance) for instance in strata[len(strata) // 2]]
    order: list[int] = []
    for turn in range(max(len(stratum) for stratum in strata)):
        for index in rng.permutation(len(strata)):
            if turn < len(strata[index]):
                order.append(int(strata[index][turn]))
    return order


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- simulation workloads -----------------------------------------------------


@dataclass
class Prepared:
    """A simulator ready to run, plus the input size it was built from."""

    simulator: Any
    jobs: int


def fleet_config() -> Any:
    """The fleet mix for one window, calibrated once (fixed calibration seed)."""
    from repro.workload.synth import DurationModel, tacc_campus, with_load

    base = tacc_campus(days=FLEET["days"], name="tacc-fleet")
    duration = DurationModel(
        median_minutes={
            gpus: minutes * FLEET["duration_scale"]
            for gpus, minutes in base.duration.median_minutes.items()
        },
        sigma=base.duration.sigma,
    )
    total_gpus = FLEET["nodes"] * FLEET["gpus_per_node"]
    return with_load(replace(base, duration=duration), total_gpus, FLEET["load"])


def campus_config() -> Any:
    from repro.workload.synth import tacc_campus, with_load

    total_gpus = CAMPUS["nodes"] * CAMPUS["gpus_per_node"]
    return with_load(tacc_campus(days=CAMPUS["days"]), total_gpus, CAMPUS["load"])


def fleet_setup(config: Any, instance: int) -> Prepared:
    """Vectorized synthesis + models + the 32k-GPU uniform cluster."""
    from repro.cluster.cluster import uniform_cluster
    from repro.execlayer.speedup import ExecutionModel
    from repro.sched import make_scheduler
    from repro.sim import SimConfig
    from repro.sim.simulator import ClusterSimulator
    from repro.workload.fleet import fleet_trace
    from repro.workload.models import assign_models

    trace = fleet_trace(config, seed=instance)
    assign_models(trace, seed=instance)
    cluster = uniform_cluster(
        FLEET["nodes"], gpus_per_node=FLEET["gpus_per_node"], gpu_type=FLEET["gpu_type"]
    )
    simulator = ClusterSimulator(
        cluster,
        make_scheduler(FLEET["scheduler"], placement=FLEET["placement"]),
        trace,
        exec_model=ExecutionModel(),
        config=SimConfig(
            sample_interval_s=FLEET["sample_interval_s"],
            record_transitions=FLEET["record_transitions"],
            seed=instance,
        ),
    )
    return Prepared(simulator, len(trace))


def campus_setup(config: Any, instance: int) -> Prepared:
    """Scalar synthesis + models + the heterogeneous campus cluster."""
    from repro.cluster.cluster import heterogeneous_cluster
    from repro.execlayer.speedup import ExecutionModel
    from repro.sched import make_scheduler
    from repro.sim import SimConfig
    from repro.sim.failures import FailureConfig
    from repro.sim.simulator import ClusterSimulator
    from repro.workload.models import assign_models
    from repro.workload.synth import TraceSynthesizer

    trace = TraceSynthesizer(config, seed=instance).generate()
    assign_models(trace, seed=instance)
    cluster = heterogeneous_cluster(CAMPUS["nodes"], gpus_per_node=CAMPUS["gpus_per_node"])
    simulator = ClusterSimulator(
        cluster,
        make_scheduler(CAMPUS["scheduler"], placement=CAMPUS["placement"]),
        trace,
        exec_model=ExecutionModel(),
        failure_config=FailureConfig(),
        config=SimConfig(sample_interval_s=CAMPUS["sample_interval_s"], seed=instance),
    )
    return Prepared(simulator, len(trace))


def work_counters(simulator: Any) -> dict[str, int]:
    """Exact, machine-independent work counters of one finished simulation."""
    perf = simulator.perf
    return {
        "events": simulator.engine.events_processed,
        "placement_attempts": perf.placement_attempts,
        "nodes_examined": perf.nodes_examined,
        "blocked_hits": perf.blocked_cache_hits,
        "reservations": perf.reservations_incremental + perf.reservations_scanned,
        "transitions": len(simulator.controller.log),
    }


def simulation_digest(result: Any, simulator: Any) -> str:
    """Digest of ``summary()`` plus the exact work counters."""
    return digest({"summary": result.summary(), "work": work_counters(simulator)})


# -- the experiment suite -------------------------------------------------------

_FOOTER = re.compile(r"^\[\S+ regenerated in .*\]$")

#: F10 columns measured with the host clock (they differ between processes).
F10_TIMING_COLUMNS = frozenset(
    {"sim_wall_s", "events_per_s", "sim_days_per_wall_s", "sched_pass_wall_s"}
)


def normalize_suite_output(text: str) -> str:
    """Drop the ``[... regenerated in ...]`` footers and F10's timing columns.

    Those are the only bytes of ``--all`` output that depend on the host
    clock; everything else must be identical between runs.
    """
    kept: list[str] = []
    in_f10 = False
    dropped: set[int] | None = None
    width = 0
    for line in text.splitlines():
        if _FOOTER.match(line):
            in_f10, dropped = False, None
            continue
        if line.startswith("== "):
            in_f10, dropped = line.startswith("== F10"), None
        elif in_f10:
            tokens = line.split()
            if not tokens:
                dropped = None
            elif dropped is None and F10_TIMING_COLUMNS.intersection(tokens):
                dropped = {i for i, token in enumerate(tokens) if token in F10_TIMING_COLUMNS}
                width = len(tokens)
            if dropped is not None and len(tokens) == width:
                line = "  ".join(t for i, t in enumerate(tokens) if i not in dropped)
        kept.append(line)
    return "\n".join(kept) + "\n"


@dataclass
class SuiteRun:
    text: str
    cells: int
    jobs: int
    work: dict[str, int]


@contextlib.contextmanager
def counting_cells() -> Iterator[dict[str, Any]]:
    """Count cells and their trace jobs as the sweep runner returns them."""
    from repro.sweep.runner import SweepRunner

    original = SweepRunner.__dict__["run_cells"]
    tally: dict[str, Any] = {"cells": 0, "jobs": 0, "runner": None}

    def run_cells(self: Any, cells: Any) -> Any:
        results = original(self, cells)
        tally["runner"] = self
        tally["cells"] += len(results)
        tally["jobs"] += sum(result.trace_jobs for result in results.values())
        return results

    SweepRunner.run_cells = run_cells  # type: ignore[method-assign]
    try:
        yield tally
    finally:
        SweepRunner.run_cells = original  # type: ignore[method-assign]


def run_suite(instance: int, cache_dir: Path) -> SuiteRun:
    """``python -m repro.experiments --all`` in-process, against *cache_dir*.

    The code-fingerprint memo is cleared first, so each call pays what a
    fresh CLI process pays for it.
    """
    from repro.errors import ReproError
    from repro.experiments.__main__ import main
    from repro.sweep.fingerprint import code_fingerprint

    code_fingerprint.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    argv = [
        "--all",
        "--scale",
        str(SUITE["scale"]),
        "--seed",
        str(instance),
        "--jobs",
        str(SUITE["jobs"]),
        "--cache-dir",
        str(cache_dir),
    ]
    with counting_cells() as tally, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if status != 0:
        raise ReproError(f"experiment suite exited {status}: {err.getvalue().strip()}")
    perf = tally["runner"].stats.perf_totals if tally["runner"] is not None else {}
    work = {
        "events": int(perf.get("events_dequeued", 0)),
        "placement_attempts": int(perf.get("placement_attempts", 0)),
        "nodes_examined": int(perf.get("nodes_examined", 0)),
    }
    return SuiteRun(out.getvalue(), tally["cells"], tally["jobs"], work)


def suite_digest(text: str) -> str:
    return digest(normalize_suite_output(text))
