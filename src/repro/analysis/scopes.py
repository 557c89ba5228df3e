"""Path scopes shared by the simlint rules.

Fragments are matched as substrings of posix-style paths, so the same
scopes work for the real tree (``src/repro/sim/engine.py``), for test
fixtures analyzed under virtual paths, and for out-of-tree callers.
"""

from __future__ import annotations

#: Code that runs *inside* a simulation: everything here must be
#: bit-reproducible from ``SimConfig.seed`` alone.
SIMULATION = (
    "repro/sim/",
    "repro/sched/",
    "repro/serving/",
    "repro/workload/",
    "repro/controlplane/",
    "repro/cluster/",
    "repro/execlayer/",
    "repro/sweep/",
    "repro/federation/",
    # Workflow fingerprints and compile plans feed sweep cache keys, so
    # schema validation and compilation must be bit-reproducible too.
    "repro/schema/",
    "repro/compiler/",
)

#: Result-producing code where float equality silently misclassifies.
NUMERIC_RESULTS = (
    "repro/sim/metrics",
    "repro/serving/latency",
    "repro/experiments/",
    "repro/ops/",
    "benchmarks/",
)

#: The one module allowed to deep-copy live simulations.
SNAPSHOT_MODULE = ("controlplane/snapshot.py",)

#: The control plane plus the job model's own transition methods — the
#: only legitimate writers of job lifecycle state.
LIFECYCLE_OWNERS = (
    "repro/controlplane/",
    "workload/job.py",
)
