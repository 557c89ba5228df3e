"""simlint: AST-based static enforcement of the simulator's invariants.

The golden tests pin *that* runs are reproducible; this package pins *why*
— by making the practices that keep them reproducible (seed-threaded RNG,
engine-clock time, control-plane-owned mutation, explicit event ordering,
taint-free result paths, fingerprint coverage) machine-checkable
at review time instead of tribal knowledge:

==== ====================== =====================================================
Rule Name                   Invariant
==== ====================== =====================================================
R1   unseeded-rng           no ambient random/numpy.random state in sim code
R2   wall-clock             no host-clock reads where the engine clock rules
R3   lifecycle-write        job lifecycle fields mutate only via the control plane
R4   event-priority         every Event subclass holds a unique PRIORITY rank
R5   float-equality         no exact float ==/!= in result-producing code
R6   unordered-iteration    no bare set iteration in order-sensitive paths
R7   stray-deepcopy         live sims copy only via controlplane/snapshot.py
R8   exception-hygiene      no bare/swallowed broad excepts; lifecycle errors
                            propagate
R9   determinism-taint      arbitrary iteration order never reaches a result
                            sink (flow-sensitive taint, full chain reported)
R10  unordered-accumulation no float accumulation over unordered iterables
R12  fingerprint-coverage   every frozen-spec field reaches its fingerprint
R13  frozen-mutation        no object.__setattr__ on specs after construction
==== ====================== =====================================================

R11 (a static pass over the lifecycle table) is retired: a job
stores one lifecycle state, the controller checks every edge at runtime,
and ``tests/test_controlplane.py`` pins that the edges runs take equal the
table exactly.  Its id is not reused.

Front doors: ``python -m repro.analysis [paths…]`` and ``tcloud lint``
(both support the incremental cache: ``--jobs``, ``--cache-dir``,
``--no-cache``, ``--changed``, ``--stats``).  Waivers: ``# simlint:
disable=R3`` inline (see :mod:`repro.analysis.suppressions`) or the
committed baseline (:mod:`repro.analysis.baseline`).  CI fails on any
non-baselined finding and verifies the baseline itself with
``scripts/simlint_baseline.py --check``.
"""

from __future__ import annotations

from .baseline import Baseline
from .cache import LintCache, engine_fingerprint, file_key
from .context import FileContext
from .findings import Finding
from .registry import BaseRule, ProjectRule, Rule, all_rules, rule_by_id
from .runner import (
    AnalysisReport,
    LintStats,
    analyze_contexts,
    analyze_paths,
    analyze_source,
    git_changed_files,
    run_lint,
)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaseRule",
    "FileContext",
    "Finding",
    "LintCache",
    "LintStats",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_contexts",
    "analyze_paths",
    "analyze_source",
    "engine_fingerprint",
    "file_key",
    "git_changed_files",
    "rule_by_id",
    "run_lint",
]
