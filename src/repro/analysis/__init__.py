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
R7   stray-deepcopy         live sims copy only via controlplane/snapshot.py
R8   exception-hygiene      no bare/swallowed broad excepts; lifecycle errors
                            propagate
R9   determinism-taint      arbitrary iteration order never reaches a result,
                            a return, an attribute, a min/max(key=) tie or a
                            per-element side effect (full chain reported)
R10  unordered-accumulation no float accumulation over unordered iterables
R12  fingerprint-coverage   every frozen-spec field reaches its fingerprint
R13  frozen-mutation        no object.__setattr__ on specs after construction
==== ====================== =====================================================

Two ids are retired and not reused.  R6 (a syntactic ban on set
iteration) is folded into R9, whose sinks cover every shape it caught.
R11 (a static pass over the lifecycle table) is gone because a job stores
one lifecycle state, the controller checks every edge at runtime, and
``tests/test_controlplane.py`` pins that the edges runs take equal the
table exactly.

Front doors: ``python -m repro.analysis [paths…]`` and ``tcloud lint``.
They and :func:`analyze_source` all run one serial pass,
:func:`~repro.analysis.runner.analyze_sources`; a cold run over the whole
repository takes about 3 s, and ``--stats`` splits it by rule.  The only
way to accept a finding is an inline waiver with a reason,
``# simlint: disable=R3`` (see :mod:`repro.analysis.suppressions`); a
waiver naming an unknown rule id is itself an ``S0`` finding.  CI fails
on any finding.
"""

from __future__ import annotations

from .context import FileContext
from .findings import Finding
from .registry import BaseRule, ProjectRule, Rule, all_rules, rule_by_id
from .runner import (
    AnalysisReport,
    LintStats,
    analyze_paths,
    analyze_source,
    analyze_sources,
)

__all__ = [
    "AnalysisReport",
    "BaseRule",
    "FileContext",
    "Finding",
    "LintStats",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "rule_by_id",
]
