"""Rules R3/R7: every mutation of live simulation state has one owner.

PR 3 funnelled all job/cluster mutations through ``ClusterController`` and
all live-simulation copying through ``controlplane/snapshot.py``.  These
rules keep it that way: a stray ``job.lifecycle = …`` in a scheduler or an ad
hoc ``deepcopy`` of a live simulator reintroduces exactly the split-brain
bookkeeping that PR 3 removed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import scopes
from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

#: Job lifecycle / runtime-state fields only the control plane (or the
#: Job transition methods themselves) may assign.
_LIFECYCLE_FIELDS = frozenset(
    {
        "lifecycle",
        "state",
        "attempts",
        "preemptions",
        "remaining_work",
        "first_start_time",
        "last_start_time",
        "end_time",
        "current_slowdown",
        "current_nodes",
        "last_nodes",
        "current_gpus",
        "current_setup_s",
        "gpu_seconds_used",
        "failure_category",
        "preemptible",
        "request",
    }
)


def _assign_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


@register
class LifecycleWriteRule(Rule):
    """R3: job lifecycle fields are assigned only by the control plane."""

    id = "R3"
    name = "lifecycle-write"
    rationale = (
        "Direct writes to job state bypass lifecycle validation, the "
        "transition log, and churn accounting; every mutation must go "
        "through ClusterController (or a Job transition method it calls)."
    )
    exempt = scopes.LIFECYCLE_OWNERS

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            for target in _assign_targets(node):
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr not in _LIFECYCLE_FIELDS:
                    continue
                # A class assigning its *own* attribute of the same name is
                # some other object's internal state, not a reach into a Job.
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    continue
                yield ctx.finding(
                    self.id,
                    target,
                    f"direct write to lifecycle field '.{target.attr}' outside "
                    "the control plane; route the mutation through "
                    "ClusterController so it is validated and logged",
                )


@register
class DeepcopyRule(Rule):
    """R7: live simulations are copied only via ``controlplane/snapshot.py``."""

    id = "R7"
    name = "stray-deepcopy"
    rationale = (
        "deepcopy of a live simulator must rebind every cross-reference "
        "(controller, scheduler, index, metrics) consistently; "
        "controlplane.snapshot is the one audited implementation. Ad hoc "
        "deep copies silently fork half the object graph."
    )
    exempt = scopes.SNAPSHOT_MODULE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "copy" and node.level == 0 and any(
                    alias.name == "deepcopy" for alias in node.names
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        "import of copy.deepcopy outside controlplane/snapshot.py; "
                        "use snapshot()/fork() for live sims (or copy shallow, "
                        "immutable data explicitly)",
                    )
            elif isinstance(node, ast.Call):
                dotted = ctx.imports.resolve_call_chain(node.func)
                if dotted == "copy.deepcopy":
                    yield ctx.finding(
                        self.id,
                        node,
                        "deepcopy outside controlplane/snapshot.py; use "
                        "snapshot()/fork() so cross-references are rebound "
                        "consistently",
                    )
