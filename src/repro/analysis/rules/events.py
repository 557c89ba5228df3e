"""Rule R4: every simulator event type declares a unique PRIORITY rank.

Events sharing a timestamp dispatch in ``(priority, insertion)`` order; an
event class missing from the ``PRIORITY`` table silently sorts last (rank
99), which *works* until a second unranked type lands at the same instant
and their relative order becomes an accident of scheduling call sites.
This is a project rule: subclasses may be defined in any module, the table
lives in ``sim/events.py``, and coverage is only checkable globally.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..context import FileContext
from ..findings import Finding
from ..registry import ProjectRule, register

_ROOT_CLASS = "Event"
_TABLE_NAME = "PRIORITY"


def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _key_name(key: ast.expr | None) -> str | None:
    if isinstance(key, ast.Name):
        return key.id
    if isinstance(key, ast.Attribute):
        return key.attr
    return None


@register
class EventPriorityRule(ProjectRule):
    """R4: Event subclasses must hold a unique rank in a PRIORITY table."""

    id = "R4"
    name = "event-priority"
    rationale = (
        "Same-timestamp dispatch order is part of the simulation's "
        "semantics; an event class without an explicit unique PRIORITY "
        "rank gets an arbitrary tie order that golden tests cannot pin."
    )

    def check_project(self, contexts: Sequence[FileContext]) -> Iterator[Finding]:
        classes: list[tuple[FileContext, ast.ClassDef]] = []
        bases_of: dict[str, set[str]] = {}
        tables: list[tuple[FileContext, ast.Dict]] = []
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    classes.append((ctx, node))
                    bases_of.setdefault(node.name, set()).update(_base_names(node))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    if isinstance(node.value, ast.Dict) and any(
                        isinstance(target, ast.Name) and target.id == _TABLE_NAME
                        for target in targets
                    ):
                        tables.append((ctx, node.value))

        # Transitive closure: which class names descend from Event?
        event_classes = {_ROOT_CLASS}
        changed = True
        while changed:
            changed = False
            for name, bases in bases_of.items():
                if name not in event_classes and bases & event_classes:
                    event_classes.add(name)
                    changed = True

        ranked: dict[str, int] = {}
        for ctx, table in tables:
            seen_ranks: dict[int, str] = {}
            for key, rank_node in zip(table.keys, table.values):
                name = _key_name(key)
                if name is None:
                    continue
                if not (
                    isinstance(rank_node, ast.Constant)
                    and isinstance(rank_node.value, int)
                ):
                    yield ctx.finding(
                        self.id,
                        rank_node,
                        f"PRIORITY rank of {name} must be an integer literal "
                        "(ranks are part of the simulation contract)",
                    )
                    continue
                rank = rank_node.value
                if rank in seen_ranks:
                    yield ctx.finding(
                        self.id,
                        rank_node,
                        f"duplicate PRIORITY rank {rank} for {name} (also held "
                        f"by {seen_ranks[rank]}); same-timestamp order between "
                        "them is undefined",
                    )
                else:
                    seen_ranks[rank] = name
                ranked[name] = rank

        for ctx, node in classes:
            if node.name == _ROOT_CLASS or node.name not in event_classes:
                continue
            if node.name not in ranked:
                yield ctx.finding(
                    self.id,
                    node,
                    f"event class {node.name} declares no PRIORITY rank; add it "
                    "to the PRIORITY table with a unique integer so "
                    "same-timestamp dispatch order is explicit",
                )
