"""Rule registry: one place that knows every simlint rule.

Rules self-register via the :func:`register` decorator at import time (the
:mod:`repro.analysis.rules` package imports each rule module).  Every rule
is a per-file :class:`Rule`: ``check(ctx)`` yields findings for one
:class:`~repro.analysis.context.FileContext`.

Each rule carries its id, a short name, the invariant's rationale (surfaced
by ``--list-rules`` and the docs), and the path *scope* it applies to —
scoping lives here, not inside the checks, so one glance at a rule class
answers "where does this fire?".
"""

from __future__ import annotations

import abc
from typing import Iterator

from .context import FileContext
from .findings import Finding


class Rule(abc.ABC):
    """A per-file rule and its metadata."""

    #: Stable short identifier, e.g. ``R1`` — what suppressions name.
    id: str = ""
    #: Human-oriented slug, e.g. ``unseeded-rng``.
    name: str = ""
    #: Why the invariant exists — one or two sentences.
    rationale: str = ""
    #: Path fragments the rule applies to; empty = every analyzed file.
    scope: tuple[str, ...] = ()
    #: Path fragments exempt from the rule (checked after ``scope``).
    exempt: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if self.scope and not ctx.path_matches(self.scope):
            return False
        return not (self.exempt and ctx.path_matches(self.exempt))

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (already scope-filtered)."""


_RULES: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_class()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {rule_class.__name__} must define id and name")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return rule_class


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by id (R1, R2, …, R10, …)."""
    from . import rules  # noqa: F401  — importing populates the registry

    def _order(rule_id: str) -> tuple[str, int]:
        head = rule_id.rstrip("0123456789")
        tail = rule_id[len(head):]
        return (head, int(tail) if tail else 0)

    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES, key=_order))


def rule_by_id(rule_id: str) -> Rule:
    from . import rules  # noqa: F401

    if rule_id not in _RULES:
        raise KeyError(f"unknown simlint rule {rule_id!r}")
    return _RULES[rule_id]
