"""Rule R13: frozen spec classes are never mutated after construction.

The sweep/content-address cache keys every artifact on spec fingerprints
(``SimCell.spec_json``, ``TaskSpec.fingerprint``, ``WorkflowSpec.
fingerprint``, …).  Mutating a frozen spec after construction via
``object.__setattr__`` poisons that cache: the spec's fingerprint no longer
describes the object, so whatever was cached under it is stale.  The only
legitimate site is ``__post_init__`` (derived-field initialisation before
the value escapes).

That every spec field reaches its fingerprint at all is a runtime
contract, held by ``tests/test_spec_fingerprints.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import scopes
from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

#: Functions allowed to call ``object.__setattr__`` (construction time).
_SETATTR_OWNERS = frozenset({"__post_init__", "__init__", "__new__", "__setstate__"})


@register
class FrozenMutationRule(Rule):
    """R13: no ``object.__setattr__`` on specs outside construction."""

    id = "R13"
    name = "frozen-mutation"
    rationale = (
        "A frozen spec's fingerprint is computed from its construction-time "
        "state; object.__setattr__ after __post_init__ silently invalidates "
        "every cache entry keyed on it. Build a new spec with "
        "dataclasses.replace instead."
    )
    scope = scopes.SIMULATION

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree.body, owner=None)

    def _walk(
        self, ctx: FileContext, body: list[ast.stmt], owner: str | None
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(ctx, stmt.body, owner=stmt.name)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._walk(ctx, stmt.body, owner=None)
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "object"
                    and owner not in _SETATTR_OWNERS
                ):
                    where = f"{owner}()" if owner else "module scope"
                    yield ctx.finding(
                        self.id,
                        node,
                        "object.__setattr__ on a frozen instance outside "
                        f"construction (in {where}); the fingerprint no "
                        "longer matches the object — use dataclasses.replace "
                        "to derive a new spec instead",
                    )
