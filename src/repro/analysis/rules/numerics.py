"""Rule R5: no float equality in result-producing code.

Metrics, experiment tables and ops reports compare accumulated floats;
``==``/``!=`` against a float literal is exact-bit comparison and breaks
the moment an accumulation order changes — precisely the kind of silent
misclassification the golden pins exist to catch loudly instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import scopes
from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register


def _is_float_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_expr(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


@register
class FloatEqualityRule(Rule):
    """R5: ``==``/``!=`` with float operands in metrics/experiments code."""

    id = "R5"
    name = "float-equality"
    rationale = (
        "Exact float equality in result aggregation flips on any change in "
        "accumulation order; compare with a tolerance (math.isclose) or "
        "restructure around integers/thresholds."
    )
    scope = scopes.NUMERIC_RESULTS

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_expr(left) or _is_float_expr(right):
                    yield ctx.finding(
                        self.id,
                        node,
                        "exact float equality in result-producing code; use "
                        "math.isclose (or an explicit threshold) instead",
                    )
                    break
