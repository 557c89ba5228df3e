"""Rules R9/R10: flow-aware determinism taint analysis.

Both rules read one run per file (``FileContext.taint_reaches``) of the
intraprocedural taint engine in :mod:`repro.analysis.dataflow`.  The
split mirrors how violations are fixed: R9 findings (arbitrary order
reaching a result sink) are fixed by sorting before materialising; R10
findings (float accumulation in arbitrary order) are fixed by folding over
a sorted iterable, because float addition is not associative and the
sum's low bits depend on visit order.

These rules let unordered data *exist* freely — only an observation of
its order is flagged (a result sink, a return, an attribute store, a
``min``/``max(key=)`` tie, or a per-element side effect), and the finding
message carries the full source→sink taint chain so the fix site is
obvious.
"""

from __future__ import annotations

from typing import Iterator

from .. import scopes
from ..context import FileContext
from ..dataflow import TaintReach
from ..findings import Finding
from ..registry import Rule, register


def _sink_phrase(reach: TaintReach) -> str:
    kind, _, detail = reach.sink.partition(":")
    if kind == "call":
        return f"reaches result sink {detail}()"
    if kind == "loop-call":
        return f"drives sink {detail}() once per arbitrary-order iteration"
    if kind == "return":
        return "escapes via return with arbitrary element order"
    if kind == "attribute":
        return f"is stored on attribute .{detail}"
    if kind == "tie-break":
        return f"decides which element wins a {detail}(key=) tie"
    if kind == "sort-key":
        return "is read by a sort key, making the sort order racy"
    if kind == "idkeys-sort":
        return "is ordered by memory address (sorting id()-keyed data)"
    if kind == "raise":
        return "is embedded in a raised exception message"
    return f"reaches {reach.sink}"


@register
class DeterminismTaintRule(Rule):
    """R9: nondeterministic iteration order must not reach a result."""

    id = "R9"
    name = "determinism-taint"
    rationale = (
        "Unordered collections are fine locally, but once their arbitrary "
        "iteration order is materialised into a metrics row, fingerprint, "
        "event enqueue, RNG seed, or sort key, results differ run to run. "
        "The taint chain in the message shows where to insert sorted()."
    )
    scope = scopes.SIMULATION

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for reach in ctx.taint_reaches:
            if reach.sink == "accumulation":
                continue  # R10's half of the shared pass
            yield ctx.finding(
                self.id,
                reach.node,
                f"nondeterministic order {_sink_phrase(reach)}; "
                f"taint path: {reach.taint.chain()}; "
                "iterate a sorted(...) view before the order is observable",
            )


@register
class UnorderedAccumulationRule(Rule):
    """R10: float accumulation must visit elements in a defined order."""

    id = "R10"
    name = "unordered-accumulation"
    rationale = (
        "Float addition is not associative: summing in set/scandir order "
        "changes the low bits run to run, which goldens and federated "
        "goodput comparisons then report as regressions. Accumulate over "
        "sorted(...) (or math.fsum over a sorted view) instead."
    )
    scope = scopes.SIMULATION

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for reach in ctx.taint_reaches:
            if reach.sink != "accumulation":
                continue
            yield ctx.finding(
                self.id,
                reach.node,
                "float accumulation over an unordered iterable is "
                "order-dependent in its low bits; "
                f"taint path: {reach.taint.chain()}; "
                "accumulate over a sorted(...) view",
            )
