"""Finding records produced by simlint rules.

A :class:`Finding` pins one invariant violation to a file, line and column,
carrying the rule id and a human-oriented message.  Findings are value
objects: the runner sorts, filters and renders them without any
rule-specific knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One invariant violation at a concrete source location.

    Attributes:
        rule_id: Short rule identifier (``R1`` … ``R13``, ``S0``, ``P0``).
        path: Path of the offending file as given to the analyzer.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        message: What is wrong and what to do instead.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, str | int]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
