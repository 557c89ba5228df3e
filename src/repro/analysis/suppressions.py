"""Inline suppression comments for simlint findings.

Three comment forms are recognised (rule lists are comma-separated; ``all``
suppresses every rule):

* ``# simlint: disable=R3`` — suppress the listed rules on *this* line;
* ``# simlint: disable-next-line=R3`` — suppress them on the next line;
* ``# simlint: disable-file=R2`` — suppress them for the whole file
  (only honoured in the file's first ``FILE_SCOPE_LINES`` lines, so a
  file-wide waiver is visible at the top where reviewers look).

Comments are extracted with :mod:`tokenize`, not regex-over-lines, so a
``# simlint:`` sequence inside a string literal never suppresses anything.
Every suppression must name rules explicitly or say ``all`` — a bare
``# simlint: disable`` is reported as a malformed-suppression finding
rather than silently ignored, and the runner reports any named id that is
not a registered rule (a typo, or a retired rule such as ``R6``).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .findings import Finding

#: ``disable-file`` comments beyond this line are ignored (kept visible up top).
FILE_SCOPE_LINES = 20

_DIRECTIVE = re.compile(
    r"#\s*simlint:\s*(?P<verb>disable(?:-next-line|-file)?)\s*(?:=\s*(?P<rules>[\w\s,]+))?"
)


@dataclass
class SuppressionMap:
    """Parsed suppression directives of one file."""

    #: Rule ids suppressed per 1-based line (``{"all"}`` matches any rule).
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: Rule ids suppressed for the entire file.
    file_wide: set[str] = field(default_factory=set)
    #: Malformed directives, reported as findings so typos fail loudly.
    errors: list[Finding] = field(default_factory=list)
    #: Every rule id a directive names, as ``(line, col, id)``.
    named: list[tuple[int, int, str]] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_wide or "all" in self.file_wide:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return rule_id in rules or "all" in rules


def parse_suppressions(source: str, path: str) -> SuppressionMap:
    """Extract every ``# simlint:`` directive from *source*."""
    suppressions = SuppressionMap()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions  # unparseable files are reported by the runner
    for token in tokens:
        if token.type != tokenize.COMMENT or "simlint" not in token.string:
            continue
        line = token.start[0]
        match = _DIRECTIVE.search(token.string)
        if match is None or match.group("rules") is None:
            suppressions.errors.append(
                Finding(
                    rule_id="S0",
                    path=path,
                    line=line,
                    col=token.start[1],
                    message=(
                        "malformed simlint directive; use "
                        "'# simlint: disable=RULE[,RULE]' "
                        "(or disable-next-line= / disable-file=)"
                    ),
                )
            )
            continue
        rules = {part.strip() for part in match.group("rules").split(",") if part.strip()}
        suppressions.named.extend((line, token.start[1], rule) for rule in sorted(rules))
        verb = match.group("verb")
        if verb == "disable":
            suppressions.by_line.setdefault(line, set()).update(rules)
        elif verb == "disable-next-line":
            suppressions.by_line.setdefault(line + 1, set()).update(rules)
        elif line <= FILE_SCOPE_LINES:  # disable-file
            suppressions.file_wide.update(rules)
        else:
            suppressions.errors.append(
                Finding(
                    rule_id="S0",
                    path=path,
                    line=line,
                    col=token.start[1],
                    message=(
                        "disable-file directives must appear in the first "
                        f"{FILE_SCOPE_LINES} lines of the file"
                    ),
                )
            )
    return suppressions
