"""simlint runner: collect files, run rules, apply suppressions.

The runner is the only component that touches the filesystem; rules see
:class:`~repro.analysis.context.FileContext` objects, so tests (and the
``tcloud lint`` verb) can analyze in-memory sources under virtual paths.
File order, finding order and report text are all deterministically sorted
— the analyzer is held to the same reproducibility bar it enforces.

Every front door ends in :func:`analyze_sources`: one serial, uncached
pass that builds the contexts, runs the rules on each file, and filters
inline suppressions.  A cold run over the whole repository takes
about 3 s, so there is nothing to cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .context import FileContext
from .findings import Finding
from .registry import all_rules

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})
#: Path fragments excluded from analysis (intentional-violation fixtures).
_SKIP_FRAGMENTS = ("tests/data/simlint",)
#: Rule ids never subject to inline suppression (the diagnostics that
#: report broken suppressions/files must not be suppressible themselves).
_UNSUPPRESSABLE = frozenset({"S0", "P0"})


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand *paths* to a sorted, de-duplicated list of ``.py`` files."""
    collected: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            collected.add(path.resolve())
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"simlint: no such file or directory: {path}")
        for candidate in path.rglob("*.py"):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            posix = candidate.as_posix()
            if any(fragment in posix for fragment in _SKIP_FRAGMENTS):
                continue
            collected.add(candidate.resolve())
    return sorted(collected)


def _display_path(path: Path) -> str:
    """Posix path relative to the working directory when possible."""
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintStats:
    """``--stats`` payload: per-rule check time and total wall time."""

    #: Seconds spent in each rule's checks, by rule id.
    check_seconds: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def charge(self, rule_id: str, seconds: float) -> None:
        self.check_seconds[rule_id] = self.check_seconds.get(rule_id, 0.0) + seconds


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    rules_run: tuple[str, ...] = ()
    stats: LintStats = field(default_factory=LintStats)


def _parse(path: str, data: bytes) -> FileContext | Finding:
    """Build one file's context, or the P0 finding saying why it cannot be."""
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        return Finding(
            rule_id="P0",
            path=path,
            line=data.count(b"\n", 0, exc.start) + 1,
            col=exc.start - line_start,
            message="file is not valid UTF-8",
        )
    try:
        return FileContext.from_source(source, path)
    except SyntaxError as exc:
        return Finding(
            rule_id="P0",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )


def analyze_sources(sources: Sequence[tuple[str, bytes]]) -> AnalysisReport:
    """Run every rule over ``(display path, file bytes)`` pairs.

    Files are visited in path order; each contributes its malformed or
    unknown-rule suppression directives and the rule findings its inline
    suppressions do not waive.  The result is sorted by location.
    """
    started = time.perf_counter()
    rules = all_rules()
    known_ids = {rule.id for rule in rules} | {"all"}
    stats = LintStats()
    kept: list[Finding] = []
    for path, data in sorted(sources, key=lambda pair: pair[0]):
        parsed = _parse(path, data)
        if isinstance(parsed, Finding):
            kept.append(parsed)
            continue
        findings = list(parsed.suppressions.errors)
        findings.extend(
            Finding("S0", parsed.path, line, col, f"unknown simlint rule {rule_id!r}")
            for line, col, rule_id in parsed.suppressions.named
            if rule_id not in known_ids
        )
        for rule in rules:
            if rule.applies_to(parsed):
                rule_started = time.perf_counter()
                findings.extend(rule.check(parsed))
                stats.charge(rule.id, time.perf_counter() - rule_started)
        kept.extend(
            finding
            for finding in findings
            if finding.rule_id in _UNSUPPRESSABLE
            or not parsed.suppressions.is_suppressed(finding.rule_id, finding.line)
        )
    kept.sort(key=lambda finding: finding.sort_key)
    stats.wall_seconds = time.perf_counter() - started
    return AnalysisReport(
        findings=kept,
        files_analyzed=len(sources),
        rules_run=tuple(rule.id for rule in rules),
        stats=stats,
    )


def analyze_source(source: str, path: str) -> list[Finding]:
    """Analyze one in-memory source under a virtual *path* (test helper)."""
    return analyze_sources([(path, source.encode("utf-8"))]).findings


def analyze_paths(paths: Sequence[str | Path]) -> AnalysisReport:
    """Analyze every Python file reachable from *paths*."""
    return analyze_sources(
        [(_display_path(target), target.read_bytes()) for target in iter_python_files(paths)]
    )
