"""simlint driver: collect files, run rules, apply suppressions + baseline.

The runner is the only component that touches the filesystem; rules see
:class:`~repro.analysis.context.FileContext` objects, so tests (and the
``tcloud lint`` verb) can analyze in-memory sources under virtual paths.
File order, finding order and report text are all deterministically sorted
— the analyzer is held to the same reproducibility bar it enforces.

Two execution paths share one per-file phase:

* :func:`analyze_contexts` — in-process, uncached; what tests and
  :func:`analyze_source` use;
* :func:`run_lint` — the incremental path: per-file work (rule checks,
  suppression parsing, project-rule ``extract`` summaries) is cached
  on-disk keyed by file content + engine fingerprint
  (:mod:`repro.analysis.cache`), misses optionally fan out over a spawn
  process pool, and project rules re-``reduce`` from summaries every
  run.  Findings are byte-identical across cold/warm runs and any
  ``--jobs`` value: the merge sorts by path before reducing and by
  ``sort_key`` before reporting, so scheduling order never shows.
"""

from __future__ import annotations

import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Iterable, Sequence

from .baseline import Baseline
from .cache import FileRecord, LintCache, engine_fingerprint, file_key
from .context import FileContext
from .findings import Finding
from .registry import BaseRule, ProjectRule, Rule, all_rules
from .suppressions import SuppressionMap

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})
#: Path fragments excluded from analysis (intentional-violation fixtures).
_SKIP_FRAGMENTS = ("tests/data/simlint",)
#: Rule ids never subject to inline suppression (the diagnostics that
#: report broken suppressions/files must not be suppressible themselves).
_UNSUPPRESSABLE = frozenset({"S0", "P0"})

_EMPTY_SUPPRESSIONS = SuppressionMap()


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


def git_changed_files(paths: Sequence[str | Path]) -> list[Path]:
    """Analyzable ``.py`` files changed vs HEAD (tracked diff + untracked).

    The fast pre-commit subset: project rules only see the changed files,
    so cross-file checks (R4) are authoritative only on full runs.
    """
    changed: set[str] = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        result = subprocess.run(
            command, capture_output=True, text=True, check=True
        )
        changed.update(line.strip() for line in result.stdout.splitlines() if line.strip())
    roots = [Path(raw).resolve() for raw in paths]
    selected: set[Path] = set()
    for name in changed:
        candidate = Path(name)
        if candidate.suffix != ".py" or not candidate.is_file():
            continue
        posix = candidate.as_posix()
        if any(fragment in posix for fragment in _SKIP_FRAGMENTS):
            continue
        if set(candidate.parts) & _SKIP_DIRS:
            continue
        resolved = candidate.resolve()
        if any(root == resolved or root in resolved.parents for root in roots):
            selected.add(resolved)
    return sorted(selected)


def _display_path(path: Path) -> str:
    """Posix path relative to the working directory when possible."""
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintStats:
    """``--stats`` payload: cache behavior plus per-rule wall time."""

    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Seconds spent in per-file checks / extracts, by rule id (misses only).
    check_seconds: dict[str, float] = field(default_factory=dict)
    #: Seconds spent in project-rule reduce steps, by rule id.
    reduce_seconds: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def absorb_checks(self, timings: dict[str, float]) -> None:
        for rule_id, seconds in timings.items():
            self.check_seconds[rule_id] = self.check_seconds.get(rule_id, 0.0) + seconds


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run, before baseline partitioning."""

    findings: list[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    rules_run: tuple[str, ...] = ()
    stats: LintStats = field(default_factory=LintStats)

    def partition(self, baseline: Baseline | None) -> tuple[list[Finding], list[Finding]]:
        if baseline is None:
            return list(self.findings), []
        return baseline.split(self.findings)


# -- the shared per-file phase -------------------------------------------------


def compute_file_record(
    ctx: FileContext, rules: Sequence[BaseRule]
) -> tuple[FileRecord, dict[str, float]]:
    """Run every per-file check and project extract over one context."""
    findings: list[Finding] = list(ctx.suppressions.errors)
    summaries: dict[str, object] = {}
    timings: dict[str, float] = {}
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        started = time.perf_counter()
        if isinstance(rule, Rule):
            findings.extend(rule.check(ctx))
        elif isinstance(rule, ProjectRule):
            summary = rule.extract(ctx)
            if summary is not None:
                summaries[rule.id] = summary
        timings[rule.id] = timings.get(rule.id, 0.0) + time.perf_counter() - started
    return (
        FileRecord(
            path=ctx.path,
            findings=findings,
            suppressions=ctx.suppressions,
            summaries=summaries,
        ),
        timings,
    )


def _parse_error_record(display: str, exc: SyntaxError) -> FileRecord:
    return FileRecord(
        path=display,
        findings=[
            Finding(
                rule_id="P0",
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ],
    )


def _analyze_bytes(
    data: bytes, display: str, rules: Sequence[BaseRule]
) -> tuple[FileRecord, dict[str, float]]:
    try:
        ctx = FileContext.from_source(data.decode("utf-8"), display)
    except SyntaxError as exc:
        return _parse_error_record(display, exc), {}
    return compute_file_record(ctx, rules)


def _worker_analyze(display: str, data: bytes) -> dict[str, object]:
    """Process-pool entry point; returns plain data only (picklable)."""
    record, timings = _analyze_bytes(data, display, all_rules())
    return {"record": record.as_dict(), "timings": timings}


# -- merge ---------------------------------------------------------------------


def _merge_records(
    records: Sequence[FileRecord],
    rules: Sequence[BaseRule],
    stats: LintStats,
) -> list[Finding]:
    """Combine per-file records into the final sorted finding list."""
    ordered = sorted(records, key=lambda record: record.path)
    suppressions_of = {record.path: record.suppressions for record in ordered}
    findings: list[Finding] = []
    for record in ordered:
        findings.extend(record.findings)
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        pairs = sorted(
            (record.path, record.summaries[rule.id])
            for record in ordered
            if rule.id in record.summaries
        )
        started = time.perf_counter()
        findings.extend(rule.reduce(pairs))
        stats.reduce_seconds[rule.id] = (
            stats.reduce_seconds.get(rule.id, 0.0) + time.perf_counter() - started
        )
    kept = [
        finding
        for finding in findings
        if finding.rule_id in _UNSUPPRESSABLE
        or not suppressions_of.get(finding.path, _EMPTY_SUPPRESSIONS).is_suppressed(
            finding.rule_id, finding.line
        )
    ]
    kept.sort(key=lambda finding: finding.sort_key)
    return kept


# -- in-process path (tests, analyze_source) -----------------------------------


def analyze_contexts(
    contexts: Sequence[FileContext], rules: Iterable[BaseRule] | None = None
) -> AnalysisReport:
    """Run every rule over already-built contexts (uncached)."""
    active = tuple(rules) if rules is not None else all_rules()
    stats = LintStats(files=len(contexts), cache_misses=len(contexts))
    records = []
    for ctx in contexts:
        record, timings = compute_file_record(ctx, active)
        records.append(record)
        stats.absorb_checks(timings)
    return AnalysisReport(
        findings=_merge_records(records, active, stats),
        files_analyzed=len(contexts),
        rules_run=tuple(rule.id for rule in active),
        stats=stats,
    )


def analyze_source(source: str, path: str) -> list[Finding]:
    """Analyze one in-memory source under a virtual *path* (test helper)."""
    return analyze_contexts([FileContext.from_source(source, path)]).findings


# -- cached / parallel path ----------------------------------------------------


def run_lint(
    paths: Sequence[str | Path],
    *,
    jobs: int = 1,
    cache: LintCache | None = None,
    files: Sequence[Path] | None = None,
) -> AnalysisReport:
    """The incremental analyzer: cache lookups, pooled misses, one merge.

    ``files`` overrides discovery (the ``--changed`` subset); otherwise
    every analyzable file under *paths* is considered, so cross-file
    rules see the whole project.
    """
    started = time.perf_counter()
    rules = all_rules()
    targets = list(files) if files is not None else iter_python_files(paths)
    stats = LintStats(files=len(targets))
    engine = engine_fingerprint() if cache is not None else ""

    records: dict[str, FileRecord] = {}
    misses: list[tuple[str, str, bytes]] = []  # (display, key, data)
    for target in targets:
        display = _display_path(target)
        data = target.read_bytes()
        if cache is None:
            misses.append((display, "", data))
            continue
        key = file_key(display, data, engine)
        cached = cache.get(key)
        if cached is not None and cached.path == display:
            records[display] = cached
        else:
            misses.append((display, key, data))
    if cache is not None:
        stats.cache_hits = len(records)
    stats.cache_misses = len(misses)

    if misses and jobs > 1 and len(misses) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(misses)), mp_context=get_context("spawn")
        ) as pool:
            futures = {
                display: pool.submit(_worker_analyze, display, data)
                for display, _key, data in misses
            }
            fresh = {
                display: futures[display].result() for display, _key, _data in misses
            }
        for display, key, _data in misses:
            payload = fresh[display]
            record_raw = payload["record"]
            timings = payload["timings"]
            assert isinstance(record_raw, dict) and isinstance(timings, dict)
            record = FileRecord.from_dict(record_raw)
            records[display] = record
            stats.absorb_checks(timings)
            if cache is not None:
                cache.put(key, record)
    else:
        for display, key, data in misses:
            record, timings = _analyze_bytes(data, display, rules)
            records[display] = record
            stats.absorb_checks(timings)
            if cache is not None:
                cache.put(key, record)

    findings = _merge_records(list(records.values()), rules, stats)
    stats.wall_seconds = time.perf_counter() - started
    return AnalysisReport(
        findings=findings,
        files_analyzed=len(targets),
        rules_run=tuple(rule.id for rule in rules),
        stats=stats,
    )


def analyze_paths(paths: Sequence[str | Path]) -> AnalysisReport:
    """Analyze every Python file reachable from *paths* (uncached)."""
    return run_lint(paths, jobs=1, cache=None)
