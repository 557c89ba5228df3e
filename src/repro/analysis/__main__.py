"""Command-line entry point: ``python -m repro.analysis [paths…]``.

Exit codes: 0 — no new findings; 1 — new (non-baselined) findings or
malformed suppressions; 2 — usage/environment error.  ``tcloud lint``
delegates here, so both front doors behave identically — including the
incremental-cache flags (``--jobs``, ``--cache-dir``, ``--no-cache``,
``--changed``, ``--stats``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from .baseline import Baseline
from .cache import ENV_CACHE_DIR, LintCache, default_cache_dir
from .registry import all_rules
from .runner import AnalysisReport, git_changed_files, run_lint

DEFAULT_BASELINE = "simlint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "simlint: static invariant analysis for the simulator — "
            "determinism taint, fingerprint coverage, "
            "control-plane encapsulation, event ordering."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline JSON of grandfathered findings "
            f"(default: {DEFAULT_BASELINE} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every registered rule"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze cache misses over N worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "incremental cache directory (default: $"
            f"{ENV_CACHE_DIR} or {default_cache_dir()})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache (re-analyze every file)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "only analyze files changed vs git HEAD (fast pre-commit check; "
            "cross-file rules are authoritative only on full runs)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule timing and cache hit rate to stderr",
    )
    return parser


def _list_rules() -> str:
    blocks = []
    for rule in all_rules():
        where = ", ".join(rule.scope) if rule.scope else "all analyzed files"
        exempt = f" (exempt: {', '.join(rule.exempt)})" if rule.exempt else ""
        blocks.append(
            f"{rule.id} {rule.name}\n    scope: {where}{exempt}\n    {rule.rationale}"
        )
    return "\n".join(blocks)


def _render_stats(report: AnalysisReport) -> str:
    stats = report.stats
    lines = [
        f"simlint stats: {stats.files} file(s), "
        f"cache {stats.cache_hits} hit / {stats.cache_misses} miss "
        f"({stats.hit_rate * 100.0:.1f}% hit rate), "
        f"wall {stats.wall_seconds:.3f}s"
    ]
    timed = sorted(
        set(stats.check_seconds) | set(stats.reduce_seconds),
        key=lambda rule_id: -(
            stats.check_seconds.get(rule_id, 0.0)
            + stats.reduce_seconds.get(rule_id, 0.0)
        ),
    )
    for rule_id in timed:
        check = stats.check_seconds.get(rule_id, 0.0)
        reduce_s = stats.reduce_seconds.get(rule_id, 0.0)
        lines.append(
            f"  {rule_id:>4s}  check {check * 1000.0:8.1f}ms"
            + (f"  reduce {reduce_s * 1000.0:8.1f}ms" if rule_id in stats.reduce_seconds else "")
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(_list_rules() + "\n")
        return 0

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE).exists():
        baseline_path = DEFAULT_BASELINE

    cache: LintCache | None = None
    if not args.no_cache:
        root = Path(args.cache_dir) if args.cache_dir else None
        cache = LintCache(root)

    files = None
    if args.changed:
        try:
            files = git_changed_files(args.paths)
        except (OSError, subprocess.CalledProcessError) as exc:
            sys.stderr.write(f"simlint: --changed requires a git checkout: {exc}\n")
            return 2
        if not files:
            sys.stdout.write("simlint: no changed python files\n")
            return 0

    try:
        report = run_lint(args.paths, jobs=max(1, args.jobs), cache=cache, files=files)
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2

    if args.stats:
        sys.stderr.write(_render_stats(report) + "\n")

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        Baseline.from_findings(report.findings).save(target)
        sys.stdout.write(
            f"simlint: wrote {len(report.findings)} finding(s) to {target}\n"
        )
        return 0

    baseline = None
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"simlint: cannot read baseline {baseline_path}: {exc}\n")
            return 2
    new, baselined = report.partition(baseline)

    if args.format == "json":
        payload = {
            "files_analyzed": report.files_analyzed,
            "rules": list(report.rules_run),
            "new": [finding.as_dict() for finding in new],
            "baselined": [finding.as_dict() for finding in baselined],
            "cache": {
                "hits": report.stats.cache_hits,
                "misses": report.stats.cache_misses,
            },
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for finding in new:
            sys.stdout.write(finding.render() + "\n")
        status = (
            f"simlint: {len(new)} new finding(s), {len(baselined)} baselined, "
            f"{report.files_analyzed} file(s), {len(report.rules_run)} rule(s)"
        )
        sys.stdout.write(status + "\n")
    return 1 if new else 0


if __name__ == "__main__":
    raise SystemExit(main())
