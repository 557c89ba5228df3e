"""Command-line entry point: ``python -m repro.analysis [paths…]``.

Exit codes: 0 — no new findings; 1 — new (non-baselined) findings or
malformed suppressions; 2 — usage/environment error.  ``tcloud lint``
delegates here, so both front doors behave identically.  Every run is a
full serial pass over the given paths; ``--stats`` reports where its
time went, rule by rule.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .baseline import Baseline
from .registry import all_rules
from .runner import AnalysisReport, analyze_paths

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
        "--stats",
        action="store_true",
        help="print per-rule check time and total wall time to stderr",
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
        f"simlint stats: {report.files_analyzed} file(s), wall {stats.wall_seconds:.3f}s"
    ]
    for rule_id, seconds in sorted(
        stats.check_seconds.items(), key=lambda item: -item[1]
    ):
        lines.append(f"  {rule_id:>4s}  check {seconds * 1000.0:8.1f}ms")
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

    try:
        report = analyze_paths(args.paths)
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
