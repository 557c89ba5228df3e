"""Command-line entry point: ``python -m repro.analysis [paths…]``.

Exit codes: 0 — no findings; 1 — any unsuppressed finding (malformed or
unknown suppressions included); 2 — usage/environment error.  ``tcloud lint``
delegates here, so both front doors behave identically.  Every run is a
full serial pass over the given paths; ``--stats`` reports where its
time went, rule by rule.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .registry import all_rules
from .runner import AnalysisReport, analyze_paths


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

    try:
        report = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2

    if args.stats:
        sys.stderr.write(_render_stats(report) + "\n")

    findings = report.findings
    if args.format == "json":
        payload = {
            "files_analyzed": report.files_analyzed,
            "rules": list(report.rules_run),
            "findings": [finding.as_dict() for finding in findings],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for finding in findings:
            sys.stdout.write(finding.render() + "\n")
        status = (
            f"simlint: {len(findings)} finding(s), "
            f"{report.files_analyzed} file(s), {len(report.rules_run)} rule(s)"
        )
        sys.stdout.write(status + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
