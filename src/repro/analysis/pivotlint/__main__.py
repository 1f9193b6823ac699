"""CLI: ``python -m repro.analysis.pivotlint src/ [--strict]``.

Exit status: 0 when the tree is clean (every finding fixed or suppressed
with a justification); 1 when findings remain; 2 on usage errors.
``--strict`` additionally fails on suppressions that silence nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.analysis.pivotlint.engine import Analyzer, Report
from repro.analysis.pivotlint.rules import REGISTRY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.pivotlint",
        description=(
            "pivotlint: static privacy-flow analyzer for the Pivot "
            "reproduction — proves the locality, key-secrecy, and "
            "choreography invariants at lint time (rules "
            f"{', '.join(sorted(REGISTRY))})"
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files/directories to scan")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run per-file rule checks across N worker processes; 0 means "
            "auto (one per CPU core); the merged report is byte-identical "
            "to a serial run (default: 1)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on suppressions that silence nothing",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github", "sarif"),
        default="text",
        help=(
            "output format (github emits workflow annotations, sarif emits "
            "a SARIF 2.1.0 log for code-scanning upload)"
        ),
    )
    parser.add_argument(
        "--summary",
        default=None,
        metavar="FILE",
        help="also write a markdown job summary to FILE",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _render_text(report: Report) -> str:
    lines = []
    for finding in report.parse_errors + report.findings:
        lines.append(finding.render())
    counts = report.counts_by_rule()
    tally = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items())) or "none"
    lines.append(
        f"pivotlint: {report.files_scanned} files scanned, "
        f"{len(report.findings)} finding(s) [{tally}], "
        f"{len(report.suppressed)} suppressed"
    )
    return "\n".join(lines)


def _render_sarif(report: Report) -> str:
    """SARIF 2.1.0 log — the interchange format code-scanning UIs ingest.

    One run, one tool driver, the full rule catalogue in the driver's
    ``rules`` array, and one result per surviving finding (parse errors
    included; suppressed findings are already accepted and do not
    appear).  Deterministic: findings keep report order and the rule
    catalogue is sorted, so identical trees produce identical logs.
    """
    rule_ids = sorted(REGISTRY)
    rules = [
        {
            "id": rule_id,
            "name": REGISTRY[rule_id].name,
            "shortDescription": {"text": REGISTRY[rule_id].summary},
            "help": {"text": f"fix: {REGISTRY[rule_id].hint}"},
        }
        for rule_id in rule_ids
    ]
    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = []
    for finding in report.parse_errors + report.findings:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": f"{finding.message} (hint: {finding.hint})"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    },
                    "logicalLocations": [
                        {"fullyQualifiedName": finding.scope}
                    ],
                }
            ],
        }
        if finding.rule in index:
            result["ruleIndex"] = index[finding.rule]
        results.append(result)
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "pivotlint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)


def _render_summary(report: Report) -> str:
    lines = [
        "## pivotlint — static privacy-flow analysis",
        "",
        f"* files scanned: **{report.files_scanned}**",
        f"* findings: **{len(report.findings)}**",
        f"* suppressed (justified inline): {len(report.suppressed)}",
        "",
    ]
    if report.findings or report.parse_errors:
        lines += ["| location | rule | scope | message |", "|---|---|---|---|"]
        for f in report.parse_errors + report.findings:
            lines.append(
                f"| `{f.location()}` | {f.rule} | `{f.scope}` | {f.message} |"
            )
    else:
        lines.append(
            "Clean: the locality and key-secrecy invariants hold on every "
            "static path. :white_check_mark:"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, cls in sorted(REGISTRY.items()):
            print(f"{rule_id} {cls.name}")
            print(f"    {cls.summary}")
            print(f"    fix: {cls.hint}")
        return 0

    analyzer = Analyzer(strict=args.strict)
    if args.jobs < 0:
        print("pivotlint: --jobs must be >= 0 (0 means auto)", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    report = analyzer.run(args.paths, jobs=jobs)

    if args.format == "sarif":
        print(_render_sarif(report))
    elif args.format == "github":
        for finding in report.parse_errors + report.findings:
            print(finding.render_github())
        print(_render_text(report).splitlines()[-1])
    else:
        print(_render_text(report))

    if args.summary:
        Path(args.summary).write_text(_render_summary(report))

    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
