"""``python -m repro.analysis`` — the static-analysis command line.

Usage::

    python -m repro.analysis src                   # gate against the baseline
    python -m repro.analysis src --format json     # machine-readable findings
    python -m repro.analysis src --format sarif    # SARIF 2.1.0 log
    python -m repro.analysis src --select DET NUM  # only two rule families
    python -m repro.analysis src --write-baseline  # regenerate the baseline
    python -m repro.analysis rules                 # the rule catalog
    python -m repro.analysis --list-rules

Exit codes: 0 — no new findings; 1 — at least one finding not covered by
the baseline; 2 — configuration error (unknown rule, unreadable path).

The baseline (``analysis-baseline.json`` in the working directory, or
``--baseline PATH``) grandfathers pre-existing findings; ``--output``
writes the findings JSON and ``--sarif`` the SARIF log to files
regardless of the terminal format, so CI can upload both as artifacts
while still gating on the exit code.

Repeat runs are incremental: pass-1 results are cached per file in
``.repro-analysis-cache.json`` keyed by content hash and rule-set
version, so only changed files are re-parsed (``--no-cache`` opts out,
``--cache PATH`` relocates the file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.cache import DEFAULT_CACHE_NAME
from repro.analysis.engine import AnalysisStats, run_analysis
from repro.analysis.finding import Finding
from repro.analysis.registry import RuleSpec, rule_specs, select_rules
from repro.analysis.sarif import sarif_report
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The analyzer's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism-, numeric- and parallel-safety static analysis "
        "for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze ('rules' prints the rule catalog)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        metavar="RULE",
        help="only run these rule codes or families (e.g. DET NUM PAR001)",
    )
    parser.add_argument(
        "--ignore",
        nargs="+",
        metavar="RULE",
        help="skip these rule codes or families (wins over --select)",
    )
    parser.add_argument(
        "--format",
        "--output-format",
        dest="format",
        choices=("text", "json", "sarif"),
        default="text",
        help="terminal output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write the findings JSON to PATH (for CI artifacts)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write a SARIF 2.1.0 log to PATH (for code-scanning upload)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=f"baseline file of grandfathered findings (default: ./{DEFAULT_BASELINE_NAME} "
        "when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help=f"incremental cache file (default: ./{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="re-parse every file; neither read nor write the cache",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="directory paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-finding lines; print the summary only"
    )
    return parser


def _list_rules() -> int:
    for spec in rule_specs():
        print(f"{spec.code}  {spec.summary}")
    return 0


def _rule_catalog_entry(spec: RuleSpec) -> Dict[str, Any]:
    doc_line = (spec.doc or spec.summary).strip().splitlines()[0].strip()
    return {
        "code": spec.code,
        "family": spec.family,
        "scope": spec.scope,
        "summary": spec.summary,
        "doc": doc_line,
        "waiver": f"# repro: allow[{spec.code}] reason=<why this site is exempt>",
    }


def _render_rules(output_format: str) -> int:
    """The ``rules`` subcommand: the full catalog, one entry per rule."""
    entries = [_rule_catalog_entry(spec) for spec in rule_specs()]
    if output_format == "json":
        print(json.dumps({"version": 1, "rules": entries}, indent=2))
        return 0
    for entry in entries:
        print(f"{entry['code']}  [{entry['family']}, {entry['scope']} scope]")
        print(f"    {entry['doc']}")
        print(f"    waive with: {entry['waiver']}")
    print(f"{len(entries)} rule(s) registered")
    return 0


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    if default.is_file() or args.write_baseline:
        return default
    return None


def _resolve_cache_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_cache:
        return None
    if args.cache:
        return Path(args.cache)
    return Path(DEFAULT_CACHE_NAME)


def _report_json(
    findings: Sequence[Finding],
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stats: AnalysisStats,
) -> Dict[str, Any]:
    return {
        "version": 1,
        "counts": {
            "total": len(findings),
            "new": len(new),
            "baselined": len(baselined),
        },
        "stats": {
            "files": stats.files,
            "parsed": stats.parsed,
            "cache_hits": stats.cache_hits,
        },
        "findings": [finding.to_json() for finding in new],
        "baselined": [finding.to_json() for finding in baselined],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        return _list_rules()
    if args.paths and args.paths[0] == "rules":
        if len(args.paths) > 1:
            print("error: 'rules' takes no path arguments", file=sys.stderr)
            return 2
        return _render_rules(args.format)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: at least one path (or 'rules', or --list-rules) is required",
            file=sys.stderr,
        )
        return 2

    try:
        # Validate selection tokens up front so typos exit 2, not "0 findings".
        select_rules(args.select, args.ignore)
        report = run_analysis(
            args.paths,
            root=args.root,
            select=args.select,
            ignore=args.ignore,
            cache_path=_resolve_cache_path(args),
        )
        findings, stats = report.findings, report.stats
        baseline_path = _resolve_baseline_path(args)

        if args.write_baseline:
            if baseline_path is None:  # pragma: no cover - argparse guarantees a default
                raise ConfigurationError("--write-baseline needs a baseline path")
            Baseline.from_findings(findings).save(baseline_path)
            print(f"wrote {len(findings)} finding(s) to {baseline_path}")
            return 0

        baseline = (
            Baseline.load(baseline_path)
            if baseline_path is not None and baseline_path.is_file()
            else Baseline()
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    new, baselined = baseline.partition(findings)
    json_report = _report_json(findings, new, baselined, stats)

    if args.output:
        Path(args.output).write_text(
            json.dumps(json_report, indent=2) + "\n", encoding="utf-8"
        )
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(sarif_report(new, baselined), indent=2) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        print(json.dumps(json_report, indent=2))
    elif args.format == "sarif":
        print(json.dumps(sarif_report(new, baselined), indent=2))
    else:
        if not args.quiet:
            for finding in new:
                print(finding.render())
        print(
            f"repro.analysis: {len(new)} new finding(s), "
            f"{len(baselined)} baselined, over {len(findings)} total "
            f"({stats.cache_hits}/{stats.files} cached, {stats.parsed} parsed)"
        )
    return 1 if new else 0
