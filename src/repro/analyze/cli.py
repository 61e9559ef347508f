"""The ``repro check`` verb: run the invariant checker from the shell.

Stdlib-only, like the rest of ``repro.analyze`` — the checker must run
(and CI must be able to gate) even where the simulation stack's
third-party dependencies are absent, which is also why the default scan
root is derived from this file's location rather than by importing the
``repro`` package.

Exit codes: ``0`` clean (inline-suppressed findings are reported but do
not fail), ``1`` unsuppressed findings, ``2`` usage or configuration
errors (bad root, unknown rule) *and*
parse errors — a file the checker cannot parse silently truncates the
whole-program analysis, so it is a configuration failure, not a finding;
every parseable module is still checked and reported first.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

from repro.analyze.engine import run_check
from repro.analyze.project import ProjectError
from repro.analyze.sarif import write_sarif
from repro.analyze.rules import RULES, families, rule_ids, select_rules


def _default_root() -> Path:
    # src/repro/analyze/cli.py -> src/repro (no `import repro`: the
    # checker stays importable without the simulation stack's deps).
    return Path(__file__).resolve().parent.parent


def _unknown_rule_message(name: str) -> str:
    known = rule_ids() + families()
    message = f"unknown rule {name!r}"
    close = difflib.get_close_matches(name.upper(), known, n=3, cutoff=0.4)
    if close:
        message += f"; did you mean {', '.join(close)}?"
    return (
        f"{message} (rules: {', '.join(rule_ids())}; "
        f"families: {', '.join(families())})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Static-analysis invariant checker: enforces the repo's "
            "determinism, layering and cache-identity contracts "
            "(docs/architecture.md) over the source tree."
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="package directory to scan (default: the installed repro package, "
        "i.e. src/repro in a checkout)",
    )
    parser.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="LIST",
        help="comma-separated rule ids or families to run (repeatable), e.g. "
        "'LAY' or 'DET001,EXC'; default: every rule",
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the report as SARIF 2.1.0 (for code-scanning "
        "uploads); combinable with --json",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the check report as JSON (schema-versioned, like "
        "'repro stats --json')",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id with its family, summary and the contract "
        "it enforces, then exit",
    )
    return parser


def _parse_rule_selectors(values) -> list[str] | None:
    if not values:
        return None
    selectors: list[str] = []
    for value in values:
        selectors.extend(token.strip() for token in value.split(",") if token.strip())
    return selectors or None


def _print_human(report) -> None:
    for finding in report.findings:
        print(finding.render())
    if report.parse_errors:
        for error in report.parse_errors:
            print(f"parse error: {error}", file=sys.stderr)
    print(
        f"checked {report.files_scanned} file(s) under {report.root} "
        f"with {len(report.rules)} rule(s): {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed"
    )
    for entry in report.reasonless_suppressions:
        print(
            f"note: suppression without a reason at {entry['path']}:"
            f"{entry['line']} is ignored — say why: "
            f"'# repro: allow(RULE-ID) reason'",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.rule_id}  [{rule.family}]  {rule.summary}")
            print(f"        contract: {rule.contract}")
        return 0

    selectors = _parse_rule_selectors(args.rules)
    try:
        select_rules(selectors)
    except KeyError as error:
        print(_unknown_rule_message(error.args[0]), file=sys.stderr)
        return 2

    root = (args.root if args.root is not None else _default_root()).resolve()
    try:
        report = run_check(root, rule_names=selectors)
    except ProjectError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.sarif is not None:
        write_sarif(args.sarif, report, select_rules(selectors))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_human(report)
    if report.parse_errors:
        # A file the checker cannot parse truncates the whole-program
        # analysis: configuration failure, not a finding.
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
