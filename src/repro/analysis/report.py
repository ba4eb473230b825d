"""The lint JSON report: schema, construction, validation.

``repro lint PATHS --format json`` emits one machine-readable report
per run; CI validates a freshly emitted report against this module
before gating on the finding count.  The shape is versioned by the
``schema`` field — ``repro.lint/v1`` — and mirrors the conventions of
the metrics report (:mod:`repro.obs.report`, ``repro.metrics/v1``).

Top-level shape (``repro.lint/v1``)::

    {
      "schema": "repro.lint/v1",
      "paths": ["src/repro"],
      "files_scanned": int,
      "rules": [{"id": "R001", "title": str, "hint": str}],
      "findings": [{"file": str, "line": int, "col": int,
                    "rule": str, "message": str, "hint": str}],
      "suppressed": [ ...same shape... ],
      "summary": {"total": int, "suppressed": int,
                  "by_rule": {"R001": int, ...}}
    }

``findings`` holds only *active* findings; a clean tree reports an
empty list and ``summary.total == 0`` (the CI gate).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.analysis.linter import Finding, LintResult
from repro.exceptions import ReproError

#: Version tag written into (and required from) every lint report.
LINT_SCHEMA_ID = "repro.lint/v1"

#: Keys every report must carry.
REQUIRED_KEYS = ("schema", "paths", "files_scanned", "rules", "findings",
                 "suppressed", "summary")

#: Keys every serialised finding must carry.
FINDING_KEYS = ("file", "line", "col", "rule", "message", "hint")


class LintReportError(ReproError):
    """A lint report does not conform to the documented schema."""


def build_lint_report(result: LintResult, paths: Sequence[str],
                      rules: Iterable[object]) -> Dict[str, object]:
    """Assemble the ``repro.lint/v1`` report for one lint run."""
    return {
        "schema": LINT_SCHEMA_ID,
        "paths": [str(path) for path in paths],
        "files_scanned": result.files_scanned,
        "rules": [{"id": rule.rule_id,  # type: ignore[attr-defined]
                   "title": rule.title,  # type: ignore[attr-defined]
                   "hint": rule.hint}  # type: ignore[attr-defined]
                  for rule in rules],
        "findings": [_finding_dict(finding) for finding in result.findings],
        "suppressed": [_finding_dict(finding)
                       for finding in result.suppressed],
        "summary": {
            "total": len(result.findings),
            "suppressed": len(result.suppressed),
            "by_rule": result.by_rule(),
        },
    }


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {"file": finding.file, "line": finding.line, "col": finding.col,
            "rule": finding.rule, "message": finding.message,
            "hint": finding.hint}


def validate_lint_report(report: object) -> Dict[str, object]:
    """Check a parsed report against the v1 schema.

    Returns the report (for chaining) or raises :class:`LintReportError`
    naming the first violation.  Deliberately dependency-free, like the
    metrics validator it mirrors — CI runs it against the report the
    lint job just emitted.
    """
    if not isinstance(report, dict):
        raise LintReportError(
            f"report must be an object, got {type(report).__name__}")
    for key in REQUIRED_KEYS:
        if key not in report:
            raise LintReportError(f"report is missing required key {key!r}")
    if report["schema"] != LINT_SCHEMA_ID:
        raise LintReportError(f"unknown schema {report['schema']!r}; "
                              f"expected {LINT_SCHEMA_ID!r}")
    if not isinstance(report["paths"], list) \
            or not all(isinstance(p, str) for p in report["paths"]):
        raise LintReportError("paths must be a list of strings")
    if not isinstance(report["files_scanned"], int) \
            or isinstance(report["files_scanned"], bool):
        raise LintReportError("files_scanned must be an integer")

    rules = report["rules"]
    if not isinstance(rules, list):
        raise LintReportError("rules must be a list")
    for position, rule in enumerate(rules):
        if not isinstance(rule, dict) \
                or not isinstance(rule.get("id"), str) \
                or not isinstance(rule.get("title"), str):
            raise LintReportError(
                f"rules[{position}] must be an object with string "
                "'id' and 'title'")

    for block in ("findings", "suppressed"):
        findings = report[block]
        if not isinstance(findings, list):
            raise LintReportError(f"{block} must be a list")
        for position, finding in enumerate(findings):
            _validate_finding(finding, f"{block}[{position}]")

    summary = report["summary"]
    if not isinstance(summary, dict):
        raise LintReportError("summary must be an object")
    for key in ("total", "suppressed"):
        if not isinstance(summary.get(key), int) \
                or isinstance(summary.get(key), bool):
            raise LintReportError(f"summary.{key} must be an integer")
    by_rule = summary.get("by_rule")
    if not isinstance(by_rule, dict) \
            or not all(isinstance(count, int) for count in by_rule.values()):
        raise LintReportError(
            "summary.by_rule must map rule ids to integer counts")
    if summary["total"] != len(report["findings"]):
        raise LintReportError(
            f"summary.total {summary['total']} does not match "
            f"{len(report['findings'])} findings")
    if sum(by_rule.values()) != summary["total"]:
        raise LintReportError(
            "summary.by_rule counts do not sum to summary.total")
    return report


def _validate_finding(finding: object, where: str) -> None:
    if not isinstance(finding, dict):
        raise LintReportError(f"{where} must be an object")
    for key in FINDING_KEYS:
        if key not in finding:
            raise LintReportError(f"{where} is missing key {key!r}")
    for key in ("file", "rule", "message", "hint"):
        if not isinstance(finding[key], str):
            raise LintReportError(f"{where}.{key} must be a string")
    for key in ("line", "col"):
        if not isinstance(finding[key], int) \
                or isinstance(finding[key], bool):
            raise LintReportError(f"{where}.{key} must be an integer")
