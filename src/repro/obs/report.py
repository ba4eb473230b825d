"""The metrics JSON report: schema, construction, validation.

``repro search ... --metrics-json PATH``, ``repro batch`` and the HTTP
server emit one ``repro.metrics/v2`` report per query or batch.  The
shape is versioned by the ``schema`` field and documented in
docs/OBSERVABILITY.md; :func:`validate_report` is the
machine-checkable form of that document and is what the CI smoke job
runs against a freshly emitted report.

Top-level shape::

    {
      "schema": "repro.metrics/v2",
      "query": {"keywords": [...], "k": int,
                "algorithm": str, "semantics": str},
      "elapsed_ms": float,
      "result_count": int,
      "results": [{"code": str, "probability": float, "label": str}],
      "stats": {...},              # per-algorithm counters (free-form)
      "metrics": {"counters": {...}, "histograms": {...},
                  "timers": {...}},
      "spans": [...],              # optional: the exported span tree
      "workers": {...},            # optional: process-worker merges
      "resilience": {...}          # optional: retry/breaker/fault stats
    }

The ``metrics`` block of a batch report is *merged* across the
coordinator and every process worker.  ``spans`` (validated by
:func:`repro.obs.spans.validate_spans`) includes the engine events
as zero-duration spans when the query was traced.

Earlier versions wrote ``repro.metrics/v1`` — the same shape without
the three optional blocks, with an optional ``trace`` event list.
:func:`validate_report` still reads those documents.
"""

from __future__ import annotations

from numbers import Number
from typing import Dict, List, Optional

from repro.exceptions import ReproError

#: The legacy single-query version: read by :func:`validate_report`,
#: no longer written.
SCHEMA_ID = "repro.metrics/v1"

#: The version every report is written with.
SCHEMA_ID_V2 = "repro.metrics/v2"

#: Every schema version :func:`validate_report` accepts.
KNOWN_SCHEMAS = (SCHEMA_ID, SCHEMA_ID_V2)

#: Keys every report must carry.
REQUIRED_KEYS = ("schema", "query", "elapsed_ms", "result_count",
                 "results", "stats", "metrics")

#: Keys every histogram / timer summary must carry.
SUMMARY_KEYS = ("count", "sum", "min", "max", "mean")


class ReportError(ReproError):
    """A metrics report does not conform to the documented schema."""


def build_report(keywords: List[str], k: int, algorithm: str,
                 semantics: str, outcome, elapsed_ms: float,
                 spans: Optional[List[Dict[str, object]]] = None,
                 workers: Optional[Dict[str, object]] = None,
                 resilience: Optional[Dict[str, object]] = None,
                 ) -> Dict[str, object]:
    """Assemble the ``repro.metrics/v2`` report for a query or batch.

    ``outcome`` is a :class:`repro.core.result.SearchOutcome` (typed
    loosely so this package stays dependency-free below the core).
    ``outcome.stats`` is copied minus the non-JSON members the library
    attaches in-process (the metrics snapshot becomes the report's own
    ``metrics`` block; Monte-Carlo ``estimates`` objects are
    summarised by the results).  The optional blocks are attached only
    when given; ``workers`` is the merge provenance block — see
    :func:`repro.obs.export.workers_block` for its shape.
    """
    stats = {key: value for key, value in outcome.stats.items()
             if key not in ("metrics", "estimates")}
    report: Dict[str, object] = {
        "schema": SCHEMA_ID_V2,
        "query": {"keywords": list(keywords), "k": k,
                  "algorithm": str(algorithm), "semantics": str(semantics)},
        "elapsed_ms": round(float(elapsed_ms), 6),
        "result_count": len(outcome),
        "results": [{"code": str(result.code),
                     "probability": result.probability,
                     "label": result.label}
                    for result in outcome.results],
        "stats": stats,
        "metrics": outcome.stats.get("metrics", {}),
    }
    for block, value in (("spans", spans), ("workers", workers),
                         ("resilience", resilience)):
        if value is not None:
            report[block] = value
    return report


def validate_report(report: object) -> Dict[str, object]:
    """Check a parsed report against its declared schema (v1 or v2).

    Returns the report (for chaining) or raises :class:`ReportError`
    naming the first violation.  Deliberately dependency-free below
    the obs package — this is the library's own contract check, also
    run by the CI smoke job.
    """
    if not isinstance(report, dict):
        raise ReportError(f"report must be an object, got "
                          f"{type(report).__name__}")
    for key in REQUIRED_KEYS:
        if key not in report:
            raise ReportError(f"report is missing required key {key!r}")
    if report["schema"] not in KNOWN_SCHEMAS:
        choices = ", ".join(repr(schema) for schema in KNOWN_SCHEMAS)
        raise ReportError(f"unknown schema {report['schema']!r}; "
                          f"expected one of: {choices}")

    query = report["query"]
    if not isinstance(query, dict):
        raise ReportError("query must be an object")
    for key, kind in (("keywords", list), ("k", int),
                      ("algorithm", str), ("semantics", str)):
        if not isinstance(query.get(key), kind):
            raise ReportError(f"query.{key} must be a {kind.__name__}")

    _require_number(report, "elapsed_ms")
    _require_number(report, "result_count")
    results = report["results"]
    if not isinstance(results, list):
        raise ReportError("results must be a list")
    for position, result in enumerate(results):
        if not isinstance(result, dict):
            raise ReportError(f"results[{position}] must be an object")
        if not isinstance(result.get("code"), str):
            raise ReportError(f"results[{position}].code must be a string")
        if not _is_number(result.get("probability")):
            raise ReportError(
                f"results[{position}].probability must be a number")
    if len(results) != report["result_count"]:
        raise ReportError(
            f"result_count {report['result_count']} does not match "
            f"{len(results)} results")

    if not isinstance(report["stats"], dict):
        raise ReportError("stats must be an object")
    _validate_metrics(report["metrics"])

    # The event list of reports written before events became spans.
    trace = report.get("trace")
    if trace is not None:
        if not isinstance(trace, list):
            raise ReportError("trace must be a list of events")
        for position, event in enumerate(trace):
            if not isinstance(event, dict) \
                    or not isinstance(event.get("name"), str) \
                    or not _is_number(event.get("offset_ms")):
                raise ReportError(
                    f"trace[{position}] must be an object with a "
                    "'name' string and an 'offset_ms' number")

    if report["schema"] == SCHEMA_ID_V2:
        _validate_v2_blocks(report)
    else:
        for block in ("spans", "workers"):
            if block in report:
                raise ReportError(
                    f"{block!r} is a {SCHEMA_ID_V2} block; a "
                    f"{SCHEMA_ID} report must not carry it")
    return report


def _validate_v2_blocks(report: Dict[str, object]) -> None:
    """The v2-only optional blocks: spans, workers, resilience."""
    spans = report.get("spans")
    if spans is not None:
        from repro.obs.spans import SpanError, validate_spans
        try:
            validate_spans(spans)
        except SpanError as error:
            raise ReportError(f"spans block invalid: {error}") \
                from error
    workers = report.get("workers")
    if workers is not None:
        if not isinstance(workers, dict):
            raise ReportError("workers must be an object")
        if not _is_number(workers.get("count")):
            raise ReportError("workers.count must be a number")
        pids = workers.get("pids", [])
        if not isinstance(pids, list) or not all(
                _is_number(pid) for pid in pids):
            raise ReportError("workers.pids must be a list of numbers")
        if not _is_number(workers.get("merged_snapshots")):
            raise ReportError(
                "workers.merged_snapshots must be a number")
    resilience = report.get("resilience")
    if resilience is not None and not isinstance(resilience, dict):
        raise ReportError("resilience must be an object")


def _validate_metrics(metrics: object) -> None:
    if not isinstance(metrics, dict):
        raise ReportError("metrics must be an object")
    if not metrics:
        return  # an uninstrumented run legitimately reports {}
    for block in ("counters", "histograms", "timers"):
        if block not in metrics:
            raise ReportError(f"metrics is missing the {block!r} block")
    counters = metrics["counters"]
    if not isinstance(counters, dict):
        raise ReportError("metrics.counters must be an object")
    for name, value in counters.items():
        if not _is_number(value):
            raise ReportError(f"counter {name!r} must be a number")
    for block in ("histograms", "timers"):
        summaries = metrics[block]
        if not isinstance(summaries, dict):
            raise ReportError(f"metrics.{block} must be an object")
        for name, summary in summaries.items():
            if not isinstance(summary, dict):
                raise ReportError(
                    f"metrics.{block}[{name!r}] must be an object")
            for key in SUMMARY_KEYS:
                if not _is_number(summary.get(key)):
                    raise ReportError(
                        f"metrics.{block}[{name!r}].{key} must be a "
                        "number")


def _is_number(value: object) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


def _require_number(report: Dict[str, object], key: str) -> None:
    if not _is_number(report[key]):
        raise ReportError(f"{key} must be a number")
