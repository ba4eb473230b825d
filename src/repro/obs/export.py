"""The Prometheus text exporter and the report's worker block.

* :func:`render_prometheus` turns any metrics snapshot into Prometheus
  text exposition format (version 0.0.4) — the format the ``/metrics``
  endpoint serves verbatim.  Counters become ``counter`` samples;
  histogram and timer summaries become a ``_count`` / ``_sum`` /
  ``_min`` / ``_max`` / ``_mean`` gauge family.
  :func:`parse_prometheus` reads that text back (used by the
  round-trip tests and the CI smoke job).
* :func:`workers_block` is the merge provenance block of a
  ``repro.metrics/v2`` report: how many process-worker snapshots were
  merged into its ``metrics`` block, by pid.

Report construction and validation live in :mod:`repro.obs.report`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError

#: Metric name prefix on every exported Prometheus sample.
PROMETHEUS_PREFIX = "repro"

#: Summary fields exported per histogram/timer, in exposition order.
_SUMMARY_FIELDS = ("count", "sum", "min", "max", "mean")


class ExportError(ReproError):
    """A metrics export could not be rendered or parsed."""


def workers_block(pids: List[int],
                  merged_snapshots: int) -> Dict[str, object]:
    """The canonical ``workers`` block of a v2 report.

    ``pids`` lists the distinct process-worker pids whose metric
    snapshots were merged into the report's ``metrics`` block;
    ``merged_snapshots`` counts the merges (one per chunk, so it can
    exceed ``len(pids)`` when a worker served several chunks).
    """
    return {"count": len(set(pids)),
            "pids": sorted(set(pids)),
            "merged_snapshots": merged_snapshots}


# -- Prometheus text exposition ----------------------------------------------


def _sample_name(name: str, prefix: str = PROMETHEUS_PREFIX) -> str:
    """``index.match_entries.hits`` -> ``repro_index_match_entries_hits``.

    Prometheus metric names admit ``[a-zA-Z_:][a-zA-Z0-9_:]*``; every
    other character becomes ``_``.
    """
    cleaned = "".join(char if char.isalnum() or char == "_" else "_"
                      for char in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``).

    Non-finite values use the exposition spellings ``+Inf`` / ``-Inf``
    / ``NaN`` — ``repr(float("inf"))`` is ``'inf'``, which Prometheus
    scrapers reject.
    """
    if isinstance(value, bool):  # bool is an int; never a valid sample
        return "1" if value else "0"
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double-quote, and line-feed are the three characters
    the format escapes (``\\\\``, ``\\"``, ``\\n``); everything else
    passes through verbatim.
    """
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def format_labels(labels: Mapping[str, object]) -> str:
    """``{a="1",b="x"}`` for a label mapping (sorted by name; ``""`` if empty).

    Label *names* are sanitized like metric names; label *values* are
    escaped with :func:`escape_label_value`.
    """
    if not labels:
        return ""
    parts = []
    for name in sorted(labels):
        clean = _sample_name(str(name), prefix="")
        parts.append(f'{clean}="{escape_label_value(str(labels[name]))}"')
    return "{" + ",".join(parts) + "}"


def format_sample(name: str, value: float,
                  labels: Optional[Mapping[str, object]] = None,
                  prefix: str = PROMETHEUS_PREFIX) -> str:
    """One exposition sample line: ``prefix_name{labels} value``."""
    return (f"{_sample_name(name, prefix)}{format_labels(labels or {})} "
            f"{_format_value(value)}")


def prometheus_lines(metrics: Dict[str, Dict],
                     prefix: str = PROMETHEUS_PREFIX) -> List[str]:
    """Exposition lines for one metrics snapshot (no trailing newline).

    The snapshot is the ``metrics`` block shape produced by
    :meth:`repro.obs.metrics.MetricsCollector.snapshot`: ``counters``
    map to ``counter`` samples, ``histograms`` and ``timers`` each to a
    five-gauge summary family (timer values are milliseconds, as in
    the JSON report).  An empty snapshot yields no lines.
    """
    if not isinstance(metrics, dict):
        raise ExportError(f"metrics snapshot must be an object, "
                          f"got {type(metrics).__name__}")
    lines: List[str] = []
    counters = metrics.get("counters", {})
    for name in sorted(counters):
        sample = _sample_name(name, prefix)
        lines.append(f"# TYPE {sample} counter")
        lines.append(f"{sample} {_format_value(counters[name])}")
    for block, unit in (("histograms", ""), ("timers", "_ms")):
        summaries = metrics.get(block, {})
        for name in sorted(summaries):
            summary = summaries[name]
            base = _sample_name(name, prefix) + unit
            for field in _SUMMARY_FIELDS:
                sample = f"{base}_{field}"
                lines.append(f"# TYPE {sample} gauge")
                lines.append(
                    f"{sample} {_format_value(summary.get(field, 0))}")
    return lines


def render_prometheus(metrics: Dict[str, Dict],
                      prefix: str = PROMETHEUS_PREFIX) -> str:
    """The full exposition document (trailing newline included)."""
    lines = prometheus_lines(metrics, prefix)
    return "\n".join(lines) + "\n" if lines else ""


def _unescape_label_value(raw: str, number: int) -> str:
    """Invert :func:`escape_label_value` (raises on a dangling ``\\``)."""
    out: List[str] = []
    index = 0
    while index < len(raw):
        char = raw[index]
        if char == "\\":
            if index + 1 >= len(raw):
                raise ExportError(f"exposition line {number} has a "
                                  f"dangling escape in a label value")
            nxt = raw[index + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _parse_labels(body: str, number: int) -> Dict[str, str]:
    """Parse the inside of a ``{...}`` label block, escape-aware."""
    labels: Dict[str, str] = {}
    index = 0
    while index < len(body):
        eq = body.find("=", index)
        if eq < 0:
            raise ExportError(
                f"exposition line {number} has a malformed label block")
        name = body[index:eq].strip().lstrip(",").strip()
        if not name or eq + 1 >= len(body) or body[eq + 1] != '"':
            raise ExportError(
                f"exposition line {number} has a malformed label block")
        cursor = eq + 2  # first char inside the quoted value
        raw: List[str] = []
        while True:
            if cursor >= len(body):
                raise ExportError(f"exposition line {number} has an "
                                  f"unterminated label value")
            char = body[cursor]
            if char == "\\":
                raw.append(body[cursor:cursor + 2])
                cursor += 2
                continue
            if char == '"':
                break
            raw.append(char)
            cursor += 1
        labels[name] = _unescape_label_value("".join(raw), number)
        index = cursor + 1
    return labels


def _split_sample_line(line: str,
                       number: int) -> Tuple[str, Dict[str, str], str]:
    """``name{labels} value`` -> (name, labels, raw value), escape-aware.

    Lines without a label block keep the historical strict contract:
    exactly two whitespace-separated tokens, no timestamps.
    """
    brace = line.find("{")
    if brace < 0:
        parts = line.split()
        if len(parts) != 2:
            raise ExportError(
                f"exposition line {number} is malformed: {line!r}")
        return parts[0], {}, parts[1]
    name = line[:brace]
    if not name or any(ch.isspace() for ch in name):
        raise ExportError(
            f"exposition line {number} is malformed: {line!r}")
    # Scan for the closing brace, honouring escapes inside quotes so a
    # label value containing '}' or '"' cannot derail the split.
    cursor = brace + 1
    in_quotes = False
    while cursor < len(line):
        char = line[cursor]
        if in_quotes and char == "\\":
            cursor += 2
            continue
        if char == '"':
            in_quotes = not in_quotes
        elif char == "}" and not in_quotes:
            break
        cursor += 1
    if cursor >= len(line):
        raise ExportError(
            f"exposition line {number} has an unterminated label block")
    labels = _parse_labels(line[brace + 1:cursor], number)
    raw = line[cursor + 1:].strip()
    if not raw or any(ch.isspace() for ch in raw):
        raise ExportError(
            f"exposition line {number} is malformed: {line!r}")
    return name, labels, raw


def parse_prometheus(text: str) -> Dict[str, float]:
    """Read exposition text back into a flat ``{sample: value}`` map.

    Supports the subset this module emits (``# TYPE`` / ``# HELP``
    comments ignored, no timestamps).  Labelled samples are keyed by
    their canonical rendering — the metric name plus the sorted,
    re-escaped label block — so ``render_prometheus`` output
    round-trips exactly even when label values contain quotes,
    backslashes, newlines, or spaces.  Non-finite values (``+Inf`` /
    ``-Inf`` / ``NaN``) parse back to the corresponding floats.
    Raises :class:`ExportError` on a malformed sample line.
    """
    samples: Dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, raw = _split_sample_line(line, number)
        try:
            value = float(raw)
        except ValueError:
            raise ExportError(
                f"exposition line {number} has a non-numeric value: "
                f"{line!r}") from None
        key = name + format_labels(labels)
        if key in samples:
            raise ExportError(
                f"exposition line {number} repeats sample {key!r}")
        samples[key] = value
    return samples


def quantile_lines(quantiles: Dict[str, Dict[str, Dict[str, float]]],
                   prefix: str = PROMETHEUS_PREFIX) -> List[str]:
    """Exposition lines for a quantile snapshot (no trailing newline).

    ``quantiles`` is the shape produced by
    :meth:`repro.obs.metrics.MetricsCollector.quantile_snapshot`:
    ``{"histograms": {name: {"0.5": v, ...}}, "timers": {...}}``.
    Each metric becomes one gauge family of ``{quantile="..."}``
    labelled samples; timer values are milliseconds (``_ms`` suffix),
    matching :func:`prometheus_lines`.
    """
    lines: List[str] = []
    for block, unit in (("histograms", ""), ("timers", "_ms")):
        families = quantiles.get(block, {})
        for name in sorted(families):
            base = _sample_name(name, prefix) + unit
            lines.append(f"# TYPE {base} gauge")
            family = families[name]
            for q in sorted(family, key=float):
                lines.append(format_sample(
                    name + unit, family[q], {"quantile": q}, prefix))
    return lines
