"""Observability: metrics, spans, flight recorder, exporters, logging.

This package is the instrumentation contract the rest of the library
reports through:

* :mod:`repro.obs.metrics` — :class:`MetricsCollector` (counters,
  histograms, timers, cross-process merging) and the zero-overhead
  :data:`NULL_COLLECTOR` default every engine falls back to;
* :mod:`repro.obs.spans` — end-to-end :class:`SpanTracer` spans with
  deterministic ids, cross-process adoption and the
  :data:`NULL_TRACER` default; engine events are zero-duration spans
  in the same tree;
* :mod:`repro.obs.recorder` — the always-on bounded
  :class:`FlightRecorder` ring buffer, dumped on error / partial
  answer / breaker-open / ``SIGUSR2``;
* :mod:`repro.obs.logging` — the ``repro.*`` logger hierarchy and the
  CLI's ``--verbose`` configuration hook;
* :mod:`repro.obs.report` — the ``repro.metrics/v2`` JSON report
  emitted by ``--metrics-json`` and its validator (which still reads
  ``repro.metrics/v1`` documents written by earlier versions);
* :mod:`repro.obs.export` — the Prometheus text-exposition exporter.

Metric names, span names and the report schema are documented in
docs/OBSERVABILITY.md.
"""

from repro.obs.export import (ExportError, escape_label_value,
                              format_labels, format_sample,
                              parse_prometheus, prometheus_lines,
                              quantile_lines, render_prometheus,
                              workers_block)
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import (Collector, Histogram, MetricsCollector,
                               NullCollector, NULL_COLLECTOR, Stopwatch)
from repro.obs.recorder import (FlightRecorder, FlightRecorderError,
                                NullFlightRecorder, NULL_RECORDER,
                                RecorderLike, load_flight_dump,
                                render_flight_dump)
from repro.obs.report import (ReportError, SCHEMA_ID, SCHEMA_ID_V2,
                              build_report, validate_report)
from repro.obs.spans import (NullTracer, NULL_TRACER, Span, SpanError,
                             SpanTracer, TracerLike, derive_trace_id,
                             load_spans, render_span_tree,
                             validate_spans, write_spans)

__all__ = [
    "Collector", "MetricsCollector", "NullCollector", "NULL_COLLECTOR",
    "Histogram", "Stopwatch",
    "Span", "SpanTracer", "NullTracer", "NULL_TRACER", "TracerLike",
    "SpanError", "derive_trace_id", "validate_spans", "load_spans",
    "write_spans", "render_span_tree",
    "FlightRecorder", "NullFlightRecorder", "NULL_RECORDER",
    "RecorderLike", "FlightRecorderError", "load_flight_dump",
    "render_flight_dump",
    "get_logger", "configure_logging",
    "build_report", "validate_report", "ReportError", "SCHEMA_ID",
    "SCHEMA_ID_V2", "workers_block", "prometheus_lines",
    "render_prometheus", "parse_prometheus", "ExportError",
    "escape_label_value", "format_labels", "format_sample",
    "quantile_lines",
]
