"""Unit tests for the observability primitives (repro.obs)."""

import json
import logging
import time

import pytest

from repro.obs import (MetricsCollector, NULL_COLLECTOR, SpanTracer,
                       Stopwatch, configure_logging, get_logger)
from repro.obs.metrics import Histogram, NullCollector
from repro.obs.report import ReportError, SCHEMA_ID, validate_report


class TestHistogram:
    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}

    def test_streaming_summary(self):
        histogram = Histogram()
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot == {"count": 3, "sum": 15.0, "min": 2.0,
                            "max": 8.0, "mean": 5.0}

    def test_scale_converts_units(self):
        histogram = Histogram()
        histogram.observe(0.25)
        snapshot = histogram.snapshot(scale=1000.0)
        assert snapshot["sum"] == 250.0
        assert snapshot["mean"] == 250.0


class TestStopwatch:
    def test_context_manager(self):
        with Stopwatch() as watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.01
        assert watch.elapsed_ms == pytest.approx(watch.elapsed * 1000.0)

    def test_elapsed_frozen_after_stop(self):
        watch = Stopwatch().start()
        frozen = watch.stop()
        time.sleep(0.005)
        assert watch.elapsed == frozen

    def test_restart_accumulates(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.002)
        first = watch.elapsed
        with watch:
            time.sleep(0.002)
        assert watch.elapsed > first

    def test_live_reading_while_running(self):
        watch = Stopwatch().start()
        time.sleep(0.002)
        assert watch.elapsed > 0.0


class TestNullCollector:
    def test_is_disabled_and_traceless(self):
        assert NULL_COLLECTOR.enabled is False
        assert NULL_COLLECTOR.tracer is None

    def test_all_hooks_are_noops(self):
        NULL_COLLECTOR.count("x")
        NULL_COLLECTOR.observe("x", 1.0)
        NULL_COLLECTOR.observe_time("x", 1.0)
        NULL_COLLECTOR.event("x", detail=1)
        with NULL_COLLECTOR.time("x"):
            pass
        assert NULL_COLLECTOR.snapshot() == {}

    def test_allocates_no_state(self):
        assert not hasattr(NullCollector(), "__dict__")


class TestMetricsCollector:
    def test_counters(self):
        collector = MetricsCollector()
        collector.count("frames")
        collector.count("frames", 4)
        assert collector.counter("frames") == 5
        assert collector.counter("never") == 0

    def test_histograms_and_timers(self):
        collector = MetricsCollector()
        collector.observe("depth", 3)
        collector.observe("depth", 7)
        collector.observe_time("scan", 0.5)
        snapshot = collector.snapshot()
        assert snapshot["histograms"]["depth"]["mean"] == 5.0
        # timers are reported in milliseconds
        assert snapshot["timers"]["scan"]["sum"] == 500.0

    def test_time_context_manager(self):
        collector = MetricsCollector()
        with collector.time("work"):
            time.sleep(0.002)
        summary = collector.snapshot()["timers"]["work"]
        assert summary["count"] == 1
        assert summary["sum"] >= 2.0  # ms

    def test_events_need_tracing(self):
        silent = MetricsCollector()
        silent.event("step", value=1)
        assert silent.tracer is None

        tracer = SpanTracer(trace_id="t")
        tracing = MetricsCollector(tracer=tracer)
        with tracer.span("query"):
            tracing.event("step", value=1)
        step = tracer.finished[0]
        assert (step.name, step.parent_id) == ("step", "s0")
        assert step.attrs == {"value": 1}
        assert step.duration_ms == 0.0

    def test_snapshot_is_sorted_and_json_safe(self):
        collector = MetricsCollector()
        collector.count("b")
        collector.count("a")
        snapshot = collector.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)  # must not raise


class TestLogging:
    def test_get_logger_prefixes(self):
        assert get_logger("core.eager").name == "repro.core.eager"
        assert get_logger("repro.core.eager").name == "repro.core.eager"
        assert get_logger().name == "repro"

    def test_configure_is_idempotent(self):
        logger = configure_logging(verbose=True)
        before = len(logger.handlers)
        configure_logging(verbose=False)
        configure_logging(verbose=False)
        assert len(logger.handlers) == before
        assert logger.level == logging.WARNING

    def test_verbose_sets_debug(self):
        assert configure_logging(verbose=True).level == logging.DEBUG


class TestReportValidation:
    def _minimal(self):
        return {
            "schema": SCHEMA_ID,
            "query": {"keywords": ["k1"], "k": 5,
                      "algorithm": "eager", "semantics": "slca"},
            "elapsed_ms": 1.5,
            "result_count": 0,
            "results": [],
            "stats": {},
            "metrics": {},
        }

    def test_accepts_minimal_report(self):
        report = self._minimal()
        assert validate_report(report) is report

    def test_rejects_non_object(self):
        with pytest.raises(ReportError, match="must be an object"):
            validate_report([1, 2])

    def test_rejects_missing_key(self):
        report = self._minimal()
        del report["metrics"]
        with pytest.raises(ReportError, match="metrics"):
            validate_report(report)

    def test_rejects_unknown_schema(self):
        report = self._minimal()
        report["schema"] = "repro.metrics/v0"
        with pytest.raises(ReportError, match="unknown schema"):
            validate_report(report)

    def test_rejects_count_mismatch(self):
        report = self._minimal()
        report["result_count"] = 3
        with pytest.raises(ReportError, match="result_count"):
            validate_report(report)

    def test_rejects_malformed_metrics(self):
        report = self._minimal()
        report["metrics"] = {"counters": {"n": 1}, "histograms": {},
                             "timers": {"t": {"count": 1}}}
        with pytest.raises(ReportError, match="timers"):
            validate_report(report)

    def test_rejects_boolean_numbers(self):
        report = self._minimal()
        report["elapsed_ms"] = True
        with pytest.raises(ReportError, match="elapsed_ms"):
            validate_report(report)

    def test_rejects_malformed_trace(self):
        report = self._minimal()
        report["trace"] = [{"seq": 0}]
        with pytest.raises(ReportError, match="trace"):
            validate_report(report)
