"""The repro.metrics/v2 report, cross-process metric merging and the
Prometheus exporter (satellites S1/S4 of the observability issue)."""

import pytest

from repro.core.result import SearchOutcome
from repro.obs import (MetricsCollector, build_report, parse_prometheus, prometheus_lines,
                       render_prometheus, validate_report,
                       workers_block)
from repro.obs.export import ExportError
from repro.obs.metrics import Histogram
from repro.obs.report import (REQUIRED_KEYS, ReportError, SCHEMA_ID,
                               SCHEMA_ID_V2)
from repro.obs.spans import SpanTracer


def outcome_with_metrics():
    collector = MetricsCollector()
    collector.count("engine.items_fed", 7)
    collector.observe("posting.length", 12)
    collector.observe_time("index.lookup", 0.002)
    outcome = SearchOutcome(stats={"algorithm": "eager"})
    outcome.stats["metrics"] = collector.snapshot()
    return outcome


class TestSchemaCompat:
    def test_v1_report_still_validates(self):
        # Reports written before v2 (and still on disk) keep reading.
        report = build_report(["k1"], 3, "eager", "slca",
                              outcome_with_metrics(), 1.5)
        report["schema"] = SCHEMA_ID
        report["trace"] = [{"seq": 0, "offset_ms": 0.1,
                            "name": "eager.process"}]
        assert validate_report(report) is report

    def test_v2_without_blocks_is_v1_plus_tag(self):
        report = build_report(["k1"], 3, "eager", "slca",
                              outcome_with_metrics(), 1.5)
        assert report["schema"] == SCHEMA_ID_V2
        assert set(report) == set(REQUIRED_KEYS)

    def test_v2_with_all_blocks_validates(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("batch"):
            pass
        report = build_report(
            ["k1"], 3, "eager", "slca", outcome_with_metrics(), 1.5,
            spans=tracer.export(),
            workers=workers_block([41, 42, 42], 3),
            resilience={"retries": 1, "query_errors": 0})
        validated = validate_report(report)
        assert validated["workers"] == {"count": 2, "pids": [41, 42],
                                        "merged_snapshots": 3}

    def test_v1_must_not_carry_v2_blocks(self):
        report = build_report(["k1"], 3, "eager", "slca",
                              outcome_with_metrics(), 1.5)
        report["schema"] = SCHEMA_ID
        report["workers"] = workers_block([1], 1)
        with pytest.raises(ReportError, match="must not carry"):
            validate_report(report)

    def test_v2_rejects_invalid_spans_block(self):
        report = build_report(
            ["k1"], 3, "eager", "slca", outcome_with_metrics(), 1.5,
            spans=[{"span_id": "s0"}])
        with pytest.raises(ReportError, match="spans block invalid"):
            validate_report(report)

    def test_v2_rejects_malformed_workers_block(self):
        report = build_report(
            ["k1"], 3, "eager", "slca", outcome_with_metrics(), 1.5,
            workers={"pids": ["not-a-pid"]})
        with pytest.raises(ReportError, match="workers.count"):
            validate_report(report)

    def test_unknown_schema_names_both_versions(self):
        report = build_report(["k1"], 3, "eager", "slca",
                              outcome_with_metrics(), 1.5)
        report["schema"] = "repro.metrics/v9"
        with pytest.raises(ReportError, match="v1.*v2"):
            validate_report(report)


class TestMerging:
    def test_histogram_absorb(self):
        left = Histogram()
        left.observe(2.0)
        left.observe(4.0)
        right = Histogram()
        right.absorb(left.count, left.total, left.minimum, left.maximum)
        right.absorb(0, 0.0, 0.0, 0.0)  # empty summary is a no-op
        assert right.count == 2
        assert right.total == 6.0
        assert right.minimum == 2.0
        assert right.maximum == 4.0

    def test_merge_collectors(self):
        left, right = MetricsCollector(), MetricsCollector()
        left.count("c", 2)
        right.count("c", 3)
        right.observe_time("t", 0.5)
        left.merge(right)
        assert left.counter("c") == 5
        assert left.timers["t"].count == 1

    def test_merge_snapshot_scales_timers_back_to_seconds(self):
        worker = MetricsCollector()
        worker.count("eager.seeds", 4)
        worker.observe_time("index.lookup", 0.25)  # snapshot -> 250 ms
        coordinator = MetricsCollector()
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.counter("eager.seeds") == 4
        merged = coordinator.snapshot()["timers"]["index.lookup"]
        assert merged["sum"] == pytest.approx(250.0)
        assert coordinator.timers["index.lookup"].total == \
            pytest.approx(0.25)

    def test_merge_snapshot_of_empty_is_noop(self):
        collector = MetricsCollector()
        collector.merge_snapshot({})
        assert collector.snapshot()["counters"] == {}


class TestTimerSpanBridge:
    def test_time_opens_a_span_under_current(self):
        tracer = SpanTracer(trace_id="t")
        collector = MetricsCollector(tracer=tracer)
        with tracer.span("query"):
            with collector.time("index.lookup"):
                pass
        names = {s.name: s for s in tracer.finished}
        assert names["index.lookup"].parent_id == \
            names["query"].span_id
        assert collector.timers["index.lookup"].count == 1

    def test_mark_annotates_current_span(self):
        tracer = SpanTracer(trace_id="t")
        collector = MetricsCollector(tracer=tracer)
        with tracer.span("query") as span:
            collector.mark("cache.hits")
            collector.mark("cache.hits")
        assert span.attrs["cache.hits"] == 2

    def test_mark_without_tracer_is_noop(self):
        collector = MetricsCollector()
        collector.mark("cache.hits")  # must not raise or record
        assert collector.snapshot()["counters"] == {}

    def test_disabled_tracer_is_not_attached(self):
        from repro.obs.spans import NULL_TRACER
        collector = MetricsCollector(tracer=NULL_TRACER)
        assert collector.tracer is None


class TestPrometheus:
    def snapshot(self):
        collector = MetricsCollector()
        collector.count("engine.items_fed", 7)
        collector.count("service.cache.match_entries.hits", 3)
        collector.observe("posting.length", 12)
        collector.observe("posting.length", 4)
        collector.observe_time("index.lookup", 0.002)
        return collector.snapshot()

    def test_round_trip(self):
        text = render_prometheus(self.snapshot())
        samples = parse_prometheus(text)
        assert samples["repro_engine_items_fed"] == 7
        assert samples["repro_service_cache_match_entries_hits"] == 3
        assert samples["repro_posting_length_count"] == 2
        assert samples["repro_posting_length_sum"] == 16
        assert samples["repro_posting_length_min"] == 4
        assert samples["repro_posting_length_max"] == 12
        assert samples["repro_posting_length_mean"] == 8
        # timers are exported in milliseconds, suffixed _ms
        assert samples["repro_index_lookup_ms_count"] == 1
        assert samples["repro_index_lookup_ms_sum"] == \
            pytest.approx(2.0)

    def test_type_lines_declare_counters_and_gauges(self):
        lines = prometheus_lines(self.snapshot())
        assert "# TYPE repro_engine_items_fed counter" in lines
        assert "# TYPE repro_posting_length_count gauge" in lines

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsCollector().snapshot()) == ""
        assert render_prometheus({}) == ""

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ExportError, match="malformed"):
            parse_prometheus("repro_x 1 2 3\n")
        with pytest.raises(ExportError, match="non-numeric"):
            parse_prometheus("repro_x abc\n")
        with pytest.raises(ExportError, match="repeats"):
            parse_prometheus("repro_x 1\nrepro_x 2\n")

    def test_parse_skips_comments_and_blanks(self):
        assert parse_prometheus("# HELP x\n\n# TYPE x counter\n") == {}


class TestLabelsAndNonFinite:
    """Regressions for the exposition-format bugfix: label values must
    be escaped and non-finite samples spelled ``+Inf``/``-Inf``/``NaN``
    (previously ``repr(float('inf')) == 'inf'`` produced unscrapable
    output and a label value containing ``\"`` broke the line)."""

    def test_escape_label_value(self):
        from repro.obs import escape_label_value
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("plain") == "plain"

    def test_format_sample_with_labels_sorted(self):
        from repro.obs import format_sample
        line = format_sample("gen.info", 1, {"b": "2", "a": "1"})
        assert line == 'repro_gen_info{a="1",b="2"} 1'

    def test_non_finite_values_render_per_spec(self):
        from repro.obs import format_sample
        assert format_sample("x", float("inf")).endswith(" +Inf")
        assert format_sample("x", float("-inf")).endswith(" -Inf")
        assert format_sample("x", float("nan")).endswith(" NaN")

    def test_non_finite_round_trip(self):
        import math
        from repro.obs import format_sample
        text = "\n".join([format_sample("pos", float("inf")),
                          format_sample("neg", float("-inf")),
                          format_sample("nan", float("nan"))]) + "\n"
        samples = parse_prometheus(text)
        assert samples["repro_pos"] == float("inf")
        assert samples["repro_neg"] == float("-inf")
        assert math.isnan(samples["repro_nan"])

    def test_labelled_sample_round_trips_hostile_values(self):
        from repro.obs import format_sample
        hostile = 'quo"te\\slash\nnewline}brace and space'
        line = format_sample("gen.info", 1,
                             {"generation": hostile, "n": "2"})
        samples = parse_prometheus(line + "\n")
        # Canonical key: sorted labels, re-escaped exactly as rendered.
        assert samples == {line.rsplit(" ", 1)[0]: 1.0}

    def test_parse_rejects_unterminated_label_block(self):
        with pytest.raises(ExportError, match="unterminated"):
            parse_prometheus('repro_x{a="1" 1\n')

    def test_parse_rejects_malformed_label_block(self):
        with pytest.raises(ExportError, match="malformed label"):
            parse_prometheus("repro_x{nonsense} 1\n")

    def test_parse_rejects_duplicate_labelled_sample(self):
        text = 'repro_x{a="1"} 1\nrepro_x{a="1"} 2\n'
        with pytest.raises(ExportError, match="repeats"):
            parse_prometheus(text)

    def test_distinct_labels_are_distinct_samples(self):
        text = 'repro_x{q="0.5"} 1\nrepro_x{q="0.99"} 2\n'
        samples = parse_prometheus(text)
        assert samples['repro_x{q="0.5"}'] == 1
        assert samples['repro_x{q="0.99"}'] == 2

    def test_unlabelled_lines_keep_strict_two_token_contract(self):
        with pytest.raises(ExportError, match="malformed"):
            parse_prometheus("repro_x 1 1700000000\n")


class TestHistogramPercentile:
    """The locked percentile accessor (third satellite bugfix)."""

    def test_percentile_interpolates(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 100.0
        assert histogram.percentile(0.5) == pytest.approx(50.5)

    def test_percentile_rejects_out_of_range(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.99) == 0.0

    def test_reservoir_is_bounded_and_deterministic(self):
        left, right = Histogram(), Histogram()
        for value in range(20000):
            left.observe(float(value))
            right.observe(float(value))
        assert len(left._samples) < Histogram.MAX_SAMPLES
        assert left._samples == right._samples
        # Decimation keeps the percentile honest within a stride.
        assert left.percentile(0.5) == pytest.approx(10000, rel=0.01)

    def test_collector_percentile_accessor(self):
        collector = MetricsCollector()
        for value in range(10):
            collector.observe("lat", float(value))
        assert collector.percentile("lat", 0.5,
                                    kind="histograms") == 4.5
        assert collector.percentile("missing", 0.5,
                                    kind="histograms") == 0.0
        with pytest.raises(ValueError):
            collector.percentile("lat", 0.5, kind="bogus")

    def test_quantile_snapshot_and_lines(self):
        from repro.obs import quantile_lines
        collector = MetricsCollector()
        for value in range(10):
            collector.observe("lat", float(value))
        collector.observe_time("t", 0.1)
        block = collector.quantile_snapshot(qs=(0.5,))
        assert block["histograms"]["lat"]["0.5"] == 4.5
        assert block["timers"]["t"]["0.5"] == pytest.approx(100.0)
        lines = quantile_lines(block)
        assert 'repro_lat{quantile="0.5"} 4.5' in lines
        # timers keep the _ms suffix of prometheus_lines
        assert any(line.startswith('repro_t_ms{quantile="0.5"}')
                   for line in lines)
        parsed = parse_prometheus("\n".join(lines) + "\n")
        assert parsed['repro_lat{quantile="0.5"}'] == 4.5

    def test_absorb_pools_samples_for_percentiles(self):
        left, right = Histogram(), Histogram()
        for value in (1.0, 2.0):
            left.observe(value)
        for value in (3.0, 4.0):
            right.observe(value)
        right.absorb(left.count, left.total, left.minimum,
                     left.maximum, samples=left._samples)
        assert right.count == 4
        assert right.percentile(1.0) == 4.0
        assert right.percentile(0.0) == 1.0

    def test_snapshot_shape_unchanged(self):
        # The exact-equality contract in test_obs.py: percentiles are
        # a separate accessor, never new snapshot keys.
        histogram = Histogram()
        histogram.observe(2.0)
        assert set(histogram.snapshot()) == {"count", "sum", "min",
                                             "max", "mean"}
