"""Unit tests for repro.obs.spans: deterministic ids, nesting,
cross-process adoption, validation and rendering."""

import threading

import pytest

from repro.obs.recorder import FlightRecorder
from repro.obs.spans import (NULL_TRACER, Span, SpanError, SpanTracer,
                             derive_trace_id, load_spans,
                             render_span_tree, validate_spans,
                             write_spans)


class TestDeriveTraceId:
    def test_deterministic(self):
        assert derive_trace_id("a", 1, "b") == derive_trace_id("a", 1, "b")

    def test_distinct_workloads_distinct_ids(self):
        assert derive_trace_id("a", "b") != derive_trace_id("ab")
        assert derive_trace_id("a", 1) != derive_trace_id("a", 2)

    def test_shape(self):
        trace_id = derive_trace_id("workload")
        assert len(trace_id) == 16
        int(trace_id, 16)  # hex


class TestStructuralIds:
    def test_root_and_children(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("batch") as batch:
            with tracer.span("chunk"):
                pass
            with tracer.span("chunk"):
                pass
        assert batch.span_id == "s0"
        ids = {span.name: span.span_id for span in tracer.finished[:-1]}
        assert set(span.span_id for span in tracer.finished) == \
            {"s0", "s0.0", "s0.1"}
        assert ids  # two chunks filed before the batch

    def test_extra_roots_get_r_suffix(self):
        tracer = SpanTracer(trace_id="t")
        first = tracer.finish(tracer.begin("one"))
        second = tracer.finish(tracer.begin("two"))
        assert first.span_id == "s0"
        assert second.span_id == "s0.r1"

    def test_worker_root_addressing(self):
        # A worker tracer seeded with the coordinator's chunk span id
        # produces spans that already point into the coordinator tree.
        tracer = SpanTracer(trace_id="t", root_id="s0.2.w",
                            root_parent="s0.2")
        with tracer.span("worker"):
            with tracer.span("query"):
                pass
        exported = {record["span_id"]: record
                    for record in tracer.export()}
        assert exported["s0.2.w"]["parent_id"] == "s0.2"
        assert exported["s0.2.w.0"]["parent_id"] == "s0.2.w"

    def test_nesting_follows_thread_current(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.current() is None


class TestLifecycle:
    def test_error_status_and_reraise(self):
        tracer = SpanTracer(trace_id="t")
        with pytest.raises(ValueError):
            with tracer.span("query"):
                raise ValueError("boom")
        span = tracer.finished[0]
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"

    def test_finish_attrs_and_status(self):
        tracer = SpanTracer(trace_id="t")
        span = tracer.begin("chunk", queries=3)
        tracer.finish(span, status="partial", pid=42)
        assert span.attrs == {"queries": 3, "pid": 42}
        assert span.status == "partial"
        assert span.duration_ms >= 0

    def test_bump_accumulates(self):
        span = Span("t", "s0", None, "query", 0.0)
        span.bump("cache.hits")
        span.bump("cache.hits")
        span.bump("entries", 10)
        assert span.attrs == {"cache.hits": 2, "entries": 10}

    def test_max_spans_drops_and_counts(self):
        tracer = SpanTracer(trace_id="t", max_spans=2)
        for _ in range(5):
            tracer.finish(tracer.begin("s"))
        assert len(tracer.finished) == 2
        assert tracer.dropped == 3

    def test_finish_feeds_recorder(self):
        recorder = FlightRecorder(capacity=8)
        tracer = SpanTracer(trace_id="t", recorder=recorder)
        with tracer.span("query"):
            pass
        records = recorder.snapshot()
        assert records[0]["kind"] == "span"
        assert records[0]["name"] == "query"
        assert records[0]["span_id"] == "s0"

    def test_instant_is_a_zero_duration_child(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("query"):
            first = tracer.instant("heap.threshold", value=0.5, size=2)
            second = tracer.instant("eager.process", code="1.2")
        assert (first.span_id, first.parent_id) == ("s0.0", "s0")
        assert second.span_id == "s0.1"
        assert first.duration_ms == 0.0
        assert first.attrs == {"value": 0.5, "size": 2}
        assert [span.name for span in tracer.finished] == [
            "heap.threshold", "eager.process", "query"]

    def test_instant_skips_recorder_and_obeys_cap(self):
        recorder = FlightRecorder(capacity=8)
        tracer = SpanTracer(trace_id="t", recorder=recorder,
                            max_spans=2)
        for _ in range(3):
            tracer.instant("eager.suspend")
        assert len(tracer.finished) == 2
        assert tracer.dropped == 1
        assert len(recorder) == 0


class TestThreadSafety:
    def test_threads_nest_independently(self):
        tracer = SpanTracer(trace_id="t")
        root = tracer.begin("batch")
        errors = []

        def work(index):
            try:
                with tracer.span("chunk", parent=root) as chunk:
                    with tracer.span("query") as query:
                        assert query.parent_id == chunk.span_id
            except AssertionError as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tracer.finish(root)
        assert not errors
        chunks = [s for s in tracer.finished if s.name == "chunk"]
        assert len(chunks) == 4
        assert len({s.span_id for s in chunks}) == 4
        for query in (s for s in tracer.finished
                      if s.name == "query"):
            assert query.parent_id in {c.span_id for c in chunks}


class TestAdoption:
    def worker_records(self, chunk_id="s0.1"):
        worker = SpanTracer(trace_id="t", root_id=f"{chunk_id}.w",
                            root_parent=chunk_id)
        with worker.span("worker"):
            with worker.span("query"):
                pass
        return worker.export()

    def test_adopt_shifts_clock_and_counts(self):
        coordinator = SpanTracer(trace_id="t")
        chunk = coordinator.begin("chunk")
        records = self.worker_records()
        base = records[0]["start_ms"]
        adopted = coordinator.adopt(records, parent=chunk,
                                    shift_ms=100.0)
        assert adopted == len(records)
        shifted = [s for s in coordinator.finished
                   if s.span_id == "s0.1.w"][0]
        assert shifted.start_ms == pytest.approx(base + 100.0)

    def test_adopt_reparents_only_orphans(self):
        coordinator = SpanTracer(trace_id="t")
        chunk = coordinator.begin("chunk")
        orphan = Span("t", "x0", None, "loose", 0.0).as_dict()
        coordinator.adopt([orphan], parent=chunk)
        assert coordinator.finished[0].parent_id == chunk.span_id
        wired = self.worker_records()
        coordinator.adopt(wired, parent=chunk)
        roots = [s for s in coordinator.finished
                 if s.span_id == "s0.1.w"]
        assert roots[0].parent_id == "s0.1"  # pre-wired, untouched

    def test_adopted_tree_validates(self):
        coordinator = SpanTracer(trace_id="t")
        with coordinator.span("batch") as batch:
            chunk = coordinator.begin("chunk", parent=batch)
            coordinator.adopt(self.worker_records(chunk.span_id),
                              parent=chunk, shift_ms=chunk.start_ms)
            coordinator.finish(chunk)
        validate_spans(coordinator.export())


class TestExportAndValidate:
    def test_export_order_deterministic(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("batch"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        exported = tracer.export()
        assert exported == tracer.export()
        starts = [record["start_ms"] for record in exported]
        assert starts == sorted(starts)

    def test_validate_rejects_non_list(self):
        with pytest.raises(SpanError, match="must be a list"):
            validate_spans({"spans": []})

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(SpanError, match="trace_id"):
            validate_spans([{"span_id": "s0", "name": "x",
                             "start_ms": 0, "duration_ms": 0}])
        with pytest.raises(SpanError, match="start_ms"):
            validate_spans([{"trace_id": "t", "span_id": "s0",
                             "name": "x", "duration_ms": 0}])

    def test_validate_rejects_duplicate_ids(self):
        record = Span("t", "s0", None, "x", 0.0).as_dict()
        with pytest.raises(SpanError, match="duplicate span id"):
            validate_spans([record, dict(record)])

    def test_validate_rejects_mixed_traces(self):
        left = Span("t1", "s0", None, "x", 0.0).as_dict()
        right = Span("t2", "s1", None, "x", 0.0).as_dict()
        with pytest.raises(SpanError, match="mixes"):
            validate_spans([left, right])

    def test_validate_rejects_unresolvable_parent(self):
        record = Span("t", "s0", "ghost", "x", 0.0).as_dict()
        with pytest.raises(SpanError, match="unresolvable parent"):
            validate_spans([record])

    def test_roundtrip_through_jsonl(self, tmp_path):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("batch", k=3):
            with tracer.span("query"):
                pass
        path = str(tmp_path / "spans.jsonl")
        exported = tracer.export()
        write_spans(exported, path)
        assert validate_spans(load_spans(path)) == exported

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SpanError, match="not JSON"):
            load_spans(str(path))


class TestRendering:
    def test_tree_indents_children(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("batch"):
            with tracer.span("query", terms="k1 k2"):
                pass
        lines = render_span_tree(tracer.export())
        assert len(lines) == 2
        assert "batch" in lines[0]
        assert "  query" in lines[1]
        assert "terms=k1 k2" in lines[1]

    def test_elision_is_reported(self):
        tracer = SpanTracer(trace_id="t")
        for _ in range(5):
            tracer.finish(tracer.begin("s"))
        lines = render_span_tree(tracer.export(), limit=2)
        assert lines[-1] == "  ... 3 more span(s) not shown"

    def test_empty_dump(self):
        assert render_span_tree([]) == ["  (no spans recorded)"]


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.begin("x") is None
        assert NULL_TRACER.current() is None
        with NULL_TRACER.span("x") as span:
            assert span is None
        assert NULL_TRACER.adopt([{"span_id": "s0"}]) == 0
        assert NULL_TRACER.export() == []
