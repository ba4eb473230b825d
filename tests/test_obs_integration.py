"""Integration tests: observability threaded through the search stack.

Instrumented PrStack and EagerTopK runs report consistent operation
counts, the default no-op collector changes nothing about the results,
``SearchOutcome.stats`` carries the per-property pruning breakdown,
engine events land on the span tree in the order the engines emit
them, and an emitted metrics report validates against the documented
schema.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import (MetricsCollector, SpanTracer, build_index,
                   encode_document, topk_search)
from repro.core.explain import profile_lines
from repro.datagen import generate_xmark, make_probabilistic
from repro.exceptions import QueryError
from repro.obs.report import SCHEMA_ID_V2, build_report, validate_report
from repro.resilience import Deadline
from tests.conftest import build_figure1_doc

KEYWORDS = ["k1", "k2"]

#: The engine events of three EagerTopK queries — Figure 1, an XMark
#: query that suspends and prunes, and one cut short by a step budget —
#: as ``[name, attrs]`` pairs in emission order.  Regenerate with
#: ``PYTHONPATH=src python -m tests.test_obs_integration --write`` only
#: for an intended change to the climb (which candidates are processed,
#: suspended or pruned, and in what order).
ENGINE_EVENTS = Path(__file__).parent / "fixtures" / "engine_events.json"


def creation_order(record):
    """Sort key putting exported spans in the order they were opened:
    span ids number each parent's children in creation order, so a
    preorder walk of the ids is the order events happened in."""
    return tuple((0, int(part)) if part.isdigit() else (1, part)
                 for part in record["span_id"].split("."))


def event_spans(spans):
    """The zero-duration (event) spans of an export as
    ``[name, attrs]``, in emission order."""
    return [[record["name"], record.get("attrs", {})]
            for record in sorted(spans, key=creation_order)
            if not record["duration_ms"]]


def traced_search(source, keywords, k, **options):
    """Run EagerTopK under a root span; returns (outcome, spans)."""
    tracer = SpanTracer(trace_id="t")
    with tracer.span("search"):
        outcome = topk_search(source, keywords, k, "eager",
                              collector=MetricsCollector(tracer=tracer),
                              **options)
    return outcome, tracer.export()


def build_event_documents():
    """The indexed documents the pinned event queries run on."""
    return {
        "figure1": build_index(encode_document(build_figure1_doc())),
        "xmark": build_index(encode_document(
            make_probabilistic(generate_xmark(scale=1), seed=3))),
    }


@pytest.fixture(scope="module")
def event_documents():
    return build_event_documents()


def query_events(documents, query):
    """Run one pinned event query; returns (outcome, spans)."""
    deadline = Deadline(max_steps=query["max_steps"]) \
        if query["max_steps"] is not None else None
    outcome, spans = traced_search(
        documents[query["document"]], query["keywords"], query["k"],
        deadline=deadline)
    return outcome, spans


def _codes_and_probs(outcome):
    return [(str(r.code), r.probability) for r in outcome]


class TestNoOpDefault:
    def test_results_identical_with_and_without_collector(self, figure1_db):
        for algorithm in ("prstack", "eager"):
            plain = topk_search(figure1_db, KEYWORDS, 5, algorithm)
            collector = MetricsCollector(tracer=SpanTracer())
            instrumented = topk_search(figure1_db, KEYWORDS, 5, algorithm,
                                       collector=collector)
            assert _codes_and_probs(plain) == _codes_and_probs(instrumented)

    def test_uninstrumented_outcome_has_no_metrics(self, figure1_db):
        outcome = topk_search(figure1_db, KEYWORDS, 5, "eager")
        assert outcome.metrics == {}


class TestInstrumentedStats:
    def test_eager_reports_per_property_pruning(self, figure1_db):
        outcome = topk_search(figure1_db, KEYWORDS, 2, "eager")
        pruning = outcome.stats["pruning"]
        for key in ("path_bound_properties_1_3",
                    "node_bound_properties_4_5",
                    "dead_path_skips", "bound_evaluations"):
            assert pruning[key] >= 0
        assert pruning["bound_evaluations"] > 0
        assert outcome.stats["heap_threshold_final"] >= 0.0

    def test_prstack_reports_frame_and_heap_counts(self, figure1_db):
        collector = MetricsCollector()
        outcome = topk_search(figure1_db, KEYWORDS, 5, "prstack",
                              collector=collector)
        assert outcome.stats["frames_pushed"] > 0
        assert outcome.stats["frames_popped"] == \
            outcome.stats["frames_pushed"]
        counters = collector.snapshot()["counters"]
        assert counters["engine.frames_pushed"] == \
            outcome.stats["frames_pushed"]
        assert counters["heap.offers"] >= counters["heap.accepted"]
        assert counters["prstack.entries_scanned"] == \
            outcome.stats["entries_scanned"]

    def test_algorithms_agree_on_work_accounting(self, figure1_db):
        """PrStack scans every match entry; EagerTopK consumes at most
        that many (pruning can only reduce work, never invent it)."""
        prstack = topk_search(figure1_db, KEYWORDS, 5, "prstack")
        eager = topk_search(figure1_db, KEYWORDS, 5, "eager")
        assert eager.stats["entries_consumed"] <= \
            prstack.stats["entries_scanned"]
        assert eager.stats["entries_consumed"] + \
            eager.stats["entries_unconsumed"] == \
            prstack.stats["entries_scanned"]

    def test_index_metrics_cover_every_term(self, figure1_db):
        collector = MetricsCollector()
        topk_search(figure1_db, KEYWORDS, 5, "prstack",
                    collector=collector)
        snapshot = collector.snapshot()
        assert snapshot["counters"]["index.lookups"] == len(KEYWORDS)
        assert snapshot["histograms"]["index.postings_length"]["count"] \
            == len(KEYWORDS)
        assert "search.total" in snapshot["timers"]

    def test_monte_carlo_accepts_collector(self, figure1_db):
        from repro import monte_carlo_search
        collector = MetricsCollector()
        import random
        outcome = monte_carlo_search(figure1_db.index, KEYWORDS, 3,
                                     samples=50, rng=random.Random(7),
                                     collector=collector)
        assert collector.counter("monte_carlo.worlds_sampled") == 50
        assert outcome.stats["metrics"]["counters"]


class TestTracing:
    @pytest.mark.parametrize("name", ["figure1", "xmark", "deadline"])
    def test_event_spans_match_legacy_trace(self, event_documents, name):
        query = next(query for query in
                     json.loads(ENGINE_EVENTS.read_text())["queries"]
                     if query["name"] == name)
        outcome, spans = query_events(event_documents, query)
        assert outcome.partial == (query["max_steps"] is not None)
        assert event_spans(spans) == query["events"]
        # Every event hangs under an engine phase of the query.
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if not span["duration_ms"]:
                assert by_id[span["parent_id"]]["duration_ms"] > 0

    def test_profile_lines_render_instrumented_outcome(self, figure1_db):
        outcome, spans = traced_search(figure1_db, KEYWORDS, 2)
        lines = profile_lines(outcome, spans)
        text = "\n".join(lines)
        assert lines[0] == "profile"
        assert "counters" in text and "timers (ms)" in text
        assert "engine.frames_pushed" in text
        assert f"  spans ({len(spans)})" in lines
        assert any("eager.process  code=" in line for line in lines)

    def test_profile_lines_degrade_without_metrics(self, figure1_db):
        outcome = topk_search(figure1_db, KEYWORDS, 5, "prstack")
        assert profile_lines(outcome) == [
            "profile: no metrics were collected "
            "(run with a MetricsCollector / --profile)"]


class TestAlgorithmCoercion:
    def test_case_insensitive_names(self, figure1_db):
        upper = topk_search(figure1_db, KEYWORDS, 5, "PRSTACK")
        mixed = topk_search(figure1_db, KEYWORDS, 5, "PrStack")
        assert _codes_and_probs(upper) == _codes_and_probs(mixed)

    def test_unknown_algorithm_names_choices(self, figure1_db):
        with pytest.raises(QueryError) as excinfo:
            topk_search(figure1_db, KEYWORDS, 5, "quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for choice in ("prstack", "eager", "possible_worlds"):
            assert choice in message


class TestMetricsReport:
    def test_report_roundtrips_through_json(self, figure1_db, tmp_path):
        outcome, spans = traced_search(figure1_db, KEYWORDS, 5)
        report = build_report(KEYWORDS, 5, "eager", "slca", outcome,
                              elapsed_ms=1.25, spans=spans)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(report))
        parsed = json.loads(path.read_text())
        validate_report(parsed)
        assert parsed["schema"] == SCHEMA_ID_V2
        assert parsed["result_count"] == len(outcome)
        assert parsed["metrics"]["counters"]
        assert "eager.process" in {span["name"]
                                   for span in parsed["spans"]}
        # the snapshot never leaks into the stats copy
        assert "metrics" not in parsed["stats"]
        assert "trace" not in parsed

    def test_report_valid_without_instrumentation(self, figure1_db):
        outcome = topk_search(figure1_db, KEYWORDS, 5, "prstack")
        report = build_report(KEYWORDS, 5, "prstack", "slca", outcome,
                              elapsed_ms=0.5)
        validate_report(report)
        assert report["metrics"] == {}
        assert "spans" not in report


class TestBenchMetrics:
    def test_run_query_attaches_operation_counts(self, figure1_db):
        from repro.bench import run_query
        measurement = run_query(figure1_db, KEYWORDS, 5, "eager",
                                repeats=1)
        counters = measurement.metrics["counters"]
        assert counters["eager.candidates_processed"] > 0

    def test_metrics_collection_can_be_disabled(self, figure1_db):
        from repro.bench import run_query
        measurement = run_query(figure1_db, KEYWORDS, 5, "eager",
                                repeats=1, collect_metrics=False)
        assert measurement.metrics == {}


def render_events(queries):
    """The fixture's text: each query's settings on one line, then its
    events one a line."""
    blocks = []
    for query in queries:
        settings = ", ".join(f"{json.dumps(key)}: {json.dumps(value)}"
                             for key, value in query.items()
                             if key != "events")
        events = ",\n".join(f"        {json.dumps(event)}"
                            for event in query["events"])
        blocks.append(f"    {{{settings},\n      \"events\": [\n"
                      f"{events}\n      ]\n    }}")
    return '{\n  "queries": [\n' + ",\n".join(blocks) + "\n  ]\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_obs_integration --write")
    pinned = json.loads(ENGINE_EVENTS.read_text(encoding="utf-8"))
    documents = build_event_documents()
    for query in pinned["queries"]:
        query["events"] = event_spans(query_events(documents, query)[1])
    ENGINE_EVENTS.write_text(render_events(pinned["queries"]),
                             encoding="utf-8")
    print(f"wrote {ENGINE_EVENTS}")
