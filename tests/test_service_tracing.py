"""Service-level observability: cross-executor metric parity (S1),
resilience events through the collector and flight recorder (S2), and
span propagation through worker crashes and degradation (S3)."""

import pytest

from repro.obs import FlightRecorder, MetricsCollector
from repro.obs.spans import SpanTracer, derive_trace_id, validate_spans
from repro.resilience import (CircuitBreaker, Fault, FaultInjector,
                              parse_faults)
from repro.service import QueryService
from tests.test_obs_integration import creation_order

# Distinct term sets so neither the result cache nor the match-entry
# cache short-circuits real engine work in any executor.
QUERIES = [["k1"], ["k2"], ["k1", "k2"]]

#: Counters that measure algorithm work — cache- and executor-
#: independent by design, so they must agree across executors.
ENGINE_PREFIXES = ("eager.", "engine.", "heap.", "prstack.")


def engine_counters(collector):
    return {name: value
            for name, value in collector.snapshot()["counters"].items()
            if name.startswith(ENGINE_PREFIXES)}


def signature(outcome):
    return [(str(result.code), result.probability)
            for result in outcome.results]


class TestCounterParity:
    """S1: one merged report regardless of the executor."""

    def run_batch(self, db, **kwargs):
        collector = MetricsCollector()
        service = QueryService(db, collector=collector)
        batch = service.batch_search(QUERIES, k=3, **kwargs)
        return batch, engine_counters(collector)

    @pytest.mark.parametrize("algorithm", ["eager", "prstack"])
    def test_process_counters_match_serial(self, figure1_db, algorithm):
        serial_batch, serial = self.run_batch(
            figure1_db, algorithm=algorithm)
        process_batch, process = self.run_batch(
            figure1_db, algorithm=algorithm, workers=2,
            executor="process")
        assert serial  # the parity check must not be vacuous
        assert process == serial
        assert [signature(o) for o in process_batch] == \
            [signature(o) for o in serial_batch]
        merged = process_batch.stats["workers_merged"]
        assert merged["merged_snapshots"] >= 1
        assert merged["pids"]

    def test_thread_counters_match_serial(self, figure1_db):
        _, serial = self.run_batch(figure1_db)
        _, threaded = self.run_batch(figure1_db, workers=3,
                                     executor="thread")
        assert threaded == serial

    def test_uninstrumented_process_batch_skips_merging(self, figure1_db):
        service = QueryService(figure1_db)
        batch = service.batch_search(QUERIES, k=3, workers=2,
                                     executor="process")
        assert "workers_merged" not in batch.stats


class TestResilienceEvents:
    """S2: every resilience bump is mirrored to the collector and the
    flight recorder."""

    def test_retries_reach_collector_and_recorder(self, figure1_db):
        collector = MetricsCollector()
        recorder = FlightRecorder()
        service = QueryService(figure1_db, collector=collector,
                               recorder=recorder)
        faults = parse_faults("query_error:times=2", seed=3)
        batch = service.batch_search(QUERIES, k=3, faults=faults,
                                     max_retries=2)
        res = batch.stats["resilience"]
        assert res["retries"] >= 1
        assert res["query_errors"] == 0
        counters = collector.snapshot()["counters"]
        assert counters["resilience.retries"] == res["retries"]
        assert counters["resilience.recovered_queries"] == \
            res["recovered_queries"]
        names = {(r["kind"], r["name"]) for r in recorder.snapshot()}
        assert ("resilience", "retries") in names

    def test_backoff_waits_are_counted_and_timed(self, figure1_db):
        collector = MetricsCollector()
        service = QueryService(figure1_db, collector=collector)
        faults = parse_faults("query_error:times=2", seed=3)
        batch = service.batch_search(QUERIES, k=3, faults=faults,
                                     max_retries=2)
        res = batch.stats["resilience"]
        if res["backoff_waits"]:  # policy-dependent: zero-delay skips
            snapshot = collector.snapshot()
            assert snapshot["counters"]["resilience.backoff_waits"] == \
                res["backoff_waits"]
            assert snapshot["timers"]["resilience.backoff"]["count"] == \
                res["backoff_waits"]

    def test_open_breaker_skip_hits_the_recorder(self, figure1_db):
        recorder = FlightRecorder()
        breaker = CircuitBreaker(threshold=1, cooldown_s=3600.0)
        breaker.record_failure()
        assert breaker.state == "open"
        service = QueryService(figure1_db, breaker=breaker,
                               collector=MetricsCollector(),
                               recorder=recorder)
        batch = service.batch_search(QUERIES, k=3, workers=2,
                                     executor="process")
        assert batch.stats["resilience"]["circuit_open_skips"] == 1
        names = {(r["kind"], r["name"]) for r in recorder.snapshot()}
        assert ("resilience", "breaker_open_skip") in names
        assert ("resilience", "circuit_open_skips") in names

    def test_error_outcome_reaches_the_recorder(self, figure1_db):
        recorder = FlightRecorder()
        service = QueryService(figure1_db,
                               collector=MetricsCollector(),
                               recorder=recorder)
        faults = parse_faults("query_error:times=9", seed=3)
        batch = service.batch_search(QUERIES, k=3, faults=faults,
                                     max_retries=0)
        assert batch.stats["resilience"]["query_errors"] == len(QUERIES)
        errors = [r for r in recorder.snapshot()
                  if r["name"] == "query.error"]
        assert len(errors) == len(QUERIES)
        assert all("InjectedFaultError" in r["error"] for r in errors)


class TestSpanPropagation:
    """S3: the span tree reconstructs chunk -> worker -> engine scan,
    survives worker crashes, and is deterministic under seeded faults."""

    def test_clean_process_batch_adopts_worker_spans(self, figure1_db):
        collector = MetricsCollector()
        service = QueryService(figure1_db, collector=collector)
        tracer = SpanTracer(trace_id=derive_trace_id("clean", 0))
        batch = service.batch_search(QUERIES, k=3, workers=2,
                                     executor="process", tracer=tracer)
        assert batch.stats["trace_id"] == tracer.trace_id
        spans = validate_spans(tracer.export())
        by_id = {s["span_id"]: s for s in spans}
        chunks = [s for s in spans if s["name"] == "chunk"]
        workers = [s for s in spans if s["name"] == "worker"]
        assert all(c["attrs"]["tier"] == "process" for c in chunks)
        assert workers
        for worker in workers:
            assert worker["span_id"].endswith(".w")
            parent = by_id[worker["parent_id"]]
            assert parent["name"] == "chunk"
            assert "pid" in worker["attrs"]
        queries = [s for s in spans if s["name"] == "query"]
        assert sorted(q["attrs"]["terms"] for q in queries) == \
            ["k1", "k1 k2", "k2"]
        # engine phases arrive via the timer->span bridge
        assert any(s["name"] == "search.total" for s in spans)
        assert {s["name"] for s in spans if "." in s["name"]} >= \
            {"search.total", "index.lookup"}

    @staticmethod
    def events_by_query(spans):
        """Each query span's engine events (zero-duration spans below
        it), as ``[name, attrs]`` in emission order, keyed by terms;
        also checks every event sits under a query."""
        by_id = {span["span_id"]: span for span in spans}

        def ancestors(span):
            while span["parent_id"] is not None:
                span = by_id[span["parent_id"]]
                yield span

        events = {}
        for span in sorted(spans, key=creation_order):
            if span["duration_ms"]:
                continue
            query = next(up for up in ancestors(span)
                         if up["name"] == "query")
            events.setdefault(query["attrs"]["terms"], []).append(
                [span["name"], span.get("attrs", {})])
        return events, ancestors

    def test_worker_event_spans_reach_the_coordinator(self, figure1_db):
        def traced(**kwargs):
            service = QueryService(figure1_db,
                                   collector=MetricsCollector())
            tracer = SpanTracer(trace_id=derive_trace_id("events"))
            service.batch_search(QUERIES, k=3, tracer=tracer, **kwargs)
            return validate_spans(tracer.export())

        serial, _ = self.events_by_query(traced())
        spans = traced(workers=2, executor="process")
        process, ancestors = self.events_by_query(spans)
        assert set(serial) == {"k1", "k2", "k1 k2"}
        assert process == serial
        for span in spans:
            if not span["duration_ms"]:
                names = [up["name"] for up in ancestors(span)]
                assert names[names.index("worker") + 1] == "chunk"

    def test_untraced_worker_ships_no_spans(self, figure1_db):
        from dataclasses import replace
        from repro.prxml.serializer import serialize_pxml
        from repro.service.worker import DocumentSource, Job, run_job
        job = Job(source=DocumentSource(
                      serialize_pxml(figure1_db.document)),
                  term_lists=QUERIES, k=3, algorithm="eager",
                  semantics="slca", instrument=True)
        _, meta = run_job(job)
        assert meta["spans"] == []
        assert meta["metrics"]["counters"]["eager.candidates_processed"]
        _, meta = run_job(replace(job, trace_ctx=("t", "s0.0")))
        assert "eager.process" in {span["name"]
                                   for span in meta["spans"]}

    def test_spans_survive_worker_crash_and_degradation(self, figure1_db):
        # The crash targets 'zzz' and fires late, so the healthy
        # chunk's worker spans are harvested while the crashed chunk's
        # queries re-run (and re-trace) on the serial tier.
        queries = [["k1"], ["k1", "k2"], ["k2"], ["zzz"]]
        collector = MetricsCollector()
        service = QueryService(figure1_db, collector=collector)
        faults = FaultInjector(
            [Fault(kind="worker_crash", terms=("zzz",),
                   delay_ms=400.0)], seed=7)
        tracer = SpanTracer(trace_id=derive_trace_id("crash", 7))
        batch = service.batch_search(queries, k=3, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=2, tracer=tracer)
        assert batch.stats["resilience"]["query_errors"] == 0
        spans = validate_spans(tracer.export())
        chunks = {s["span_id"]: s for s in spans
                  if s["name"] == "chunk"}
        crashed = [s for s in chunks.values()
                   if s.get("status") == "error"]
        assert len(crashed) == 1
        degrades = [s for s in spans if s["name"] == "degrade"]
        assert len(degrades) == 1
        assert degrades[0]["attrs"]["tier"] == "serial"
        retried = [s for s in spans if s["name"] == "query"
                   and s["parent_id"] == degrades[0]["span_id"]]
        assert retried  # the crashed chunk's queries, re-run serially
        workers = [s for s in spans if s["name"] == "worker"]
        assert workers  # the healthy chunk's spans were adopted
        assert all(s["parent_id"] not in
                   {c["span_id"] for c in crashed} for s in workers)
        # every query got traced at *some* tier
        traced_terms = {s["attrs"]["terms"] for s in spans
                        if s["name"] == "query"}
        assert traced_terms == {"k1", "k1 k2", "k2", "zzz"}

    def test_serial_fault_runs_are_deterministic(self, figure1_db):
        def run():
            service = QueryService(figure1_db,
                                   collector=MetricsCollector())
            faults = parse_faults("query_error:rate=0.5", seed=13)
            tracer = SpanTracer(
                trace_id=derive_trace_id(QUERIES, "query_error", 13))
            service.batch_search(QUERIES, k=3, faults=faults,
                                 max_retries=2, tracer=tracer)
            return tracer.trace_id, [
                (s["span_id"], s["name"], s["parent_id"],
                 s.get("status", "ok"))
                for s in sorted(tracer.export(),
                                key=lambda s: s["span_id"])]

        first_id, first = run()
        second_id, second = run()
        assert first_id == second_id
        assert first == second

    def test_result_cache_replay_appears_as_span(self, figure1_db):
        service = QueryService(figure1_db,
                               collector=MetricsCollector())
        service.batch_search([["k1"]], k=3)
        tracer = SpanTracer(trace_id=derive_trace_id("replay"))
        service.batch_search([["k1"]], k=3, tracer=tracer)
        replays = [s for s in tracer.export()
                   if s["name"] == "query"
                   and s.get("attrs", {}).get("cache") == "result_cache"]
        assert len(replays) == 1

    def test_untraced_batch_records_no_trace_id(self, figure1_db):
        service = QueryService(figure1_db)
        batch = service.batch_search(QUERIES, k=3)
        assert "trace_id" not in batch.stats


class TestServedMetricEquivalence:
    """Untraced queries run the engines on the service collector
    directly; the totals must equal a per-query collector's."""

    #: Distinct term sets: every query really runs its engine.
    DISTINCT = [["k1"], ["k2"], ["k1", "k2"]]
    PREFIXES = ENGINE_PREFIXES + ("index.",)

    def totals(self, collector):
        return {name: value
                for name, value in collector.snapshot()["counters"]
                .items() if name.startswith(self.PREFIXES)}

    @pytest.mark.parametrize("algorithm", ["eager", "prstack"])
    def test_untraced_queries_equal_a_caller_collector(self, figure1_db,
                                                      algorithm):
        shared = MetricsCollector()
        untraced = QueryService(figure1_db, collector=shared)
        caller = MetricsCollector()
        instrumented = QueryService(figure1_db)
        for query in self.DISTINCT:
            plain = untraced.search(query, k=3, algorithm=algorithm)
            assert "metrics" not in plain.stats
            measured = instrumented.search(query, k=3,
                                           algorithm=algorithm,
                                           collector=caller)
            assert "metrics" in measured.stats
            assert signature(plain) == signature(measured)
        assert self.totals(shared)
        assert self.totals(shared) == self.totals(caller)

    def test_traced_query_merges_without_a_snapshot(self, figure1_db):
        shared = MetricsCollector()
        service = QueryService(figure1_db, collector=shared)
        tracer = SpanTracer(trace_id=derive_trace_id("merge"))
        outcome = service.search(["k1", "k2"], k=3, tracer=tracer)
        assert "metrics" not in outcome.stats
        caller = MetricsCollector()
        QueryService(figure1_db).search(["k1", "k2"], k=3,
                                        collector=caller)
        assert self.totals(shared) == self.totals(caller)
        assert any(span["name"] == "search.total"
                   for span in tracer.export())

    def test_served_serial_and_process_batches_agree(self, figure1_db):
        from repro.serve import ServeConfig, start_in_thread
        from tests.test_serve import ServerClient

        def served_batch(executor):
            collector = MetricsCollector()
            handle = start_in_thread(
                QueryService(figure1_db, collector=collector),
                ServeConfig(), collector=collector)
            try:
                status, body, _ = ServerClient(handle.port).post(
                    "/batch", {"queries": QUERIES, "k": 3,
                               "executor": executor, "workers": 2})
            finally:
                assert handle.stop() == 0
            assert status == 200
            return body["outcomes"], engine_counters(collector)

        serial_rows, serial = served_batch("serial")
        process_rows, process = served_batch("process")
        assert serial
        assert process == serial
        assert process_rows == serial_rows
