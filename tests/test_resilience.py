"""Tests for repro.resilience: deadlines, anytime answers, retry and
degradation chains, the circuit breaker, and the fault-injection
harness (docs/RESILIENCE.md)."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.api import topk_search
from repro.exceptions import QueryError
from repro.obs.metrics import MetricsCollector
from repro.prxml.serializer import write_pxml_file
from repro.resilience import (NULL_DEADLINE, NULL_FAULTS, CircuitBreaker,
                              Deadline, Fault, FaultInjector,
                              InjectedFaultError, NullDeadline,
                              RetryPolicy, as_deadline, faults_from_env,
                              parse_faults)
from repro.service.service import QueryService


class TestDeadline:
    def test_requires_some_budget(self):
        with pytest.raises(QueryError):
            Deadline()

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects_non_positive_time_budget(self, bad):
        with pytest.raises(QueryError):
            Deadline(budget_ms=bad)

    def test_rejects_negative_step_budget(self):
        with pytest.raises(QueryError):
            Deadline(max_steps=-1)

    def test_step_budget_expiry_is_sticky(self):
        deadline = Deadline(max_steps=2)
        assert not deadline.expired()
        assert not deadline.expired()
        assert deadline.expired()
        # Sticky: once expired, always expired.
        assert deadline.expired()
        assert deadline.reason == "step_budget"

    def test_time_budget_expires(self):
        deadline = Deadline(budget_ms=1.0)
        time.sleep(0.01)
        assert deadline.expired()
        assert deadline.reason == "deadline"

    def test_reason_before_expiry_is_complete(self):
        deadline = Deadline(budget_ms=60000.0)
        assert not deadline.expired()
        assert deadline.reason == "complete"

    def test_summary_is_json_safe(self):
        import json
        deadline = Deadline(budget_ms=5.0, max_steps=100)
        deadline.expired()
        json.dumps(deadline.summary())

    def test_null_deadline_never_expires(self):
        assert not NULL_DEADLINE.enabled
        assert not NULL_DEADLINE.expired()

    def test_as_deadline_coercions(self):
        assert as_deadline(None) is NULL_DEADLINE
        deadline = Deadline(max_steps=1)
        assert as_deadline(deadline) is deadline
        assert isinstance(as_deadline(NullDeadline()), NullDeadline)
        coerced = as_deadline(250)
        assert isinstance(coerced, Deadline)
        assert coerced.budget_ms == 250.0

    @pytest.mark.parametrize("bad", [True, False, "fast", []])
    def test_as_deadline_rejects_junk(self, bad):
        with pytest.raises(QueryError):
            as_deadline(bad)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_retries=5, backoff_ms=10.0,
                             multiplier=2.0, max_backoff_ms=35.0)
        assert policy.delay_ms(1) == pytest.approx(10.0)
        assert policy.delay_ms(2) == pytest.approx(20.0)
        assert policy.delay_ms(3) == pytest.approx(35.0)  # capped
        assert policy.delay_ms(4) == pytest.approx(35.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(QueryError):
            RetryPolicy(max_retries=-1)


class TestCircuitBreaker:
    def test_opens_at_threshold_and_recovers(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.02)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        time.sleep(0.03)
        # Cooldown elapsed: half-open lets one probe through.
        assert breaker.state == "half-open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_summary_counts_opens_once(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=300.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.summary()["opens"] == 1


class TestFaultParsing:
    def test_round_trip(self):
        spec = "worker_crash:times=1;slow_query:delay_ms=5,terms=k1+k2"
        injector = parse_faults(spec, seed=3)
        again = parse_faults(injector.spec(), seed=3)
        assert again.spec() == injector.spec()

    def test_empty_spec_is_null(self):
        assert not parse_faults("").enabled
        assert not NULL_FAULTS.enabled

    @pytest.mark.parametrize("bad", [
        "nonsense:times=1",        # unknown kind
        "worker_crash:rate=2.0",   # rate out of range
        "slow_query:delay_ms=x",   # non-numeric
        "worker_crash:wat=1",      # unknown option
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_faults(bad)

    def test_env_activation(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not faults_from_env().enabled
        monkeypatch.setenv("REPRO_FAULTS", "query_error:times=1")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "5")
        injector = faults_from_env()
        assert injector.enabled
        assert injector.seed == 5


class TestFaultInjector:
    def test_query_error_respects_times(self):
        injector = FaultInjector([Fault(kind="query_error", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                injector.before_query(["k1"])
        injector.before_query(["k1"])  # exhausted: no raise
        assert injector.summary()["fired"]["query_error"] == 2

    def test_term_targeting(self):
        injector = FaultInjector(
            [Fault(kind="query_error", terms=("k9",))])
        injector.before_query(["k1", "k2"])  # no match: no raise
        with pytest.raises(InjectedFaultError):
            injector.before_query(["k1", "k9"])

    def test_slow_query_delays(self):
        injector = FaultInjector(
            [Fault(kind="slow_query", delay_ms=30.0, times=1)])
        started = time.monotonic()
        injector.before_query(["k1"])
        assert time.monotonic() - started >= 0.02

    def test_corrupt_garbles_payload(self):
        injector = FaultInjector([Fault(kind="corrupt_payload")])
        assert injector.corrupt("<a></a>") != "<a></a>"

    def test_rate_draws_are_seeded(self):
        def fired(seed):
            injector = FaultInjector(
                [Fault(kind="query_error", rate=0.5)], seed=seed)
            hits = 0
            for _ in range(20):
                try:
                    injector.before_query(["k1"])
                except InjectedFaultError:
                    hits += 1
            return hits

        assert fired(7) == fired(7)
        assert 0 < fired(7) < 20


class TestAnytimeResults:
    """Partial-result semantics: each harvested probability is exact
    for its node, and the partial set grows toward the exact answer."""

    KEYWORDS = ["k1", "k2"]

    def exact(self, db):
        outcome = topk_search(db, self.KEYWORDS, k=10)
        assert not outcome.partial
        return {str(r.code): r.probability for r in outcome.results}

    @pytest.mark.parametrize("algorithm", ["eager", "prstack"])
    def test_partial_probabilities_are_exact_per_node(
            self, figure1_db, algorithm):
        exact = self.exact(figure1_db)
        for steps in range(0, 9):
            outcome = topk_search(figure1_db, self.KEYWORDS, k=10,
                                  algorithm=algorithm,
                                  deadline=Deadline(max_steps=steps))
            if not outcome.partial:
                continue
            assert outcome.termination_reason == "step_budget"
            assert "deadline" in outcome.stats
            for result in outcome.results:
                assert str(result.code) in exact
                assert result.probability == \
                    pytest.approx(exact[str(result.code)], abs=0.0)

    def test_partial_sets_grow_monotonically(self, figure1_db):
        sizes = []
        for steps in range(0, 10):
            outcome = topk_search(figure1_db, self.KEYWORDS, k=10,
                                  algorithm="eager",
                                  deadline=Deadline(max_steps=steps))
            sizes.append(len(outcome.results))
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(self.exact(figure1_db))

    @pytest.mark.parametrize("algorithm", ["eager", "prstack"])
    def test_unexpired_deadline_is_bit_identical(self, figure1_db,
                                                 algorithm):
        plain = topk_search(figure1_db, self.KEYWORDS, k=10,
                            algorithm=algorithm)
        generous = topk_search(figure1_db, self.KEYWORDS, k=10,
                               algorithm=algorithm,
                               deadline=Deadline(budget_ms=1e9))
        assert not generous.partial
        assert generous.termination_reason == "complete"
        assert [(str(r.code), r.probability) for r in plain.results] \
            == [(str(r.code), r.probability) for r in generous.results]

    def test_random_documents_partial_subset(self, pdoc_factory):
        for seed in range(5):
            doc = pdoc_factory(seed, max_nodes=24)
            exact = {str(r.code): r.probability
                     for r in topk_search(doc, self.KEYWORDS, k=50)}
            outcome = topk_search(doc, self.KEYWORDS, k=50,
                                  deadline=Deadline(max_steps=2))
            for result in outcome.results:
                assert result.probability == \
                    pytest.approx(exact[str(result.code)], abs=0.0)

    def test_deadline_counts_into_metrics(self, figure1_db):
        collector = MetricsCollector()
        outcome = topk_search(figure1_db, self.KEYWORDS, k=10,
                              collector=collector,
                              deadline=Deadline(max_steps=1))
        assert outcome.partial
        assert collector.snapshot()["counters"][
            "resilience.deadline_expired"] == 1

    def test_possible_worlds_ignores_deadline(self, figure1_db):
        outcome = topk_search(figure1_db, self.KEYWORDS, k=10,
                              algorithm="possible_worlds",
                              deadline=Deadline(max_steps=0))
        assert not outcome.partial


QUERIES = [["k1", "k2"], ["k1"], "k2 k1", ["k2"], ["k1", "k2"], ["k1"]]


def signature(outcome):
    return [(str(r.code), r.probability) for r in outcome.results]


class TestResilientBatch:
    def baseline(self, doc):
        return QueryService(doc).batch_search(QUERIES, workers=1)

    def test_batch_without_faults_is_identical(self, figure1_doc):
        doc = figure1_doc
        base = self.baseline(doc)
        assert all(not o.partial for o in base)
        res = base.stats["resilience"]
        assert res["retries"] == 0
        assert res["query_errors"] == 0
        assert res["circuit_breaker"]["state"] == "closed"

    def test_worker_crash_still_answers_every_query(self, figure1_doc):
        doc = figure1_doc
        base = self.baseline(doc)
        service = QueryService(doc, collector=MetricsCollector())
        faults = FaultInjector(
            [Fault(kind="worker_crash", times=1, delay_ms=150.0)],
            seed=7)
        batch = service.batch_search(QUERIES, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=2)
        assert len(batch) == len(QUERIES)
        res = batch.stats["resilience"]
        assert res["worker_crashes"] >= 1
        assert res["chunk_failures"] >= 1
        assert res["degraded_to_serial"] >= 1
        assert res["query_errors"] == 0
        for expected, got in zip(base, batch):
            assert signature(expected) == signature(got)
        counters = service.collector.snapshot()["counters"]
        assert counters["resilience.worker_crashes"] >= 1

    def test_completed_chunks_survive_a_crash(self, figure1_doc):
        # The crash targets the term 'zzz', so only the chunk holding
        # that query dies — and it dies late (delay_ms), after the
        # healthy chunk's future has completed.  The healthy chunk's
        # results must be harvested, not re-run: only the crashed
        # chunk's queries show up as chunk failures.
        queries = [["k1"], ["k1", "k2"], ["k1"], ["zzz"]]
        service = QueryService(figure1_doc)
        faults = FaultInjector(
            [Fault(kind="worker_crash", terms=("zzz",),
                   delay_ms=400.0)], seed=7)
        batch = service.batch_search(queries, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=2)
        res = batch.stats["resilience"]
        assert res["chunk_failures"] == 1
        assert res["chunk_failure_queries"] < len(queries)
        assert res["query_errors"] == 0
        assert len(batch) == len(queries)

    def test_exhausted_retries_become_attributed_errors(self, figure1_doc):
        doc = figure1_doc
        service = QueryService(doc)
        faults = FaultInjector(
            [Fault(kind="worker_crash", times=1, delay_ms=150.0)],
            seed=7)
        batch = service.batch_search(QUERIES, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=0)
        assert len(batch) == len(QUERIES)
        errors = [o for o in batch if o.termination_reason == "error"]
        assert errors
        for outcome in errors:
            assert outcome.partial
            assert not outcome.results
            assert "BrokenProcessPool" in outcome.stats["error"]
        # No retry budget: nothing re-ran serially.
        assert batch.stats["resilience"]["degraded_to_serial"] == 0

    def test_serial_retry_recovers_transient_error(self, figure1_doc):
        doc = figure1_doc
        base = self.baseline(doc)
        service = QueryService(doc)
        faults = FaultInjector([Fault(kind="query_error", times=1)])
        batch = service.batch_search(QUERIES, workers=1, faults=faults,
                                     max_retries=2, backoff_ms=1.0)
        res = batch.stats["resilience"]
        assert res["retries"] == 1
        assert res["recovered_queries"] == 1
        for expected, got in zip(base, batch):
            assert signature(expected) == signature(got)

    def test_thread_executor_never_raises_on_query_error(self, figure1_doc):
        doc = figure1_doc
        service = QueryService(doc)
        faults = FaultInjector([Fault(kind="query_error", times=50)])
        batch = service.batch_search(QUERIES, workers=2,
                                     executor="thread", faults=faults,
                                     max_retries=1, backoff_ms=1.0)
        assert len(batch) == len(QUERIES)
        assert all(o.termination_reason == "error" for o in batch)

    def test_circuit_breaker_stops_respawning_pools(self, figure1_doc):
        doc = figure1_doc
        breaker = CircuitBreaker(threshold=2, cooldown_s=300.0)
        service = QueryService(doc, breaker=breaker)
        for seed in range(2):
            faults = FaultInjector([Fault(kind="worker_crash")],
                                   seed=seed)
            service.batch_search(QUERIES, workers=2,
                                 executor="process", faults=faults,
                                 max_retries=2)
        assert breaker.state == "open"
        faults = FaultInjector([Fault(kind="worker_crash")], seed=9)
        batch = service.batch_search(QUERIES, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=2)
        # No pool: worker-side faults never fire; everything degrades
        # in-process and still completes.
        assert batch.stats["resilience"]["circuit_open_skips"] == 1
        assert all(o.termination_reason == "complete" for o in batch)

    def test_corrupt_payload_degrades_and_recovers(self, figure1_doc):
        doc = figure1_doc
        base = self.baseline(doc)
        service = QueryService(doc)
        faults = FaultInjector([Fault(kind="corrupt_payload")])
        batch = service.batch_search(QUERIES, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=2)
        assert len(batch) == len(QUERIES)
        assert batch.stats["resilience"]["query_errors"] == 0
        for expected, got in zip(base, batch):
            assert signature(expected) == signature(got)

    def test_corrupt_payload_batches_open_the_breaker(self, figure1_doc):
        breaker = CircuitBreaker(threshold=2, cooldown_s=300.0)
        service = QueryService(figure1_doc, breaker=breaker)
        for _ in range(2):
            faults = FaultInjector([Fault(kind="corrupt_payload")])
            batch = service.batch_search(QUERIES, workers=2,
                                         executor="process",
                                         faults=faults, max_retries=1)
            res = batch.stats["resilience"]
            assert res["worker_crashes"] == 1
            assert res["query_errors"] == 0
        assert breaker.state == "open"

    def test_deadline_ms_yields_partials_not_errors(self, figure1_doc):
        doc = figure1_doc
        service = QueryService(doc)
        batch = service.batch_search(QUERIES, workers=1,
                                     deadline_ms=1e-4)
        assert len(batch) == len(QUERIES)
        assert all(o.termination_reason == "deadline" for o in batch)
        assert batch.stats["resilience"]["deadline_expired"] \
            == len(QUERIES)

    def test_validation(self, figure1_doc):
        doc = figure1_doc
        service = QueryService(doc)
        with pytest.raises(QueryError):
            service.batch_search(QUERIES, deadline_ms=0)
        with pytest.raises(QueryError):
            service.batch_search(QUERIES, max_retries=-1)

    def test_thread_pool_respects_worker_cap(self, figure1_doc, monkeypatch):
        import repro.service.worker as worker_module
        doc = figure1_doc
        service = QueryService(doc)
        seen = []
        real = worker_module.ThreadPoolExecutor

        def spy(max_workers=None, **kwargs):
            seen.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(worker_module, "ThreadPoolExecutor", spy)
        service.batch_search(QUERIES, workers=2, executor="thread")
        assert seen and all(workers <= 2 for workers in seen)

    def test_env_faults_reach_batch(self, figure1_doc, monkeypatch):
        doc = figure1_doc
        monkeypatch.setenv("REPRO_FAULTS", "query_error:times=1")
        service = QueryService(doc)
        batch = service.batch_search(QUERIES, workers=1,
                                     max_retries=1, backoff_ms=1.0)
        assert batch.stats["resilience"]["retries"] == 1
        assert all(o.termination_reason == "complete" for o in batch)


class TestPartialCaching:
    def test_partial_outcomes_never_cached(self, figure1_doc):
        doc = figure1_doc
        service = QueryService(doc)
        partial = service.search(["k1", "k2"], deadline=1e-4)
        assert partial.partial
        full = service.search(["k1", "k2"])
        assert not full.partial
        assert full.stats.get("service") != "result_cache"
        replay = service.search(["k1", "k2"])
        assert replay.stats.get("service") == "result_cache"
        assert not replay.partial

    def test_deadlined_query_bypasses_replay(self, figure1_doc):
        doc = figure1_doc
        service = QueryService(doc)
        service.search(["k1", "k2"])  # warm the result cache
        deadlined = service.search(["k1", "k2"],
                                   deadline=Deadline(max_steps=0))
        assert deadlined.partial
        assert deadlined.stats.get("service") != "result_cache"


class TestInterrupt:
    def test_sigint_mid_batch_exits_130(self, figure1_doc, tmp_path):
        if not hasattr(signal, "SIGINT"):  # pragma: no cover
            pytest.skip("no SIGINT on this platform")
        document = tmp_path / "doc.pxml"
        write_pxml_file(figure1_doc, str(document))
        queries = tmp_path / "q.txt"
        queries.write_text("k1 k2\nk1\nk2\n", encoding="utf-8")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src
        env["REPRO_FAULTS"] = "slow_query:delay_ms=10000"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", str(document),
             str(queries)],
            env=env, cwd=str(tmp_path), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        time.sleep(2.5)  # let it get into the slow query
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 130, (stdout, stderr)
        assert "Traceback" not in stderr, stderr
        assert "interrupted" in stderr
