"""Tests for the query service: caching, batching, executors."""

import copy
import pickle
import random

import pytest

from repro import topk_search
from repro.exceptions import QueryError
from repro.obs import MetricsCollector
from repro.serve.protocol import (json_response, outcome_payload,
                                  search_body)
from repro.service import QueryService, load_query_file
from repro.service.service import _chunked


def signature(outcome):
    return [(str(result.code), result.probability)
            for result in outcome.results]


class TestSearchEquivalence:
    @pytest.mark.parametrize("algorithm,semantics", [
        ("prstack", "slca"), ("eager", "slca"),
        ("prstack", "elca"), ("possible_worlds", "slca")])
    def test_cold_warm_and_plain_identical(self, figure1_db, algorithm,
                                           semantics):
        service = QueryService(figure1_db)
        plain = topk_search(figure1_db, ["k1", "k2"], 3, algorithm,
                            semantics=semantics)
        cold = service.search(["k1", "k2"], 3, algorithm,
                              semantics=semantics)
        # Reversed keyword order canonicalises to the same term set,
        # so this replays the cached outcome.
        warm = service.search(["k2", "k1"], 3, algorithm,
                              semantics=semantics)
        assert signature(cold) == signature(plain)
        assert signature(warm) == signature(plain)
        assert "service" not in cold.stats
        assert warm.stats["service"] == "result_cache"

    def test_replay_does_not_alias_stats(self, figure1_db):
        service = QueryService(figure1_db)
        service.search(["k1"], 2)
        first = service.search(["k1"], 2)
        first.stats["scribble"] = True
        second = service.search(["k1"], 2)
        assert "scribble" not in second.stats

    def test_instrumented_query_bypasses_result_cache(self, figure1_db):
        service = QueryService(figure1_db)
        service.search(["k1", "k2"], 3)
        collector = MetricsCollector()
        outcome = service.search(["k1", "k2"], 3, collector=collector)
        assert "service" not in outcome.stats
        assert outcome.stats["metrics"]["counters"]

    def test_sanitized_query_really_runs(self, figure1_db):
        service = QueryService(figure1_db)
        service.search(["k1", "k2"], 3)
        outcome = service.search(["k1", "k2"], 3, sanitize=True)
        assert "service" not in outcome.stats
        assert outcome.stats["sanitizer"]["checks"] > 0
        assert signature(outcome) == \
            signature(service.search(["k1", "k2"], 3))

    def test_topk_search_delegates_to_service(self, figure1_db):
        service = QueryService(figure1_db)
        first = topk_search(service, ["k1", "k2"], 3)
        again = topk_search(service, ["k1", "k2"], 3)
        assert signature(first) == \
            signature(topk_search(figure1_db, ["k1", "k2"], 3))
        assert again.stats["service"] == "result_cache"

    def test_validation_applies(self, figure1_db):
        service = QueryService(figure1_db)
        with pytest.raises(QueryError, match="must be positive"):
            service.search(["k1"], 0)
        with pytest.raises(QueryError, match="duplicate"):
            service.search(["k1", "K1"], 3)
        with pytest.raises(QueryError, match="no indexable terms"):
            service.search(["..."], 3)


def exact_answer(outcome):
    """Codes, probabilities (bit for bit) and labels, best first."""
    return [(str(result.code), result.probability.hex(), result.label)
            for result in outcome.results]


def without_marker(stats):
    return {key: value for key, value in stats.items()
            if key != "service"}


class TestCacheOwnership:
    """The result cache keeps a private copy of each answer, made when
    it is inserted; every replay shares that copy under a fresh
    top-level stats dict, and nothing a caller does to the computed
    outcome or to a replay reaches it."""

    QUERY = (["k1", "k2"], 3)

    def computed(self, figure1_db):
        service = QueryService(figure1_db)
        first = service.search(*self.QUERY)
        assert first.stats["pruning"] and len(first.results) == 3
        return service, first, exact_answer(first), \
            copy.deepcopy(first.stats)

    def assert_cache_intact(self, service, answer, stats):
        replay = service.search(*self.QUERY)
        assert replay.stats["service"] == "result_cache"
        assert exact_answer(replay) == answer
        assert without_marker(replay.stats) == stats

    def test_mutating_the_computed_outcome_leaves_the_cache(
            self, figure1_db):
        service, first, answer, stats = self.computed(figure1_db)
        first.results.clear()
        first.stats["pruning"]["bound_evaluations"] = -1
        first.stats["pruning"]["scribble"] = True
        first.stats["scribble"] = True
        self.assert_cache_intact(service, answer, stats)

    def test_mutating_a_replay_leaves_the_cache(self, figure1_db):
        service, _, answer, stats = self.computed(figure1_db)
        replay = service.search(*self.QUERY)
        # The shared parts are read-only ...
        with pytest.raises(AttributeError):
            replay.results.clear()
        with pytest.raises(AttributeError):
            replay.results[0].probability = 0.0
        pruning = replay.stats["pruning"]
        for mutate in (lambda d: d.__setitem__("bound_evaluations", -1),
                       lambda d: d.__delitem__("bound_evaluations"),
                       lambda d: d.update(scribble=True),
                       lambda d: d.setdefault("scribble", True),
                       lambda d: d.pop("bound_evaluations"),
                       lambda d: d.popitem(),
                       lambda d: d.clear(),
                       lambda d: d.__ior__({"scribble": True})):
            with pytest.raises(TypeError, match="read-only"):
                mutate(pruning)
        # ... and what a replay owns is its own.
        replay.results = []
        replay.stats["pruning"] = {"scribble": True}
        del replay.stats["algorithm"]
        replay.stats["scribble"] = True
        self.assert_cache_intact(service, answer, stats)

    def test_replay_pickles_to_an_equal_outcome(self, figure1_db):
        service, _, answer, _ = self.computed(figure1_db)
        replay = service.search(*self.QUERY)
        clone = pickle.loads(pickle.dumps(replay))
        assert clone == replay
        assert exact_answer(clone) == answer
        assert clone.stats == replay.stats
        # A shipped replay is an ordinary outcome on the other side.
        clone.stats["pruning"]["scribble"] = True
        self.assert_cache_intact(service, answer,
                                 without_marker(replay.stats))

    def test_replay_payload_is_byte_identical(self, figure1_db):
        service, first, _, _ = self.computed(figure1_db)
        replay = service.search(*self.QUERY)
        assert json_response(200, outcome_payload(replay)) == \
            json_response(200, outcome_payload(first))


class Counting:
    """Counts the calls of ``module.name`` while installed."""

    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


class TestEncodedAnswers:
    """Each result-cache entry carries its answer's encoded response
    fields, made once at insert, shared by every replay and evicted
    with the entry."""

    QUERY = (["k1", "k2"], 3)

    def test_made_once_per_entry_and_shared_by_every_replay(
            self, figure1_db, monkeypatch):
        import repro.service.service as service_module
        encodes = Counting(monkeypatch, service_module, "encode_answer")
        service = QueryService(figure1_db)
        first = service.search(*self.QUERY)
        want = search_body(first, 1.0, "t")
        first.results.clear()
        assert encodes.calls == 1
        hits = [service.lookup(*self.QUERY) for _ in range(5)]
        assert encodes.calls == 1
        assert all(hit.encoded is hits[0].encoded for hit in hits)
        for hit in hits:
            assert search_body(hit.outcome, 1.0, "t", None,
                               hit.encoded) == want

    def test_evicted_with_its_entry(self, figure1_db, monkeypatch):
        import repro.service.service as service_module
        encodes = Counting(monkeypatch, service_module, "encode_answer")
        service = QueryService(figure1_db, cache_size=1)
        service.search(["k1"], 3)
        service.search(["k2"], 3)
        assert service.lookup(["k1"], 3).encoded is None
        assert service.lookup(["k2"], 3).encoded is not None
        service.search(["k1"], 3)
        assert encodes.calls == 3

    def test_a_computed_answer_carries_its_new_entrys_bytes(
            self, figure1_db, monkeypatch):
        import repro.service.service as service_module
        encodes = Counting(monkeypatch, service_module, "encode_answer")
        service = QueryService(figure1_db)
        missed = service.lookup(*self.QUERY)
        assert missed.encoded is None
        computed = service.search(*self.QUERY, lookup=missed)
        assert encodes.calls == 1
        assert missed.encoded is service.lookup(*self.QUERY).encoded
        assert search_body(computed, encoded=missed.encoded) == \
            search_body(computed)

    def test_uncacheable_queries_carry_none(self, figure1_db):
        service = QueryService(figure1_db)
        service.search(*self.QUERY)
        for lookup in (service.lookup(*self.QUERY, deadline=60000),
                       service.lookup(*self.QUERY, sanitize=True),
                       service.lookup(*self.QUERY,
                                      collector=MetricsCollector())):
            assert lookup.encoded is None
            service.search(*self.QUERY, lookup=lookup)
            assert lookup.encoded is None


class TestSanitizeReadOnce:
    """``REPRO_SANITIZE`` is read when a service is built and kept
    across reloads, not read again per query."""

    def test_query_service(self, figure1_db, tmp_path, monkeypatch):
        import repro.service.service as service_module
        from repro.index.storage import save_database
        save_database(figure1_db, tmp_path / "db")
        reads = Counting(monkeypatch, service_module, "sanitize_from_env")
        service = QueryService(str(tmp_path / "db"))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for _ in range(3):
            outcome = service.search(["k1", "k2"], 3)
        assert "sanitizer" not in outcome.stats
        service.reload()
        assert service.lookup(["k1", "k2"], 3).replayable
        assert reads.calls == 1

    def test_query_service_built_sanitized(self, figure1_db,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        service = QueryService(figure1_db)
        monkeypatch.delenv("REPRO_SANITIZE")
        outcome = service.search(["k1", "k2"], 3)
        assert outcome.stats["sanitizer"]["violations"] == 0
        assert not service.lookup(["k1", "k2"], 3).replayable

    def test_corpus_service(self, tmp_path, monkeypatch):
        import repro.corpus.service as corpus_module
        from repro.corpus import CorpusService, build_corpus
        from tests.test_corpus import random_corpus
        build_corpus(random_corpus(3), tmp_path / "corpus", shards=2)
        reads = Counting(monkeypatch, corpus_module, "sanitize_from_env")
        service = CorpusService(str(tmp_path / "corpus"))
        for _ in range(3):
            service.search(["k1", "k2"], 3)
        service.reload()
        service.search(["k1", "k2"], 3)
        assert reads.calls == 1


class TestOneNormalisation:
    """A query is normalised once, at its boundary: engines reached
    through ``topk_search`` take its canonical terms as given, while
    direct engine calls still normalise their keywords."""

    @pytest.mark.parametrize("algorithm", ["eager", "prstack"])
    def test_service_and_corpus_queries_normalise_once(
            self, figure1_db, tmp_path, monkeypatch, algorithm):
        import repro.index.inverted as inverted
        from repro.corpus import CorpusService, build_corpus
        from tests.test_corpus import random_corpus
        build_corpus(random_corpus(3), tmp_path / "corpus", shards=2)
        corpus = CorpusService(str(tmp_path / "corpus"))
        service = QueryService(figure1_db)
        engine = Counting(monkeypatch, inverted, "normalize_query")
        served = service.search(["K2", "k1"], 3, algorithm)
        corpus.search(["K1", "k2"], 3, algorithm)
        topk_search(figure1_db, ["K1", "K2"], 3, algorithm)
        assert engine.calls == 0
        assert signature(served) == signature(
            topk_search(figure1_db, ["k1", "k2"], 3, algorithm))

    def test_direct_engine_calls_still_normalise(self, figure1_db,
                                                 monkeypatch):
        import repro.index.inverted as inverted
        from repro.core.eager import eager_topk_search
        from repro.core.prstack import prstack_search
        want = signature(topk_search(figure1_db, ["k1", "k2"], 3))
        engine = Counting(monkeypatch, inverted, "normalize_query")
        index = figure1_db.index
        assert signature(eager_topk_search(index, ["K1", "k2"], 3)) \
            == want
        assert signature(prstack_search(index, ["K1 K2"], 3)) == want
        assert engine.calls == 2
        with pytest.raises(QueryError, match="no terms"):
            eager_topk_search(index, [], 3)
        with pytest.raises(QueryError, match="no terms"):
            topk_search(figure1_db, [], 3)


class TestOneCoercion:
    """A query coerces its algorithm string once, at its front door,
    and passes the :class:`Algorithm` on; only a front door that was
    handed an :class:`Algorithm` already skips the coercion."""

    def test_each_front_door_coerces_once(self, figure1_db, tmp_path,
                                          monkeypatch):
        import repro.core.api as api
        import repro.service.service as service_module
        from repro import Algorithm
        from repro.corpus import CorpusService, build_corpus
        from tests.test_corpus import random_corpus
        build_corpus(random_corpus(3), tmp_path / "corpus", shards=2)
        corpus = CorpusService(str(tmp_path / "corpus"))
        service = QueryService(figure1_db)
        coerced = []
        original = api._coerce_algorithm

        def counted(algorithm):
            if not isinstance(algorithm, Algorithm):
                coerced.append(algorithm)
            return original(algorithm)

        for module in (api, service_module):
            monkeypatch.setattr(module, "_coerce_algorithm", counted)
        doors = {
            "lookup": lambda: service.lookup(["k1", "k2"], 3, "PrStack"),
            "search": lambda: service.search(["k2", "k1"], 3, "PrStack"),
            "replay": lambda: service.search(["k1", "k2"], 3, "PrStack"),
            "topk_search": lambda: topk_search(figure1_db, ["k1"], 3,
                                               "PrStack"),
            "topk_search on a service": lambda: topk_search(
                service, ["k2"], 3, "PrStack"),
            "corpus": lambda: corpus.search(["k1", "k2"], 3, "PrStack"),
            "batch": lambda: service.batch_search(
                [["k1"], ["k2"], "k1 k2"], 3, "PrStack"),
            "corpus batch": lambda: corpus.batch_search(
                [["k1"], ["k1", "k2"]], 3, "PrStack"),
        }
        for door, call in doors.items():
            coerced.clear()
            call()
            expected = 2 if door == "corpus batch" else 1
            assert coerced == ["PrStack"] * expected, door
        coerced.clear()
        topk_search(figure1_db, ["k1"], 3, Algorithm.PRSTACK)
        assert coerced == []


class TestEviction:
    def test_tiny_cache_evicts_and_stays_correct(self, figure1_db):
        service = QueryService(figure1_db, cache_size=1)
        queries = [["k1"], ["k2"], ["k1", "k2"], ["k1"], ["k2"]]
        for query in queries:
            got = service.search(query, 3)
            assert signature(got) == \
                signature(topk_search(figure1_db, query, 3))
        stats = service.cache_stats()
        assert stats["results"]["evictions"] > 0
        assert stats["results"]["size"] <= 1
        assert stats["match_entries"]["capacity"] == 1

    def test_invalid_capacity_rejected(self, figure1_db):
        with pytest.raises(ValueError, match="capacity"):
            QueryService(figure1_db, cache_size=0)

    def test_clear_caches(self, figure1_db):
        service = QueryService(figure1_db)
        service.search(["k1"], 3)
        service.search(["k1"], 3)
        assert service.cache_stats()["results"]["size"] == 1
        service.clear_caches()
        stats = service.cache_stats()
        assert stats["results"]["size"] == 0
        assert stats["match_entries"]["size"] == 0
        assert "path_probs" not in stats
        # Still answers correctly after the flush.
        assert signature(service.search(["k1"], 3)) == \
            signature(topk_search(figure1_db, ["k1"], 3))


class TestBatch:
    QUERIES = [["k1", "k2"], ["k1"], "k2 k1", ["k2"], ["k1", "k2"],
               ["k1"]]

    def expected(self, db, k=3):
        out = []
        for query in self.QUERIES:
            keywords = query.split() if isinstance(query, str) \
                else query
            out.append(signature(topk_search(db, keywords, k)))
        return out

    def test_batch_matches_per_query_loop(self, figure1_db):
        service = QueryService(figure1_db)
        batch = service.batch_search(self.QUERIES, k=3)
        assert len(batch) == len(self.QUERIES)
        assert [signature(outcome) for outcome in batch] == \
            self.expected(figure1_db)
        assert batch.stats["queries"] == len(self.QUERIES)
        assert batch.stats["distinct_term_sets"] == 3
        assert batch.stats["executor"] == "serial"
        assert batch.elapsed_ms >= 0

    def test_thread_executor_matches(self, figure1_db):
        service = QueryService(figure1_db)
        batch = service.batch_search(self.QUERIES, k=3, workers=3,
                                     executor="thread")
        assert [signature(outcome) for outcome in batch] == \
            self.expected(figure1_db)
        assert batch.stats["executor"] == "thread"
        assert batch.stats["workers"] == 3

    def test_process_executor_matches(self, figure1_db):
        service = QueryService(figure1_db)
        batch = service.batch_search(self.QUERIES, k=3, workers=2,
                                     executor="process")
        assert [signature(outcome) for outcome in batch] == \
            self.expected(figure1_db)
        assert batch.stats["executor"] == "process"
        for outcome in batch:
            assert all(result.node is not None
                       for result in outcome.results)

    def test_batch_oracle_on_random_documents(self, pdoc_factory):
        # Batch answers must equal the independent per-query loop on
        # documents the service has never seen (the oracle cross-check
        # of the issue), including under sanitize.
        for seed in (11, 29, 47):
            document = pdoc_factory(seed, max_nodes=16)
            service = QueryService(document, cache_size=2)
            batch = service.batch_search(self.QUERIES, k=4,
                                         sanitize=True)
            assert [signature(outcome) for outcome in batch] == \
                self.expected(document, k=4), seed

    def test_empty_batch(self, figure1_db):
        batch = QueryService(figure1_db).batch_search([], k=3)
        assert len(batch) == 0
        assert batch.stats["queries"] == 0

    def test_invalid_query_fails_whole_batch(self, figure1_db):
        service = QueryService(figure1_db)
        with pytest.raises(QueryError, match="duplicate"):
            service.batch_search([["k1"], ["k2", "K2"]], k=3)

    def test_invalid_executor_and_workers(self, figure1_db):
        service = QueryService(figure1_db)
        with pytest.raises(QueryError, match="unknown batch executor"):
            service.batch_search([["k1"]], executor="fiber")
        with pytest.raises(QueryError, match="workers"):
            service.batch_search([["k1"]], workers=-1)

    @pytest.mark.parametrize("entry", ["service", "corpus", "http",
                                       "cli"])
    def test_default_executor_is_serial(self, figure1_db, tmp_path,
                                        capsys, entry):
        """``workers=2`` with no executor named runs serially at every
        entry point: on these CPU-bound queries a thread pool only
        adds GIL contention."""
        queries = [["k1"], ["k2"], ["k1", "k2"]]
        if entry == "service":
            batch = QueryService(figure1_db).batch_search(queries,
                                                          workers=2)
            executor = batch.stats["executor"]
        elif entry == "corpus":
            from repro.corpus import CorpusService, build_corpus
            from tests.test_corpus import random_corpus
            build_corpus(random_corpus(11), tmp_path / "corpus",
                         shards=2)
            batch = CorpusService(str(tmp_path / "corpus")) \
                .batch_search(queries, workers=2)
            executor = batch.stats["executor"]
        elif entry == "http":
            from repro.serve import ServeConfig, start_in_thread
            from tests.test_serve import ServerClient
            seen = []

            class Recording(QueryService):
                def batch_search(self, *args, **kwargs):
                    batch = super().batch_search(*args, **kwargs)
                    seen.append(batch.stats["executor"])
                    return batch

            handle = start_in_thread(Recording(figure1_db),
                                     ServeConfig())
            try:
                status, _, _ = ServerClient(handle.port).post(
                    "/batch", {"queries": queries, "workers": 2})
            finally:
                assert handle.stop() == 0
            assert status == 200
            executor, = seen
        else:
            from repro.cli import main
            from repro.index.storage import save_database
            save_database(figure1_db, tmp_path / "db")
            (tmp_path / "q.txt").write_text(
                "\n".join(" ".join(query) for query in queries))
            assert main(["batch", str(tmp_path / "db"),
                         str(tmp_path / "q.txt"), "--workers", "2"]) == 0
            # "3 queries (...) in 1.2 ms (serial x1, eager, slca)"
            executor = capsys.readouterr().out.split(" ms (")[1].split()[0]
        assert executor == "serial"

    def test_collector_sees_cache_traffic(self, figure1_db):
        collector = MetricsCollector()
        service = QueryService(figure1_db, collector=collector)
        service.batch_search(self.QUERIES, k=3)
        counters = collector.snapshot()["counters"]
        assert counters["service.batches"] == 1
        assert counters["service.batch_queries"] == len(self.QUERIES)
        assert counters["service.cache.results.hits"] > 0
        assert counters["service.cache.match_entries.misses"] > 0


class TestChunking:
    def test_chunks_cover_and_preserve_order(self):
        order = list(range(10))
        random.Random(3).shuffle(order)
        for width in (1, 2, 3, 7, 10, 25):
            chunks = _chunked(order, width)
            assert [i for chunk in chunks for i in chunk] == order
            assert len(chunks) == min(width, len(order))

    def test_empty_order(self):
        assert _chunked([], 4) == []


class TestQueryFile:
    def test_parses_skipping_blanks_and_comments(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("k1 k2\n\n# a comment\n  k2  \n",
                        encoding="utf-8")
        assert load_query_file(str(path)) == [["k1", "k2"], ["k2"]]

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("# nothing\n\n", encoding="utf-8")
        with pytest.raises(QueryError, match="no queries"):
            load_query_file(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(QueryError, match="cannot read"):
            load_query_file(str(tmp_path / "absent.txt"))
