"""Sharded corpus: build, bounds, scatter-gather merge, degradation.

The acceptance contract (docs/CORPUS.md): corpus top-k answers are
bit-identical to single-document brute force over all documents
concatenated under one synthetic root — on every executor, in every
shard completion order, and with bound-driven shard pruning active.
"""

import itertools
import json
import os
import random

import pytest

from repro import DocumentBuilder, topk_search
from repro.corpus import (CorpusService, assign_shards, build_corpus,
                          compute_bounds, concat_documents, corpus_fsck,
                          is_corpus_directory, load_corpus_manifest,
                          read_bounds)
from repro.corpus.builder import BOUNDS_FILE, CORPUS_FILE
from repro.corpus.service import (ACTION_NO_MATCH, ACTION_PRUNED,
                                  REASON_SHARD_FAILURE, _Merge)
from repro.exceptions import QueryError, StorageError
from repro.index.storage import CURRENT_FILE, Database, save_database
from repro.obs.metrics import MetricsCollector
from repro.obs.spans import SpanTracer, derive_trace_id, validate_spans
from tests.conftest import random_pdoc
from tests.oracle import corpus_rows, oracle_rows

QUERY = ["k1", "k2"]


def random_corpus(seed, count=5, max_nodes=20):
    rng = random.Random(seed)
    return [(f"doc-{position}", random_pdoc(rng, max_nodes=max_nodes))
            for position in range(count)]


def build_tiered_docs():
    """One certain match plus two faint ones: the pruning scenario.

    The *strong* document answers ``k1 k2`` with probability 1; the
    two *weak* documents hold both keywords only under an IND edge of
    probability 0.05, so their shards' query bounds (0.05) fall below
    the k-th probability (1.0) as soon as the strong shard has been
    merged.
    """
    strong = DocumentBuilder("strong")
    strong.leaf("a", text="k1")
    strong.leaf("b", text="k2")
    documents = [("strong", strong.build())]
    for name in ("weak1", "weak2"):
        weak = DocumentBuilder(name)
        with weak.ind(prob=0.05):
            weak.leaf("a", text="k1")
            weak.leaf("b", text="k2")
        documents.append((name, weak.build()))
    return documents


# -- sharding ------------------------------------------------------------------


class TestSharding:
    def test_hash_is_stable_and_complete(self):
        names = [f"doc-{i}" for i in range(20)]
        sizes = [10] * 20
        first = assign_shards(names, sizes, 4, "hash")
        second = assign_shards(list(names), list(sizes), 4, "hash")
        assert first == second
        assert all(0 <= shard < 4 for shard in first)

    def test_size_strategy_balances_node_counts(self):
        sizes = [100, 90, 40, 30, 20, 10]
        names = [f"doc-{i}" for i in range(len(sizes))]
        assignment = assign_shards(names, sizes, 2, "size")
        loads = [0, 0]
        for size, shard in zip(sizes, assignment):
            loads[shard] += size
        assert abs(loads[0] - loads[1]) <= 40

    @pytest.mark.parametrize("names,sizes,shards,strategy,match", [
        (["a"], [1], 0, "hash", "positive"),
        (["a"], [1, 2], 2, "hash", "aligned"),
        (["a", "a"], [1, 2], 2, "hash", "unique"),
        (["a"], [1], 2, "bogus", "strategy"),
    ])
    def test_invalid_inputs(self, names, sizes, shards, strategy,
                            match):
        with pytest.raises(QueryError, match=match):
            assign_shards(names, sizes, shards, strategy)


# -- builder -------------------------------------------------------------------


class TestBuilder:
    def test_build_and_load_roundtrip(self, tmp_path):
        directory = str(tmp_path / "corpus")
        documents = random_corpus(7)
        manifest = build_corpus(documents, directory, shards=3)
        assert is_corpus_directory(directory)
        loaded = load_corpus_manifest(directory)
        assert loaded == manifest
        assert loaded.shard_count == 3
        names = sorted(doc.name for doc in loaded.documents)
        assert names == sorted(name for name, _ in documents)
        # Global positions follow the input order, 1-based.
        by_name = {doc.name: doc for doc in loaded.documents}
        for position, (name, _) in enumerate(documents, start=1):
            assert by_name[name].global_position == position

    def test_every_shard_is_a_searchable_database(self, tmp_path):
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(random_corpus(11), directory, shards=4)
        for shard in range(manifest.shard_count):
            database = Database
            from repro.index.storage import load_database
            database = load_database(manifest.shard_dir(shard))
            assert database.document is not None

    def test_bounds_persisted_and_validated(self, tmp_path):
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(build_tiered_docs(), directory,
                                shards=3, strategy="size")
        payload = read_bounds(manifest.shard_dir(0))
        assert payload is not None
        assert payload["generation"] == "g00000001"
        assert 0.0 < payload["max_path_probability"] <= 1.0
        assert set(payload["terms"]) >= {"k1", "k2"}

    def test_corrupt_bounds_degrade_to_none(self, tmp_path):
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(random_corpus(3, count=2), directory,
                                shards=1)
        path = os.path.join(manifest.shard_dir(0), BOUNDS_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert read_bounds(manifest.shard_dir(0)) is None

    def test_union_bound_upper_bounds_answers(self, tmp_path):
        documents = random_corpus(13, count=3)
        database = Database.from_document(concat_documents(documents))
        bounds, best = compute_bounds(database.index)
        assert 0.0 < best <= 1.0
        for term, bound in bounds.items():
            outcome = topk_search(database, [term], 3)
            for result in outcome.results:
                assert result.probability <= bound + 1e-12

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StorageError, match="not a corpus"):
            load_corpus_manifest(str(tmp_path))

    def test_malformed_manifest_raises(self, tmp_path):
        path = tmp_path / CORPUS_FILE
        path.write_text(json.dumps({"format": "repro.corpus/v1",
                                    "shards": ["s0000"],
                                    "documents": [{"name": "x"}]}))
        with pytest.raises(StorageError, match="corrupt corpus"):
            load_corpus_manifest(str(tmp_path))

    def test_concat_preserves_in_document_answers(self):
        documents = random_corpus(17, count=3)
        combined = concat_documents(documents)
        database = Database.from_document(combined)
        outcome = topk_search(database, QUERY, 50)
        # A merged code is the in-document code with the document's
        # child position spliced in as component two; strip it to
        # recover ``(document, local code)``.
        merged = {}
        for result in outcome.results:
            parts = str(result.code).split(".")
            if len(parts) < 2:
                continue  # the synthetic root
            local = ".".join([parts[0]] + parts[2:])
            merged[(int(parts[1]), local)] = result.probability
        for position, (_, document) in enumerate(documents, start=1):
            single = Database.from_document(document.copy())
            local = topk_search(single, QUERY, 50)
            assert local.results, position
            for result in local.results:
                key = (position, str(result.code))
                assert merged.get(key) == result.probability, key


# -- oracle identity -----------------------------------------------------------


class TestOracleIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_serial_and_thread_match_brute_force(self, seed, tmp_path):
        documents = random_corpus(seed, count=4 + seed % 3)
        directory = str(tmp_path / "corpus")
        strategy = "hash" if seed % 2 else "size"
        build_corpus(documents, directory, shards=3, strategy=strategy)
        service = CorpusService(directory)
        for keywords in (QUERY, ["k1"]):
            for k in (1, 3, 10):
                expected = oracle_rows(documents, keywords, k)
                for executor in ("serial", "thread"):
                    outcome = service.search(keywords, k=k,
                                             executor=executor,
                                             workers=3)
                    assert corpus_rows(outcome) == expected, \
                        (seed, keywords, k, executor)

    def test_process_executor_matches_brute_force(self, tmp_path):
        documents = random_corpus(99, count=4)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=2)
        service = CorpusService(directory)
        expected = oracle_rows(documents, QUERY, 5)
        outcome = service.search(QUERY, k=5, executor="process",
                                 workers=2)
        assert corpus_rows(outcome) == expected

    def test_prune_fires_and_answers_are_unchanged(self, tmp_path):
        documents = build_tiered_docs()
        directory = str(tmp_path / "corpus")
        # One document per shard, so the weak shards are prunable.
        build_corpus(documents, directory, shards=3, strategy="size")
        collector = MetricsCollector()
        service = CorpusService(directory, collector=collector)
        outcome = service.search(QUERY, k=1, executor="serial")
        stats = outcome.stats["corpus"]
        assert stats[ACTION_PRUNED] == 2
        assert stats["searched"] == 1
        assert corpus_rows(outcome) == oracle_rows(documents, QUERY, 1)
        snapshot = collector.snapshot()
        assert snapshot["counters"]["corpus.shards_pruned"] == 2

    def test_absent_term_shards_skip_as_no_match(self, tmp_path):
        strong = DocumentBuilder("strong")
        strong.leaf("a", text="k1 k2")
        empty = DocumentBuilder("empty")
        empty.leaf("b", text="zz")
        documents = [("strong", strong.build()),
                     ("empty", empty.build())]
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=2, strategy="size")
        service = CorpusService(directory)
        outcome = service.search(QUERY, k=2)
        stats = outcome.stats["corpus"]
        assert stats[ACTION_NO_MATCH] == 1
        assert corpus_rows(outcome) == oracle_rows(documents, QUERY, 2)

    def test_reported_width_is_the_executors_real_width(self, tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(random_corpus(7, count=4), directory, shards=3)
        service = CorpusService(directory)
        # The serial executor visits one shard at a time, whatever
        # width the caller asks for.
        for workers in (None, 3):
            block = service.search(QUERY, k=3, workers=workers) \
                .stats["corpus"]
            assert (block["executor"], block["workers"]) == ("serial", 1)
        block = service.search(QUERY, k=3, executor="thread",
                               workers=3).stats["corpus"]
        assert (block["executor"], block["workers"]) == ("thread", 3)

    def test_rejects_bad_queries_and_executors(self, tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(random_corpus(1, count=2), directory, shards=1)
        service = CorpusService(directory)
        with pytest.raises(QueryError):
            service.search([])
        with pytest.raises(QueryError, match="executor"):
            service.search(QUERY, executor="carrier-pigeon")
        with pytest.raises(QueryError, match="workers"):
            service.search(QUERY, executor="thread", workers=0)


# -- merge order independence (the tie-break satellite) ------------------------


class TestMergeOrderIndependence:
    def test_every_completion_order_yields_identical_answers(
            self, tmp_path):
        """The retained set of the global heap is a pure function of
        the offered multiset: permuting shard completion order — ties
        included — never changes the merged top-k."""
        documents = []
        for name in ("one", "two", "three"):
            builder = DocumentBuilder(name)
            builder.leaf("a", text="k1 k2")  # three prob-ties
            with builder.ind(prob=0.4):
                builder.leaf("b", text="k1 k2")
            documents.append((name, builder.build()))
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=3, strategy="size")
        service = CorpusService(directory)
        k = 4
        shards = [shard for shard in service._shards
                  if shard.service is not None]
        per_shard = [(shard,
                      shard.service.search(QUERY, k=k + 1))
                     for shard in shards]

        signatures = set()
        for ordering in itertools.permutations(per_shard):
            merge = _Merge(k)
            for shard, outcome in ordering:
                merge.absorb(shard, 1.0, outcome)
            merged = merge.outcome(len(shards), "serial", 1, "eager",
                                   "slca", k, QUERY, {})
            signatures.add(tuple(corpus_rows(merged)))
        assert len(signatures) == 1
        only = list(signatures)[0]
        assert list(only) == oracle_rows(documents, QUERY, k)
        # Ties broken by document order: probabilities descending,
        # equal probabilities in ascending Dewey order.
        probabilities = [row[1] for row in only]
        assert probabilities == sorted(probabilities, reverse=True)
        tied = [row[0] for row in only if row[1] == probabilities[0]]
        assert tied == sorted(
            tied, key=lambda code: [int(p) for p in code.split(".")])

    def test_executor_permutation_on_random_corpus(self, tmp_path):
        documents = random_corpus(23, count=6, max_nodes=16)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=3)
        service = CorpusService(directory)
        expected = oracle_rows(documents, QUERY, 5)
        for trial in range(4):
            outcome = service.search(QUERY, k=5, executor="thread",
                                     workers=3)
            assert corpus_rows(outcome) == expected, trial


# -- degradation, reload, fsck -------------------------------------------------


class TestDegradation:
    def corrupt_shard(self, manifest, shard):
        os.remove(os.path.join(manifest.shard_dir(shard),
                               CURRENT_FILE))

    def test_downed_shard_degrades_to_partial_answers(self, tmp_path):
        documents = build_tiered_docs()
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(documents, directory, shards=3,
                                strategy="size")
        weak_shard = next(doc.shard for doc in manifest.documents
                          if doc.name == "weak1")
        self.corrupt_shard(manifest, weak_shard)
        service = CorpusService(directory)
        outcome = service.search(QUERY, k=10)
        stats = outcome.stats["corpus"]
        assert outcome.partial
        assert outcome.termination_reason == REASON_SHARD_FAILURE
        assert stats["failed"] == 1
        healthy = [(name, document)
                   for name, document in documents if name != "weak1"]
        # The healthy shards' answers still come back, globally coded.
        healthy_rows = oracle_rows(documents, QUERY, 10)
        observed = corpus_rows(outcome)
        assert observed and set(observed) < set(healthy_rows)

    def test_reload_heals_a_restored_shard(self, tmp_path):
        documents = build_tiered_docs()
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(documents, directory, shards=3,
                                strategy="size")
        current = os.path.join(manifest.shard_dir(1), CURRENT_FILE)
        with open(current, "r", encoding="utf-8") as handle:
            saved = handle.read()
        os.remove(current)
        service = CorpusService(directory)
        snapshot = service.health_snapshot()
        down = [block for block in snapshot["shards"]
                if not block["ok"]]
        assert len(down) == 1 and down[0]["error"]
        with open(current, "w", encoding="utf-8") as handle:
            handle.write(saved)
        state = service.reload()
        assert state.epoch >= 1
        snapshot = service.health_snapshot()
        assert all(block["ok"] for block in snapshot["shards"])
        outcome = service.search(QUERY, k=10)
        assert not outcome.partial
        assert corpus_rows(outcome) == oracle_rows(documents, QUERY,
                                                   10)

    def test_all_shards_down_raises_on_reload(self, tmp_path):
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(random_corpus(3, count=2), directory,
                                shards=1)
        self.corrupt_shard(manifest, 0)
        service = CorpusService(directory)
        with pytest.raises(StorageError, match="no shard is serving"):
            service.reload()

    def test_corpus_fsck_reports_per_shard(self, tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(random_corpus(5, count=3), directory, shards=2)
        reports = corpus_fsck(directory)
        assert [name for name, _ in reports] == ["s0000", "s0001"]
        assert all(report.clean for _, report in reports)

    def test_quarantined_shard_does_not_fail_the_query(self, tmp_path):
        """fsck --repair on a damaged shard quarantines it; the corpus
        keeps answering from the healthy shards (partial outcome)."""
        from repro.index.storage import resolve_snapshot
        documents = build_tiered_docs()
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(documents, directory, shards=3,
                                strategy="size")
        strong_shard = next(doc.shard for doc in manifest.documents
                            if doc.name == "strong")
        victim = next(position for position in range(3)
                      if position != strong_shard)
        snapshot_dir, _ = resolve_snapshot(manifest.shard_dir(victim))
        postings = os.path.join(snapshot_dir, "postings.i64")
        with open(postings, "rb") as handle:
            body = handle.read()
        with open(postings, "wb") as handle:
            handle.write(body[:-8] + b"{torn-final-line")
        reports = dict(corpus_fsck(directory, repair=True))
        assert not reports[manifest.shard_names[victim]].clean
        service = CorpusService(directory)
        outcome = service.search(QUERY, k=5)
        rows = corpus_rows(outcome)
        assert rows  # the strong shard still answers
        assert rows[0][1] == 1.0

    def test_storage_stats_aggregate_shards(self, tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(random_corpus(29, count=4), directory, shards=2)
        service = CorpusService(directory)
        stats = service.storage_stats()
        assert stats["generation"].startswith("corpus-2x-")
        assert stats["epoch"] == 1
        assert len(stats["shards"]) == 2
        state = service.reload()
        assert state.epoch == 2
        assert service.storage_stats()["epoch"] == 2

    def test_batch_search_aggregates_corpus_stats(self, tmp_path):
        directory = str(tmp_path / "corpus")
        documents = random_corpus(31, count=4)
        build_corpus(documents, directory, shards=2)
        service = CorpusService(directory)
        batch = service.batch_search([QUERY, ["k1"]], k=3)
        assert batch.stats["queries"] == 2
        assert batch.stats["corpus"]["searched"] >= 1
        expected = oracle_rows(documents, QUERY, 3)
        assert corpus_rows(batch.outcomes[0]) == expected


# -- process visits ------------------------------------------------------------


class TestProcessVisits:
    """A process visit answers, traces and counts like an in-process
    one: it loads the generation its coordinator serves and hands the
    worker's spans and engine counters back to the corpus."""

    EXECUTORS = ("serial", "thread", "process")

    def test_visits_serve_the_coordinators_generation(self, tmp_path):
        documents = random_corpus(99, count=4)
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(documents, directory, shards=2)
        service = CorpusService(directory)
        before = corpus_rows(service.search(QUERY, k=5))
        assert before == oracle_rows(documents, QUERY, 5)
        # Commit a generation with a certain k1 k2 answer to shard 0
        # and do not reload: every executor must keep serving the
        # generation the coordinator loaded.
        strong = DocumentBuilder("strong")
        strong.leaf("a", text="k1 k2")
        save_database(Database.from_document(
            concat_documents([("strong", strong.build())])),
            manifest.shard_dir(0))
        for executor in self.EXECUTORS:
            outcome = service.search(QUERY, k=5, executor=executor,
                                     workers=2)
            assert corpus_rows(outcome) == before, executor

    def run_traced(self, directory, executor):
        collector = MetricsCollector()
        service = CorpusService(directory, collector=collector)
        tracer = SpanTracer(trace_id=derive_trace_id("visit", executor))
        outcome = service.search(QUERY, k=5, executor=executor,
                                 workers=2, tracer=tracer)
        spans = validate_spans(tracer.export())
        counters = {name for name in collector.snapshot()["counters"]
                    if name.startswith(("engine.", "index."))}
        return corpus_rows(outcome), spans, counters

    def test_traced_visits_keep_worker_spans_and_counters(self,
                                                          tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(random_corpus(99, count=4), directory, shards=2)
        rows, spans, counters = self.run_traced(directory, "serial")
        names = {span["name"] for span in spans}
        assert {"query", "index.merge_entries"} <= names
        assert counters
        for executor in ("thread", "process"):
            got_rows, got_spans, got_counters = self.run_traced(
                directory, executor)
            assert got_rows == rows, executor
            assert got_counters == counters, executor
            got_names = {span["name"] for span in got_spans}
            # A process visit adds its worker's root span and the
            # coordinator's submit span.
            extra = {"worker", "corpus.submit"} \
                if executor == "process" else set()
            assert got_names - extra == names, executor
            assert extra <= got_names, executor
        # The worker spans hang under their visit's corpus.shard span.
        by_id = {span["span_id"]: span for span in got_spans}
        workers = [span for span in got_spans
                   if span["name"] == "worker"]
        assert workers
        for worker in workers:
            assert by_id[worker["parent_id"]]["name"] == "corpus.shard"


# -- serving a corpus ----------------------------------------------------------


class TestCorpusServing:
    @pytest.fixture
    def corpus_server(self, tmp_path):
        from repro.serve import ServeConfig, start_in_thread
        directory = str(tmp_path / "corpus")
        documents = build_tiered_docs()
        build_corpus(documents, directory, shards=3, strategy="size")
        service = CorpusService(directory,
                                collector=MetricsCollector())
        handle = start_in_thread(service, ServeConfig())
        yield handle, documents
        handle.stop()

    def request(self, port, method, path, payload=None):
        import http.client
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            body = (json.dumps(payload).encode()
                    if payload is not None else None)
            connection.request(method, path, body=body,
                               headers={"Content-Type":
                                        "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_caller_error_is_a_400_not_a_partial_answer(
            self, corpus_server):
        handle, _ = corpus_server
        status, payload = self.request(
            handle.port, "POST", "/search",
            {"keywords": QUERY, "semantics": "elca"})
        assert status == 400
        assert payload["error"]["code"] == "invalid_query"
        assert payload["error"]["field"] == "semantics"

    def test_search_carries_corpus_stats(self, corpus_server):
        handle, documents = corpus_server
        status, payload = self.request(
            handle.port, "POST", "/search",
            {"keywords": QUERY, "k": 1})
        assert status == 200
        rows = [(row["code"], row["probability"])
                for row in payload["results"]]
        assert rows == oracle_rows(documents, QUERY, 1)
        assert payload["corpus"]["pruned"] == 2

    def test_health_lists_shard_generations(self, corpus_server):
        handle, _ = corpus_server
        status, payload = self.request(handle.port, "GET", "/health")
        assert status == 200
        assert payload["generation"].startswith("corpus-3x-")
        shards = payload["shards"]
        assert [block["shard"] for block in shards] == \
            ["s0000", "s0001", "s0002"]
        assert all(block["generation"] == "g00000001"
                   and block["epoch"] == 1 and block["ok"]
                   for block in shards)

    def test_reload_bumps_corpus_epoch(self, corpus_server):
        handle, _ = corpus_server
        status, payload = self.request(handle.port, "POST", "/reload")
        assert status == 200 and payload["epoch"] == 2
        _, health = self.request(handle.port, "GET", "/health")
        assert health["epoch"] == 2


# -- a shard visit is an engine call -------------------------------------------

#: Metric families a shard visit's engines record; the corpus folds
#: them into its collector once per query, and they must total what
#: the same visits record when run alone.
ENGINE_PREFIXES = ("eager.", "engine.", "heap.", "index.", "search.total")
DISTINCT_QUERIES = (["k1", "k2"], ["k1"], ["k2"], ["k1", "zz"],
                    ["k2", "zz"], ["k1", "k2", "zz"])


def engine_totals(snapshot):
    """Counter values, and histogram and timer counts, of the engine
    families (timer sums are wall time, histogram sums checked apart)."""
    keep = lambda name: name.startswith(ENGINE_PREFIXES)
    return ({name: value for name, value in snapshot["counters"].items()
             if keep(name)},
            {name: block["count"]
             for kind in ("histograms", "timers")
             for name, block in snapshot[kind].items() if keep(name)})


def visits_alone(directory, outcomes):
    """The searched visits of ``outcomes``, each run straight on its
    shard's index with its own match-list caches, in the same order."""
    from repro.index.cache import QueryCaches
    from repro.index.storage import load_database
    manifest = load_corpus_manifest(directory)
    databases, caches = {}, {}
    expected = MetricsCollector()
    for outcome in outcomes:
        for entry in outcome.stats["corpus"]["detail"]:
            if entry["action"] != "searched":
                continue
            name = entry["shard"]
            if name not in databases:
                position = manifest.shard_names.index(name)
                databases[name] = load_database(
                    manifest.replica_dirs(position)[0])
                caches[name] = QueryCaches()
            topk_search(databases[name].index, outcome.stats["terms"],
                        outcome.stats["k"] + 1, collector=expected,
                        caches=caches[name], sanitize=False)
    return expected


class TestVisitEngineCall:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_engine_totals_equal_the_visits_run_alone(self, executor,
                                                      tmp_path):
        documents = random_corpus(41, count=6)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=3)
        collector = MetricsCollector()
        service = CorpusService(directory, collector=collector)
        outcomes = [service.search(keywords, k=k, executor=executor,
                                   workers=3)
                    for keywords in DISTINCT_QUERIES for k in (1, 5)]
        searched = sum(outcome.stats["corpus"]["searched"]
                       for outcome in outcomes)
        assert searched > len(outcomes)
        got = collector.snapshot()
        want = visits_alone(directory, outcomes).snapshot()
        assert engine_totals(got) == engine_totals(want)
        assert got["timers"]["search.total"]["count"] == searched
        for name, block in want["histograms"].items():
            if name.startswith(ENGINE_PREFIXES):
                assert got["histograms"][name]["sum"] == \
                    pytest.approx(block["sum"], rel=1e-9), name
        counters = got["counters"]
        assert counters["corpus.searches"] == len(outcomes)
        assert got["timers"]["corpus.search"]["count"] == len(outcomes)
        # The visits skip the service front door and its result cache.
        assert "service.queries" not in counters
        assert "service.search" not in got["timers"]
        assert not any(name.startswith("service.cache.results.")
                       for name in counters)

    def test_served_engine_totals_equal_the_visits_run_alone(
            self, tmp_path):
        from repro.obs import parse_prometheus
        from repro.serve import ServeConfig, start_in_thread
        documents = random_corpus(43, count=6)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=3)
        collector = MetricsCollector()
        service = CorpusService(directory, collector=collector)
        handle = start_in_thread(service, ServeConfig())
        try:
            for keywords in DISTINCT_QUERIES:
                status, body = _http(handle.port, "POST", "/search",
                                     {"keywords": keywords, "k": 3})
                assert status == 200
                assert json.loads(body)["termination_reason"] == \
                    "complete"
            status, text = _http(handle.port, "GET", "/metrics")
            assert status == 200
        finally:
            handle.stop()
        samples = parse_prometheus(text)
        outcomes = [service.search(keywords, k=3)
                    for keywords in DISTINCT_QUERIES]
        want = visits_alone(directory, outcomes).snapshot()
        counters, _ = engine_totals(want)
        assert counters
        for name, value in counters.items():
            assert samples["repro_" + name.replace(".", "_")] == value, \
                name
        for name, block in want["histograms"].items():
            if name.startswith(ENGINE_PREFIXES):
                sample = "repro_" + name.replace(".", "_") + "_count"
                assert samples[sample] == block["count"], name

    def test_traced_query_keeps_the_visit_span_chain(self, tmp_path):
        documents = random_corpus(42, count=4)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=2)
        service = CorpusService(directory, collector=MetricsCollector())
        for executor in ("serial", "thread"):
            tracer = SpanTracer()
            outcome = service.search(QUERY, k=3, executor=executor,
                                     tracer=tracer)
            spans = tracer.export()
            validate_spans(spans)
            by_id = {span["span_id"]: span for span in spans}

            def path(span):
                names = []
                while span is not None:
                    names.append(span["name"])
                    span = by_id.get(span["parent_id"])
                return "/".join(reversed(names))

            paths = {path(span) for span in spans}
            assert "corpus.search/corpus.shard/query/search.total" \
                in paths, executor
            assert outcome.stats["corpus"]["searched"] == sum(
                1 for span in spans if span["name"] == "corpus.shard")

    def test_a_visit_does_not_validate_again(self, tmp_path,
                                             monkeypatch):
        import repro.core.api as api_module
        import repro.corpus.service as corpus_module
        import repro.service.service as service_module
        documents = random_corpus(44, count=4)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=3)
        service = CorpusService(directory)
        calls = []
        real = api_module.validated_terms

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("a shard visit validated its query")

        monkeypatch.setattr(corpus_module, "validated_terms", counted)
        monkeypatch.setattr(service_module, "validated_terms", refused)
        monkeypatch.setattr(api_module, "validated_terms", refused)
        for executor in ("serial", "thread"):
            outcome = service.search(["K2", "k1"], k=3,
                                     executor=executor, workers=3)
            assert outcome.stats["corpus"]["searched"] >= 1
            assert outcome.stats["terms"] == ["k1", "k2"]
        assert len(calls) == 2

    def test_a_complete_answer_says_complete(self, tmp_path):
        documents = random_corpus(45, count=4)
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=3)
        service = CorpusService(directory)
        for executor in ("serial", "thread", "process"):
            outcome = service.search(QUERY, k=3, executor=executor,
                                     workers=2)
            assert not outcome.partial
            assert outcome.termination_reason == "complete"

    @pytest.mark.parametrize("cache_size", [0, -3])
    def test_non_positive_cache_size_fails_before_any_shard_loads(
            self, cache_size, tmp_path, monkeypatch):
        directory = str(tmp_path / "corpus")
        build_corpus(random_corpus(46, count=3), directory, shards=2)

        def no_load(*args, **kwargs):
            raise AssertionError("a shard loaded")

        monkeypatch.setattr(CorpusService, "_load_shard", no_load)
        collector = MetricsCollector()
        with pytest.raises(ValueError, match="cache_size must be "
                                             "positive"):
            CorpusService(directory, cache_size=cache_size,
                          collector=collector)
        assert collector.snapshot()["counters"] == {}


def _http(port, method, path, payload=None):
    """One request to a served corpus: ``(status, body text)``."""
    import http.client
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=None if payload is None
                           else json.dumps(payload).encode())
        response = connection.getresponse()
        return response.status, response.read().decode()
    finally:
        connection.close()


# -- generated corpus ----------------------------------------------------------


class TestGeneratedCorpus:
    def test_selective_workload_is_exact_and_prunes(self, tmp_path):
        """DBLP documents, rare term pairs, k=1: the regime where a
        shard's bound falls below the k-th probability, so the serial
        plan prunes, and every executor still matches brute force."""
        from repro.datagen.dblp import generate_dblp
        from repro.datagen.probabilistic import make_probabilistic
        from repro.datagen.workload import WorkloadSpec, sample_workload
        documents = []
        for position in range(3):
            seed = 673 + 101 * position
            plain = generate_dblp(publications=40, seed=seed)
            documents.append((f"dblp-{position}",
                              make_probabilistic(plain, seed=seed)))
        directory = str(tmp_path / "corpus")
        build_corpus(documents, directory, shards=2)
        oracle = Database.from_document(concat_documents(documents))
        spec = WorkloadSpec(queries=6, terms_per_query=2,
                            min_frequency=2, max_frequency=80)
        workload = sample_workload(oracle.index, spec,
                                   rng=random.Random(673))
        service = CorpusService(directory)
        pruned = 0
        for keywords in workload:
            expected = oracle_rows(documents, keywords, 1)
            for executor in ("serial", "thread", "process"):
                outcome = service.search(keywords, k=1,
                                         executor=executor, workers=2)
                assert corpus_rows(outcome) == expected, \
                    (keywords, executor)
                assert outcome.stats["corpus"]["failed"] == 0
                if executor == "serial":
                    pruned += outcome.stats["corpus"][ACTION_PRUNED]
        assert pruned >= 1
