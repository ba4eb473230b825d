"""The differential grid over seeded random p-documents with IND, MUX
and EXP nodes.

The algorithm slice: every cell runs both algorithms sanitized
(docs/ANALYSIS.md).  EagerTopK must return PrStack's answers bit for
bit, its post-run dominance proof must verify every pruning bound it
used, and it must never sweep a candidate that is not an ordinary node:
a distributional node is no SLCA answer, so its node bound is 0 and it
is always suspended.

The corpus slice: {prstack, eager} x {slca, elca} (eager is SLCA-only)
x {serial, thread} x {1, 3} shards.  A corpus answer must equal the
same algorithm over the concatenated documents bit for bit (float.hex),
and the possible-worlds oracle within its summation tolerance: the
oracle adds world probabilities in another order, so its last bits
differ from the stack engines' on about half the documents.  A repeated
query (shard visits keep no result cache) and a deadline-cut one are
checked too.

The HTTP slice: every single-document grid query is served twice over
``repro serve``'s front door.  The first body is computed on a worker
thread, the second replayed on the event loop from the result cache's
encoded answer; the two agree byte for byte apart from ``elapsed_ms``
and ``trace_id``, and both carry the in-process answer bit for bit.

The threshold slice: ``threshold_search(p)`` is PrStack with an
unbounded k, cut at ``p`` with the heap's floor rule (an answer exactly
at ``p`` stays, one below it goes), bit for bit and in the same order.
Each ``p`` is an answer's own probability (an exact tie at the floor)
or a point between two answers, and on documents small enough to
enumerate the answers match the possible-worlds oracle within its
summation tolerance.
"""

import json
import math
import random
import re

import pytest

from repro import MetricsCollector, SpanTracer, threshold_search, topk_search
from repro.core.order import result_order_key
from repro.corpus import CorpusService, build_corpus, concat_documents
from repro.encoding.dewey import DeweyCode
from repro.exceptions import QueryError
from repro.index.matchlist import keyword_code_lists
from repro.index.storage import Database
from repro.prxml.model import NodeType
from repro.resilience.deadline import Deadline
from repro.serve import ServeConfig, start_in_thread
from repro.service import QueryService
from repro.slca.indexed_lookup import indexed_lookup_eager
from tests.conftest import random_pdoc
from tests.test_serve import post_raw

SEEDS = range(60)
KEYWORDS = ("k1", "k2", "k3")
QUERIES = (["k1", "k2"], ["k1", "k2", "k3"])
KS = (1, 3, 50)


def grid_database(seed):
    return Database.from_document(random_pdoc(
        random.Random(seed), max_nodes=36, keywords=KEYWORDS,
        with_exp=True))


def rows(outcome):
    return [(str(result.code), result.probability.hex())
            for result in outcome.results]


def traced_eager(database, keywords, k):
    """Sanitized EagerTopK under a root span; returns the outcome and
    the node ids its ``eager.process`` spans name."""
    tracer = SpanTracer()
    with tracer.span("search"):
        outcome = topk_search(database, keywords, k, "eager",
                              sanitize=True,
                              collector=MetricsCollector(tracer=tracer))
    encoded = database.index.encoded
    processed = [encoded.id_at(DeweyCode.parse(span["attrs"]["code"])
                               .positions)
                 for span in tracer.export()
                 if span["name"] == "eager.process"]
    return outcome, processed


def distributional_seeds(database, keywords):
    index = database.index
    encoded = index.encoded
    seeds = indexed_lookup_eager(
        encoded, keyword_code_lists(index, index.query_terms(keywords)))
    return sum(1 for seed in seeds
               if encoded.kinds[seed] is not NodeType.ORDINARY)


@pytest.mark.parametrize("seed", SEEDS)
def test_eager_equals_prstack_with_verified_bounds(seed):
    database = grid_database(seed)
    kinds = database.index.encoded.kinds
    for keywords in QUERIES:
        for k in KS:
            eager, processed = traced_eager(database, keywords, k)
            prstack = topk_search(database, keywords, k, "prstack",
                                  sanitize=True)
            assert rows(eager) == rows(prstack), (keywords, k)
            assert eager.stats["sanitizer"]["checks"] > 0
            if eager.stats["sanitizer"]["bounds_recorded"]:
                assert eager.stats["sanitizer_bound_check"] == \
                    "verified", (keywords, k)
            assert all(kinds[node] is NodeType.ORDINARY
                       for node in processed), (keywords, k)


#: The per-request fields of a /search body.
PER_REQUEST = re.compile(rb'"elapsed_ms":[^,]*,|,"trace_id":"[0-9a-f]*"')


@pytest.mark.parametrize("seed", SEEDS)
def test_served_bodies_replay_byte_for_byte(seed):
    database = grid_database(seed)
    service = QueryService(database)
    collector = MetricsCollector()
    handle = start_in_thread(service, ServeConfig(), collector=collector)
    try:
        for algorithm in ("eager", "prstack"):
            for keywords in QUERIES:
                for k in KS:
                    body = {"keywords": keywords, "k": k,
                            "algorithm": algorithm}
                    computed = post_raw(handle.port, body)
                    replayed = post_raw(handle.port, body)
                    cell = (algorithm, keywords, k)
                    assert PER_REQUEST.sub(b"", replayed) == \
                        PER_REQUEST.sub(b"", computed), cell
                    want = rows(topk_search(database, keywords, k,
                                            algorithm))
                    for raw in (computed, replayed):
                        assert [(answer["code"],
                                 answer["probability"].hex())
                                for answer in json.loads(raw)["results"]
                                ] == want, cell
    finally:
        assert handle.stop() == 0
    cells = 2 * len(QUERIES) * len(KS)
    results = service.cache_stats()["results"]
    assert results["hits"] == results["misses"] == cells
    assert collector.counter("serve.replays_on_loop") == cells


def test_grid_covers_what_it_claims():
    """The documents hold every node kind, distributional seeds, and
    queries where the bounds really prune."""
    present = set()
    seeds = verified = 0
    for seed in SEEDS:
        database = grid_database(seed)
        present.update(database.index.encoded.kinds)
        for keywords in QUERIES:
            seeds += distributional_seeds(database, keywords)
            outcome = topk_search(database, keywords, 1, "eager",
                                  sanitize=True)
            verified += outcome.stats.get(
                "sanitizer_bound_check") == "verified"
    assert present == set(NodeType)
    assert seeds >= 20
    assert verified >= 20


# -- the corpus slice -----------------------------------------------------------

CORPUS_SEEDS = range(6)
CORPUS_DOCUMENTS = 4
#: (algorithm, semantics) cells the API accepts; eager with ELCA is a
#: caller error.
CORPUS_CELLS = (("prstack", "slca"), ("eager", "slca"),
                ("prstack", "elca"))
CORPUS_KS = (1, 3)
#: Tolerance of the possible-worlds comparison (the oracle cross-check's).
EPS = 1e-7


def corpus_documents(seed):
    rng = random.Random(7919 * seed + 11)
    return [(f"d{position}", random_pdoc(rng, max_nodes=14,
                                         keywords=KEYWORDS,
                                         with_exp=True))
            for position in range(CORPUS_DOCUMENTS)]


def hex_rows(results):
    return [(str(result.code), result.probability.hex())
            for result in results]


def concat_rows(concat, keywords, k, algorithm, semantics):
    """The same algorithm over the concatenation, synthetic root
    dropped: what the corpus must return bit for bit."""
    outcome = topk_search(concat, keywords, k + 1, algorithm,
                          semantics=semantics)
    return [row for row in hex_rows(outcome.results)
            if row[0].count(".") >= 1][:k]


def worlds_rows(documents, keywords, k, semantics):
    """Possible-world enumeration per document, merged in global
    positions under the shared result order."""
    answers = []
    for position, (_, document) in enumerate(documents):
        outcome = topk_search(Database.from_document(document), keywords,
                              1 << 20, "possible_worlds",
                              semantics=semantics)
        for result in outcome.results:
            answers.append(((1, position + 1) + result.code.positions[1:],
                            result.probability))
    answers.sort(key=lambda answer: result_order_key(*answer))
    return answers[:k]


def compatible(reference, observed):
    """The oracle cross-check's rule: the same probabilities within
    ``EPS``, and the same codes strictly above the boundary."""
    if len(reference) != len(observed):
        return False
    if any(abs(want - got) > EPS
           for (_, want), (_, got) in zip(reference, observed)):
        return False
    if not reference:
        return True
    boundary = reference[-1][1]
    return ({code for code, probability in reference
             if probability > boundary + EPS}
            == {code for code, probability in observed
                if probability > boundary + EPS})


@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_matches_the_concatenation_and_the_oracle(seed, shards,
                                                         tmp_path):
    documents = corpus_documents(seed)
    directory = str(tmp_path / "corpus")
    build_corpus(documents, directory, shards=shards)
    concat = Database.from_document(concat_documents(documents))
    service = CorpusService(directory)
    for keywords in QUERIES:
        for algorithm, semantics in CORPUS_CELLS:
            for k in CORPUS_KS:
                want = concat_rows(concat, keywords, k, algorithm,
                                   semantics)
                worlds = worlds_rows(documents, keywords, k, semantics)
                for executor in ("serial", "thread"):
                    # The repeat runs its shard visits again: a visit
                    # keeps no result cache.
                    for _ in range(2):
                        outcome = service.search(
                            keywords, k, algorithm, semantics,
                            executor=executor, workers=2)
                        cell = (keywords, algorithm, semantics, k,
                                executor)
                        assert not outcome.partial, cell
                        assert outcome.termination_reason == "complete"
                        assert hex_rows(outcome.results) == want, cell
                        assert compatible(
                            [(DeweyCode.parse(code).positions,
                              float.fromhex(probability))
                             for code, probability in want],
                            [(result.code.positions, result.probability)
                             for result in outcome.results]), cell
                        assert compatible(
                            [(positions, probability)
                             for positions, probability in worlds],
                            [(result.code.positions, result.probability)
                             for result in outcome.results]), cell
    for replica_stats in _result_caches(service):
        assert replica_stats == (0, 0)
    with pytest.raises(QueryError, match="SLCA-specific"):
        service.search(QUERIES[0], 3, "eager", "elca")


def _result_caches(service):
    """Every serving replica's result-cache (hits, misses)."""
    for shard in service._shards:
        for replica in shard.replicas:
            if replica.service is not None:
                results = replica.service.cache_stats()["results"]
                yield results["hits"], results["misses"]


@pytest.mark.parametrize("executor", ("serial", "thread"))
@pytest.mark.parametrize("algorithm, semantics", CORPUS_CELLS)
def test_a_deadline_cut_corpus_answer_is_exact_where_it_answers(
        algorithm, semantics, executor, tmp_path):
    documents = corpus_documents(1)
    directory = str(tmp_path / "corpus")
    build_corpus(documents, directory, shards=3)
    concat = Database.from_document(concat_documents(documents))
    service = CorpusService(directory)
    keywords = QUERIES[0]
    exact = dict(concat_rows(concat, keywords, 1 << 20, algorithm,
                             semantics))
    cut = answered = 0
    for steps in range(0, 40, 3):
        outcome = service.search(keywords, 3, algorithm, semantics,
                                 executor=executor, workers=2,
                                 deadline=Deadline(max_steps=steps))
        # Every probability of an anytime answer is exact for its node.
        for code, probability in hex_rows(outcome.results):
            assert exact[code] == probability, (steps, code)
        if outcome.partial:
            cut += 1
            answered += bool(outcome.results)
            assert outcome.termination_reason != "complete"
        else:
            assert outcome.termination_reason == "complete"
    assert cut and answered


def test_corpus_grid_covers_what_it_claims():
    """Every corpus cell has answers to compare, and ELCA answers
    differ from SLCA ones on some of them."""
    cells = answered = differ = 0
    for seed in CORPUS_SEEDS:
        concat = Database.from_document(
            concat_documents(corpus_documents(seed)))
        for keywords in QUERIES:
            for k in CORPUS_KS:
                slca = concat_rows(concat, keywords, k, "prstack", "slca")
                elca = concat_rows(concat, keywords, k, "prstack", "elca")
                cells += 1
                answered += bool(slca) and bool(elca)
                differ += slca != elca
    assert answered == cells
    assert differ >= cells // 4


# -- the threshold slice --------------------------------------------------------

#: The documents the threshold slice checks against the oracle: at most
#: this many raw possible worlds and nodes (41 of the 60 grid documents;
#: enumeration cost grows fast beyond them).
ORACLE_MAX_WORLDS = 1024
ORACLE_MAX_NODES = 28


def oracle_sized(database):
    encoded = database.index.encoded
    return (len(encoded.kinds) <= ORACLE_MAX_NODES
            and encoded.document.theoretical_world_count()
            <= ORACLE_MAX_WORLDS)


def floors(probabilities):
    """Every answer probability, the midpoints between neighbouring
    ones, the least positive float, and 1."""
    distinct = sorted(set(probabilities), reverse=True)
    points = set(distinct)
    points.update((high + low) / 2 for high, low in zip(distinct,
                                                        distinct[1:]))
    points.add(math.ulp(0.0))
    points.add(1.0)
    return sorted(points)


def oracle_agrees(worlds, answer, floor):
    """``answer`` against the oracle's probabilities within ``EPS``:
    every answer's probability matches its node's, and every node the
    oracle puts clearly above the floor is answered (a node within
    ``EPS`` of the floor may fall either side)."""
    exact = dict(worlds)
    answered = dict(answer)
    return (all(code in exact and abs(exact[code] - probability) <= EPS
                for code, probability in answer)
            and all(code in answered for code, probability in worlds
                    if probability > floor + EPS))


@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_equals_unbounded_prstack_cut_at_the_floor(seed):
    database = grid_database(seed)
    small = oracle_sized(database)
    for keywords in QUERIES:
        everything = rows(topk_search(database, keywords, 1 << 20,
                                      "prstack"))
        worlds = [(str(result.code), result.probability)
                  for result in topk_search(database, keywords, 1 << 20,
                                            "possible_worlds")] \
            if small else None
        for floor in floors(float.fromhex(probability)
                            for _, probability in everything):
            outcome = threshold_search(database.index, keywords, floor)
            cell = (keywords, floor.hex())
            assert rows(outcome) == [
                row for row in everything
                if float.fromhex(row[1]) >= floor], cell
            assert outcome.stats["algorithm"] == "threshold"
            if worlds is not None:
                assert oracle_agrees(
                    worlds, [(code, float.fromhex(probability))
                             for code, probability in rows(outcome)],
                    floor), cell


def test_threshold_grid_covers_what_it_claims():
    """Most documents reach the oracle, and some answer sets hold
    probability ties, so a floor sits on several answers at once."""
    small = tied = 0
    for seed in SEEDS:
        database = grid_database(seed)
        small += oracle_sized(database)
        for keywords in QUERIES:
            probabilities = [probability for _, probability in rows(
                topk_search(database, keywords, 1 << 20, "prstack"))]
            tied += len(set(probabilities)) < len(probabilities)
    assert small >= 40
    assert tied >= 10
