"""Micro-benchmarks of the substrate components.

Not a paper figure — these isolate the building blocks (encoding,
snapshot loading, index construction, the three deterministic SLCA
algorithms, a served result-cache replay, a sharded corpus search) so
that a regression in any layer is visible independently of the
end-to-end numbers.
"""

import pytest

from repro import Database, build_index, encode_document, topk_search
from repro.corpus import CorpusService, build_corpus, concat_documents
from repro.datagen import (generate_dblp, generate_mondial,
                           make_probabilistic)
from repro.index.matchlist import build_match_entries, keyword_code_lists
from repro.index.storage import load_database, save_database
from repro.serve.protocol import (json_response, outcome_payload,
                                  render_response, search_body)
from repro.service import QueryService
from repro.slca import indexed_lookup_eager, scan_eager, stack_based_slca

_STATE = {}


def prepared():
    if not _STATE:
        document = make_probabilistic(generate_mondial(), seed=673)
        encoded = encode_document(document)
        index = build_index(encoded)
        keywords = ["united states", "organization"]
        terms = index.query_terms(keywords)
        postings = keyword_code_lists(index, terms)
        _STATE.update(document=document, encoded=encoded, index=index,
                      postings=postings,
                      code_lists=[[encoded.code(node_id) for node_id in ids]
                                  for ids in postings],
                      columns=build_match_entries(index, terms))
    return _STATE


def test_encode_document(benchmark, report):
    state = prepared()
    encoded = benchmark(encode_document, state["document"])
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   ["encode_document", len(encoded)])


def test_load_database(benchmark, report, tmp_path):
    """A full snapshot load: read, parse, encode and index check.
    Unverified loads never share an in-memory index, so every round
    parses and encodes afresh."""
    state = prepared()
    save_database(Database(state["encoded"], state["index"]), tmp_path)
    database = benchmark(load_database, tmp_path, verify=False)
    assert len(database.encoded) == len(state["encoded"])
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   ["load_database", len(database.encoded)])


def test_build_inverted_index(benchmark, report):
    state = prepared()
    index = benchmark(build_index, state["encoded"])
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   ["build_index", len(index)])


@pytest.mark.parametrize("name", ["indexed_lookup_eager", "scan_eager"])
def test_deterministic_slca(benchmark, report, name):
    state = prepared()
    if name == "indexed_lookup_eager":
        answers = benchmark(indexed_lookup_eager, state["encoded"],
                            state["postings"])
    else:
        answers = benchmark(scan_eager, state["code_lists"])
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   [name, len(answers)])


def test_stack_based_slca(benchmark, report):
    state = prepared()
    answers = benchmark(stack_based_slca, state["encoded"],
                        *state["columns"], 3)
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   ["stack_based_slca", len(answers)])


def test_result_cache_replay(benchmark, report):
    """What the HTTP server does for a repeated /search on its event
    loop: a result-cache hit and its response, whose body splices the
    cache entry's encoded answer.  The old encoding of the computed
    answer is the oracle."""
    state = prepared()
    service = QueryService(Database(state["encoded"], state["index"]))
    keywords = ["united states", "organization"]
    computed = service.search(keywords, k=10)

    def replay():
        found = service.lookup(keywords, k=10)
        outcome = service.search(keywords, k=10, lookup=found)
        return outcome, render_response(
            200, search_body(outcome, encoded=found.encoded))

    outcome, response = benchmark(replay)
    assert outcome.stats["service"] == "result_cache"
    assert response == json_response(200, outcome_payload(computed))
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   ["result_cache_replay", len(outcome.results)])


def test_corpus_search(benchmark, report, tmp_path):
    """A serial corpus query with a collector on, as ``repro serve``
    runs it: shard bounds, one engine call per searched shard, the
    global merge and one metrics fold.  Its answers must equal the
    engine over the concatenated documents (synthetic root dropped)."""
    from repro.obs.metrics import MetricsCollector
    documents = [(f"dblp{position}",
                  make_probabilistic(generate_dblp(60, seed=40 + position),
                                     seed=70 + position))
                 for position in range(6)]
    directory = str(tmp_path / "corpus")
    build_corpus(documents, directory, shards=3)
    service = CorpusService(directory, collector=MetricsCollector())
    keywords, k = ["xml", "keyword"], 5
    outcome = benchmark(service.search, keywords, k)
    concat = topk_search(
        Database.from_document(concat_documents(documents)), keywords,
        k + 1)
    expected = [(str(result.code), result.probability)
                for result in concat.results
                if len(result.code.positions) >= 2][:k]
    assert len(expected) == k
    assert [(str(result.code), result.probability)
            for result in outcome.results] == expected
    assert outcome.termination_reason == "complete"
    assert outcome.stats["corpus"]["searched"] >= 1
    report.add_row("Micro - substrate components",
                   ["component", "size"],
                   ["corpus_search", len(outcome.results)])
