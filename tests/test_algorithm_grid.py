"""The algorithm slice of the differential grid: EagerTopK against
PrStack over seeded random p-documents with IND, MUX and EXP nodes.

Every cell runs both algorithms sanitized (docs/ANALYSIS.md).  EagerTopK
must return PrStack's answers bit for bit, its post-run dominance proof
must verify every pruning bound it used, and it must never sweep a
candidate that is not an ordinary node: a distributional node is no
SLCA answer, so its node bound is 0 and it is always suspended.
"""

import random

import pytest

from repro import MetricsCollector, SpanTracer, topk_search
from repro.encoding.dewey import DeweyCode
from repro.index.matchlist import keyword_code_lists
from repro.index.storage import Database
from repro.prxml.model import NodeType
from repro.slca.indexed_lookup import indexed_lookup_eager
from tests.conftest import random_pdoc

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
