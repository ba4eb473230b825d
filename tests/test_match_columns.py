"""Seeded differential tests of the node-id match pipeline.

The seed lookup, the match columns and the column-fed stack engine are
checked against independent references on random p-documents with
IND, MUX and EXP nodes, for single- and multi-term queries:

* node-id Indexed Lookup Eager against Scan Eager, the stack-based
  scan and a brute-force postorder pass;
* EagerTopK and PrStack against possible-world enumeration, bit for
  bit.  Edge and subset probabilities are multiples of 1/4, so every
  sum and product of both sides is exact in binary floating point and
  the answers must be identical, not merely close;
* the sanitizer still rejects an out-of-order feed.
"""

import random

import pytest

from repro import Database, build_index, encode_document, topk_search
from repro.analysis import Sanitizer, SanitizerError
from repro.core.engine import StackEngine
from repro.index.matchlist import (MatchList, build_match_entries,
                                   keyword_code_lists)
from repro.prxml.model import NodeType, PDocument, PNode
from repro.slca import indexed_lookup_eager, scan_eager, stack_based_slca
from tests.conftest import coded_document
from tests.test_slca_algorithms import brute_force_slca

QUARTERS = (0.25, 0.5, 0.75, 1.0)
TEXTS = (None, "zz", "k1", "k2", "k3", "k1 k2", "k2 k3")
QUERIES = (["k1", "k2"], ["k1"], ["k3"], ["k1", "k2", "k3"])
SEEDS = range(30)


def dyadic_pdoc(rng: random.Random, max_nodes: int = 12,
                with_exp: bool = False) -> PDocument:
    """A random PrXML{ind,mux[,exp]} document whose edge and subset
    probabilities are multiples of 1/4."""
    kinds = [NodeType.ORDINARY, NodeType.IND, NodeType.MUX]
    weights = [3, 1, 1]
    if with_exp:
        kinds.append(NodeType.EXP)
        weights.append(1)
    root = PNode("r", NodeType.ORDINARY, rng.choice(TEXTS))
    nodes = [root]
    for _ in range(20 * max_nodes):
        if len(nodes) >= max_nodes:
            break
        parent = rng.choice(nodes)
        if parent.node_type is NodeType.MUX:
            room = 1.0 - sum(child.edge_prob for child in parent.children)
            choices = [q for q in QUARTERS if q <= room]
            if not choices:
                continue
            probability = rng.choice(choices)
        elif parent.node_type is NodeType.EXP:
            probability = 1.0  # replaced by the subset marginal
        else:
            probability = rng.choice(QUARTERS)
        kind = rng.choices(kinds, weights=weights)[0]
        ordinary = kind is NodeType.ORDINARY
        child = PNode("n" if ordinary else kind.name, kind,
                      rng.choice(TEXTS) if ordinary else None, probability)
        parent.add_child(child)
        nodes.append(child)

    def prune(node: PNode) -> bool:
        node.children = [child for child in node.children if prune(child)]
        return not node.is_distributional or bool(node.children)

    prune(root)
    for node in root.iter_subtree():
        if node.node_type is NodeType.EXP:
            count = len(node.children)
            subsets = [(tuple(range(1, count + 1)),
                        rng.choice(QUARTERS[:2]))]
            if count > 1:
                subsets.append(((rng.randint(1, count),), 0.25))
            node.set_exp_subsets(subsets)
    return PDocument(root)


def documents():
    for seed in SEEDS:
        for with_exp in (False, True):
            kind = "exp" if with_exp else "ind-mux"
            yield pytest.param(seed, with_exp, id=f"{kind}-{seed}")


@pytest.mark.parametrize("seed,with_exp", documents())
def test_seed_lookup_agrees_with_every_reference(seed, with_exp):
    document = dyadic_pdoc(random.Random(seed), with_exp=with_exp)
    encoded = encode_document(document)
    index = build_index(encoded)
    for keywords in QUERIES:
        terms = index.query_terms(keywords)
        postings = keyword_code_lists(index, terms)
        seeds = indexed_lookup_eager(encoded, postings)
        # The answers are node ids, in document order.
        assert seeds == sorted(set(seeds))
        code_lists = [[encoded.code(node_id) for node_id in ids]
                      for ids in postings]
        ids, masks = build_match_entries(index, terms)
        expected = sorted(encoded.code(node.node_id).positions
                          for node in brute_force_slca(document, terms))
        for name, got in (
                ("indexed_lookup", map(encoded.code, seeds)),
                ("scan_eager", scan_eager(code_lists)),
                ("stack_based",
                 map(encoded.code, stack_based_slca(encoded, ids, masks,
                                                    len(terms))))):
            assert sorted(code.positions for code in got) == expected, \
                (name, keywords)


@pytest.mark.parametrize("seed,with_exp", documents())
def test_column_fed_algorithms_equal_the_oracle_bit_for_bit(seed,
                                                           with_exp):
    document = dyadic_pdoc(random.Random(seed), with_exp=with_exp)
    database = Database.from_document(document)

    def rows(outcome):
        return [(str(result.code), result.probability.hex())
                for result in outcome.results]

    for keywords in QUERIES:
        for k in (1, 3, 100):
            oracle = rows(topk_search(database, keywords, k,
                                      "possible_worlds"))
            for algorithm in ("prstack", "eager"):
                got = rows(topk_search(database, keywords, k, algorithm,
                                       sanitize=True))
                assert got == oracle, (algorithm, keywords, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_subtree_ranges_are_id_ranges(seed):
    """The ``ends`` column and the match list's slices agree with an
    ancestor test over every node."""
    encoded = encode_document(dyadic_pdoc(random.Random(seed),
                                          with_exp=True))
    codes = [encoded.code(node_id) for node_id in range(len(encoded))]
    everything = MatchList(encoded, list(range(len(codes))),
                           [1] * len(codes))
    for node_id, code in enumerate(codes):
        inside = [other_id for other_id, other in enumerate(codes)
                  if code.is_ancestor_or_self_of(other)]
        assert inside == list(range(node_id, encoded.ends[node_id]))
        lo, hi = everything.subtree_slice(node_id)
        assert list(range(lo, hi)) == inside


class TestSanitizedFeed:
    """Feeds over a root with children ``1.1`` (id 1) and ``1.2``
    (id 2)."""

    @staticmethod
    def engine(sanitizer):
        encoded = encode_document(coded_document(["1.2"]))
        return StackEngine(0b1, lambda node, probability: None, encoded,
                           sanitizer=sanitizer)

    def test_out_of_order_feed_raises(self):
        engine = self.engine(Sanitizer())
        engine.feed(2, 0b1)
        with pytest.raises(SanitizerError, match="document-order"):
            engine.feed(1, 0b1)

    def test_repeated_feed_raises(self):
        engine = self.engine(Sanitizer())
        engine.feed(2, 0b1)
        with pytest.raises(SanitizerError, match="document-order"):
            engine.feed(2, 0b1)

    def test_in_order_feed_is_counted(self):
        sanitizer = Sanitizer()
        engine = self.engine(sanitizer)
        engine.feed(1, 0b1)
        engine.feed(2, 0b1)
        engine.finish()
        assert sanitizer.checks > 2
