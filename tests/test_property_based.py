"""Property-based tests (hypothesis) for the core invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (Database, DeweyCode, NodeType, PDocument, PNode,
                   encode_document, enumerate_possible_worlds, parse_pxml,
                   serialize_pxml, topk_search)
from repro.core.distribution import DistTable
from repro.core.heap import TopKHeap
from repro.prxml.possible_worlds import world_probability_total
from repro.slca.base import remove_ancestors

# -- strategies --------------------------------------------------------------

_PROBS = st.sampled_from([round(x / 20, 2) for x in range(1, 21)])
_TEXTS = st.sampled_from([None, "k1", "k2", "k1 k2", "zz"])


@st.composite
def pdocuments(draw, max_nodes=14):
    """Random small PrXML{ind,mux} documents."""
    root = PNode("r", NodeType.ORDINARY, draw(_TEXTS))
    nodes = [root]
    budget = draw(st.integers(min_value=0, max_value=max_nodes - 1))
    for _ in range(budget):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        kind = draw(st.sampled_from(
            [NodeType.ORDINARY, NodeType.ORDINARY, NodeType.IND,
             NodeType.MUX]))
        if parent.node_type is NodeType.MUX:
            used = sum(child.edge_prob for child in parent.children)
            remaining = round(1.0 - used, 2)
            if remaining < 0.05:
                continue
            prob = min(draw(_PROBS), remaining)
        else:
            prob = draw(_PROBS)
        text = draw(_TEXTS) if kind is NodeType.ORDINARY else None
        label = "n" if kind is NodeType.ORDINARY else kind.name
        child = PNode(label, kind, text, prob)
        parent.add_child(child)
        nodes.append(child)

    def prune(node):
        node.children = [child for child in node.children if prune(child)]
        return not node.is_distributional or bool(node.children)

    prune(root)
    return PDocument(root)


@st.composite
def dist_tables(draw, bits=2):
    """Random keyword distributions with retained + lost mass = 1."""
    size = 1 << bits
    weights = draw(st.lists(st.integers(0, 10), min_size=size + 1,
                            max_size=size + 1).filter(lambda w: sum(w) > 0))
    total = sum(weights)
    masks = {mask: weight / total
             for mask, weight in enumerate(weights[:-1]) if weight}
    return DistTable(masks, lost=weights[-1] / total)


# -- possible-world semantics --------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(pdocuments())
def test_world_probabilities_sum_to_one(document):
    worlds = enumerate_possible_worlds(document)
    assert math.isclose(world_probability_total(worlds), 1.0,
                        rel_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(pdocuments(), st.sampled_from([["k1"], ["k1", "k2"]]),
       st.integers(1, 6))
def test_algorithms_agree_with_oracle(document, keywords, k):
    database = Database.from_document(document)
    oracle = topk_search(database, keywords, k, "possible_worlds")
    stack = topk_search(database, keywords, k, "prstack")
    eager = topk_search(database, keywords, k, "eager")
    oracle_probs = [r.probability for r in oracle]
    for outcome in (stack, eager):
        probs = [r.probability for r in outcome]
        assert len(probs) == len(oracle_probs)
        assert all(math.isclose(ours, theirs, abs_tol=1e-9)
                   for ours, theirs in zip(probs, oracle_probs))
    # Codes must agree wherever probabilities are strictly above the
    # boundary (ties at the k-th value may legitimately reorder).
    if oracle_probs:
        boundary = oracle_probs[-1]

        def above(outcome):
            return {str(r.code) for r in outcome
                    if r.probability > boundary and not math.isclose(
                        r.probability, boundary, abs_tol=1e-9)}

        for outcome in (stack, eager):
            assert above(outcome) == above(oracle)


# -- distribution tables ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(dist_tables(), _PROBS)
def test_ind_promotion_conserves_mass(table, edge_prob):
    promoted = table.promoted_ind(edge_prob)
    assert math.isclose(promoted.total(), 1.0, rel_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(dist_tables(), _PROBS)
def test_mux_promotion_scales_mass(table, edge_prob):
    promoted = table.promoted_mux(edge_prob)
    assert math.isclose(promoted.total(), edge_prob, rel_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(dist_tables(), dist_tables())
def test_ind_merge_conserves_mass(left, right):
    merged = left.copy()
    merged.merge_ind(right)
    assert math.isclose(merged.total(), 1.0, rel_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(dist_tables())
def test_harvest_conserves_mass(table):
    before = table.total()
    harvested = table.harvest(0b11)
    assert harvested >= 0.0
    assert math.isclose(table.total(), before, rel_tol=1e-9)
    assert table.probability(0b11) == 0.0


# -- encoding ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(pdocuments())
def test_dewey_order_is_document_order(document):
    encoded = encode_document(document)
    positions = [encoded.code(node_id).positions
                 for node_id in range(len(encoded))]
    assert positions == sorted(positions)


@settings(max_examples=60, deadline=None)
@given(pdocuments())
def test_serialization_round_trip(document):
    again = parse_pxml(serialize_pxml(document))
    assert [n.label for n in again] == [n.label for n in document]
    assert [n.node_type for n in again] == \
        [n.node_type for n in document]
    for ours, theirs in zip(document, again):
        assert math.isclose(ours.edge_prob, theirs.edge_prob,
                            rel_tol=1e-9)


# -- extension semantics ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(pdocuments(), st.sampled_from([["k1"], ["k1", "k2"]]))
def test_elca_dominates_slca_pointwise(document, keywords):
    """Consuming occurrences can only help ancestors: every node's ELCA
    probability is at least its SLCA probability, and the deepest
    answers coincide."""
    database = Database.from_document(document)
    slca = topk_search(database, keywords, 1000, "prstack")
    elca = topk_search(database, keywords, 1000, "prstack",
                       semantics="elca")
    slca_by_code = {str(r.code): r.probability for r in slca}
    elca_by_code = {str(r.code): r.probability for r in elca}
    for code, probability in slca_by_code.items():
        assert elca_by_code.get(code, 0.0) >= probability - 1e-9


@settings(max_examples=40, deadline=None)
@given(pdocuments(), st.sampled_from([["k1"], ["k1", "k2"]]))
def test_elca_matches_world_enumeration(document, keywords):
    database = Database.from_document(document)
    oracle = topk_search(database, keywords, 1000, "possible_worlds",
                         semantics="elca")
    stack = topk_search(database, keywords, 1000, "prstack",
                        semantics="elca")
    # Tolerance-based comparison: round-to-N equality is brittle when
    # two 1-ulp-apart floats straddle a rounding boundary.
    assert [r.probability for r in stack] == \
        pytest.approx([r.probability for r in oracle], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([["k1"], ["k1", "k2"]]),
       st.integers(1, 5))
def test_exp_documents_agree_with_oracle(seed, keywords, k):
    import random as random_module
    from tests.conftest import random_pdoc
    document = random_pdoc(random_module.Random(seed), max_nodes=12,
                           with_exp=True)
    database = Database.from_document(document)
    oracle = topk_search(database, keywords, k, "possible_worlds")
    stack = topk_search(database, keywords, k, "prstack")
    eager = topk_search(database, keywords, k, "eager")
    reference = pytest.approx([r.probability for r in oracle],
                              abs=1e-9)
    assert [r.probability for r in stack] == reference
    assert [r.probability for r in eager] == reference


@settings(max_examples=60, deadline=None)
@given(pdocuments(), st.floats(0.01, 1.0))
def test_threshold_consistent_with_topk(document, cutoff):
    from repro import threshold_search
    database = Database.from_document(document)
    everything = topk_search(database, ["k1", "k2"], 1000, "prstack")
    selected = threshold_search(database.index, ["k1", "k2"], cutoff)
    expected = [round(r.probability, 10) for r in everything
                if r.probability >= cutoff]
    assert [round(r.probability, 10) for r in selected] == expected


# -- helpers -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=5),
                min_size=0, max_size=12))
def test_remove_ancestors_yields_antichain(position_lists):
    codes = [DeweyCode(tuple(positions),
                       (NodeType.ORDINARY,) * len(positions))
             for positions in position_lists]
    kept = remove_ancestors(codes)
    for left in kept:
        for right in kept:
            if left != right:
                assert not left.is_ancestor_of(right)
    # Idempotent, and every input code has a kept descendant-or-self.
    assert remove_ancestors(kept) == kept
    for code in codes:
        assert any(code.is_ancestor_or_self_of(survivor)
                   for survivor in kept)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30),
                          st.floats(0.01, 1.0)),
                min_size=0, max_size=30),
       st.integers(1, 5))
def test_heap_matches_reference_sort(offers, k):
    heap = TopKHeap(k)
    best = {}
    for position, probability in offers:
        code = DeweyCode((1, position), (NodeType.ORDINARY,) * 2)
        heap.offer(code, probability)
        if probability > best.get(code, 0.0):
            best[code] = probability
    expected = sorted(best.items(),
                      key=lambda item: (-item[1], item[0].positions))[:k]
    got = heap.ranked()
    assert got == expected
