"""Cross-checks of the deterministic SLCA algorithms (substrate [12]).

Indexed Lookup Eager, Scan Eager and the stack-based scan must agree
with each other and with an independent postorder brute force, on the
paper fixtures and on seeded random documents.
"""

import random

import pytest

from repro import build_index, encode_document
from repro.index.matchlist import build_match_entries, keyword_code_lists
from repro.index.tokenizer import node_terms
from repro.slca import (indexed_lookup_eager, scan_eager, stack_based_slca)
from repro.slca.base import remove_ancestors
from tests.conftest import random_pdoc


def brute_force_slca(document, terms):
    """Independent reference: postorder subtree masks on the skeleton."""
    full = (1 << len(terms)) - 1
    masks = {}
    answers = []
    for node in document.iter_postorder():
        mask = 0
        own = set(node_terms(node))
        for bit, term in enumerate(terms):
            if term in own:
                mask |= 1 << bit
        child_full = False
        for child in node.children:
            mask |= masks[child.node_id]
            if masks[child.node_id] == full:
                child_full = True
        masks[node.node_id] = mask
        if full and mask == full and not child_full:
            answers.append(node)
    return answers


def all_algorithms(document, keywords):
    encoded = encode_document(document)
    index = build_index(encoded)
    terms = index.query_terms(keywords)
    postings = keyword_code_lists(index, terms)
    code_lists = [[encoded.code(node_id) for node_id in ids]
                  for ids in postings]
    ids, masks = build_match_entries(index, terms)
    expected = sorted(
        encoded.code(node.node_id).positions
        for node in brute_force_slca(document, terms))
    results = {
        "indexed_lookup": [
            encoded.code(node_id)
            for node_id in indexed_lookup_eager(encoded, postings)],
        "scan_eager": scan_eager(code_lists),
        "stack_based": [
            encoded.code(node_id)
            for node_id in stack_based_slca(encoded, ids, masks,
                                            len(terms))],
    }
    return expected, {name: sorted(code.positions for code in codes)
                      for name, codes in results.items()}


class TestAgainstBruteForce:
    def test_figure1_document(self, figure1_doc):
        expected, results = all_algorithms(figure1_doc, ["k1", "k2"])
        for name, got in results.items():
            assert got == expected, name

    def test_single_keyword(self, figure1_doc):
        expected, results = all_algorithms(figure1_doc, ["k1"])
        for name, got in results.items():
            assert got == expected, name

    def test_missing_keyword_gives_nothing(self, figure1_doc):
        _, results = all_algorithms(figure1_doc, ["k1", "zebra"])
        for name, got in results.items():
            assert got == [], name

    @pytest.mark.parametrize("seed", range(40))
    def test_random_documents(self, seed):
        rng = random.Random(seed)
        document = random_pdoc(rng, max_nodes=40,
                               keywords=("k1", "k2", "k3"))
        for keywords in (["k1", "k2"], ["k1"], ["k1", "k2", "k3"]):
            expected, results = all_algorithms(document, keywords)
            for name, got in results.items():
                assert got == expected, (name, seed, keywords)


class TestRemoveAncestors:
    def test_keeps_deepest(self):
        from repro import DeweyCode
        codes = [DeweyCode.parse(text)
                 for text in ("1", "1.2", "1.2.3", "1.3")]
        kept = remove_ancestors(codes)
        assert [str(code) for code in kept] == ["1.2.3", "1.3"]

    def test_duplicates_collapse(self):
        from repro import DeweyCode
        codes = [DeweyCode.parse("1.2"), DeweyCode.parse("1.2")]
        assert len(remove_ancestors(codes)) == 1

    def test_unsorted_input_accepted(self):
        from repro import DeweyCode
        codes = [DeweyCode.parse(text) for text in ("1.3", "1.2.3", "1.2")]
        kept = remove_ancestors(codes)
        assert [str(code) for code in kept] == ["1.2.3", "1.3"]
