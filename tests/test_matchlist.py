"""Unit tests for the match columns and the consuming match list."""

import pytest

from repro import DeweyCode, build_index, encode_document
from repro.index.matchlist import (MatchList, build_match_entries,
                                   keyword_code_lists)


@pytest.fixture
def fragment_index(fragment_doc):
    return build_index(encode_document(fragment_doc))


def columns(index, keywords):
    return build_match_entries(index, index.query_terms(keywords))


class TestBuildMatchEntries:
    def test_masks_merge_per_node(self, fragment_index):
        ids, masks = columns(fragment_index, ["k1", "k2"])
        assert len(ids) == len(masks)
        code = fragment_index.encoded.code
        by_code = {str(code(node_id)): mask
                   for node_id, mask in zip(ids, masks)}
        assert by_code["1.M1.I1.1.M1.1"] == 0b01        # D1: k1 only
        assert by_code["1.M1.I1.1.M1.I2.2"] == 0b10     # E1: k2 only

    def test_document_order(self, fragment_index):
        ids, _ = columns(fragment_index, ["k1", "k2"])
        code = fragment_index.encoded.code
        positions = [code(node_id).positions for node_id in ids]
        assert positions == sorted(positions)
        assert list(ids) == sorted(set(ids))

    def test_node_matching_both_terms(self, figure1_db):
        # C1's fragment has no dual-match node; craft the query so one
        # node matches twice: label and text.
        _, masks = columns(figure1_db.index, ["B3", "k1"])
        dual = [mask for mask in masks if bin(mask).count("1") == 2]
        assert dual, "B3 matches both its tag and its text term"

    def test_missing_term_gives_empty_columns(self, fragment_index):
        ids, masks = columns(fragment_index, ["k1", "zebra"])
        assert len(ids) == 0 and masks == []

    def test_keyword_code_lists(self, fragment_index):
        lists = keyword_code_lists(fragment_index, ["k1", "k2"])
        assert lists == [fragment_index.postings("k1"),
                         fragment_index.postings("k2")]
        assert [len(lst) for lst in lists] == [2, 2]


class TestMatchList:
    def build(self, fragment_index):
        return MatchList(fragment_index.encoded,
                         *columns(fragment_index, ["k1", "k2"]))

    @staticmethod
    def node(fragment_index, text):
        return fragment_index.encoded.id_at(DeweyCode.parse(text).positions)

    def test_subtree_slice(self, fragment_index):
        matches = self.build(fragment_index)
        c1 = self.node(fragment_index, "1.M1.I1.1")
        lo, hi = matches.subtree_slice(c1)
        assert hi - lo == 4  # D1, D2, E1, E2
        assert all(c1 <= matches.ids[position]
                   < fragment_index.encoded.ends[c1]
                   for position in range(lo, hi))

    def test_consume_marks_and_removes(self, fragment_index):
        matches = self.build(fragment_index)
        c1 = self.node(fragment_index, "1.M1.I1.1")
        taken = matches.consume_subtree(c1)
        assert taken == list(range(*matches.subtree_slice(c1)))
        assert matches.remaining == len(matches) - 4
        # Nothing under C1 is left to take a second time.
        assert matches.consume_subtree(c1) == []
        assert matches.remaining == len(matches) - 4

    def test_consumption_outside_subtree_untouched(self, fragment_index):
        matches = self.build(fragment_index)
        ind3 = self.node(fragment_index, "1.M1.I1.1.M1.I2")
        taken = matches.consume_subtree(ind3)
        assert len(taken) == 2  # D2, E1
        root = self.node(fragment_index, "1")
        rest = matches.consume_subtree(root)
        assert len(rest) == 2  # D1, E2 remain
        lo, hi = matches.subtree_slice(ind3)
        assert not any(lo <= position < hi for position in rest)
        assert matches.remaining == len(matches) - 4

    def test_unconsumed_mask_union(self, fragment_index):
        matches = self.build(fragment_index)
        root = self.node(fragment_index, "1")
        union = 0
        for position in matches.consume_subtree(root):
            union |= matches.masks[position]
        assert union == 0b11
        assert matches.consume_subtree(root) == []
        assert matches.remaining == 0
