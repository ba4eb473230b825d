"""Unit tests for the inverted keyword index."""

from array import array

import pytest

from repro import DocumentBuilder, build_index, encode_document
from repro.exceptions import IndexError_, QueryError
from repro.index.inverted import InvertedIndex


@pytest.fixture
def library_index():
    builder = DocumentBuilder("library")
    with builder.element("book"):
        builder.leaf("title", text="xml keyword query")
        builder.leaf("author", text="li")
    with builder.element("book"):
        builder.leaf("title", text="probabilistic query")
        builder.leaf("author", text="liu")
    return build_index(encode_document(builder.build()))


class TestInvertedIndex:
    def test_postings_in_document_order(self, library_index):
        ids = list(library_index.postings("query"))
        assert ids == sorted(ids)
        assert len(ids) == 2

    def test_tag_terms_indexed(self, library_index):
        assert library_index.document_frequency("book") == 2
        assert library_index.document_frequency("title") == 2

    def test_missing_term_empty(self, library_index):
        assert len(library_index.postings("zebra")) == 0
        assert "zebra" not in library_index

    def test_case_insensitive_lookup(self, library_index):
        assert library_index.document_frequency("XML") == 1

    def test_node_matched_once_per_term(self, library_index):
        # "query query" style duplicates within one node collapse.
        for term in library_index.vocabulary():
            ids = list(library_index.postings(term))
            assert len(ids) == len(set(ids))

    def test_vocabulary_sorted(self, library_index):
        vocabulary = library_index.vocabulary()
        assert vocabulary == sorted(vocabulary)
        assert "keyword" in vocabulary

    def test_query_terms_validation(self, library_index):
        assert library_index.query_terms(["XML Keyword"]) == \
            ["xml", "keyword"]
        with pytest.raises(QueryError):
            library_index.query_terms([])
        with pytest.raises(QueryError):
            library_index.query_terms(["..."])

    def test_keyword_lists_align_with_terms(self, library_index):
        terms = library_index.query_terms(["Query", "zebra"])
        assert terms == ["query", "zebra"]
        lists = library_index.keyword_lists(terms)
        assert len(lists[0]) == 2
        assert len(lists[1]) == 0

    def test_label_postings_exact_match(self, library_index):
        assert len(library_index.label_postings("book")) == 2
        assert len(library_index.label_postings("title")) == 2
        # Exact tags only: tokenised sub-terms do not count.
        assert len(library_index.label_postings("boo")) == 0

    def test_label_postings_excludes_distributional(self):
        from repro import DocumentBuilder, encode_document
        builder = DocumentBuilder("r")
        with builder.mux():
            builder.leaf("MUX", prob=0.5)  # ordinary node named "MUX"
        index = build_index(encode_document(builder.build()))
        ids = list(index.label_postings("MUX"))
        assert len(ids) == 1  # only the ordinary one

    def test_ordinary_ids_in_document_order(self, library_index):
        ids = list(library_index.ordinary_ids())
        assert ids == sorted(ids)
        assert len(ids) == len(library_index.encoded.document)

    def test_integrity_check_passes(self, library_index):
        library_index.check_integrity()

    def test_integrity_detects_out_of_range(self, library_index):
        broken = InvertedIndex(library_index.encoded,
                               {"bad": array("q", [999])})
        with pytest.raises(IndexError_, match="out of range"):
            broken.check_integrity()

    def test_integrity_detects_disorder(self, library_index):
        broken = InvertedIndex(library_index.encoded,
                               {"bad": array("q", [3, 2])})
        with pytest.raises(IndexError_, match="increasing"):
            broken.check_integrity()

    def test_integrity_rejects_distributional_postings(self):
        """A posting on an IND, MUX or EXP node would silently drop its
        keyword's bit in the stack engine; the check refuses it."""
        builder = DocumentBuilder("root")
        with builder.ind():
            builder.leaf("a", text="alpha", prob=0.5)
        with builder.mux():
            builder.leaf("b", text="beta", prob=0.5)
        with builder.exp([((1,), 0.5)]):
            builder.leaf("c", text="gamma")
        encoded = encode_document(builder.build())
        ordinary = [node.node_id for node in encoded.document
                    if node.is_ordinary]
        InvertedIndex(encoded, {"alpha": array("q", ordinary)}) \
            .check_integrity()
        for node in encoded.document:
            if node.is_ordinary:
                continue
            broken = InvertedIndex(encoded, {
                "alpha": array("q", ordinary[:1]),
                "beta": array("q", sorted(ordinary[1:] + [node.node_id]))})
            with pytest.raises(IndexError_,
                               match=f"{node.node_type.value} node"):
                broken.check_integrity()


class TestLabelCaseFolding:
    def test_label_lookup_case_insensitive(self):
        from repro import DocumentBuilder, encode_document
        builder = DocumentBuilder("Library")
        builder.leaf("Book", text="one")
        builder.leaf("book", text="two")
        index = build_index(encode_document(builder.build()))
        # Both tag spellings land in one folded bucket, and any lookup
        # case finds it — matching the term postings' behaviour.
        assert len(index.label_postings("book")) == 2
        assert len(index.label_postings("Book")) == 2
        assert len(index.label_postings("BOOK")) == 2

    def test_caller_supplied_map_is_folded(self, library_index):
        rebuilt = InvertedIndex(
            library_index.encoded, dict(library_index.raw_postings()),
            label_postings={"BOOK": array("q", [1])})
        assert list(rebuilt.label_postings("book")) == [1]
        assert list(rebuilt.label_postings("Book")) == [1]

    def test_default_map_derived_from_document(self, library_index):
        rebuilt = InvertedIndex(library_index.encoded,
                                dict(library_index.raw_postings()))
        assert list(rebuilt.label_postings("book")) == \
            list(library_index.label_postings("book"))
