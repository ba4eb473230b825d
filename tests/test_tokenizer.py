"""Unit tests for tokenisation and query normalisation."""

import re

import pytest

from repro import NodeType, PNode
from repro.exceptions import QueryError
from repro.index.tokenizer import node_terms, normalize_query, tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("United States, Graduate!") == \
            ["united", "states", "graduate"]

    def test_digits_kept(self):
        assert tokenize("year 1984") == ["year", "1984"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("... --- !!!") == []

    def test_mixed_alnum_runs(self):
        assert tokenize("top-k x2, a_b") == ["top", "k", "x2", "a", "b"]


class TestNodeTerms:
    def test_tag_and_text_both_match(self):
        node = PNode("title", text="keyword Search")
        assert node_terms(node) == ["title", "keyword", "search"]

    def test_distributional_nodes_never_match(self):
        assert node_terms(PNode("IND", NodeType.IND)) == []
        assert node_terms(PNode("MUX", NodeType.MUX)) == []

    def test_tag_tokenized_too(self):
        node = PNode("open_auction")
        assert node_terms(node) == ["open", "auction"]


class TestNormalizeQuery:
    def test_multiword_keywords_flatten(self):
        assert normalize_query(["United States", "ship"]) == \
            ["united", "states", "ship"]

    def test_duplicates_removed_order_kept(self):
        assert normalize_query(["Query", "query", "xml query"]) == \
            ["query", "xml"]

    def test_empty_query(self):
        assert normalize_query([]) == []

    def test_unindexable_keyword_rejected(self):
        with pytest.raises(QueryError, match="no indexable terms"):
            normalize_query(["..."])
        with pytest.raises(QueryError, match="'---'"):
            normalize_query(["united", "---"])

    def test_non_ascii_terms_survive(self):
        assert normalize_query(["Café Müller"]) == ["café", "müller"]


# -- the index against the tokenizer it replaced -------------------------------

_REFERENCE_PATTERN = re.compile(r"[^\W_]+")


def reference_tokenize(text):
    """The per-match tokenizer the index used before ``findall``:
    lowercase each match of the original text."""
    return [match.group(0).lower()
            for match in _REFERENCE_PATTERN.finditer(text)]


def reference_postings(document):
    """Term and label postings as the index built them before."""
    postings, labels = {}, {}
    for node in document.iter_preorder():
        if node.is_distributional:
            continue
        terms = reference_tokenize(node.label)
        if node.text:
            terms.extend(reference_tokenize(node.text))
        for term in set(terms):
            postings.setdefault(term, []).append(node.node_id)
        labels.setdefault(node.label.lower(), []).append(node.node_id)
    return postings, labels


def unicode_document():
    from repro import DocumentBuilder
    builder = DocumentBuilder("site")
    builder.leaf("open_auction", text="İstanbul bazaar")
    builder.leaf("city", text="İSTANBUL İstanbul istanbul")
    with builder.mux():
        builder.leaf("Café", text="café Crème", prob=0.6)
        builder.leaf("café", text="CAFÉ", prob=0.4)
    builder.leaf("北京", text="北京 大学 open_auction")
    builder.leaf("İstanbul", text="Straße STRASSE ǅemal")
    return builder.build()


def seeded_documents():
    import random
    from tests.conftest import random_pdoc
    for seed in range(20):
        yield pytest.param(
            lambda seed=seed: random_pdoc(
                random.Random(seed), max_nodes=60, with_exp=True,
                keywords=("İstanbul", "café", "北京", "open_auction",
                          "K1")), id=f"seed-{seed}")
    yield pytest.param(unicode_document, id="unicode")

    def dblp():
        from repro.datagen import generate_dblp, make_probabilistic
        return make_probabilistic(generate_dblp(30, seed=9), seed=9)
    yield pytest.param(dblp, id="dblp")


class TestIndexMatchesReferenceTokenizer:
    def test_lowercasing_after_the_split_keeps_dotted_capital_i(self):
        # 'İ'.lower() is 'i' + U+0307, which is not a word character:
        # lowercasing before the split would cut 'İstanbul' in two.
        assert tokenize("İstanbul") == reference_tokenize("İstanbul") \
            == ["i̇stanbul"]
        assert tokenize("北京 café open_auction") == \
            ["北京", "café", "open", "auction"]

    @pytest.mark.parametrize("make", seeded_documents())
    def test_postings_and_label_postings(self, make, tmp_path):
        from repro import (Database, encode_document, load_database,
                           save_database)
        from repro.index.inverted import InvertedIndex
        document = make()
        postings, labels = reference_postings(document)
        built = InvertedIndex.from_document(encode_document(document))
        directory = tmp_path / "db"
        save_database(Database(built.encoded, built), directory)
        loaded = load_database(directory).index
        for index in (built, loaded):
            assert {term: list(ids) for term, ids
                    in index.raw_postings().items()} == postings
            for label, ids in labels.items():
                assert list(index.label_postings(label)) == ids
            assert list(index.label_postings("no-such-tag")) == []
